import re
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from trendnet.errors import TrendnetError
from trendnet.registry import KeywordRegistry
from trendnet.timeline import load_events
from trendnet.util import csv_records, default_periods, iso_date, month_starts

DAY = timedelta(days=1)
QUARTER_MONTHS = (1, 4, 7, 10)


def days(first, last):
    return [first + i * DAY for i in range((last - first).days + 1)]


def brute_default_periods(data_start, last_label):
    """Each quarter starting in [data_start, last_label], walked a day at a time to its end."""
    periods = []
    for start in days(data_start, last_label):
        if start.day == 1 and start.month in QUARTER_MONTHS:
            end = start
            while not ((end + DAY).day == 1 and (end + DAY).month in QUARTER_MONTHS):
                end += DAY
            periods.append((start, end))
    return periods


spans = st.tuples(st.dates(date(1990, 1, 1), date(2060, 12, 31)), st.integers(-40, 1200))


@given(spans, st.sampled_from([1, 2, 3, 4, 6, 12]))
def test_month_starts_match_a_day_by_day_walk(span, every):
    first, length = span
    last = first + length * DAY
    assert month_starts(first, last, every) == [
        d for d in days(first, last) if d.day == 1 and (d.month - 1) % every == 0
    ]


@given(spans)
def test_default_periods_match_a_day_by_day_walk(span):
    data_start, length = span
    last_label = data_start + length * DAY
    assert default_periods(data_start, last_label) == brute_default_periods(data_start, last_label)


@pytest.mark.parametrize("text", [
    "20200401", "2020-W14-5", "2020W141", "2020-W14", "2020-04-1", " 2020-04-01", "2020-13-01",
    "2020-04-31", "",
])
def test_iso_date_reads_only_yyyy_mm_dd(text):
    with pytest.raises(ValueError):
        iso_date(text)


def test_csv_records_skip_blank_rows_and_a_first_row_header_only():
    text = "a,b\n\n , \n x , y ,z\na,b\n"
    assert list(csv_records(text, ["a", "b"])) == [(4, ["x", "y", "z"]), (5, ["a", "b"])]


@pytest.mark.parametrize("parse, text, message", [
    (KeywordRegistry.from_csv, "keyword,category\ncough,SymptomsEnglish\n\nfever\n",
     "line 4: row needs keyword,category: ['fever']"),
    (load_events, "date,label,category\n2020-04-01,ok,Policy\n\n2020-04-02,short\n",
     "line 4: row needs date,label,category: ['2020-04-02', 'short']"),
], ids=["registry", "events"])
def test_short_row_names_its_line_and_the_columns(parse, text, message):
    with pytest.raises(TrendnetError, match=f"^{re.escape(message)}$"):
        parse(text)
