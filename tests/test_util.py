import csv
import os
import pickle
import re
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from trendnet.errors import TrendnetError
from trendnet.ingest import parse_daily_segment, parse_stitched, parse_weekly
from trendnet.netstat import parse_metrics_csv
from trendnet.registry import KeywordRegistry
from trendnet.timeline import load_events
from trendnet.util import (
    csv_records,
    csv_rows,
    default_periods,
    forked_map,
    iso_date,
    month_starts,
)

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


def test_csv_rows_number_every_row_blank_ones_included():
    text = 'a,b\n\n"x\ny",z\n\r\nc\n'
    assert list(csv_rows(text)) == [(1, ["a", "b"]), (2, []), (4, ["x\ny", "z"]), (5, []),
                                    (6, ["c"])]


# Two rows each parser reads without complaint, before the unreadable third.
READABLE_ROWS = {
    parse_daily_segment: "Day,cough: (Philippines)\n2020-03-16,100\n",
    parse_weekly: "Week,cough\n2020-03-15,100\n",
    parse_stitched: "date,value\n2020-03-16,1.5\n",
    KeywordRegistry.from_csv: "keyword,category\ncough,SymptomsEnglish\n",
    load_events: "date,label,category\n2020-04-01,ok,Policy\n",
    parse_metrics_csv: "label_date,window_days,threshold,edge_count,density,clustering_global,"
                       "clustering_avg_local\n2020-03-30,15,0.5,3,0.2,0.1,0.1\n",
}


@pytest.mark.parametrize("parse", READABLE_ROWS, ids=lambda parse: parse.__name__)
@pytest.mark.parametrize("row, message", [
    ("2020-03-17," + "1" * (csv.field_size_limit() + 1),
     f"field larger than field limit ({csv.field_size_limit()})"),
    ("2020-03-17,5\r0,x", "new-line character seen in unquoted field"),
], ids=["over-field-limit", "bare-cr"])
def test_unreadable_row_is_an_error_naming_its_line(parse, row, message):
    with pytest.raises(TrendnetError, match=f"^line 3: {re.escape(message)}"):
        parse(READABLE_ROWS[parse] + row + "\n")


def test_trendnet_error_pickles_with_its_code():
    err = pickle.loads(pickle.dumps(TrendnetError("window of 400 days exceeds 365 days", 4)))
    assert type(err) is TrendnetError
    assert (str(err), err.code) == ("window of 400 days exceeds 365 days", 4)


@pytest.fixture()
def three_cpus(monkeypatch):
    """Shows `forked_map` 3 CPUs; returns the list that records each fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    return forks


@pytest.mark.parametrize("items, most, parts", [
    (range(7), None, [range(0, 2), range(2, 4), range(4, 7)]),
    (range(7), 2, [range(0, 3), range(3, 7)]),
    (range(7), 0, [range(0, 7)]),
    ([15, 30], None, [[15], [30]]),
])
def test_forked_map_cuts_contiguous_parts_one_per_worker(three_cpus, items, most, parts):
    results = forked_map(lambda part: [part, os.getpid()], items, str, most=most)
    assert [part for part, _ in results] == parts
    assert len(three_cpus) == len(parts) - 1
    assert results[0][1] == os.getpid() and len({pid for _, pid in results}) == len(parts)


def test_forked_map_raises_the_earliest_failing_part_with_its_code(three_cpus):
    def work(part):
        if part[0]:
            raise TrendnetError(f"part {part[0]}", 3 + part[0])
        return part

    with pytest.raises(TrendnetError, match="^part 1$") as info:
        forked_map(work, [0, 1, 2], str)
    assert info.value.code == 4
    assert len(three_cpus) == 2
    with pytest.raises(ChildProcessError):  # both children were waited for
        os.waitpid(-1, os.WNOHANG)


def test_forked_map_own_part_error_wins_after_waiting(three_cpus):
    def work(part):
        raise TrendnetError(f"part {part[0]}")

    with pytest.raises(TrendnetError, match="^part 0$"):
        forked_map(work, [0, 1, 2], str)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
