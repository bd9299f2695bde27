import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendnet.errors import TrendnetError
from trendnet.ingest import (
    DailySeries,
    assemble_daily,
    emit_daily_csv,
    parse_daily_segment,
    parse_stitched,
    parse_weekly,
)

from helpers import daily_csv, weekly_csv

D = date(2020, 3, 16)
DAY = timedelta(days=1)

GOOGLE_PREAMBLE = "Category: All categories\n\nDay,cough: (Philippines)\n"


def test_parse_daily_segment_well_formed():
    values = list(range(0, 93, 3))  # 31 values, 0..90
    values[-1] = 100
    seg = parse_daily_segment(daily_csv(D, values))
    assert len(seg) == 31
    assert seg.start_date == D
    assert seg.end_date == D + 30 * DAY
    assert seg.values.dtype == np.float64
    assert seg.values.tolist() == [float(v) for v in values]


def test_parse_daily_segment_skips_preamble():
    seg = parse_daily_segment(daily_csv(D, [0, 50, 100], preamble=GOOGLE_PREAMBLE))
    assert (seg.start_date, seg.end_date) == (D, D + 2 * DAY)
    assert seg.values.tolist() == [0.0, 50.0, 100.0]


def test_parse_daily_segment_censored_value_maps_to_half():
    text = "2020-03-19,100\n2020-03-20,<1\n2020-03-21,3\n"
    seg = parse_daily_segment(text)
    assert seg.start_date == date(2020, 3, 19)
    assert seg.values[1] == 0.5


def test_parse_daily_segment_gap_is_error():
    text = "2020-03-17,10\n2020-03-19,20\n"
    with pytest.raises(TrendnetError, match="2020-03-18"):
        parse_daily_segment(text)


def test_parse_daily_segment_duplicate_is_error():
    text = "2020-03-17,10\n2020-03-17,20\n"
    message = "^expected 2020-03-18 after 2020-03-17, got 2020-03-17$"
    with pytest.raises(TrendnetError, match=message):
        parse_daily_segment(text)


@pytest.mark.parametrize("bad", ["101", "-3", "1e9", "nan", "abc"])
def test_parse_daily_segment_value_out_of_range(bad):
    message = rf"^2020-03-16: (value {bad} outside \[0,100.0\]|unparseable value '{bad}')$"
    with pytest.raises(TrendnetError, match=message):
        parse_daily_segment(f"2020-03-16,{bad}\n2020-03-17,5\n")


def test_parse_daily_segment_empty():
    with pytest.raises(TrendnetError, match="^no data rows$"):
        parse_daily_segment(GOOGLE_PREAMBLE)


def test_parse_daily_segment_warns_without_normalization_peak():
    with pytest.warns(UserWarning, match="max 60"):
        parse_daily_segment(daily_csv(D, [10, 60, 30]))


def test_parse_daily_segment_all_zero_no_warning(recwarn):
    parse_daily_segment(daily_csv(D, [0, 0, 0]))
    assert not recwarn.list


def test_parse_weekly_well_formed():
    weekly = parse_weekly(weekly_csv(date(2020, 3, 15), range(0, 53)))
    assert weekly.start_date == date(2020, 3, 15)
    assert weekly.values.tolist() == [float(v) for v in range(0, 53)]


def test_parse_weekly_censored_value():
    weekly = parse_weekly("2020-03-15,<1\n2020-03-22,100\n")
    assert weekly.start_date == date(2020, 3, 15)
    assert weekly.values.tolist() == [0.5, 100.0]


def test_parse_weekly_irregular_spacing():
    text = "2020-03-15,10\n2020-03-21,20\n"
    message = "^expected 2020-03-22 after 2020-03-15, got 2020-03-21$"
    with pytest.raises(TrendnetError, match=message):
        parse_weekly(text)


def test_parse_weekly_empty():
    with pytest.raises(TrendnetError, match="^no data rows$"):
        parse_weekly("Week,flu\n")


def _segment(start: date, values):
    return parse_daily_segment(daily_csv(start, values))


def test_assemble_daily_contiguous_segments():
    segs = [
        _segment(D, [100] * 31),                 # through 2020-04-15
        _segment(date(2020, 4, 16), [100] * 31), # through 2020-05-16
        _segment(date(2020, 5, 17), [100] * 10),
    ]
    series = assemble_daily(segs)
    assert len(series) == 72
    assert series.start_date == D
    assert series.end_date == date(2020, 5, 26)
    assert series.values.tolist() == [100.0] * 72


def test_assemble_daily_overlap():
    segs = [_segment(D, [100] * 31), _segment(date(2020, 4, 15), [100] * 5)]
    with pytest.raises(TrendnetError, match="2020-04-15"):
        assemble_daily(segs)


def test_assemble_daily_gap():
    segs = [_segment(D, [100] * 31), _segment(date(2020, 4, 18), [100] * 5)]
    with pytest.raises(TrendnetError, match="2020-04-16"):
        assemble_daily(segs)


def test_assemble_daily_span_not_covered():
    message = r"^assembled span 2020-03-16\.\.2020-03-25 does not cover 2020-03-16\.\."
    with pytest.raises(TrendnetError, match=message):
        assemble_daily([_segment(D, [100] * 10)], span=(D, date(2021, 3, 15)))


def test_assemble_daily_inverted_span():
    with pytest.raises(TrendnetError, match="span start 2020-03-20 is after its end 2020-03-18"):
        assemble_daily([_segment(D, [100] * 10)], span=(D + 4 * DAY, D + 2 * DAY))


def test_assemble_daily_trims_to_span():
    series = assemble_daily(
        [_segment(D, list(range(70, 101)))], span=(D + DAY, D + 5 * DAY)
    )
    assert series.start_date == D + DAY
    assert series.end_date == D + 5 * DAY
    assert series.values.tolist() == [71.0, 72.0, 73.0, 74.0, 75.0]


def test_assemble_daily_sorts_segments():
    segs = [_segment(date(2020, 4, 16), [0] * 5), _segment(D, [100] * 31)]
    series = assemble_daily(segs)
    assert series.start_date == D
    assert series.values.tolist() == [100.0] * 31 + [0.0] * 5


def test_parse_stitched_allows_values_over_100():
    text = "date,value\n2020-03-16,104.375\n2020-03-17,0.5\n"
    series = parse_stitched(text)
    assert series.values.tolist() == [104.375, 0.5]


@pytest.mark.parametrize("bad", ["101", "1e9"])
def test_parse_weekly_value_out_of_range(bad):
    with pytest.raises(TrendnetError, match=r"outside \[0,100.0\]"):
        parse_weekly(f"2020-03-15,{bad}\n2020-03-22,5\n")


@pytest.mark.parametrize("bad", ["-3", "nan", "inf", "abc"])
def test_parse_stitched_value_out_of_range(bad):
    with pytest.raises(TrendnetError, match="2020-03-16"):
        parse_stitched(f"2020-03-16,{bad}\n2020-03-17,5\n")


def test_parse_stitched_rejects_gaps():
    gap = "^expected 2020-03-17 after 2020-03-16, got 2020-03-18$"
    with pytest.raises(TrendnetError, match=gap):
        parse_stitched("2020-03-16,1.0\n2020-03-18,2.0\n")
    duplicate = "^expected 2020-03-17 after 2020-03-16, got 2020-03-16$"
    with pytest.raises(TrendnetError, match=duplicate):
        parse_stitched("2020-03-16,1.0\n2020-03-16,2.0\n")


@given(
    st.lists(
        st.floats(min_value=0, max_value=250, allow_nan=False, width=64),
        min_size=1,
        max_size=40,
    )
)
def test_stitched_csv_round_trip(values):
    series = DailySeries(D, np.array(values))
    assert same_series(parse_stitched(emit_daily_csv(series)), series)


def test_raw_csv_round_trip_with_censored_export():
    seg = parse_daily_segment("2020-03-16,<1\n2020-03-17,100\n")
    text = emit_daily_csv(seg)
    assert text == "date,value\n2020-03-16,0.5\n2020-03-17,100.0\n"
    assert same_series(parse_daily_segment(text), seg)


def same_series(a, b):
    return (a.start_date, a.values.tolist()) == (b.start_date, b.values.tolist())


@pytest.mark.parametrize("parse, text, message", [
    (parse_daily_segment, "2020-04-01,100\n2020-04-02,100\n2020-04-O3,70\n",
     "line 3: date '2020-04-O3' does not parse"),
    (parse_stitched, "date,value\n2020-04-01,1.5\n2020-04-0x,2.5\n2020-04-03,3.5\n",
     "line 3: date '2020-04-0x' does not parse"),
    (parse_weekly, "Week,flu\n2020-03-15,10\n2020-03-22,20\n2020-0329,30\n2020-04-05,40\n",
     "line 4: date '2020-0329' does not parse"),
    (parse_daily_segment, "20200316,50\n2020-03-17,100\n2020-03-18,40\n",
     "line 1: date '20200316' does not parse"),
    (parse_daily_segment, GOOGLE_PREAMBLE + "2020-03-l6,3\n2020-03-17,100\n",
     "line 4: date '2020-03-l6' does not parse"),
], ids=["daily-last-row", "stitched-mid-file", "weekly-mid-file", "daily-first-row",
        "daily-first-row-after-preamble"])
def test_mistyped_date_after_first_row_names_line(parse, text, message):
    with pytest.raises(TrendnetError, match=f"^{re.escape(message)}$"):
        parse(text)
