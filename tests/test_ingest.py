from datetime import date

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendnet.ingest import (
    WEEK,
    assemble_daily,
    emit_daily_csv,
    parse_daily_segment,
    parse_stitched,
    parse_weekly,
)

from helpers import DAY, by_test_id, daily_csv, daily_series, weekly_csv, weekly_series

D = date(2020, 3, 16)

GOOGLE_PREAMBLE = "Category: All categories\n\nDay,cough: (Philippines)\n"


def test_parse_daily_segment_well_formed():
    values = list(range(0, 93, 3))  # 31 values, 0..90
    values[-1] = 100
    seg = parse_daily_segment(daily_csv(D, values))
    assert len(seg) == 31
    assert (seg.start_date, seg.step, seg.end_date) == (D, DAY, D + 30 * DAY)
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


def test_parse_daily_segment_warns_without_normalization_peak():
    with pytest.warns(UserWarning, match="max 60") as caught:
        parse_daily_segment(daily_csv(D, [10, 60, 30]))
    assert caught[0].filename == __file__  # the warning names the parser's caller


def test_parse_daily_segment_all_zero_no_warning(recwarn):
    parse_daily_segment(daily_csv(D, [0, 0, 0]))
    assert not recwarn.list


def test_parse_weekly_well_formed():
    weekly = parse_weekly(weekly_csv(date(2020, 3, 15), range(0, 53)))
    assert (weekly.start_date, weekly.step) == (date(2020, 3, 15), WEEK)
    assert weekly.end_date == date(2020, 3, 15) + 7 * 52 * DAY
    assert weekly.values.tolist() == [float(v) for v in range(0, 53)]


def test_parse_weekly_censored_value():
    weekly = parse_weekly("2020-03-15,<1\n2020-03-22,100\n")
    assert weekly.start_date == date(2020, 3, 15)
    assert weekly.values.tolist() == [0.5, 100.0]


def test_assemble_daily_contiguous_segments():
    segs = [
        daily_series([100] * 31, D),  # through 2020-04-15
        daily_series([100] * 31, date(2020, 4, 16)),  # through 2020-05-16
        daily_series([100] * 10, date(2020, 5, 17)),
    ]
    series = assemble_daily(segs)
    assert len(series) == 72
    assert series.start_date == D
    assert series.end_date == date(2020, 5, 26)
    assert series.values.tolist() == [100.0] * 72


def test_assemble_daily_trims_to_span():
    series = assemble_daily(
        [daily_series(list(range(70, 101)), D)], span=(D + DAY, D + 5 * DAY)
    )
    assert series.start_date == D + DAY
    assert series.end_date == D + 5 * DAY
    assert series.values.tolist() == [71.0, 72.0, 73.0, 74.0, 75.0]


def test_assemble_daily_sorts_segments():
    segs = [daily_series([0] * 5, date(2020, 4, 16)), daily_series([100] * 31, D)]
    series = assemble_daily(segs)
    assert series.start_date == D
    assert series.values.tolist() == [100.0] * 31 + [0.0] * 5


def test_parse_stitched_allows_values_over_100():
    text = "date,value\n2020-03-16,104.375\n2020-03-17,0.5\n"
    series = parse_stitched(text)
    assert series.values.tolist() == [104.375, 0.5]


@given(
    st.lists(
        st.floats(min_value=0, max_value=250, allow_nan=False, width=64),
        min_size=1,
        max_size=40,
    )
)
def test_stitched_csv_round_trip(values):
    series = daily_series(values, D)
    assert same_series(parse_stitched(emit_daily_csv(series)), series)


def test_raw_csv_round_trip_with_censored_export():
    seg = parse_daily_segment("2020-03-16,<1\n2020-03-17,100\n")
    text = emit_daily_csv(seg)
    assert text == "date,value\n2020-03-16,0.5\n2020-03-17,100.0\n"
    assert same_series(parse_daily_segment(text), seg)


def same_series(a, b):
    return (a.start_date, a.step, a.values.tolist()) == (b.start_date, b.step, b.values.tolist())


def outside(when, token, upper="100.0"):
    return f"{when}: value {token} outside [0,{upper}]"


def unparseable(when, token):
    return f"{when}: unparseable value {token!r}"


FAILURES = [  # (test id, call, message)
    ("test_parse_daily_segment_gap_is_error",
     lambda: parse_daily_segment("2020-03-17,10\n2020-03-19,20\n"),
     "expected 2020-03-18 after 2020-03-17, got 2020-03-19"),
    ("test_parse_daily_segment_duplicate_is_error",
     lambda: parse_daily_segment("2020-03-17,10\n2020-03-17,20\n"),
     "expected 2020-03-18 after 2020-03-17, got 2020-03-17"),
    *[(f"test_parse_daily_segment_value_out_of_range[{bad}]",
       lambda bad=bad: parse_daily_segment(f"2020-03-16,{bad}\n2020-03-17,5\n"), message)
      for bad, message in [("101", outside(D, "101")), ("-3", outside(D, "-3")),
                           ("1e9", outside(D, "1e9")), ("nan", outside(D, "nan")),
                           ("abc", unparseable(D, "abc")), ("5_0", unparseable(D, "5_0"))]],
    ("test_parse_daily_segment_empty", lambda: parse_daily_segment(GOOGLE_PREAMBLE),
     "no data rows"),
    ("test_parse_weekly_irregular_spacing", lambda: parse_weekly("2020-03-15,10\n2020-03-21,20\n"),
     "expected 2020-03-22 after 2020-03-15, got 2020-03-21"),
    ("test_parse_weekly_empty", lambda: parse_weekly("Week,flu\n"), "no data rows"),
    ("test_assemble_daily_no_segments", lambda: assemble_daily([]), "no segments to assemble"),
    ("test_assemble_daily_overlap",
     lambda: assemble_daily([daily_series([100] * 31, D),
                             daily_series([100] * 5, date(2020, 4, 15))]),
     "segments overlap at 2020-04-15 (previous segment runs through 2020-04-15)"),
    ("test_assemble_daily_gap",
     lambda: assemble_daily([daily_series([100] * 31, D),
                             daily_series([100] * 5, date(2020, 4, 18))]),
     "missing date 2020-04-16 between segments (2020-04-15 -> 2020-04-18)"),
    ("test_assemble_daily_span_not_covered",
     lambda: assemble_daily([daily_series([100] * 10, D)], span=(D, date(2021, 3, 15))),
     "assembled span 2020-03-16..2020-03-25 does not cover 2020-03-16..2021-03-15"),
    ("test_assemble_daily_weekly_segment_rejected",
     lambda: assemble_daily([daily_series([100] * 7, D), weekly_series([100] * 5, D + 7 * DAY)]),
     "segment starting 2020-03-23: 7-day step, expected 1-day"),
    ("test_emit_daily_csv_weekly_series_rejected",
     lambda: emit_daily_csv(parse_weekly("2020-03-15,10\n2020-03-22,20\n2020-03-29,30\n")),
     "series: 7-day step, expected 1-day"),
    ("test_assemble_daily_inverted_span",
     lambda: assemble_daily([daily_series([100] * 10, D)], span=(D + 4 * DAY, D + 2 * DAY)),
     "span start 2020-03-20 is after its end 2020-03-18"),
    *[(f"test_parse_weekly_value_out_of_range[{bad}]",
       lambda bad=bad: parse_weekly(f"2020-03-15,{bad}\n2020-03-22,5\n"),
       outside(date(2020, 3, 15), bad)) for bad in ("101", "1e9")],
    *[(f"test_parse_stitched_value_out_of_range[{bad}]",
       lambda bad=bad: parse_stitched(f"2020-03-16,{bad}\n2020-03-17,5\n"), message)
      for bad, message in [("-3", outside(D, "-3", "inf")), ("nan", outside(D, "nan", "inf")),
                           ("inf", outside(D, "inf", "inf")), ("abc", unparseable(D, "abc"))]],
    ("test_parse_stitched_rejects_gaps", lambda: parse_stitched("2020-03-16,1.0\n2020-03-18,2.0\n"),
     "expected 2020-03-17 after 2020-03-16, got 2020-03-18"),
    ("test_parse_stitched_rejects_duplicates",
     lambda: parse_stitched("2020-03-16,1.0\n2020-03-16,2.0\n"),
     "expected 2020-03-17 after 2020-03-16, got 2020-03-16"),
    *[(f"test_mistyped_date_after_first_row_names_line[{name}]", lambda parse=parse, text=text:
       parse(text), f"line {line}: date {bad!r} does not parse")
      for name, parse, text, line, bad in [
          ("daily-last-row", parse_daily_segment,
           "2020-04-01,100\n2020-04-02,100\n2020-04-O3,70\n", 3, "2020-04-O3"),
          ("stitched-mid-file", parse_stitched,
           "date,value\n2020-04-01,1.5\n2020-04-0x,2.5\n2020-04-03,3.5\n", 3, "2020-04-0x"),
          ("weekly-mid-file", parse_weekly,
           "Week,flu\n2020-03-15,10\n2020-03-22,20\n2020-0329,30\n2020-04-05,40\n", 4,
           "2020-0329"),
          ("daily-first-row", parse_daily_segment,
           "20200316,50\n2020-03-17,100\n2020-03-18,40\n", 1, "20200316"),
          ("daily-first-row-after-preamble", parse_daily_segment,
           GOOGLE_PREAMBLE + "2020-03-l6,3\n2020-03-17,100\n", 4, "2020-03-l6"),
      ]],
]
globals().update(by_test_id(FAILURES))
