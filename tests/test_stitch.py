import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendnet.stitch import stitch_series

from helpers import DAY, SPAN_START, by_test_id, daily_series, weekly_series

W0 = SPAN_START  # a Monday


def week_means(daily, weekly):
    """Per-week (mean, count) of the daily values, by direct grouping."""
    offset = (daily.start_date - weekly.start_date).days
    groups = [[] for _ in weekly.values]
    for i, value in enumerate(daily.values.tolist()):
        groups[(offset + i) // 7].append(value)
    return [(sum(g) / len(g) if g else 0.0, len(g)) for g in groups]


def test_weekly_metrics_full_week():
    # a full week averaging 40 under a weekly value of 50: weight 1.25
    rescaled = stitch_series(daily_series([10, 20, 30, 40, 50, 60, 70]), weekly_series([50]))
    assert rescaled.values.tolist() == [12.5, 25.0, 37.5, 50.0, 62.5, 75.0, 87.5]


def test_weekly_metrics_empty_week():
    # the first week holds no days; the second averages 2 under a weekly 40
    daily = daily_series([1, 2, 3], start=W0 + 7 * DAY)
    rescaled = stitch_series(daily, weekly_series([80, 40]))
    assert rescaled.start_date == W0 + 7 * DAY
    assert rescaled.values.tolist() == [20.0, 40.0, 60.0]


def test_weekly_metrics_partial_week():
    # three days averaging 20 under a weekly 25: weight 1.25
    rescaled = stitch_series(daily_series([10, 20, 30]), weekly_series([25]))
    assert rescaled.values.tolist() == [12.5, 25.0, 37.5]


def test_weights_piecewise_rule():
    # weight = weekly / mean: 50/40 = 1.25, 37/37 = 1, and 1 for an all-zero week
    daily = daily_series([40] * 7 + [37] * 7 + [0] * 7)
    rescaled = stitch_series(daily, weekly_series([50, 37, 80]))
    assert rescaled.values.tolist() == [50.0] * 7 + [37.0] * 7 + [0.0] * 7


def test_rescale_multiplies_by_week_weight():
    daily = daily_series([10, 0, 40, 10, 20, 30, 30])
    rescaled = stitch_series(daily, weekly_series([25]))  # 25 over daily avg 140/7 = 20
    assert rescaled.values.tolist() == (daily.values * 1.25).tolist()
    assert rescaled.values[0] == 12.5
    assert rescaled.values[1] == 0.0
    assert rescaled.start_date == daily.start_date and len(rescaled) == len(daily)


def test_rescale_zero_avg_week_passes_values_through():
    daily = daily_series([0, 0, 0, 0, 0, 0, 0, 5, 10, 5, 10, 5, 10, 20])
    rescaled = stitch_series(daily, weekly_series([60, 50]))
    assert rescaled.values[:7].tolist() == daily.values[:7].tolist()
    assert rescaled.values[7:] == pytest.approx(daily.values[7:] * (50 / (65 / 7)))


COVERAGE = "outside weekly coverage [2020-03-16, 2020-03-23)"
FAILURES = [  # (test id, call, message)
    ("test_weekly_metrics_uncovered_date",
     lambda: stitch_series(daily_series([1], start=W0 - DAY), weekly_series([50])),
     f"daily date 2020-03-15 {COVERAGE}"),
    ("test_weekly_metrics_uncovered_last_date",
     lambda: stitch_series(daily_series([1] * 8), weekly_series([50])),
     f"daily date 2020-03-23 {COVERAGE}"),
    ("test_rescale_uncovered_date",
     lambda: stitch_series(daily_series([1] * 8), weekly_series([10])), f"daily date 2020-03-23 {COVERAGE}"),
]
globals().update(by_test_id(FAILURES))


# Export values are either 0 or at least the 0.5 the censored `<1` maps to.
rsv_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.5, max_value=100, allow_nan=False, width=64),
)


@st.composite
def daily_and_weekly(draw):
    n_weeks = draw(st.integers(min_value=1, max_value=8))
    lead = draw(st.integers(min_value=0, max_value=6))
    n_days = draw(st.integers(min_value=1, max_value=n_weeks * 7 - lead))
    values = draw(st.lists(rsv_values, min_size=n_days, max_size=n_days))
    weekly = draw(st.lists(rsv_values, min_size=n_weeks, max_size=n_weeks))
    return daily_series(values, start=W0 + lead * DAY), weekly_series(weekly)


def running_sum_stitch(daily, weekly):
    """The definitional stitch: running week sums in day order, then
    value * weekly/avg, or the value itself where avg is 0."""
    offset = (daily.start_date - weekly.start_date).days
    sums = [0.0] * len(weekly.values)
    counts = [0] * len(weekly.values)
    for i, value in enumerate(daily.values.tolist()):
        sums[(offset + i) // 7] += value
        counts[(offset + i) // 7] += 1
    avgs = [s / c if c else 0.0 for s, c in zip(sums, counts)]
    return [
        value if avgs[w] == 0.0 else value * (weekly.values[w].item() / avgs[w])
        for value, w in ((v, (offset + i) // 7) for i, v in enumerate(daily.values.tolist()))
    ]


@given(daily_and_weekly())
def test_stitch_matches_running_sum_bit_for_bit(pair):
    daily, weekly = pair
    assert stitch_series(daily, weekly).values.tolist() == running_sum_stitch(daily, weekly)


@given(daily_and_weekly())
def test_week_mean_restoration(pair):
    daily, weekly = pair
    values = stitch_series(daily, weekly).values
    offset = (daily.start_date - weekly.start_date).days
    for week, (avg, count) in enumerate(week_means(daily, weekly)):
        if avg == 0.0:
            continue
        lo = max(week * 7 - offset, 0)
        assert abs(values[lo : lo + count].mean() - weekly.values[week]) <= 1e-9


@given(daily_and_weekly())
def test_rescaling_preserves_nonnegativity_and_zeros(pair):
    daily, weekly = pair
    rescaled = stitch_series(daily, weekly)
    assert np.all(rescaled.values >= 0.0)
    assert np.all(rescaled.values[daily.values == 0.0] == 0.0)


@given(daily_and_weekly())
def test_rescaling_is_monotone_within_each_week(pair):
    daily, weekly = pair
    rescaled = stitch_series(daily, weekly)
    offset = (daily.start_date - weekly.start_date).days
    week = (offset + np.arange(len(daily))) // 7
    for w in np.unique(week):
        raw = daily.values[week == w]
        scaled = rescaled.values[week == w]
        for a in range(len(raw)):
            for b in range(len(raw)):
                if raw[a] < raw[b]:
                    assert scaled[a] <= scaled[b]


def test_idempotent_when_weekly_equals_avg():
    daily = daily_series([10, 20, 30, 40, 50, 60, 70, 5, 5, 5])
    matched = weekly_series([avg for avg, _ in week_means(daily, weekly_series([1, 1]))])
    assert stitch_series(daily, matched).values.tolist() == daily.values.tolist()
