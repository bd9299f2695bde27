from datetime import date

import numpy as np
import pytest

from trendnet.correlate import emit_correlations_csv, rolling_correlation

from helpers import DAY, SPAN_START, by_test_id, daily_series
from oracles import dcor_oracle


def year_fixture(n_keywords=3, n_days=365, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"kw{i}": daily_series(rng.uniform(0, 120, n_days))
        for i in range(n_keywords)
    }


def test_15_day_window_labels_match_default_timeline():
    frames = rolling_correlation(year_fixture(), 15)
    assert frames.label_dates[0] == date(2020, 3, 31)
    assert frames.label_dates[-1] == date(2021, 3, 16)
    assert frames.label_dates.shape == (365 - 15 + 1,)
    assert frames.matrix.shape == (365 - 15 + 1, 3, 3)
    assert np.all(np.diff(frames.label_dates) == np.timedelta64(1, "D"))


def test_30_day_window_labels_match_default_timeline():
    frames = rolling_correlation(year_fixture(), 30)
    assert frames.label_dates[0] == date(2020, 4, 15)
    assert frames.label_dates[-1] == date(2021, 3, 16)
    assert frames.matrix.shape == (365 - 30 + 1, 3, 3)


def test_window_excludes_label_date():
    # the frame labeled start+w must be computed from the w days before it
    series = year_fixture(n_keywords=2, n_days=40, seed=3)
    frames = rolling_correlation(series, 15)
    x = series["kw0"].values
    y = series["kw1"].values
    for f in (0, 7, 25):
        expected = dcor_oracle(x[f : f + 15], y[f : f + 15])
        assert frames.matrix[f, 0, 1] == pytest.approx(expected, abs=1e-12)
        assert frames.label_dates[f] == SPAN_START + (15 + f) * DAY


def test_identical_series_correlate_one_everywhere():
    values = np.random.default_rng(1).uniform(0, 100, 50)
    series = {
        "ubo": daily_series(values),
        "sipon": daily_series(values),
    }
    frames = rolling_correlation(series, 15)
    assert frames.matrix[:, 0, 1] == pytest.approx(np.ones(36), abs=1e-12)


def test_frame_matrix_invariants_hold_everywhere():
    m = rolling_correlation(year_fixture(n_keywords=4, n_days=80, seed=9), 15).matrix
    assert np.array_equal(m, m.transpose(0, 2, 1))
    assert np.all(np.diagonal(m, axis1=1, axis2=2) == 1.0)
    assert np.all((m >= 0.0) & (m <= 1.0))


def test_window_equal_to_series_gives_single_frame():
    frames = rolling_correlation(year_fixture(n_days=30), 30)
    assert frames.matrix.shape == (1, 3, 3)
    assert frames.label_dates.tolist() == [SPAN_START + 30 * DAY]


def test_keyword_order_follows_mapping_order():
    series = year_fixture(n_keywords=3, n_days=20)
    frames = rolling_correlation(series, 10)
    assert frames.keywords == ("kw0", "kw1", "kw2")


def test_long_format_csv():
    frames = rolling_correlation(year_fixture(n_keywords=3, n_days=20, seed=2), 10)
    text = "".join(emit_correlations_csv(frames))
    lines = text.strip().split("\n")
    assert lines[0] == "label_date,keyword_a,keyword_b,dcor"
    assert len(lines) == 1 + len(frames.label_dates) * 3  # 3 unordered pairs of 3 keywords
    first = lines[1].split(",")
    assert first[0] == "2020-03-26"
    assert first[1] == "kw0" and first[2] == "kw1"
    assert 0.0 <= float(first[3]) <= 1.0
    assert len(first[3].replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_long_format_csv_rows_follow_frames_then_pairs():
    frames = rolling_correlation(year_fixture(n_keywords=3, n_days=13, seed=4), 10)
    rows = [line.split(",") for line in "".join(emit_correlations_csv(frames)).split("\n")[1:-1]]
    expected = [
        [label.isoformat(), f"kw{i}", f"kw{j}", f"{frames.matrix[f, i, j].item():.12g}"]
        for f, label in enumerate(frames.label_dates.tolist())
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    assert rows == expected


FAILURES = [  # (test id, call, message[, code, kind])
    ("test_no_series_rejected", lambda: rolling_correlation({}, 15), "no series given"),
    ("test_misaligned_series_rejected", lambda: rolling_correlation(
        {**year_fixture(2, 30), "late": daily_series(np.ones(30), SPAN_START + DAY)}, 15),
     "late: spans 2020-03-17..2020-04-15, expected 2020-03-16..2020-04-14"),
    ("test_window_longer_than_series_rejected",
     lambda: rolling_correlation(year_fixture(n_days=30), 31),
     "window of 31 days exceeds 30 days of data", 4),
    *[(f"test_window_shorter_than_two_days_rejected[{window}]",
       lambda window=window: rolling_correlation(year_fixture(n_days=30), window),
       f"need at least 2 points, got {window}") for window in (1, 0, -3)],
    ("test_non_finite_series_rejected", lambda: rolling_correlation(
        {"a": daily_series(np.where(np.arange(30) == 7, np.inf, 1)),
         "b": daily_series(np.ones(30))}, 15), "series contain non-finite values"),
]
globals().update(by_test_id(FAILURES))
