"""Weekly-weight rescaling of segmented daily series.

Daily export segments are each normalized to their own local 0-100 scale,
so a value in one segment is not comparable to the same value in another.
The year-long weekly export shares one scale across the whole span; the
ratio of each week's exported value to the average of the daily values
falling in that week gives a per-week weight that lifts the daily data onto
the weekly scale. Multiplying each day by its week's weight restores the
week means to the weekly values, which is what makes days from different
segments comparable.

Both series are float64 arrays on implied consecutive dates, so day i of
the daily series falls in week `(offset + i) // 7` of the weekly one, where
`offset` is the number of days from the first week start to the first day.
"""

from __future__ import annotations

import numpy as np

from .errors import TrendnetError
from .ingest import WEEK, DailySeries, WeeklySeries


def stitch_series(daily: DailySeries, weekly: WeeklySeries) -> DailySeries:
    """Rescale an assembled daily export onto the weekly scale.

    Each day belongs to the unique week with week_start <= day <
    week_start + 7 days, and every day must fall in some week. A week's
    weight is its weekly value over the mean of its days, or 1 when that
    mean is 0 (no days, or only zeros), so such weeks pass through
    unchanged. The result keeps the dates; its values may exceed 100
    because weights can exceed 1.
    """
    n_weeks = len(weekly.values)
    first = (daily.start_date - weekly.start_date).days
    last = first + len(daily) - 1
    if first < 0 or last >= 7 * n_weeks:
        raise TrendnetError(
            f"daily date {daily.start_date if first < 0 else daily.end_date}"
            f" outside weekly coverage"
            f" [{weekly.start_date}, {weekly.start_date + n_weeks * WEEK})"
        )
    week = np.arange(first, last + 1) // 7
    # bincount adds in day order, the same sums as a running total.
    sums = np.bincount(week, weights=daily.values, minlength=n_weeks)
    counts = np.bincount(week, minlength=n_weeks)
    avg = np.divide(sums, counts, out=np.zeros(n_weeks), where=counts > 0)
    # avg == 0 is exact on purpose: it holds iff the week has no data or only zeros.
    weight = np.divide(weekly.values, avg, out=np.ones(n_weeks), where=avg != 0.0)
    return DailySeries(daily.start_date, daily.values * weight[week])
