"""Rolling-window distance-correlation matrices between keyword series.

Each frame is labeled by the day after its window: the window for label
date t is the `window_days` dates immediately preceding t, exclusive of t.
A 15-day window over data starting 2020-03-16 therefore produces its first
frame on 2020-03-31 and its last on the day after the data ends.

The frames of one window length form one stack: F label dates and an
(F, K, K) array of matrices over K keywords, one matrix per label date.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    LengthMismatch,
    MisalignedSeries,
    NonFiniteInput,
    WindowTooLong,
)
from .ingest import DailySeries


@dataclass(eq=False)
class CorrelationFrame:
    """Stack of dated symmetric keyword-by-keyword dCor matrices.

    `label_dates` is a datetime64[D] array of shape (F,) and `matrix` has
    shape (F, K, K); frame f is `matrix[f]`, labeled `label_dates[f]`.
    """

    label_dates: np.ndarray
    window_days: int
    keywords: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)


def distance_correlation(x, y) -> float:
    """Distance correlation of two equal-length vectors, in [0, 1].

    Constant inputs have zero distance variance and correlate 0 with
    anything by convention. The computation is symmetric in x and y.

    The value is invariant under a separate affine map of each vector,
    x -> a*x + b with a != 0, across the whole finite float64 range: inputs
    near 1e-300 or 1e300 give the same value, to rounding, as the same data
    near 1, because the kernel rescales each vector by an exact power of two
    before forming distances.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be 1-d vectors")
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"vector lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteInput("inputs must be finite")
    return float(kernels.dcor_matrix(np.column_stack((x, y)))[0, 1])


def rolling_correlation(series: dict[str, DailySeries], window_days: int) -> CorrelationFrame:
    """The stack of frames over all rolling windows, one per label date.

    All series must cover the identical consecutive date range. Keyword
    order follows the mapping order. The first label date is series start
    + window_days; the last is the day after the series end, so every
    window of data labels the day it leads into.
    """
    if not series:
        raise MisalignedSeries("no series given")
    if window_days < 2:
        raise ValueError(f"window_days must be at least 2, got {window_days}")
    keywords = tuple(series.keys())
    first = series[keywords[0]]
    for kw in keywords:
        s = series[kw]
        if s.start_date != first.start_date or s.end_date != first.end_date:
            raise MisalignedSeries(
                f"{kw}: spans {s.start_date}..{s.end_date},"
                f" expected {first.start_date}..{first.end_date}"
            )
    n_days = len(first)
    if window_days > n_days:
        raise WindowTooLong(f"window of {window_days} days exceeds {n_days} days of data")

    data = np.column_stack([series[kw].values for kw in keywords])
    if not np.isfinite(data).all():
        raise NonFiniteInput("series contain non-finite values")

    stack = kernels.rolling_dcor(data, window_days)
    first_label = np.datetime64(first.start_date) + window_days
    return CorrelationFrame(
        label_dates=first_label + np.arange(stack.shape[0]),
        window_days=window_days,
        keywords=keywords,
        matrix=stack,
    )


def emit_correlations_csv(frames: CorrelationFrame) -> str:
    """Long-format `label_date,keyword_a,keyword_b,dcor` CSV, 12 significant digits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label_date", "keyword_a", "keyword_b", "dcor"])
    kws = frames.keywords
    rows, cols = np.triu_indices(len(kws), 1)
    pairs = [(kws[i], kws[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    labels = np.datetime_as_string(frames.label_dates).tolist()
    for label, matrix in zip(labels, frames.matrix):
        writer.writerows(
            [label, a, b, f"{v:.12g}"] for (a, b), v in zip(pairs, matrix[rows, cols].tolist())
        )
    return out.getvalue()
