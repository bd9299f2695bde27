"""Threshold graphs and their network statistics.

Correlation frames become undirected simple graphs (edge iff dcor >= theta,
inclusive so exact-boundary correlations count). A GraphFrame holds the
(F, K, K) 0/1 adjacency stack of every frame of one window at one
threshold; each statistic is computed for the whole stack at once and
returned as one float per frame. Per frame we report the edge density
2E/(K(K-1)) and two clustering statistics that coincide on
vertex-transitive graphs but differ in general:

* clustering_global: sum of per-vertex triangle counts over the total
  number of connected triples, i.e. 3*triangles / paths-of-length-2
  (Newman 2003).
* clustering_avg_local: mean over vertices of triangles(v)/pairs(v), with
  vertices of degree < 2 contributing 0 (Watts & Strogatz 1998).

Both are computed with integer triangle/triple counts and converted to
float in a single correctly rounded division, so results match
enumeration oracles digit for digit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from datetime import date
from functools import cached_property

import numpy as np

from . import kernels
from .correlate import CorrelationFrame
from .errors import EmptyPeriod, ThetaOutOfRange


@dataclass(eq=False)
class GraphFrame:
    """Dated binary adjacency stack at one threshold; no self-loops.

    `label_dates` (datetime64[D], shape (F,)) labels each graph of
    `adjacency` (uint8, shape (F, K, K)). `triples` is cached on first
    read, so `adjacency` is not to be modified afterwards.
    """

    label_dates: np.ndarray
    window_days: int
    threshold: float
    keywords: tuple[str, ...]
    adjacency: np.ndarray = field(repr=False)

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex triangle counts and connected-triple counts, both (F, K).

        Counted once per stack: both clustering statistics read them.
        """
        degrees = self.adjacency.sum(axis=-1, dtype=np.int64)
        return kernels.triangle_counts(self.adjacency), degrees * (degrees - 1) // 2


@dataclass(frozen=True)
class MetricPoint:
    label_date: date
    window_days: int
    threshold: float
    edge_count: int
    density: float
    clustering_global: float
    clustering_avg_local: float


def threshold_adjacency(frames: CorrelationFrame, theta: float) -> GraphFrame:
    """Binary adjacency of every frame: edge iff dcor >= theta; diagonal 0."""
    if not 0.0 < theta < 1.0:
        raise ThetaOutOfRange(f"threshold {theta} not in (0, 1)")
    adjacency = (frames.matrix >= theta).astype(np.uint8)
    diagonal = np.arange(adjacency.shape[-1])
    adjacency[:, diagonal, diagonal] = 0
    return GraphFrame(
        label_dates=frames.label_dates,
        window_days=frames.window_days,
        threshold=theta,
        keywords=frames.keywords,
        adjacency=adjacency,
    )


def _edge_counts(g: GraphFrame) -> np.ndarray:
    return g.adjacency.sum(axis=(1, 2), dtype=np.int64) // 2


def network_density(g: GraphFrame) -> list[float]:
    """Existing edges over the K(K-1)/2 possible ones, per frame."""
    k = g.adjacency.shape[-1]
    if k < 2:
        raise ValueError("density needs at least 2 vertices")
    return (2 * _edge_counts(g) / (k * (k - 1))).tolist()


def clustering_global(g: GraphFrame) -> list[float]:
    """Total triangles-at-vertices over total connected triples; 0 if no triples."""
    lam, tau = g.triples
    lam_total, tau_total = lam.sum(axis=-1), tau.sum(axis=-1)
    return np.divide(lam_total, tau_total, out=np.zeros(len(lam)), where=tau_total > 0).tolist()


def clustering_avg_local(g: GraphFrame) -> list[float]:
    """Mean per-vertex triangle ratio per frame; degree < 2 vertices count as 0.

    The ratios lam/tau are summed exactly over the common denominator
    lcm(tau > 0) in Python integers, then divided once by lcm * K.
    """
    lam, tau = g.triples
    k = lam.shape[-1]
    out = []
    for lam_f, tau_f in zip(lam.tolist(), tau.tolist()):
        common = math.lcm(*(t for t in tau_f if t))
        out.append(sum(l * (common // t) for l, t in zip(lam_f, tau_f) if t) / (common * k))
    return out


def frame_metrics(g: GraphFrame) -> list[MetricPoint]:
    """One MetricPoint per frame of the stack."""
    return [
        MetricPoint(label, g.window_days, g.threshold, *row)
        for label, *row in zip(
            g.label_dates.tolist(),
            _edge_counts(g).tolist(),
            network_density(g),
            clustering_global(g),
            clustering_avg_local(g),
        )
    ]


def _in_period(g: GraphFrame, period: tuple[date, date]) -> np.ndarray:
    """The adjacency matrices of the frames labeled within the period."""
    start, end = period
    selected = (g.label_dates >= np.datetime64(start)) & (g.label_dates <= np.datetime64(end))
    if not selected.any():
        raise EmptyPeriod(f"no frames labeled within {start}..{end}")
    return g.adjacency[selected].astype(bool)


def pair_persistence(
    g: GraphFrame, period: tuple[date, date]
) -> list[tuple[tuple[str, str], int]]:
    """How many frames in the period contain each keyword pair as an edge.

    Exhaustive over all pairs, sorted by descending count with lexicographic
    tie-breaking on the pair tokens.
    """
    counts = _in_period(g, period).sum(axis=0, dtype=np.int64)
    kws = g.keywords
    rows, cols = np.triu_indices(len(kws), 1)
    out = [
        ((kws[i], kws[j]), count)
        for i, j, count in zip(rows.tolist(), cols.tolist(), counts[rows, cols].tolist())
    ]
    out.sort(key=lambda r: (-r[1], r[0]))
    return out


def triad_persistence(
    g: GraphFrame, period: tuple[date, date]
) -> list[tuple[tuple[str, str, str], int]]:
    """How many frames in the period contain each keyword triple as a triangle."""
    stack = _in_period(g, period)
    kws = g.keywords
    out = []
    for i in range(len(kws)):
        for j in range(i + 1, len(kws)):
            # Triangles i-j-m for every m > j at once.
            closed = stack[:, i, j, None] & stack[:, i, j + 1 :] & stack[:, j, j + 1 :]
            out.extend(
                ((kws[i], kws[j], kws[m]), count)
                for m, count in enumerate(closed.sum(axis=0).tolist(), j + 1)
            )
    out.sort(key=lambda r: (-r[1], r[0]))
    return out


def emit_metrics_csv(metrics: list[MetricPoint]) -> str:
    """One row per point, columns named after the MetricPoint fields."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in fields(MetricPoint)])
    writer.writerows(
        [m.label_date.isoformat(), m.window_days, f"{m.threshold:g}", m.edge_count,
         repr(m.density), repr(m.clustering_global), repr(m.clustering_avg_local)]
        for m in metrics
    )
    return out.getvalue()


def parse_metrics_csv(text: str) -> list[MetricPoint]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return []
    points = []
    for row in reader:
        if not row:
            continue
        points.append(
            MetricPoint(
                label_date=date.fromisoformat(row[0]),
                window_days=int(row[1]),
                threshold=float(row[2]),
                edge_count=int(row[3]),
                density=float(row[4]),
                clustering_global=float(row[5]),
                clustering_avg_local=float(row[6]),
            )
        )
    return points


def emit_persistence_csv(
    rows: list[tuple[tuple[date, date], float, tuple[str, ...], int]]
) -> str:
    """Rows of (period, threshold, members, count) as the persistence report."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["period_start", "period_end", "threshold", "members", "count"])
    for (start, end), threshold, members, count in rows:
        writer.writerow(
            [start.isoformat(), end.isoformat(), f"{threshold:g}", "|".join(members), count]
        )
    return out.getvalue()
