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

Persistence counts, per period, the frames in which each keyword pair is
an edge (`pair_persistence`) or each keyword triple a triangle
(`triad_persistence`), over a list of periods that may overlap. Each
returns one `(members, counts)` per period: an (P, 2) or (P, 3) int array
of keyword indices, ascending within a row, over all C(K, 2) or C(K, 3)
sets, and the (P,) int64 counts. Rows run by descending count, then by
the member keyword strings, first member first, not by their indices.

`frame_metrics` returns a MetricTable: the tuple of the metrics CSV's
columns (label_date, window_days, threshold, edge_count, density,
clustering_global, clustering_avg_local), one list per column and one row
per frame, holding plain dates, ints and floats. `analyze` writes it with
`emit_metrics_csv` and `report` reads it back with `parse_metrics_csv`;
both convert a whole column at a time, and only a failed column is searched
row by row for the line to name. Non-finite floats are rejected on reading.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property, reduce
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from . import kernels
from .correlate import CorrelationFrame
from .errors import TrendnetError
from .util import csv_field, iso_date, underscored


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


class MetricTable(NamedTuple):
    """Per-frame metrics: the tuple of the metrics CSV's columns, one list each."""

    label_date: list[date]
    window_days: list[int]
    threshold: list[float]
    edge_count: list[int]
    density: list[float]
    clustering_global: list[float]
    clustering_avg_local: list[float]

    def order(self, *names: str) -> list[int]:
        """Row indices sorted by the named columns, first name first; stable."""
        keys = list(zip(*(getattr(self, name) for name in names)))
        return sorted(range(len(keys)), key=keys.__getitem__)

    def take(self, rows: list[int]) -> MetricTable:
        return MetricTable(*([column[i] for i in rows] for column in self))

    @staticmethod
    def concat(tables: list[MetricTable]) -> MetricTable:
        return MetricTable(*map(list, map(chain.from_iterable, zip(*tables))))


METRIC_COLUMNS = MetricTable._fields


def threshold_adjacency(frames: CorrelationFrame, theta: float) -> GraphFrame:
    """Binary adjacency of every frame: edge iff dcor >= theta; diagonal 0."""
    if not 0.0 < theta < 1.0:
        raise TrendnetError(f"threshold {theta} not in (0, 1)")
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


def frame_metrics(g: GraphFrame) -> MetricTable:
    """The metrics of every frame of the stack, one table row per frame."""
    frames = len(g.label_dates)
    return MetricTable(g.label_dates.tolist(), [g.window_days] * frames, [g.threshold] * frames,
                       _edge_counts(g).tolist(), network_density(g), clustering_global(g),
                       clustering_avg_local(g))


def period_mask(label_dates: np.ndarray, period: tuple[date, date]) -> np.ndarray:
    """Which of the label dates lie within the period, ends included."""
    start, end = period
    return (label_dates >= np.datetime64(start)) & (label_dates <= np.datetime64(end))


def _persistence(g: GraphFrame, periods: list[tuple[date, date]], size: int) -> list[tuple]:
    """Per period, in order, (members (P, size) int, counts (P,) int64) over all
    C(K, size) keyword sets: the frames in the period in which the set is a
    clique, rows by descending count, then member strings, as (-count, names)."""
    k = len(g.keywords)
    sets = chain.from_iterable(combinations(range(k), size))
    members = np.fromiter(sets, np.intp).reshape(-1, size)
    # Keywords are distinct, so comparing their sort ranks compares the strings.
    rank = np.empty(k, dtype=np.intp)
    rank[sorted(range(k), key=g.keywords.__getitem__)] = np.arange(k)
    # np.lexsort sorts by its last key first.
    name_keys = rank[members[:, ::-1]].T
    # (F, P): whether each set is a clique in each frame, formed once for every
    # period and in place, so that at most two (F, P) arrays are alive.
    stack = g.adjacency.astype(bool)
    edges = (stack[:, members[:, a], members[:, b]] for a, b in combinations(range(size), 2))
    cliques = reduce(lambda acc, edge: np.logical_and(acc, edge, out=acc), edges)
    out = []
    for start, end in periods:
        selected = period_mask(g.label_dates, (start, end))
        if not selected.any():
            raise TrendnetError(f"no frames labeled within {start}..{end}")
        counts = cliques[selected].sum(axis=0, dtype=np.int64)
        order = np.lexsort((*name_keys, -counts))
        out.append((members[order], counts[order]))
    return out


def pair_persistence(g: GraphFrame, periods: list[tuple[date, date]]) -> list[tuple]:
    """Per period, (members (P, 2), counts (P,)): frames in it with each pair as an edge."""
    return _persistence(g, periods, 2)


def triad_persistence(g: GraphFrame, periods: list[tuple[date, date]]) -> list[tuple]:
    """Per period, (members (P, 3), counts (P,)): frames in it with each triple as a triangle."""
    return _persistence(g, periods, 3)


def emit_metrics_csv(table: MetricTable) -> str:
    """One row per frame, under a header naming the columns."""
    return f"{','.join(METRIC_COLUMNS)}\n" + "".join(
        map("{},{},{:g},{},{!r},{!r},{!r}\n".format, *table)
    )


# How each column is read back, in column order.
_METRIC_PARSERS = (iso_date, int, float, int, float, float, float)


def _loose(text: str) -> bool:
    """Whether `text` holds whitespace or `_`, which int() and float() skip."""
    return underscored(text) or len("".join(text.split())) != len(text)


def parse_metrics_csv(text: str) -> MetricTable:
    """The table of a metrics CSV as `emit_metrics_csv` writes it.

    The header must name the columns in order. A row with another field
    count, or a field that holds whitespace or an underscore, does not parse
    or is a non-finite float, is an error naming its line; so is a file
    with no data rows, without a line. Blank lines are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise TrendnetError("no header and no data rows")
    if header != list(METRIC_COLUMNS):
        raise TrendnetError(f"line 1: header is not {','.join(METRIC_COLUMNS)}")
    rows = [row for row in reader if row]
    if not rows:
        raise TrendnetError("no data rows")
    # One pass per column; the strict zips reject a row of another field count.
    try:
        columns = [list(map(parse, column)) for parse, column in zip(
            _METRIC_PARSERS, zip(*rows, strict=True), strict=True)]
        floats = (column for parse, column in zip(_METRIC_PARSERS, columns) if parse is float)
        if (all(all(map(math.isfinite, column)) for column in floats)
                and not _loose("".join(chain.from_iterable(rows)))):
            return MetricTable(*columns)
    except ValueError:
        pass
    # A check failed: report the first bad row in file order, by its line.
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for row in reader:
        if row and len(row) != len(METRIC_COLUMNS):
            raise TrendnetError(
                f"line {reader.line_num}: {len(row)} fields, expected {len(METRIC_COLUMNS)}"
            )
        for name, parse, token in zip(METRIC_COLUMNS, _METRIC_PARSERS, row):
            if _loose(token):
                raise TrendnetError(
                    f"line {reader.line_num}: {name} {token!r} holds whitespace or an underscore"
                )
            try:
                value = parse(token)
            except ValueError:
                raise TrendnetError(
                    f"line {reader.line_num}: {name} {token!r} does not parse"
                ) from None
            if parse is float and not math.isfinite(value):
                raise TrendnetError(f"line {reader.line_num}: {name} {token!r} is not finite")
    raise AssertionError("the row-wise search repeats the column-wise checks")


def emit_persistence_csv(keywords: tuple[str, ...], groups: list[tuple]) -> str:
    """(period, threshold, members, counts) groups as the persistence report;
    each `members` row is written as its keywords joined by `|`."""
    lines = ["period_start,period_end,threshold,members,count\n"]
    quoted = {}  # each member set is quoted once, for every group it is in
    for (start, end), threshold, members, counts in groups:
        prefix = f"{start.isoformat()},{end.isoformat()},{threshold:g},"
        for row, count in zip(map(tuple, members.tolist()), counts.tolist()):
            if row not in quoted:
                quoted[row] = csv_field("|".join([keywords[i] for i in row]))
            lines.append(f"{prefix}{quoted[row]},{count}\n")
    return "".join(lines)
