"""Threshold graphs and their network statistics.

Correlation frames become undirected simple graphs (edge iff dcor >= theta,
inclusive so exact-boundary correlations count). A GraphFrame holds one
window's graphs at every threshold as one (F, K, K) level stack (a pair is
an edge at threshold t iff its level, the count of sorted thresholds at or
below its dcor, exceeds t) and their `counts`. Each statistic reads them for
the whole stack and returns one float per (threshold, frame), threshold-major:
the edge density 2E/(K(K-1)) and two clustering statistics that coincide on
vertex-transitive graphs but differ in general:

* clustering_global: sum of per-vertex triangle counts over the total
  number of connected triples, i.e. 3*triangles / paths-of-length-2
  (Newman 2003).
* clustering_avg_local: mean over vertices of triangles(v)/pairs(v), with
  vertices of degree < 2 contributing 0 (Watts & Strogatz 1998).

Both are computed with integer triangle/triple counts and converted to
float in a single correctly rounded division, so results match
enumeration oracles digit for digit.

Persistence counts, per threshold and period (periods may overlap), the
frames in which each keyword pair is an edge (`pair_persistence`) or each
triple a triangle (`triad_persistence`): a set's level is the least of its
pairs', gathered once per period. Each returns the `(period, threshold,
members, counts)` groups `emit_persistence_csv` writes, threshold-major:
(P, 2) or (P, 3) keyword indices, ascending within a row, over all sets,
and (P,) int64 counts, by descending count, then member keyword strings.

`frame_metrics` returns a MetricTable: the tuple of the metrics CSV's
columns (label_date, window_days, threshold, edge_count, density,
clustering_global, clustering_avg_local), one list per column and one row
per (threshold, frame), holding plain dates, ints and floats. `analyze`
writes each threshold's rows with `emit_metrics_csv`, `report` reads them
back with `parse_metrics_csv`; both convert a whole column at a time, each
distinct value or field text of a column once, and the reader reruns failed
checks row by row for the line to name. Non-finite floats fail on reading.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date
from functools import cache, cached_property, reduce
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from . import kernels
from .correlate import CorrelationFrame
from .errors import TrendnetError, prefixed
from .util import csv_field, csv_rows, distinct_texts, iso_date


@dataclass(eq=False)
class GraphFrame:
    """One window's dated graphs at every threshold, as one level stack; no self-loops.

    `label_dates` (datetime64[D], (F,)) labels each frame of `levels` ((F, K, K),
    int8 from `threshold_adjacency`), whose graph at `thresholds[t]` (ascending)
    is `levels > t`, so a 0/1 stack of any dtype is one threshold's levels.
    `counts` is cached on first read: do not modify `levels` afterwards.
    """

    label_dates: np.ndarray
    window_days: int
    thresholds: tuple[float, ...]
    keywords: tuple[str, ...]
    levels: np.ndarray = field(repr=False)

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges (T·F,), and triangles and connected triples per vertex (T·F, K),
        threshold-major; counted once per stack, and every metric reads them."""
        adjacency = [self.levels > t for t in range(len(self.thresholds))]
        degrees = np.concatenate([a.sum(axis=-1, dtype=np.int64) for a in adjacency])
        triangles = np.concatenate([kernels.triangle_counts(a) for a in adjacency])
        return degrees.sum(axis=-1) // 2, triangles, degrees * (degrees - 1) // 2


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
# The text naming a threshold in every output: file names, both `threshold` columns, the legend.
threshold_label = "{:g}".format


def threshold_adjacency(frames: CorrelationFrame, thresholds: list[float]) -> GraphFrame:
    """Every frame's level stack over the sorted thresholds: edge at thresholds[t]
    iff dcor >= thresholds[t], i.e. level > t; diagonal 0."""
    thresholds = tuple(sorted(thresholds))
    if not 0 < len(thresholds) <= np.iinfo(np.int8).max:
        raise TrendnetError(f"{len(thresholds)} thresholds, expected 1 to 127")
    # Each pair's count of thresholds <= dcor, as searchsorted(side="right"), 12x faster.
    levels = np.zeros(frames.matrix.shape, dtype=np.int8)
    for theta in thresholds:
        if not 0.0 < theta < 1.0:
            raise TrendnetError(f"threshold {theta} not in (0, 1)")
        levels += frames.matrix >= theta
    levels *= ~np.eye(levels.shape[-1], dtype=bool)  # no self-loops
    return GraphFrame(frames.label_dates, frames.window_days, thresholds, frames.keywords, levels)


def network_density(g: GraphFrame) -> list[float]:
    """Existing edges over the K(K-1)/2 possible ones, per (threshold, frame)."""
    k = g.levels.shape[-1]
    if k < 2:
        raise TrendnetError("density needs at least 2 vertices")
    return (2 * g.counts[0] / (k * (k - 1))).tolist()


def clustering_global(g: GraphFrame) -> list[float]:
    """Total triangles-at-vertices over total connected triples; 0 if no triples."""
    _, lam, tau = g.counts
    lam_total, tau_total = lam.sum(axis=-1), tau.sum(axis=-1)
    return np.divide(lam_total, tau_total, out=np.zeros(len(lam)), where=tau_total > 0).tolist()


def clustering_avg_local(g: GraphFrame) -> list[float]:
    """Mean per-vertex triangle ratio per (threshold, frame); degree < 2 vertices count as 0.

    The ratios lam/tau are summed exactly in Python integers over the common
    denominator L = lcm(C(d, 2) for 2 <= d < K), then divided once by L * K;
    int / int is correctly rounded, so any common multiple gives one float.
    """
    _, lam, tau = g.counts
    k = lam.shape[-1]
    pairs = [d * (d - 1) // 2 for d in range(2, k)]
    common = math.lcm(*pairs)
    # L / tau by tau, 0 where tau = 0; object dtype keeps the products exact at any K.
    weight = np.zeros((k - 1) * (k - 2) // 2 + 1, dtype=object)
    weight[pairs] = [common // t for t in pairs]
    return ((lam * weight[tau]).sum(axis=-1) / (common * k)).tolist()


def frame_metrics(g: GraphFrame) -> MetricTable:
    """The metrics of the stack, one table row per (threshold, frame), threshold-major."""
    edges = g.counts[0]
    return MetricTable(g.label_dates.tolist() * len(g.thresholds), [g.window_days] * len(edges),
                       np.repeat(g.thresholds, len(g.label_dates)).tolist(), edges.tolist(),
                       network_density(g), clustering_global(g), clustering_avg_local(g))


def period_mask(label_dates: np.ndarray, period: tuple[date, date]) -> np.ndarray:
    """Which of the label dates lie within the period, ends included."""
    start, end = period
    return (label_dates >= np.datetime64(start)) & (label_dates <= np.datetime64(end))


def _persistence(g: GraphFrame, periods: list[tuple[date, date]], size: int) -> list[tuple]:
    """Per threshold, then period, (period, threshold, members (P, size) int, counts
    (P,) int64) over all C(K, size) keyword sets: the frames in the period in which
    the set is a clique, rows by descending count, then member strings."""
    k = len(g.keywords)
    sets = chain.from_iterable(combinations(range(k), size))
    members = np.fromiter(sets, np.intp).reshape(-1, size)
    # Keywords are distinct, so comparing their sort ranks compares the strings.
    rank = np.empty(k, dtype=np.intp)
    rank[sorted(range(k), key=g.keywords.__getitem__)] = np.arange(k)
    # np.lexsort sorts by its last key first.
    name_keys = rank[members[:, ::-1]].T
    pairs = [members[:, a] * k + members[:, b] for a, b in combinations(range(size), 2)]
    groups = [[None] * len(periods) for _ in g.thresholds]
    for p, period in enumerate(periods):
        selected = period_mask(g.label_dates, period)
        if not selected.any():
            raise TrendnetError("no frames labeled within {}..{}".format(*period))
        levels = g.levels[selected].reshape(-1, k * k)
        # (frames, P): each set's level per frame, its pairs' least, formed in place.
        found = reduce(lambda acc, pair: np.minimum(acc, levels[:, pair], out=acc),
                       pairs[1:], levels[:, pairs[0]])
        for t, theta in enumerate(g.thresholds):
            counts = (found > t).sum(axis=0, dtype=np.int64)
            order = np.lexsort((*name_keys, -counts))
            groups[t][p] = (period, theta, members[order], counts[order])
    return list(chain.from_iterable(groups))


def pair_persistence(g: GraphFrame, periods: list[tuple[date, date]]) -> list[tuple]:
    """Per threshold and period, the frames with each keyword pair as an edge."""
    return _persistence(g, periods, 2)


def triad_persistence(g: GraphFrame, periods: list[tuple[date, date]]) -> list[tuple]:
    """Per threshold and period, the frames with each keyword triple as a triangle."""
    return _persistence(g, periods, 3)


def emit_metrics_csv(table: MetricTable) -> str:
    """One row per frame, under a header naming the columns: dates and ints by
    str, the threshold by `threshold_label` and the metrics by repr."""
    columns = map(distinct_texts, table, (str, str, threshold_label, str, repr, repr, repr))
    return "\n".join([",".join(METRIC_COLUMNS), *map(",".join, zip(*columns)), ""])


# How each column is read back, in column order. Every metrics file of a
# report labels the same dates, so one date cache serves them all.
_METRIC_PARSERS = (cache(iso_date), int, float, int, float, float, float)


def _metric_columns(rows: list[list[str]]) -> list[list]:
    """`rows`' columns, each read by its parser; the checks run a column at a time.

    A row of another field count fails first, then, column by column, a
    field holding whitespace or `_` (which int() and float() skip), one that
    does not parse and a non-finite float. The error quotes the column's
    first field, so for one row it names the row's first bad field.
    """
    if {len(row) for row in rows} != {len(METRIC_COLUMNS)}:
        raise TrendnetError(f"{len(rows[0])} fields, expected {len(METRIC_COLUMNS)}")
    parsed = []
    for name, parse, column in zip(METRIC_COLUMNS, _METRIC_PARSERS, zip(*rows)):
        distinct = set(column)
        text = "".join(distinct)
        if "_" in text or len("".join(text.split())) != len(text):
            raise TrendnetError(f"{name} {column[0]!r} holds whitespace or an underscore")
        try:
            values = {field: parse(field) for field in distinct}
        except ValueError:
            raise TrendnetError(f"{name} {column[0]!r} does not parse") from None
        if parse is float and not all(map(math.isfinite, values.values())):
            raise TrendnetError(f"{name} {column[0]!r} is not finite")
        parsed.append(list(map(values.__getitem__, column)))
    return parsed


def parse_metrics_csv(text: str) -> MetricTable:
    """The table of a metrics CSV as `emit_metrics_csv` writes it.

    The header must name the columns in order. A row with another field
    count, or a field that holds whitespace or an underscore, does not parse
    or is a non-finite float, is an error naming its line; so is a file
    with no data rows, without a line. Blank lines are skipped.
    """
    rows = csv_rows(text)
    _, header = next(rows, (None, None))
    if header is None:
        raise TrendnetError("no header and no data rows")
    if header != list(METRIC_COLUMNS):
        raise TrendnetError(f"line 1: header is not {','.join(METRIC_COLUMNS)}")
    rows = [(line, row) for line, row in rows if row]
    if not rows:
        raise TrendnetError("no data rows")
    try:
        return MetricTable(*_metric_columns([row for _, row in rows]))
    except TrendnetError:
        # A check failed: the same checks, row by row in file order, name the first bad line.
        for line, row in rows:
            with prefixed(f"line {line}"):
                _metric_columns([row])
        raise


def emit_persistence_csv(keywords: tuple[str, ...], groups: list[tuple]) -> Iterator[str]:
    """(period, threshold, members, counts) groups as the persistence report, yielded as its
    header, then a chunk per group; a `members` row is written as its keywords joined by `|`."""
    # Each keyword is quoted once: `|` is no special character of csv, so a member
    # set needs quotes iff a member does. Each set is joined once, for every group.
    escaped = [keyword.replace('"', '""') for keyword in keywords]
    quoted = [csv_field(keyword) != keyword for keyword in keywords]

    def field(row: tuple[int, ...]) -> str:
        joined = "|".join([escaped[i] for i in row])
        return f'"{joined}"' if any([quoted[i] for i in row]) else joined

    quote = cache(field)
    yield "period_start,period_end,threshold,members,count\n"
    for (start, end), threshold, members, counts in groups:
        # One `%` template holds the group's rows, filled from its (members, count) pairs.
        cells = [None] * (2 * len(counts))
        cells[::2] = map(quote, map(tuple, members.tolist()))
        cells[1::2] = counts.tolist()
        template = f"{start.isoformat()},{end.isoformat()},{threshold_label(threshold)},%s,%d\n"
        yield template * len(counts) % tuple(cells)
