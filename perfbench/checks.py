"""Output checks for one pipeline run, computed apart from trendnet.

Nothing here imports the program or compares with stored output. Values
are recomputed from the inputs the benchmark wrote (stitch), from the
stitched series with a definitional distance-correlation estimator
(analyze), or taken from properties the method must have (threshold
monotonicity, frame counts and labels, planted-block recovery, report
rows mirroring the metrics CSV). `check_run` returns a list of
(command, message) failures; the command is the operation whose output
is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from datetime import date, timedelta
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from workloads import DAY, Inputs

STITCH, ANALYZE = "stitch", "analyze"
REPORTS = {"density": "report-density", "clustering": "report-clustering"}
# the metrics-row field each chart plots: density, or global clustering
REPORT_FIELD = {"density": 4, "clustering": 5}
METRIC_HEADER = ("label_date,window_days,threshold,edge_count,density,"
                 "clustering_global,clustering_avg_local")
PERSISTENCE_HEADER = "period_start,period_end,threshold,members,count"

ORACLE_GATE = 1e-12  # the dCor oracle tolerance of the program's acceptance tests
AMBIGUOUS = 1e-9  # |dcor - theta| within which an edge is left unchecked
SAMPLED_FRAMES = 6  # random frames per window, besides the first and last
SUBSET_BLOCKS = 2  # blocks whose keywords get every frame recomputed ...
SUBSET_PER_BLOCK = 3  # ... this many keywords from each
PLANTED_THETA = 0.5  # a pair is linked when it has an edge here in most frames


class Failures(list):
    def add(self, command: str, message: str) -> None:
        self.append((command, message))


# --- definitional estimators ---

def ref_dcor(x: np.ndarray) -> np.ndarray:
    """Distance correlation between the rows of x (..., k, n), as (..., k, k).

    Székely, Rizzo & Bakirov (2007): pairwise |x_i - x_j| matrices,
    double-centred, dCov^2 the mean elementwise product; a row with zero
    distance variance correlates 0 with everything.
    """
    n = x.shape[-1]
    d = np.abs(x[..., :, :, None] - x[..., :, None, :])
    c = d - d.mean(-1, keepdims=True) - d.mean(-2, keepdims=True) + d.mean((-1, -2), keepdims=True)
    cov = np.einsum("...pij,...qij->...pq", c, c) / (n * n)
    var = np.einsum("...pp->...p", cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(np.maximum(cov, 0.0) / np.sqrt(var[..., :, None] * var[..., None, :]))
    zero = (var == 0.0)[..., :, None] | (var == 0.0)[..., None, :]
    r = np.minimum(np.where(zero, 0.0, r), 1.0)
    k = x.shape[-2]
    r[..., np.arange(k), np.arange(k)] = 1.0
    return r


def graph_stats(adj: list[set[int]]) -> tuple[int, Fraction, Fraction, Fraction]:
    """Edges, density, global and average-local clustering by enumeration."""
    k = len(adj)
    edges = sum(len(nb) for nb in adj) // 2
    lam = [0] * k
    for i in range(k):
        for j in adj[i]:
            if j > i:
                for m in adj[i] & adj[j]:
                    if m > j:
                        lam[i] += 1
                        lam[j] += 1
                        lam[m] += 1
    tau = [len(nb) * (len(nb) - 1) // 2 for nb in adj]
    total = sum(tau)
    glob = Fraction(sum(lam), total) if total else Fraction(0)
    local = sum((Fraction(l, t) for l, t in zip(lam, tau) if t), Fraction(0)) / k
    return edges, Fraction(2 * edges, k * (k - 1)), glob, local


def quarters(first: date, last_label: date) -> list[tuple[date, date]]:
    """Calendar quarters from the first boundary on or after `first`."""
    def next_anchor(d: date) -> date:
        month = d.month + 3
        return date(d.year + (month > 12), (month - 1) % 12 + 1, 1)

    anchor = date(first.year, 3 * ((first.month - 1) // 3) + 1, 1)
    if anchor < first:
        anchor = next_anchor(anchor)
    periods = []
    while anchor <= last_label:
        periods.append((anchor, next_anchor(anchor) - DAY))
        anchor = next_anchor(anchor)
    return periods


def persistence_subset(inputs: Inputs, seed: int, window: int) -> list[int]:
    """Keyword indices whose pairs and triples get every frame recounted."""
    rng = np.random.default_rng([seed, window])
    blocks = rng.choice(len(inputs.blocks), SUBSET_BLOCKS, replace=False)
    return sorted(
        inputs.keywords.index(kw)
        for b in blocks
        for kw in rng.choice(inputs.blocks[b], SUBSET_PER_BLOCK, replace=False)
    )


# --- parsing ---

def _lines(path: Path, header: str, fails: Failures, command: str) -> list[str] | None:
    try:
        lines = path.read_text("utf-8").splitlines()
    except OSError as err:
        fails.add(command, f"{path.name}: {err}")
        return None
    if not lines or lines[0] != header:
        fails.add(command, f"{path.name}: header is not {header!r}")
        return None
    return lines[1:]


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def owner(relpath: str) -> str:
    """The command that writes the output file at `relpath`."""
    top, _, name = relpath.partition("/")
    if top == "stitched":
        return STITCH
    if top == "analysis":
        return ANALYZE
    return REPORTS["clustering" if name.startswith("clustering") else "density"]


# --- the checks ---

class RunChecker:
    """Checks the outputs of one round: <out>/stitched, analysis, reports."""

    def __init__(self, inputs: Inputs, out: Path, seed: int):
        self.inputs = inputs
        self.spec = inputs.spec
        self.out = out
        self.seed = seed
        self.rng = np.random.default_rng([seed, 7])
        self.fails = Failures()
        self.k = len(inputs.keywords)
        self.pairs = list(combinations(range(self.k), 2))
        self.series: np.ndarray | None = None  # (days, k) stitched values
        self.metrics: dict[tuple[int, float], list[tuple]] = {}

    def run(self) -> Failures:
        steps = [(STITCH, self.check_stitch, ())]
        steps += [(ANALYZE, self.check_window, (w,)) for w in self.spec.windows]
        steps += [(REPORTS[m], self.check_report, (m,)) for m in REPORTS]
        for command, step, args in steps:
            try:
                step(*args)
            except (ValueError, IndexError, KeyError, TypeError) as err:
                # a row the parsers cannot read is a wrong output, not a crash
                self.fails.add(command, f"unreadable output: {err!r}")
        return self.fails

    # stitch ---------------------------------------------------------------

    def check_stitch(self) -> None:
        spec, days = self.spec, self.spec.n_days
        labels = [(spec.start + i * DAY).isoformat() for i in range(days)]
        names = sorted(p.name for p in (self.out / "stitched").glob("*"))
        if names != sorted(f"{kw}.csv" for kw in self.inputs.keywords):
            self.fails.add(STITCH, f"stitched files {names[:3]}... do not match the registry")
        columns = []
        for kw in self.inputs.keywords:
            rows = _lines(self.out / "stitched" / f"{kw}.csv", "date,value", self.fails, STITCH)
            if rows is None:
                return
            split = [row.split(",") for row in rows]
            if [r[0] for r in split] != labels:
                self.fails.add(STITCH, f"{kw}.csv: dates are not {labels[0]}..{labels[-1]}")
                return
            values = np.array([float(r[1]) for r in split])
            if not (np.isfinite(values).all() and (values >= 0).all()):
                self.fails.add(STITCH, f"{kw}.csv: values must be finite and nonnegative")
                return
            raw = self.inputs.raw_daily[kw]
            for w, weekly in enumerate(self.inputs.weekly[kw]):
                week = slice(7 * w, min(7 * w + 7, days))
                if not raw[week].any():
                    continue
                mean = float(values[week].mean())
                if abs(mean - weekly) > 1e-9:
                    self.fails.add(STITCH, f"{kw}.csv: week of {self.inputs.week_starts[w]}"
                                           f" averages {mean!r}, weekly export {weekly!r}")
                    break
            columns.append(values)
        self.series = np.column_stack(columns)

    # analyze --------------------------------------------------------------

    def check_window(self, window: int) -> None:
        if self.series is None:
            self.fails.add(ANALYZE, f"w{window}: no stitched series to check against")
            return
        spec, kws = self.spec, self.inputs.keywords
        n_frames = spec.frames(window)
        labels = [spec.start + timedelta(days=window + f) for f in range(n_frames)]
        # frames[f] holds the window of days f .. f+window-1, labelled by the day after
        frames = np.lib.stride_tricks.sliding_window_view(self.series, window, axis=0)
        corr = self.read_correlations(window, labels)
        if corr is None:
            return

        sampled = {0, n_frames - 1}
        sampled.update(self.rng.choice(n_frames, SAMPLED_FRAMES, replace=False).tolist())
        iu = np.triu_indices(self.k, 1)
        full = {f: ref_dcor(frames[f]) for f in sorted(sampled)}
        for f, ref in full.items():
            self.compare_dcor(window, corr[f], ref[iu], lambda p: (labels[f], *self.pairs[p[0]]))

        subset = persistence_subset(self.inputs, self.seed, window)
        sub = np.concatenate([
            ref_dcor(frames[lo : lo + 64][:, subset, :]) for lo in range(0, n_frames, 64)
        ])
        s_pairs = list(combinations(range(len(subset)), 2))
        cols = [self.pairs.index((subset[a], subset[b])) for a, b in s_pairs]
        sub_upper = sub[:, [a for a, _ in s_pairs], [b for _, b in s_pairs]]
        self.compare_dcor(window, corr[:, cols], sub_upper,
                          lambda p: (labels[p[0]], *self.pairs[cols[p[1]]]))

        for theta in spec.thresholds:
            self.check_metrics(window, theta, labels, full)
        self.check_monotone(window)
        self.check_persistence(window, labels, subset, sub)
        self.check_planted(window, corr)

    def read_correlations(self, window: int, labels: list[date]) -> np.ndarray | None:
        path = self.out / "analysis" / f"correlations_w{window}.csv"
        rows = _lines(path, "label_date,keyword_a,keyword_b,dcor", self.fails, ANALYZE)
        if rows is None:
            return None
        kws = self.inputs.keywords
        pair_text = [f"{kws[i]},{kws[j]}" for i, j in self.pairs]
        expected = [f"{d},{p}" for d in map(date.isoformat, labels) for p in pair_text]
        split = [row.rsplit(",", 1) for row in rows]
        if len(split) != len(expected) or [s[0] for s in split] != expected:
            self.fails.add(ANALYZE, f"{path.name}: expected {len(labels)} frames labelled"
                                    f" {labels[0]}..{labels[-1]} of {len(pair_text)} pairs"
                                    f" in registry order, got {len(split)} rows")
            return None
        try:
            values = np.array([s[1] for s in split], dtype=np.float64)
        except ValueError as err:
            self.fails.add(ANALYZE, f"{path.name}: {err}")
            return None
        if not (np.isfinite(values).all() and (values >= 0).all() and (values <= 1).all()):
            self.fails.add(ANALYZE, f"{path.name}: dcor outside [0, 1]")
        return values.reshape(len(labels), len(pair_text))

    def compare_dcor(self, window, reported, ref, where) -> None:
        """Reported values must match to their 12 digits plus the oracle gate."""
        scale = np.maximum(np.abs(reported), np.abs(ref))
        with np.errstate(divide="ignore"):
            half_digit = np.where(scale > 0, 0.5 * 10.0 ** (np.floor(np.log10(scale)) - 11), 0.0)
        bad = np.argwhere(np.abs(reported - ref) > half_digit + ORACLE_GATE)
        if len(bad):
            idx = tuple(bad[0])
            label, i, j = where(idx)
            kws = self.inputs.keywords
            self.fails.add(ANALYZE, f"correlations_w{window}.csv {label} {kws[i]},{kws[j]}:"
                                    f" {float(reported[idx])!r}, definitional estimator"
                                    f" {float(ref[idx])!r}")

    def check_metrics(self, window, theta, labels, full) -> None:
        path = self.out / "analysis" / f"metrics_w{window}_t{theta:g}.csv"
        rows = _lines(path, METRIC_HEADER, self.fails, ANALYZE)
        if rows is None:
            return
        parsed = []
        for row in rows:
            f = row.split(",")
            parsed.append((f[0], int(f[1]), f[2], int(f[3]), float(f[4]), float(f[5]), float(f[6])))
        self.metrics[(window, theta)] = parsed
        if [p[:3] for p in parsed] != [(d.isoformat(), window, f"{theta:g}") for d in labels]:
            self.fails.add(ANALYZE, f"{path.name}: rows are not one per frame"
                                    f" {labels[0]}..{labels[-1]}")
            return
        possible = self.k * (self.k - 1)
        for p in parsed:
            if p[4] != 2 * p[3] / possible:
                self.fails.add(ANALYZE, f"{path.name} {p[0]}: density {p[4]!r} is not"
                                        f" 2*{p[3]}/{possible}")
                return
        for f, ref in full.items():
            upper = ref[np.triu_indices(self.k, 1)]
            if np.any(np.abs(upper - theta) <= AMBIGUOUS):
                continue
            edge = ref >= theta
            np.fill_diagonal(edge, False)
            adj = [set(np.flatnonzero(row).tolist()) for row in edge]
            edges, density, glob, local = graph_stats(adj)
            expect = (edges, float(density), float(glob), float(local))
            if parsed[f][3:] != expect:
                self.fails.add(ANALYZE, f"{path.name} {parsed[f][0]}: edge_count, density,"
                                        f" clustering {parsed[f][3:]} but enumeration"
                                        f" gives {expect}")
                return

    def check_monotone(self, window: int) -> None:
        series = [self.metrics.get((window, t)) for t in self.spec.thresholds]
        if any(s is None for s in series):
            return
        for lower, higher, t in zip(series, series[1:], self.spec.thresholds[1:]):
            for a, b in zip(lower, higher):
                if b[4] > a[4]:
                    self.fails.add(ANALYZE, f"metrics_w{window}: density rises to {b[4]!r}"
                                            f" at threshold {t:g} on {a[0]}")
                    return

    def check_persistence(self, window, labels, subset, sub) -> None:
        kws = self.inputs.keywords
        periods = [
            (start, end) for start, end in quarters(self.spec.start, labels[-1])
            if end >= labels[0]
        ]
        label_arr = np.array(labels, dtype="datetime64[D]")
        for size, kind in ((2, "pairs"), (3, "triads")):
            path = self.out / "analysis" / f"persistence_{kind}_w{window}.csv"
            wanted = {
                "|".join(kws[subset[i]] for i in members): members
                for members in combinations(range(len(subset)), size)
            }
            counts = self.read_persistence(path, periods, size, wanted)
            if counts is None:
                continue
            for (start, end), theta in counts:
                inside = (label_arr >= np.datetime64(start)) & (label_arr <= np.datetime64(end))
                block = sub[inside]
                for name, members in wanted.items():
                    links = [block[:, a, b] for a, b in combinations(members, 2)]
                    if any(np.any(np.abs(v - theta) <= AMBIGUOUS) for v in links):
                        continue
                    expect = int(np.sum(np.logical_and.reduce([v >= theta for v in links])))
                    got = counts[((start, end), theta)][name]
                    if got != expect:
                        self.fails.add(ANALYZE, f"{path.name} {start}..{end} t{theta:g} {name}:"
                                                f" count {got}, recount {expect}")
                        return

    def read_persistence(self, path, periods, size, wanted):
        rows = _lines(path, PERSISTENCE_HEADER, self.fails, ANALYZE)
        if rows is None:
            return None
        groups = {
            (p, t): {} for p in periods for t in self.spec.thresholds
        }
        keys = {(p[0].isoformat(), p[1].isoformat(), f"{t:g}"): (p, t) for p, t in groups}
        sizes = dict.fromkeys(groups, 0)
        for row in rows:
            start, end, theta, members, count = row.split(",")
            group = keys.get((start, end, theta))
            if group is None:
                self.fails.add(ANALYZE, f"{path.name}: unexpected group {start}..{end} t{theta}")
                return None
            sizes[group] += 1
            if members in wanted:
                groups[group][members] = int(count)
        expect = math.comb(self.k, size)
        for group, n in sizes.items():
            if n != expect or len(groups[group]) != len(wanted):
                self.fails.add(ANALYZE, f"{path.name}: {n} rows for {group[0][0]}..{group[0][1]}"
                                        f" t{group[1]:g}, expected {expect}")
                return None
        return groups

    def check_planted(self, window: int, corr: np.ndarray) -> None:
        """Linked pairs must be exactly the pairs that share a planted block."""
        block_of = {kw: b for b, block in enumerate(self.inputs.blocks) for kw in block}
        kws = self.inputs.keywords
        rates = (corr >= PLANTED_THETA).mean(axis=0)
        for (i, j), rate in zip(self.pairs, rates):
            if (rate > 0.5) != (block_of[kws[i]] == block_of[kws[j]]):
                self.fails.add(ANALYZE, f"correlations_w{window}.csv: pair {kws[i]},{kws[j]}"
                                        f" has an edge at {PLANTED_THETA} in {rate:.3f} of"
                                        f" frames, blocks {block_of[kws[i]]},{block_of[kws[j]]}")
                return

    # report ---------------------------------------------------------------

    def check_report(self, metric: str) -> None:
        command = REPORTS[metric]
        field = REPORT_FIELD[metric]
        written = sorted(p.name for p in (self.out / "reports").glob(f"{metric}_*"))
        expect = sorted(f"{metric}_w{w}.{ext}" for w in self.spec.windows for ext in ("svg", "json"))
        if written != expect:
            self.fails.add(command, f"report files {written}, expected {expect}")
            return
        for window in self.spec.windows:
            rows = [self.metrics.get((window, t)) for t in self.spec.thresholds]
            if any(r is None for r in rows):
                self.fails.add(command, f"w{window}: no metrics to check the report against")
                continue
            self.check_report_json(command, metric, window, rows)
            self.check_svg(command, window, metric, [[r[field] for r in rs] for rs in rows],
                           [date.fromisoformat(r[0]) for r in rows[0]])

    def check_report_json(self, command, metric, window, rows) -> None:
        path = self.out / "reports" / f"{metric}_w{window}.json"
        try:
            body = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError) as err:
            self.fails.add(command, f"{path.name}: {err}")
            return
        expect = [
            {"label_date": r[0], "window_days": r[1], "threshold": float(r[2]),
             "edge_count": r[3], "density": r[4], "clustering_global": r[5],
             "clustering_avg_local": r[6]}
            for rs in rows for r in rs
        ]
        if body.get("metrics") != expect:
            self.fails.add(command, f"{path.name}: metric rows differ from the metrics CSVs")
            return
        labels = [r["label_date"] for r in expect[: len(rows[0])]]
        for event in body.get("events", []):
            when, match = event["date"], event["match"]
            later = [d for d in labels if d >= when]
            want = "unmatched" if not later else ("exact" if later[0] == when else "following")
            if match != want or (later and event.get("label_date") != later[0]):
                self.fails.add(command, f"{path.name}: event {when} joined {match}"
                                        f" {event.get('label_date')}, expected {want}")
                return

    def check_svg(self, command, window, metric, values, labels) -> None:
        path = self.out / "reports" / f"{metric}_w{window}.svg"
        try:
            root = ET.fromstring(path.read_bytes())
        except (OSError, ET.ParseError) as err:
            self.fails.add(command, f"{path.name}: {err}")
            return
        ns = "{http://www.w3.org/2000/svg}"
        grid = [e for e in root.iter(f"{ns}line") if e.get("class") == "grid"]
        lines = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "series"]
        if len(grid) != 6 or len(lines) != len(values):
            self.fails.add(command, f"{path.name}: {len(lines)} series polylines,"
                                    f" expected one per threshold ({len(values)})")
            return
        # y of value 0 is the first gridline, value 1 the last; x spans the grid
        y0, y1 = float(grid[0].get("y1")), float(grid[-1].get("y1"))
        x0, x1 = float(grid[0].get("x1")), float(grid[0].get("x2"))
        span = max((labels[-1] - labels[0]).days, 1)
        xs = np.array([x0 + (x1 - x0) * (d - labels[0]).days / span for d in labels])
        for line, series in zip(lines, values):
            points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
            if len(points) != len(labels):
                self.fails.add(command, f"{path.name}: {len(points)} points, expected"
                                        f" one per frame ({len(labels)})")
                return
            got = np.array(points)
            ys = y0 + (y1 - y0) * np.array(series)
            if np.abs(got[:, 0] - xs).max() > 0.0051 or np.abs(got[:, 1] - ys).max() > 0.0051:
                self.fails.add(command, f"{path.name}: a point is off its frame's {metric}")
                return


def check_run(inputs: Inputs, out: Path, seed: int) -> Failures:
    return RunChecker(inputs, out, seed).run()
