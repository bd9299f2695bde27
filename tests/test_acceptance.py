"""Acceptance criteria for the full pipeline.

Each test covers one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with `pytest -s` to see them on success).
Fixture generation is part of the suite; see helpers.py.
"""

import functools
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from trendnet import ingest, stitch
from trendnet.cli import main
from trendnet.correlate import distance_correlation, rolling_correlation
from trendnet.netstat import (
    clustering_avg_local,
    clustering_global,
    network_density,
    parse_metrics_csv,
    threshold_adjacency,
)

from helpers import (
    DEFAULT_KEYWORD_NAMES,
    SPAN_END,
    SPAN_START,
    corr_frames,
    graph_stack,
    persistent_series,
    reference_series,
    write_export_tree,
)
from oracles import dcor_oracle, graph_oracle

THETA_GRID = (0.4, 0.5, 0.6, 0.8)


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
            return result

        return run

    return wrap


def read_tree(tree: Path, kw: str) -> tuple[ingest.Series, ingest.Series]:
    """Keyword `kw`'s daily segments, assembled over the span, and weekly series."""
    segments = [
        ingest.parse_daily_segment(path.read_text("utf-8"))
        for path in sorted((tree / "daily" / kw).glob("*.csv"))
    ]
    daily = ingest.assemble_daily(segments, span=(SPAN_START, SPAN_END))
    return daily, ingest.parse_weekly((tree / "weekly" / f"{kw}.csv").read_text("utf-8"))


def stitch_tree(tree: Path, keywords) -> dict[str, ingest.Series]:
    return {kw: stitch.stitch_series(*read_tree(tree, kw)) for kw in keywords}


@pytest.fixture(scope="module")
def keywords():
    return DEFAULT_KEYWORD_NAMES


@pytest.fixture(scope="module")
def year_tree(tmp_path_factory):
    """The `flat` reference fixture's export tree: 365 days of 15 independent keywords."""
    root = tmp_path_factory.mktemp("year_fixture")
    write_export_tree(root, reference_series("flat")[0])
    return root


@pytest.fixture(scope="module")
def year_stitched(year_tree, keywords):
    return stitch_tree(year_tree, keywords)


@criterion("dcor-oracle-equivalence")
def test_dcor_oracle_equivalence_sweep():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst = 0.0
    for n in (15, 30):
        for _ in range(600):
            x = rng.normal(size=n) * rng.uniform(0.1, 100)
            y = rng.normal(size=n) * rng.uniform(0.1, 100)
            worst = max(worst, abs(distance_correlation(x, y) - dcor_oracle(x, y)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12, f"max oracle deviation {worst:.3e}"
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"


@criterion("dcor-properties")
def test_dcor_properties():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.choice((15, 30)))
        x = rng.uniform(0, 100, n)
        y = rng.uniform(0, 100, n)
        assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        assert distance_correlation(x, np.full(n, rng.uniform(0, 100))) == 0.0
        a, c = rng.uniform(0.05, 20, 2) * rng.choice((-1.0, 1.0), 2)
        b, d = rng.uniform(-100, 100, 2)
        assert abs(
            distance_correlation(a * x + b, c * y + d) - distance_correlation(x, y)
        ) <= 1e-9


def _graph(adjacency):
    """Single-frame GraphFrame of one (K, K) adjacency matrix."""
    return graph_stack(adjacency, date(2020, 4, 6), (0.4,))


@criterion("density-arithmetic-consistency")
def test_density_of_15_vertex_91_edge_graph():
    adjacency = np.zeros((15, 15), dtype=np.uint8)
    placed = 0
    for i in range(15):
        for j in range(i + 1, 15):
            if placed < 91:
                adjacency[i, j] = adjacency[j, i] = 1
                placed += 1
    [density] = network_density(_graph(adjacency))
    assert density == pytest.approx(0.866667, abs=1e-6)
    assert round(density, 4) == 0.8667
    full = np.ones((15, 15), dtype=np.uint8)
    np.fill_diagonal(full, 0)
    assert network_density(_graph(full)) == [1.0]
    assert network_density(_graph(np.zeros((15, 15)))) == [0.0]


@criterion("clustering-oracle-equivalence")
def test_clustering_matches_enumeration_on_500_random_graphs():
    rng = np.random.default_rng(37)
    for _ in range(500):
        n = int(rng.integers(2, 16))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.95), 1)
        adjacency = (upper | upper.T).astype(np.uint8)
        g = _graph(adjacency)
        oracle = graph_oracle(adjacency)
        assert clustering_global(g) == [float(oracle["clustering_global"])]
        assert clustering_avg_local(g) == [float(oracle["clustering_avg_local"])]
        assert network_density(g) == [float(oracle["density"])]
    k4_minus_edge = _graph(
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
    )
    assert clustering_global(k4_minus_edge) == [0.75]
    assert clustering_avg_local(k4_minus_edge) == [float(5) / 6]


@criterion("threshold-monotonicity")
def test_threshold_monotonicity_zero_violations():
    rng = np.random.default_rng(41)
    for _ in range(200):
        k = int(rng.integers(3, 16))
        raw = rng.random((k, k))
        sym = (raw + raw.T) / 2
        np.fill_diagonal(sym, 1.0)
        frame = corr_frames(sym, date(2020, 4, 6))
        graphs = [threshold_adjacency(frame, [t]) for t in THETA_GRID]
        for lo, hi in zip(graphs, graphs[1:]):
            assert np.all(hi.levels <= lo.levels)
            assert network_density(hi)[0] <= network_density(lo)[0]


@criterion("rescaling-week-mean-restoration")
def test_week_mean_restoration_on_year_fixture(year_tree, year_stitched, keywords):
    checked = 0
    for kw in keywords:
        daily, weekly = read_tree(year_tree, kw)
        rescaled = year_stitched[kw]
        # Both start on SPAN_START, so week idx holds days 7*idx .. 7*idx + 6.
        # Export values are whole numbers, so every summation order is exact.
        assert daily.start_date == weekly.start_date
        averages = []
        for idx, weekly_rsv in enumerate(weekly.values.tolist()):
            raw = daily.values[idx * 7 : idx * 7 + 7]
            averages.append(raw.mean() if raw.size else 0.0)
            if averages[-1] == 0.0:
                continue
            window = rescaled.values[idx * 7 : idx * 7 + 7]
            assert abs(window.mean() - weekly_rsv) <= 1e-9
            checked += 1
        # idempotence: weekly data equal to the daily week averages.
        matched = ingest.Series(weekly.start_date, np.array(averages), ingest.WEEK)
        identical = stitch.stitch_series(daily, matched)
        assert identical.values.tolist() == daily.values.tolist()
    assert checked >= 15 * 50  # essentially every week of every keyword


@criterion("end-to-end-structure-recovery")
def test_planted_blocks_recovered_at_half_threshold(tmp_path_factory):
    root = tmp_path_factory.mktemp("blocks")
    series = reference_series("planted")[0]
    write_export_tree(root, series)
    stitched = stitch_tree(root, list(series))
    frames = rolling_correlation(stitched, 15)
    block_of = {kw: i // 5 for i, kw in enumerate(series)}  # blocks of five, in keyword order
    kws = frames.keywords
    stack = frames.matrix
    within, cross = [], []
    for i in range(len(kws)):
        for j in range(i + 1, len(kws)):
            rate = float(np.mean(stack[:, i, j] >= 0.5))
            (within if block_of[kws[i]] == block_of[kws[j]] else cross).append(rate)
    assert min(within) >= 0.90, f"weakest within-block edge rate {min(within):.3f}"
    assert max(cross) <= 0.10, f"strongest cross-block edge rate {max(cross):.3f}"


@criterion("pipeline-scale-and-determinism")
def test_full_pipeline_under_five_seconds_and_deterministic(year_tree, tmp_path_factory):
    def run(tag: str) -> tuple[float, Path]:
        out = tmp_path_factory.mktemp(f"run_{tag}")
        started = time.perf_counter()
        assert main([
            "stitch",
            "--daily-dir", str(year_tree / "daily"),
            "--weekly-dir", str(year_tree / "weekly"),
            "--out", str(out / "stitched"),
        ]) == 0
        assert main([
            "analyze",
            "--stitched", str(out / "stitched"),
            "--out", str(out / "analysis"),
        ]) == 0
        for metric in ("density", "clustering"):
            assert main([
                "report",
                "--metrics", str(out / "analysis"),
                "--metric", metric,
                "--out", str(out / "reports" / f"{metric}.svg"),
            ]) == 0
        return time.perf_counter() - started, out

    elapsed_a, out_a = run("a")
    elapsed_b, out_b = run("b")
    assert elapsed_a < 5.0 and elapsed_b < 5.0, f"runs took {elapsed_a:.2f}s / {elapsed_b:.2f}s"

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    # expected inventory: stitched series, correlations, 8 metric files,
    # persistence pairs/triads, 2 windows x 2 metrics of SVG+JSON
    names = {p.name for p in files_a}
    assert {"correlations_w15.csv", "correlations_w30.csv"} <= names
    assert sum(1 for n in names if n.startswith("metrics_")) == 8
    assert {"density_w15.svg", "density_w30.svg", "clustering_w15.svg"} <= names


@criterion("window-span-check")
def test_window_label_spans_match_default_timeline(year_stitched):
    labels15 = rolling_correlation(year_stitched, 15).label_dates
    assert labels15[0] == date(2020, 3, 31)
    assert labels15[-1] == date(2021, 3, 16)
    labels30 = rolling_correlation(year_stitched, 30).label_dates
    assert labels30[0] == date(2020, 4, 15)
    assert labels30[-1] == date(2021, 3, 16)


def mean_densities(tree: Path, out: Path) -> dict[tuple[int, str], float]:
    """Mean density per (window, threshold) of a default stitch -> analyze of `tree`."""
    assert main(["stitch", "--daily-dir", str(tree / "daily"), "--weekly-dir",
                 str(tree / "weekly"), "--out", str(out / "stitched")]) == 0
    assert main(["analyze", "--stitched", str(out / "stitched"), "--out", str(out / "analysis")]) == 0
    return {(window, theta): float(np.mean(parse_metrics_csv(
                (out / "analysis" / f"metrics_w{window}_t{theta}.csv").read_text("utf-8")).density))
            for window in (15, 30) for theta in ("0.5", "0.8")}


@pytest.fixture(scope="module")
def persistent_densities(keywords, tmp_path_factory):
    """`mean_densities` of independent AR(1) keywords, phi = 0.9 (seed 0)."""
    root = tmp_path_factory.mktemp("persistent")
    write_export_tree(root / "tree", persistent_series(np.random.default_rng(0), keywords, 0.9))
    return mean_densities(root / "tree", root / "persistent")


@criterion("persistent-independent-density")
def test_persistent_independent_keywords_are_far_denser_than_flat(year_tree, persistent_densities,
                                                                  tmp_path_factory):
    """Independent keywords that persist from day to day, AR(1) with phi = 0.9 (seed 0),
    pass the paper's thresholds far more often than the flat fixture's iid ones: Yule's
    nonsense correlation. Mean density measured, persistent against flat: W = 15, 0.482
    against 0.129 at 0.5 and 0.053 against 0.001 at 0.8; W = 30, 0.290 against 0.012
    at 0.5 and 0.013 against 0 at 0.8. Each margin below is 60-70% of its measured gap."""
    persistent = persistent_densities
    flat = mean_densities(year_tree, tmp_path_factory.mktemp("flat"))
    margins = {(15, "0.5"): 0.25, (15, "0.8"): 0.03, (30, "0.5"): 0.2, (30, "0.8"): 0.008}
    gaps = {key: persistent[key] - flat[key] for key in margins}
    assert all(gaps[key] >= margin for key, margin in margins.items()), (persistent, flat)


@criterion("shared-trend-and-cycle-density")
def test_shared_trend_and_weekly_cycle_do_not_raise_persistent_density(persistent_densities,
                                                                        keywords,
                                                                        tmp_path_factory):
    """The same AR(1) latents (phi = 0.9, seed 0) plus a trend and a weekly cycle that
    every keyword shares, with no shared innovation: a line falling by 2 latent units
    over the year (24 on the 50 + 12x scale) and a weekly sine of amplitude 0.4 (about
    +-10% of the level 50). Against the latents alone, mean density does not rise; it
    falls a little. Gaps measured (shared - alone): W = 15, -0.0051 at 0.5 (0.4771 -
    0.4821) and -0.0052 at 0.8 (0.0480 - 0.0532); W = 30, -0.0291 at 0.5 (0.2609 -
    0.2900) and -0.0045 at 0.8 (0.0089 - 0.0133). Seeds 1-4 read -0.052 to -0.0047,
    every gap negative. The bounds below leave at least 0.0045 above each seed-0 gap
    and 0.02 below it."""
    root = tmp_path_factory.mktemp("shared")
    series = persistent_series(np.random.default_rng(0), keywords, 0.9, trend=-2.0, cycle=0.4)
    write_export_tree(root / "tree", series)
    shared = mean_densities(root / "tree", root / "shared")
    gaps = {key: shared[key] - alone for key, alone in persistent_densities.items()}
    assert all(-0.05 <= gap <= 0.0 for gap in gaps.values()), (shared, persistent_densities)
