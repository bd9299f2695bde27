"""The one place that builds what tier-1 feeds trendnet: correlation frames, graph
level stacks, daily and weekly series, synthetic export trees, and the three
reference fixtures (`reference_series`, `run_reference`) that tier-1 and
`tests/pipeline_outputs.py` share. Also the mutations a test plants in an input
tree, the CPUs shown to the fork sites, and the two failure contracts:
`assert_fails` for the CLI and `assert_raises` for the library."""

from __future__ import annotations

import contextlib
import io
import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from trendnet import kernels
from trendnet.cli import main
from trendnet.correlate import CorrelationFrame
from trendnet.errors import TrendnetError
from trendnet.ingest import DailySeries, WeeklySeries
from trendnet.netstat import GraphFrame
from trendnet.registry import CATEGORIES, KeywordRegistry
from trendnet.util import csv_field

SPAN_START = date(2020, 3, 16)
SPAN_END = date(2021, 3, 15)
SPAN_DAYS = (SPAN_END - SPAN_START).days + 1  # 365

DAY = timedelta(days=1)
FIRST_LABEL = date(2020, 3, 31)  # the first 15-day window's label from SPAN_START


def corr_frames(matrix, start: date = FIRST_LABEL, keywords=None) -> CorrelationFrame:
    """15-day CorrelationFrame of one (K, K) dcor matrix or an (F, K, K) stack, its
    frames labeled start, start+1, ...; keywords k0, k1, ... unless given."""
    matrix = np.asarray(matrix, dtype=float)
    matrix = matrix[None] if matrix.ndim == 2 else matrix
    n_frames, k, _ = matrix.shape
    return CorrelationFrame(np.datetime64(start) + np.arange(n_frames), 15,
                            keywords or tuple(f"k{i}" for i in range(k)), matrix)


def graph_stack(levels, start: date = FIRST_LABEL, thresholds=(0.5,), keywords=None,
                dtype=np.uint8) -> GraphFrame:
    """15-day GraphFrame of one (K, K) or an (F, K, K) level stack of `thresholds`, as
    `dtype`, labeled as by `corr_frames`: a 0/1 stack is the levels of one threshold."""
    levels = np.asarray(levels, dtype=dtype)
    levels = levels[None] if levels.ndim == 2 else levels
    n_frames, k, _ = levels.shape
    return GraphFrame(np.datetime64(start) + np.arange(n_frames), 15, tuple(thresholds),
                      keywords or tuple(f"k{i}" for i in range(k)), levels)


def graph_from_edges(n: int, edges) -> GraphFrame:
    """One-frame graph on n vertices with the given (i, j) edges."""
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    return graph_stack(adjacency)


def random_graph(rng, n: int, density: float) -> np.ndarray:
    """(n, n) symmetric 0/1 adjacency, each pair an edge with probability `density`."""
    upper = np.triu(rng.random((n, n)) < density, 1)
    return (upper | upper.T).astype(np.uint8)


def daily_series(values, start: date = SPAN_START) -> DailySeries:
    return DailySeries(start, np.asarray(values, dtype=float))


def weekly_series(values, start: date = SPAN_START) -> WeeklySeries:
    return WeeklySeries(start, np.asarray(values, dtype=float))


def daily_csv(start: date, values, preamble: str = "") -> str:
    lines = []
    if preamble:
        lines.extend(preamble.splitlines())
    for offset, value in enumerate(values):
        lines.append(f"{(start + offset * DAY).isoformat()},{value}")
    return "\n".join(lines) + "\n"


def weekly_csv(start: date, values) -> str:
    lines = ["Week,value"]
    for idx, value in enumerate(values):
        lines.append(f"{(start + idx * 7 * DAY).isoformat()},{value}")
    return "\n".join(lines) + "\n"


def segment_bounds(start: date = SPAN_START, end: date = SPAN_END) -> list[tuple[date, date]]:
    """Consecutive export segments: the first ends one month in, the rest
    are 31-day blocks, with whatever remains as the final block."""
    bounds = []
    seg_start = start
    seg_end = date(2020, 4, 15) if start == SPAN_START else min(start + 30 * DAY, end)
    while True:
        bounds.append((seg_start, min(seg_end, end)))
        if seg_end >= end:
            return bounds
        seg_start = seg_end + DAY
        seg_end = seg_start + 30 * DAY


def normalize_segment(values: np.ndarray) -> np.ndarray:
    """Scale a block so its maximum exports as 100, like a per-request draw."""
    peak = values.max()
    if peak <= 0:
        return np.zeros_like(values)
    return np.rint(100.0 * values / peak)


def week_starts(start: date = SPAN_START, end: date = SPAN_END) -> list[date]:
    starts = []
    cursor = start
    while cursor <= end:
        starts.append(cursor)
        cursor += 7 * DAY
    return starts


def write_export_tree(
    root: Path,
    true_series: dict[str, np.ndarray],
    start: date = SPAN_START,
    end: date = SPAN_END,
) -> tuple[Path, Path]:
    """Write daily/<kw>/<n>.csv segment exports plus weekly/<kw>.csv.

    `true_series` holds each keyword's latent daily values on a common
    scale; segments are renormalized per block the way separate export
    requests would be, and the weekly file carries week averages of the
    truth renormalized to its own 0-100 scale.
    """
    daily_root = root / "daily"
    weekly_root = root / "weekly"
    n_days = (end - start).days + 1
    starts = week_starts(start, end)
    for keyword, series in true_series.items():
        series = np.asarray(series, dtype=float)
        assert series.shape == (n_days,)
        seg_dir = daily_root / keyword
        seg_dir.mkdir(parents=True, exist_ok=True)
        for idx, (seg_start, seg_end) in enumerate(segment_bounds(start, end), 1):
            lo = (seg_start - start).days
            hi = (seg_end - start).days + 1
            block = normalize_segment(series[lo:hi])
            (seg_dir / f"{idx}.csv").write_text(
                daily_csv(seg_start, (f"{v:g}" for v in block)), "utf-8"
            )
        averages = []
        for ws in starts:
            lo = (ws - start).days
            hi = min(lo + 7, n_days)
            averages.append(series[lo:hi].mean())
        averages = np.asarray(averages)
        peak = averages.max()
        weekly = averages * (100.0 / peak) if peak > 0 else averages
        weekly_root.mkdir(parents=True, exist_ok=True)
        (weekly_root / f"{keyword}.csv").write_text(
            weekly_csv(starts[0], (f"{v:.4f}" for v in weekly)), "utf-8"
        )
    return daily_root, weekly_root


def flat_latent_series(rng: np.ndarray, keywords) -> dict[str, np.ndarray]:
    """Independent rough series per keyword, values safely inside (0, 100)."""
    return {
        kw: np.clip(rng.uniform(10, 90, SPAN_DAYS) + rng.normal(0, 3, SPAN_DAYS), 0, 100)
        for kw in keywords
    }


def persistent_series(rng, keywords, phi: float, trend: float = 0.0,
                      cycle: float = 0.0) -> dict[str, np.ndarray]:
    """Independent AR(1) latents per keyword, persistent from day to day as search
    interest is, with no dependence between keywords: stationary x[t] = phi x[t-1]
    + e[t] of unit variance, on the common positive scale 50 + 12x clipped to [1, 100].

    `trend` and `cycle` add the same deterministic terms to every keyword's latent,
    in its units: a line through 0 at mid-span that moves by `trend` over the span,
    and a weekly sine of amplitude `cycle`. No innovation is shared, and with both
    at 0 the series are those of the latents alone, from the same draws."""
    latent = np.empty((SPAN_DAYS, len(keywords)))
    latent[0] = rng.normal(size=len(keywords))
    shocks = rng.normal(0.0, np.sqrt(1 - phi * phi), latent.shape)
    for day in range(1, SPAN_DAYS):
        latent[day] = phi * latent[day - 1] + shocks[day]
    days = np.arange(SPAN_DAYS)[:, None]
    shared = trend * (days / (SPAN_DAYS - 1) - 0.5) + cycle * np.sin(2 * np.pi * days / 7)
    return {kw: np.clip(50 + 12 * x, 1, 100) for kw, x in zip(keywords, (latent + shared).T)}


def planted_block_series(
    rng,
    keywords=None,
    block_size: int = 5,
    noise_sd: float = 1.5,
) -> tuple[dict[str, np.ndarray], list[list[str]]]:
    """Three planted correlation blocks over the default 15 keywords.

    Keywords within a block share a strong two-level latent signal that
    flips day to day (so every short window sees real variation) plus small
    per-keyword noise; latents of different blocks are independent.
    """
    if keywords is None:
        keywords = KeywordRegistry.default().keywords
    assert len(keywords) % block_size == 0
    blocks = [
        list(keywords[i : i + block_size]) for i in range(0, len(keywords), block_size)
    ]
    series = {}
    for block in blocks:
        levels = rng.choice([20.0, 80.0], size=SPAN_DAYS)
        latent = levels + rng.uniform(-2, 2, SPAN_DAYS)
        for kw in block:
            noisy = latent + rng.normal(0, noise_sd, SPAN_DAYS)
            series[kw] = np.clip(noisy, 0, 100)
    return series, blocks


# Keywords that the CSV writers must quote or escape, in unsorted order.
QUOTED_KEYWORDS = (
    "work from home", 'say "ahh"', "zinc, vitamin c", "100% cotton", "%s,%d",
    "face shield", "ubo", "lagnat, ubo", "50%% off", 'masks "n95", kn95',
    "social distancing", "ecq", "a b c", "fever 38.5%", "cough",
)
REFERENCE_FIXTURES = ("planted", "flat", "quoted")


def reference_series(name: str) -> tuple[dict[str, np.ndarray], str | None]:
    """Reference fixture `name`'s latent series and registry CSV text (None: the built-in
    keywords): `planted` blocks of five (seed 42), `flat` independent series (seed 101),
    `quoted` the planted blocks (seed 43) over `QUOTED_KEYWORDS`."""
    keywords = KeywordRegistry.default().keywords
    if name == "flat":
        return flat_latent_series(np.random.default_rng(101), keywords), None
    if name == "planted":
        return planted_block_series(np.random.default_rng(42), keywords)[0], None
    assert name == "quoted", name
    registry = "keyword,category\n" + "".join(
        f"{csv_field(kw)},{CATEGORIES[i % len(CATEGORIES)]}\n"
        for i, kw in enumerate(QUOTED_KEYWORDS))
    return planted_block_series(np.random.default_rng(43), QUOTED_KEYWORDS)[0], registry


def dress_daily_exports(daily: Path) -> None:
    """Rewrite each daily export the way real ones look, values unchanged: a
    `Category` line, a blank row and a `Day,<keyword>: (Philippines)` header
    first, CRLF line ends, and a UTF-8 byte-order mark on every other file."""
    for i, path in enumerate(sorted(daily.glob("*/*.csv"))):
        day = csv_field(f"{path.parent.name}: (Philippines)")
        path.write_text(f"Category: All categories\n\nDay,{day}\n" + path.read_text("utf-8"),
                        "utf-8-sig" if i % 2 else "utf-8", newline="\r\n")


def run_reference(root: Path, name: str) -> Path:
    """Write reference fixture `name`'s export tree under root/inputs and run `main`'s
    stitch, analyze and two reports (density, clustering) on default settings, writing
    37 files under root/out, which it returns. `quoted` dresses its daily exports and
    passes its registry to stitch and analyze, so the CSV writers quote its keywords."""
    series, registry = reference_series(name)
    daily, weekly = write_export_tree(root / "inputs", series)
    given = []
    if registry is not None:
        dress_daily_exports(daily)
        given = ["--registry", str(write(root / "inputs" / "registry.csv", registry))]
    out = root / "out"
    commands = [
        ["stitch", "--daily-dir", str(daily), "--weekly-dir", str(weekly), *given,
         "--out", str(out / "stitched")],
        ["analyze", "--stitched", str(out / "stitched"), *given,
         "--out", str(out / "analysis")],
        *(["report", "--metrics", str(out / "analysis"), "--metric", metric,
           "--out", str(out / "reports" / f"{metric}.svg")] for metric in ("density", "clustering")),
    ]
    for argv in commands:
        if main(argv) != 0:
            raise SystemExit(f"{root.name}: trendnet {argv[0]} failed")
    return out


def write(path: Path, text: str) -> Path:
    path.write_text(text, "utf-8")
    return path


def plant(path: Path, lineno: int, text: str | None = None, field: int | None = None) -> Path:
    """Replace line `lineno` (1-based) of a text file with `text`, or only its
    comma-separated field `field`; `text` None deletes the line or the field.
    Returns `path`, so a message can name it."""
    lines = path.read_text("utf-8").split("\n")
    if field is not None:
        fields = lines[lineno - 1].split(",")
        fields[field : field + 1] = [] if text is None else [text]
        text = ",".join(fields)
    lines[lineno - 1 : lineno] = [] if text is None else [text]
    return write(path, "\n".join(lines))


def mkdir(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def remove(path: Path) -> Path:
    """Delete a file, or a directory of files; returns `path`."""
    if path.is_dir():
        for child in path.iterdir():
            child.unlink()
        path.rmdir()
    else:
        path.unlink()
    return path


def rename_files(directory: Path, suffix: str) -> Path:
    """Give every file in `directory` the suffix `suffix`; returns `directory`."""
    for path in directory.iterdir():
        path.rename(path.with_suffix(suffix))
    return directory


def tree_bytes(root: Path) -> dict[Path, bytes | None]:
    """Every path under `root`, relative to it, with a file's bytes (None for anything else)."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def assert_fails(root: Path, argv: list[str], code: int, message: str) -> None:
    """Check the CLI's failure contract on `main(argv)`.

    It returns `code`, prints nothing on stdout and exactly `error: <message>`
    on stderr, and leaves every path and byte under `root`, which holds the
    inputs and `--out` alike, as it found them: no `.part`, `.prev`, output
    or directory is left behind.
    """
    before = tree_bytes(root)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        result = main(argv), stdout.getvalue(), stderr.getvalue()
    assert result == (code, "", f"error: {message}\n"), result
    after = tree_bytes(root)
    assert after == before, sorted(p for p in before.keys() | after.keys()
                                   if before.get(p, ...) != after.get(p, ...))


def assert_raises(call, message: str, code: int = 2, kind: type = TrendnetError) -> None:
    """Check the library's failure contract on `call()`.

    It raises `kind` itself, not a subclass, whose text is exactly `message`
    and, for a `TrendnetError`, whose `code` (the exit status `main` returns
    for it) is `code`.
    """
    with pytest.raises(kind) as raised:
        call()
    error = raised.value
    assert (type(error), str(error)) == (kind, message), (type(error), str(error))
    if kind is TrendnetError:
        assert error.code == code, error.code


def raised_text(call) -> str:
    """The text of the exception `call()` raises: a row whose message comes from
    the standard library reads it here, as its wording may differ by Python version."""
    with pytest.raises(Exception) as raised:
        call()
    return str(raised.value)


def by_test_id(rows, run=lambda request, *row: assert_raises(*row)) -> dict:
    """Test functions by name, for a module's globals: the row `(id, *args)` runs
    `run(request, *args)`, by default `assert_raises(*args)` of a library failure
    row `(id, call, message[, code, kind])`, and is collected under `id`, `name` or
    `name[param]`, the id it had as a test function of its own."""
    cases = {}
    for case_id, *args in rows:
        name, _, param = case_id.partition("[")
        cases.setdefault(name, {})[param[:-1]] = args
    return {name: _test_of(run, params) for name, params in cases.items()}


def _test_of(run, params: dict):
    if list(params) == [""]:
        return lambda request: run(request, *params[""])

    @pytest.mark.parametrize("args", [pytest.param(args, id=param)
                                      for param, args in params.items()])
    def test(request, args):
        run(request, *args)
    return test


def show_cpus(monkeypatch, n: int) -> list[int]:
    """Show every fork site `n` CPUs; returns the list that records the pid
    of each process that forks, in fork order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    return forks


def show_dcor_workers(monkeypatch, n: int) -> list[int]:
    """`show_cpus(monkeypatch, n)`, and a single dCor frame pays for a worker of its own."""
    monkeypatch.setattr(kernels, "MIN_WORKER_WORK", 1)
    return show_cpus(monkeypatch, n)


def assert_reaped() -> None:
    """Every forked child was waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
