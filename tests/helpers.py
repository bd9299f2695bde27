"""Fixture builders: synthetic export trees shaped like the real inputs, the
mutations a test plants in them, CPUs shown to the fork sites, and the two
failure contracts: `assert_fails` for the CLI and `assert_raises` for the library."""

from __future__ import annotations

import contextlib
import io
import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from trendnet.cli import main
from trendnet.errors import TrendnetError
from trendnet.registry import KeywordRegistry

SPAN_START = date(2020, 3, 16)
SPAN_END = date(2021, 3, 15)
SPAN_DAYS = (SPAN_END - SPAN_START).days + 1  # 365

DAY = timedelta(days=1)


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


def assert_reaped() -> None:
    """Every forked child was waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
