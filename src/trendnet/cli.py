"""Command line interface: stitch, analyze, report.

`main` resolves each setting once (flag, else config line, else `DEFAULTS`,
with the `REQUIRED` flags checked), calls `cmd_<command>`, which computes
every output text and writes nothing, and hands the texts to `_commit`. That
writes each text to a hidden `.<name>.part` beside its target and, once all
are written, moves them into place, keeping each replaced file as
`.<name>.prev` until the last move; a failed command leaves no output and
puts back any file it had replaced.

Every failure is a `TrendnetError`, whose `code` is the exit status (2 bad
input or parameters, 3 I/O, 4 too little data for a window), or an
`OSError` (3). `_parse` reads and parses one input file and prefixes an
error from it with that file's path, so the message names the file and
the date, row or line; a bad flag value is named by its flag. A config key is a flag name of the same
command; `period` may repeat, as `--period` does, and applies in file
order; any other key may appear only once.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from datetime import date
from pathlib import Path

from . import correlate, ingest, netstat, render, stitch, timeline, util
from .errors import TrendnetError
from .registry import KeywordRegistry

# Every setting of each command, by flag dest, with its built-in default.
DEFAULTS = {
    "stitch": {"daily_dir": None, "weekly_dir": None, "registry": None, "out": None,
               "span_start": "2020-03-16", "span_end": "2021-03-15"},
    "analyze": {"stitched": None, "registry": None, "windows": "15,30",
                "thresholds": "0.4,0.5,0.6,0.8", "period": None, "out": None},
    "report": {"metrics": None, "events": None, "metric": "density", "out": None},
}
REQUIRED = {
    "stitch": ("daily_dir", "weekly_dir", "out"),
    "analyze": ("stitched", "out"),
    "report": ("metrics", "out"),
}


def _parse(path: Path, parse, *args):
    """`parse(text, *args)` of the file at `path`; its errors are prefixed with
    the path and keep their exit code, and a failed read exits 3."""
    try:
        text = path.read_text("utf-8")
    except OSError as err:
        raise TrendnetError(f"{path}: {err.strerror or err}", 3) from err
    try:
        return parse(text, *args)
    except TrendnetError as err:
        raise TrendnetError(f"{path}: {err}", err.code) from err


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings by flag dest: flag over config line over default."""
    defaults = DEFAULTS[args.command]
    config = {}
    if args.config is not None:
        config = _parse(Path(args.config), util.parse_config, set(defaults), {"period"})
    flags = {key: getattr(args, key) for key in defaults if getattr(args, key) is not None}
    settings = {**defaults, **config, **flags}
    if not all(settings[key] for key in REQUIRED[args.command]):
        names = [f"--{key.replace('_', '-')}" for key in REQUIRED[args.command]]
        raise TrendnetError(f"{args.command} requires {', '.join(names[:-1])} and {names[-1]}")
    return settings


def _commit(texts: dict[Path, str]) -> None:
    """Write each text to `.<name>.part` beside its target, then move all into place.

    Each target replaced so far is kept as `.<name>.prev` until every part is
    in place; if a move fails, the earlier files are put back.
    """
    parts, prevs, placed = {}, {}, []
    try:
        for path, text in texts.items():
            parts[path] = path.with_name(f".{path.name}.part")
            path.parent.mkdir(parents=True, exist_ok=True)
            parts[path].write_text(text, "utf-8")
        for path, part in parts.items():
            if path.is_symlink() or path.exists() and not path.is_dir():
                prev = path.with_name(f".{path.name}.prev")
                os.replace(path, prev)
                prevs[path] = prev
            os.replace(part, path)
            placed.append(path)
    except OSError as err:
        for new in placed:
            if new not in prevs:
                new.unlink()
        for target, prev in prevs.items():
            os.replace(prev, target)
        for part in parts.values():
            part.unlink(missing_ok=True)
        raise TrendnetError(f"{path}: {err.strerror or err}", 3) from err
    for prev in prevs.values():
        prev.unlink()


def _load_registry(path_value) -> KeywordRegistry:
    if path_value is None:
        return KeywordRegistry.default()
    return _parse(Path(path_value), KeywordRegistry.from_csv)


def _parse_date(value: str, what: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise TrendnetError(f"{what} must be an ISO date, got {value!r}") from None


def _reject_label_collisions(flag: str, raw: str, labels: list[str]) -> None:
    """Output files are named by these labels, so two equal labels would
    overwrite each other's files and repeat persistence rows."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise TrendnetError(
            f"{flag} values repeat the output label {', '.join(repeated)}, got {raw!r}"
        )


def _parse_windows(raw: str) -> list[int]:
    try:
        windows = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise TrendnetError(f"--windows must be integers, got {raw!r}") from None
    # dCor needs at least 2 points; a 1-day window would give all-zero frames.
    if not windows or any(w < 2 for w in windows):
        raise TrendnetError(f"--windows must be integers of at least 2 days, got {raw!r}")
    _reject_label_collisions("--windows", raw, [str(w) for w in windows])
    return windows


def _parse_thresholds(raw: str) -> list[float]:
    try:
        thresholds = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise TrendnetError(f"--thresholds must be numbers, got {raw!r}") from None
    if not thresholds or any(not 0.0 < t < 1.0 for t in thresholds):
        raise TrendnetError(f"--thresholds must lie in (0,1), got {raw!r}")
    # report draws one line colour per threshold.
    if len(thresholds) > len(render.SERIES_PALETTE):
        raise TrendnetError(f"--thresholds takes at most {len(render.SERIES_PALETTE)} values,"
                            f" got {len(thresholds)}")
    _reject_label_collisions("--thresholds", raw, [f"{t:g}" for t in thresholds])
    return sorted(thresholds)


# --- stitch ---

def cmd_stitch(settings: dict) -> tuple[dict[Path, str], str]:
    registry = _load_registry(settings["registry"])
    span = (
        _parse_date(settings["span_start"], "--span-start"),
        _parse_date(settings["span_end"], "--span-end"),
    )
    if span[1] < span[0]:
        raise TrendnetError(f"--span-start {span[0]} is after --span-end {span[1]}")
    daily_root = Path(settings["daily_dir"])
    weekly_root = Path(settings["weekly_dir"])
    for root in (daily_root, weekly_root):
        if not root.is_dir():
            raise TrendnetError(f"{root}: not a directory", 3)

    def stitch_keyword(keyword: str) -> str:
        seg_dir = daily_root / keyword
        if not seg_dir.is_dir():
            raise TrendnetError(f"{seg_dir}: missing daily segment directory", 3)
        seg_files = sorted(seg_dir.glob("*.csv"))
        if not seg_files:
            raise TrendnetError(f"{seg_dir}: no segment CSV files", 3)
        segments = []
        for seg_file in seg_files:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                segments.append(_parse(seg_file, ingest.parse_daily_segment, keyword))
            for warning in caught:
                warnings.warn(f"{seg_file}: {warning.message}", warning.category)
        weekly = _parse(weekly_root / f"{keyword}.csv", ingest.parse_weekly, keyword)
        try:
            rescaled = stitch.stitch_series(ingest.assemble_daily(segments, span=span), weekly)
        except TrendnetError as err:
            raise TrendnetError(f"{seg_dir}: {err}", err.code) from err
        return ingest.emit_daily_csv(rescaled)

    texts = {Path(settings["out"]) / f"{kw}.csv": stitch_keyword(kw) for kw in registry.keywords}
    return texts, f"stitched {len(texts)} keywords -> {settings['out']}"


# --- analyze ---

def _load_stitched(stitched_dir: Path, registry_value):
    if not stitched_dir.is_dir():
        raise TrendnetError(f"{stitched_dir}: not a directory", 3)
    if registry_value is not None:
        keywords = _load_registry(registry_value).keywords
    else:
        keywords = tuple(sorted(p.stem for p in stitched_dir.glob("*.csv")))
    if not keywords:
        raise TrendnetError(f"{stitched_dir}: no stitched CSV files", 3)
    if len(keywords) < 2:
        raise TrendnetError(f"{stitched_dir}: 1 keyword ({keywords[0]}), analyze needs at least 2")
    return {kw: _parse(stitched_dir / f"{kw}.csv", ingest.parse_stitched, kw) for kw in keywords}


def cmd_analyze(settings: dict) -> tuple[dict[Path, str], str]:
    windows = _parse_windows(settings["windows"])
    thresholds = _parse_thresholds(settings["thresholds"])
    series = _load_stitched(Path(settings["stitched"]), settings["registry"])
    out_root = Path(settings["out"])
    explicit_periods = [util.parse_period(tok) for tok in settings["period"] or ()]

    any_series = next(iter(series.values()))
    texts = {}
    for window in windows:
        frames = correlate.rolling_correlation(series, window)
        texts[out_root / f"correlations_w{window}.csv"] = correlate.emit_correlations_csv(frames)

        first, last = frames.label_dates[[0, -1]].tolist()
        periods = []
        # A long window can leave a default quarter without frames; it is skipped.
        for start, end in explicit_periods or util.default_periods(any_series.start_date, last):
            if netstat.period_mask(frames.label_dates, (start, end)).any():
                periods.append((start, end))
            elif explicit_periods:
                raise TrendnetError(f"--period {start}:{end} selects no frame of window"
                                    f" {window}, labeled {first}..{last}")
        pair_groups, triad_groups = [], []
        for theta in thresholds:
            graphs = netstat.threshold_adjacency(frames, theta)
            texts[out_root / f"metrics_w{window}_t{theta:g}.csv"] = netstat.emit_metrics_csv(
                netstat.frame_metrics(graphs))
            for period in periods:
                pair_groups.append((period, theta, *netstat.pair_persistence(graphs, period)))
                triad_groups.append((period, theta, *netstat.triad_persistence(graphs, period)))
        texts[out_root / f"persistence_pairs_w{window}.csv"] = netstat.emit_persistence_csv(
            frames.keywords, pair_groups)
        texts[out_root / f"persistence_triads_w{window}.csv"] = netstat.emit_persistence_csv(
            frames.keywords, triad_groups)
    summary = (f"analyzed {len(series)} keywords, windows {windows},"
               f" thresholds {thresholds} -> {settings['out']}")
    return texts, summary


# --- report ---

def cmd_report(settings: dict) -> tuple[dict[Path, str], str]:
    metric = settings["metric"]
    if metric not in ("density", "clustering"):
        raise TrendnetError(f"metric must be density or clustering, got {metric!r}")
    metrics_root = Path(settings["metrics"])
    if not metrics_root.is_dir():
        raise TrendnetError(f"{metrics_root}: not a directory", 3)
    metric_files = sorted(metrics_root.glob("metrics_w*_t*.csv"))
    if not metric_files:
        raise TrendnetError(f"{metrics_root}: no metrics_w*_t*.csv files", 3)

    table = netstat.MetricTable.concat([_parse(path, netstat.parse_metrics_csv)
                                        for path in metric_files])
    windows = sorted(set(table.window_days))

    events_value = settings["events"]
    if events_value is None:
        events = timeline.load_bundled_events()
    else:
        events = _parse(Path(events_value), timeline.load_events)

    out_path = Path(settings["out"])
    stem = out_path.stem if out_path.suffix else out_path.name
    texts = {}
    for window in windows:
        points = table.take([i for i, w in enumerate(table.window_days) if w == window])
        name = f"{stem}_w{window}"
        texts[out_path.with_name(f"{name}.svg")] = render.render_metric_chart(
            points, events, metric=metric)
        texts[out_path.with_name(f"{name}.json")] = render.metrics_report_json(points, events)
    return texts, f"reported windows {windows} -> {out_path.parent or Path('.')}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendnet",
        description="Stitch segmented search-interest exports and analyze "
                    "rolling distance-correlation keyword networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stitch = sub.add_parser("stitch", help="rescale daily segments with weekly weights")
    p_stitch.add_argument("--daily-dir", dest="daily_dir")
    p_stitch.add_argument("--weekly-dir", dest="weekly_dir")
    p_stitch.add_argument("--registry", help="keyword,category CSV (default: built-in set)")
    p_stitch.add_argument("--out", help="output directory for stitched CSVs")
    for flag in ("span_start", "span_end"):
        p_stitch.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                              help=f"ISO date (default {DEFAULTS['stitch'][flag]})")

    default = DEFAULTS["analyze"]
    p_analyze = sub.add_parser("analyze", help="correlation frames, graph metrics, persistence")
    p_analyze.add_argument("--stitched", help="directory of stitched CSVs")
    p_analyze.add_argument("--registry")
    p_analyze.add_argument("--windows", help=f"comma list (default {default['windows']})")
    p_analyze.add_argument("--thresholds", help=f"comma list (default {default['thresholds']})")
    p_analyze.add_argument("--period", action="append",
                           help="start:end persistence period (repeatable; default quarters)")
    p_analyze.add_argument("--out")

    p_report = sub.add_parser("report", help="SVG charts and JSON reports from metrics")
    p_report.add_argument("--metrics", help="directory holding metrics_w*_t*.csv")
    p_report.add_argument("--events", help="events CSV (default: bundled timeline)")
    p_report.add_argument("--metric", choices=("density", "clustering"),
                          help=f"charted metric (default {DEFAULTS['report']['metric']})")
    p_report.add_argument("--out", help="output SVG path; _w<window> is appended per window")
    for p in (p_stitch, p_analyze, p_report):
        p.add_argument("--config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at call time, so a wrapper set on the module attribute runs.
        texts, summary = globals()[f"cmd_{args.command}"](_settings(args))
        _commit(texts)
    except TrendnetError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
