"""Command line interface: stitch, analyze, report.

`main` resolves each setting once (flag, else config line, else `DEFAULTS`,
with the `REQUIRED` flags checked), calls `cmd_<command>`, which computes
every output text and writes nothing, and hands the texts to `_commit`. That
writes each text to a hidden `.<name>.part` beside its target and, once all
are written, moves them into place, keeping each replaced file as
`.<name>.prev` until the last move; a failed command leaves no output and
puts back any file it had replaced.

Exit codes: 0 success, 2 input validation or bad parameters, 3 I/O
problems, 4 insufficient data for the requested window. Validation messages
name the offending file and date/row. A config key is a flag name of the
same command; `period` may repeat, as `--period` does, and applies in file
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


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: Path) -> str:
    try:
        return path.read_text("utf-8")
    except OSError as err:
        raise CommandError(3, f"{path}: {err.strerror or err}") from err


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings by flag dest: flag over config line over default."""
    defaults = DEFAULTS[args.command]
    config = {}
    if args.config is not None:
        try:
            config = util.parse_config(_read_text(Path(args.config)), set(defaults), {"period"})
        except ValueError as err:
            raise CommandError(2, f"{args.config}: {err}") from err
    flags = {key: getattr(args, key) for key in defaults if getattr(args, key) is not None}
    settings = {**defaults, **config, **flags}
    if not all(settings[key] for key in REQUIRED[args.command]):
        names = [f"--{key.replace('_', '-')}" for key in REQUIRED[args.command]]
        raise CommandError(2, f"{args.command} requires {', '.join(names[:-1])} and {names[-1]}")
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
        raise CommandError(3, f"{path}: {err.strerror or err}") from err
    for prev in prevs.values():
        prev.unlink()


def _load_registry(path_value) -> KeywordRegistry:
    if path_value is None:
        return KeywordRegistry.default()
    path = Path(path_value)
    try:
        return KeywordRegistry.from_csv(_read_text(path))
    except (TrendnetError, ValueError) as err:
        raise CommandError(2, f"{path}: {err}") from err


def _parse_date(value: str, what: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise CommandError(2, f"{what} must be an ISO date, got {value!r}") from None


def _reject_label_collisions(flag: str, raw: str, labels: list[str]) -> None:
    """Output files are named by these labels, so two equal labels would
    overwrite each other's files and repeat persistence rows."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise CommandError(
            2, f"{flag} values repeat the output label {', '.join(repeated)}, got {raw!r}"
        )


def _parse_windows(raw: str) -> list[int]:
    try:
        windows = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise CommandError(2, f"--windows must be integers, got {raw!r}") from None
    # dCor needs at least 2 points; a 1-day window would give all-zero frames.
    if not windows or any(w < 2 for w in windows):
        raise CommandError(2, f"--windows must be integers of at least 2 days, got {raw!r}")
    _reject_label_collisions("--windows", raw, [str(w) for w in windows])
    return windows


def _parse_thresholds(raw: str) -> list[float]:
    try:
        thresholds = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise CommandError(2, f"thresholds must be numbers, got {raw!r}") from None
    if not thresholds or any(not 0.0 < t < 1.0 for t in thresholds):
        raise CommandError(2, f"thresholds must lie in (0,1), got {raw!r}")
    # report draws one line colour per threshold.
    if len(thresholds) > len(render.SERIES_PALETTE):
        raise CommandError(
            2, f"--thresholds takes at most {len(render.SERIES_PALETTE)} values,"
               f" got {len(thresholds)}"
        )
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
        raise CommandError(2, f"--span-start {span[0]} is after --span-end {span[1]}")
    daily_root = Path(settings["daily_dir"])
    weekly_root = Path(settings["weekly_dir"])
    for root in (daily_root, weekly_root):
        if not root.is_dir():
            raise CommandError(3, f"{root}: not a directory")

    def stitch_keyword(keyword: str) -> str:
        seg_dir = daily_root / keyword
        if not seg_dir.is_dir():
            raise CommandError(3, f"{seg_dir}: missing daily segment directory")
        seg_files = sorted(seg_dir.glob("*.csv"))
        if not seg_files:
            raise CommandError(3, f"{seg_dir}: no segment CSV files")
        segments = []
        for seg_file in seg_files:
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    segments.append(ingest.parse_daily_segment(_read_text(seg_file), keyword))
            except TrendnetError as err:
                raise CommandError(2, f"{seg_file}: {err}") from err
            for warning in caught:
                warnings.warn(f"{seg_file}: {warning.message}", warning.category)
        weekly_file = weekly_root / f"{keyword}.csv"
        if not weekly_file.is_file():
            raise CommandError(3, f"{weekly_file}: missing weekly file")
        try:
            weekly = ingest.parse_weekly(_read_text(weekly_file), keyword)
            daily = ingest.assemble_daily(segments, span=span)
            rescaled = stitch.stitch_series(daily, weekly)
        except TrendnetError as err:
            raise CommandError(2, f"{seg_dir}: {err}") from err
        return ingest.emit_daily_csv(rescaled)

    texts = {Path(settings["out"]) / f"{kw}.csv": stitch_keyword(kw) for kw in registry.keywords}
    return texts, f"stitched {len(texts)} keywords -> {settings['out']}"


# --- analyze ---

def _load_stitched(stitched_dir: Path, registry_value):
    if not stitched_dir.is_dir():
        raise CommandError(3, f"{stitched_dir}: not a directory")
    if registry_value is not None:
        keywords = _load_registry(registry_value).keywords
    else:
        keywords = tuple(sorted(p.stem for p in stitched_dir.glob("*.csv")))
    if not keywords:
        raise CommandError(3, f"{stitched_dir}: no stitched CSV files")
    series = {}
    for keyword in keywords:
        path = stitched_dir / f"{keyword}.csv"
        if not path.is_file():
            raise CommandError(3, f"{path}: missing stitched file")
        try:
            series[keyword] = ingest.parse_stitched(_read_text(path), keyword)
        except TrendnetError as err:
            raise CommandError(2, f"{path}: {err}") from err
    return series


def cmd_analyze(settings: dict) -> tuple[dict[Path, str], str]:
    windows = _parse_windows(settings["windows"])
    thresholds = _parse_thresholds(settings["thresholds"])
    series = _load_stitched(Path(settings["stitched"]), settings["registry"])
    out_root = Path(settings["out"])

    try:
        explicit_periods = [util.parse_period(tok) for tok in settings["period"] or ()]
    except ValueError as err:
        raise CommandError(2, str(err)) from err

    any_series = next(iter(series.values()))
    texts = {}
    for window in windows:
        if window > len(any_series):
            raise CommandError(4, f"--windows {window} exceeds {len(any_series)} days of data")
        try:
            frames = correlate.rolling_correlation(series, window)
        except TrendnetError as err:
            raise CommandError(2, str(err)) from err
        texts[out_root / f"correlations_w{window}.csv"] = correlate.emit_correlations_csv(frames)

        first, last = frames.label_dates[[0, -1]].tolist()
        periods = []
        # A long window can leave a default quarter without frames; it is skipped.
        for start, end in explicit_periods or util.default_periods(any_series.start_date, last):
            if netstat.period_mask(frames.label_dates, (start, end)).any():
                periods.append((start, end))
            elif explicit_periods:
                raise CommandError(2, f"--period {start}:{end} selects no frame of window"
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
        raise CommandError(2, f"metric must be density or clustering, got {metric!r}")
    metrics_root = Path(settings["metrics"])
    if not metrics_root.is_dir():
        raise CommandError(3, f"{metrics_root}: not a directory")
    metric_files = sorted(metrics_root.glob("metrics_w*_t*.csv"))
    if not metric_files:
        raise CommandError(3, f"{metrics_root}: no metrics_w*_t*.csv files")

    tables = []
    for path in metric_files:
        try:
            tables.append(netstat.parse_metrics_csv(_read_text(path)))
        except TrendnetError as err:
            raise CommandError(2, f"{path}: {err}") from err
    table = netstat.MetricTable.concat(tables)
    windows = sorted(set(table.window_days))

    events_value = settings["events"]
    if events_value is None:
        events = timeline.load_bundled_events()
    else:
        try:
            events = timeline.load_events(_read_text(Path(events_value)))
        except TrendnetError as err:
            raise CommandError(2, f"{events_value}: {err}") from err

    out_path = Path(settings["out"])
    stem = out_path.stem if out_path.suffix else out_path.name
    texts = {}
    for window in windows:
        points = table.take([i for i, w in enumerate(table.window_days) if w == window])
        name = f"{stem}_w{window}"
        try:
            texts[out_path.with_name(f"{name}.svg")] = render.render_metric_chart(
                points, events, metric=metric)
        except TrendnetError as err:
            raise CommandError(2, str(err)) from err
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
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except TrendnetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
