"""Command line interface: stitch, analyze, report.

Exit codes: 0 success, 2 input validation or bad parameters, 3 I/O
problems (missing files or directories), 4 insufficient data for the
requested window. Validation messages name the offending file and
date/row. Flag values override config-file values, which override the
built-in defaults; a config key is a flag name of the same command.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from datetime import date
from pathlib import Path

from . import correlate, ingest, netstat, render, stitch, timeline, util
from .errors import TrendnetError
from .registry import KeywordRegistry

DEFAULT_WINDOWS = "15,30"
DEFAULT_THRESHOLDS = "0.4,0.5,0.6,0.8"


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: Path) -> str:
    try:
        return path.read_text("utf-8")
    except OSError as err:
        raise CommandError(3, f"{path}: {err.strerror or err}") from err


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, "utf-8")
    except OSError as err:
        raise CommandError(3, f"{path}: {err.strerror or err}") from err


def _resolve(args: argparse.Namespace, config: dict[str, str], key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _load_config(args: argparse.Namespace) -> dict[str, str]:
    if args.config is None:
        return {}
    known = set(vars(args)) - {"command", "func", "config"}
    try:
        return util.parse_config(_read_text(Path(args.config)), known)
    except ValueError as err:
        raise CommandError(2, f"{args.config}: {err}") from err


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

def cmd_stitch(args: argparse.Namespace) -> int:
    config = _load_config(args)
    daily_dir = _resolve(args, config, "daily_dir")
    weekly_dir = _resolve(args, config, "weekly_dir")
    out_dir = _resolve(args, config, "out")
    if not (daily_dir and weekly_dir and out_dir):
        raise CommandError(2, "stitch requires --daily-dir, --weekly-dir and --out")
    registry = _load_registry(_resolve(args, config, "registry"))
    span = (
        _parse_date(_resolve(args, config, "span_start", "2020-03-16"), "--span-start"),
        _parse_date(_resolve(args, config, "span_end", "2021-03-15"), "--span-end"),
    )
    daily_root = Path(daily_dir)
    weekly_root = Path(weekly_dir)
    if not daily_root.is_dir():
        raise CommandError(3, f"{daily_root}: not a directory")
    if not weekly_root.is_dir():
        raise CommandError(3, f"{weekly_root}: not a directory")

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

    # Every keyword is stitched before any file is written, so a failure
    # leaves no partial output.
    texts = {keyword: stitch_keyword(keyword) for keyword in registry.keywords}
    for keyword, text in texts.items():
        _write_text(Path(out_dir) / f"{keyword}.csv", text)
    print(f"stitched {len(texts)} keywords -> {out_dir}")
    return 0


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


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config(args)
    stitched_dir = _resolve(args, config, "stitched")
    out_dir = _resolve(args, config, "out")
    if not (stitched_dir and out_dir):
        raise CommandError(2, "analyze requires --stitched and --out")
    windows = _parse_windows(_resolve(args, config, "windows", DEFAULT_WINDOWS))
    thresholds = _parse_thresholds(_resolve(args, config, "thresholds", DEFAULT_THRESHOLDS))
    series = _load_stitched(Path(stitched_dir), _resolve(args, config, "registry"))
    out_root = Path(out_dir)

    periods_raw = getattr(args, "period", None) or None
    if periods_raw is None and "period" in config:
        periods_raw = [config["period"]]
    explicit_periods = None
    if periods_raw:
        try:
            explicit_periods = [util.parse_period(tok) for tok in periods_raw]
        except ValueError as err:
            raise CommandError(2, str(err)) from err

    any_series = next(iter(series.values()))
    # Every window is checked against the data before the first file is
    # written, so a failure leaves no partial output.
    too_long = [w for w in windows if w > len(any_series)]
    if too_long:
        raise CommandError(4, f"--windows {too_long[0]} exceeds {len(any_series)} days of data")
    for window in windows:
        try:
            frames = correlate.rolling_correlation(series, window)
        except TrendnetError as err:
            raise CommandError(2, str(err)) from err
        _write_text(out_root / f"correlations_w{window}.csv",
                    correlate.emit_correlations_csv(frames))

        periods = explicit_periods or util.default_periods(
            any_series.start_date, frames.label_dates[-1].item()
        )
        pair_rows = []
        triad_rows = []
        for theta in thresholds:
            graphs = netstat.threshold_adjacency(frames, theta)
            _write_text(out_root / f"metrics_w{window}_t{theta:g}.csv",
                        netstat.emit_metrics_csv(netstat.frame_metrics(graphs)))
            for period in periods:
                try:
                    pairs = netstat.pair_persistence(graphs, period)
                    triads = netstat.triad_persistence(graphs, period)
                except TrendnetError:
                    continue  # period does not intersect the frames
                pair_rows.extend((period, theta, pair, count) for pair, count in pairs)
                triad_rows.extend((period, theta, triple, count) for triple, count in triads)
        _write_text(out_root / f"persistence_pairs_w{window}.csv",
                    netstat.emit_persistence_csv(pair_rows))
        _write_text(out_root / f"persistence_triads_w{window}.csv",
                    netstat.emit_persistence_csv(triad_rows))
    print(
        f"analyzed {len(series)} keywords, windows {windows},"
        f" thresholds {thresholds} -> {out_dir}"
    )
    return 0


# --- report ---

def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    metrics_dir = _resolve(args, config, "metrics")
    out_value = _resolve(args, config, "out")
    if not (metrics_dir and out_value):
        raise CommandError(2, "report requires --metrics and --out")
    metric = _resolve(args, config, "metric", "density")
    if metric not in ("density", "clustering"):
        raise CommandError(2, f"metric must be density or clustering, got {metric!r}")
    metrics_root = Path(metrics_dir)
    if not metrics_root.is_dir():
        raise CommandError(3, f"{metrics_root}: not a directory")
    metric_files = sorted(metrics_root.glob("metrics_w*_t*.csv"))
    if not metric_files:
        raise CommandError(3, f"{metrics_root}: no metrics_w*_t*.csv files")

    by_window: dict[int, list[netstat.MetricPoint]] = {}
    for path in metric_files:
        for point in netstat.parse_metrics_csv(_read_text(path)):
            by_window.setdefault(point.window_days, []).append(point)

    events_value = _resolve(args, config, "events")
    if events_value is None:
        events = timeline.load_bundled_events()
    else:
        try:
            events = timeline.load_events(_read_text(Path(events_value)))
        except TrendnetError as err:
            raise CommandError(2, f"{events_value}: {err}") from err

    out_path = Path(out_value)
    stem = out_path.stem if out_path.suffix else out_path.name
    texts = {}
    for window in sorted(by_window):
        points = by_window[window]
        name = f"{stem}_w{window}"
        try:
            texts[f"{name}.svg"] = render.render_metric_chart(points, events, metric=metric)
        except TrendnetError as err:
            raise CommandError(2, str(err)) from err
        texts[f"{name}.json"] = render.metrics_report_json(points, events)
    # Every window is rendered before any file is written, as in stitch.
    for name, text in texts.items():
        _write_text(out_path.with_name(name), text)
    print(f"reported windows {sorted(by_window)} -> {out_path.parent or Path('.')}")
    return 0


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
    p_stitch.add_argument("--span-start", dest="span_start")
    p_stitch.add_argument("--span-end", dest="span_end")
    p_stitch.add_argument("--config")
    p_stitch.set_defaults(func=cmd_stitch)

    p_analyze = sub.add_parser("analyze", help="correlation frames, graph metrics, persistence")
    p_analyze.add_argument("--stitched", help="directory of stitched CSVs")
    p_analyze.add_argument("--registry")
    p_analyze.add_argument("--windows", help=f"comma list (default {DEFAULT_WINDOWS})")
    p_analyze.add_argument("--thresholds", help=f"comma list (default {DEFAULT_THRESHOLDS})")
    p_analyze.add_argument("--period", action="append",
                           help="start:end persistence period (repeatable; default quarters)")
    p_analyze.add_argument("--out")
    p_analyze.add_argument("--config")
    p_analyze.set_defaults(func=cmd_analyze)

    p_report = sub.add_parser("report", help="SVG charts and JSON reports from metrics")
    p_report.add_argument("--metrics", help="directory holding metrics_w*_t*.csv")
    p_report.add_argument("--events", help="events CSV (default: bundled timeline)")
    p_report.add_argument("--metric", choices=("density", "clustering"))
    p_report.add_argument("--out", help="output SVG path; _w<window> is appended per window")
    p_report.add_argument("--config")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except TrendnetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
