"""Command line interface: stitch, analyze, report.

`SETTINGS` declares each setting of each command once: its flag and config
key (the flag without `--`; only `period` may repeat, as `--period` may),
its default, its parse function and its help. `main` resolves them in
`_settings` (flag, else config line, else default), parsing every value
once into a typed one and naming its source in an error: the flag
(`--windows must be integers, got '15,abc'`) or the config file and line
(`run.cfg: config line 2: windows must be ...`); empty text is an error,
as is a repeated value of a repeatable setting. Checks across values (the
span's order, a period's frames) name each value's source the same way.
`cmd_<command>` then computes its outputs, parsing no setting, and writes
each text to a hidden `.<name>.part` beside its target as soon as it is
computed, in the process that computed it: a forked keyword worker of
`stitch` and a forked window worker of `analyze` write the parts of their
own keywords or windows and send back only their paths, so no process holds
more than one window's outputs, and that is `analyze`'s peak, not every
window's. Only the parent places them: `_commit` moves
every part into place, keeping each replaced file as `.<name>.prev` until
the last move. A failed command leaves no output, no part and no directory
it created, and puts back any file it had replaced.

Every failure is a `TrendnetError`, whose `code` is the exit status (2 bad
input or parameters, 3 I/O, 4 too little data for a window), or an
`OSError` (3). Each rule is checked once, by the function that owns it;
the CLI adds only where the input came from, with `errors.prefixed`. `_parse`
reads and parses one input file and prefixes an error or a warning from it
with that file's path, so the message names the file and the date, row or
line; the parsers themselves take only text.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import contextmanager
from datetime import date, timedelta
from itertools import takewhile
from pathlib import Path

from . import correlate, ingest, netstat, render, stitch, timeline, util
from .errors import TrendnetError, prefixed
from .registry import KeywordRegistry, check_separator


def _parse(path: Path, parse, *args):
    """`parse(text, *args)` of the file at `path`, read as UTF-8 without a leading
    byte-order mark; its errors and warnings are prefixed with the path, errors
    keep their exit code, and a failed read exits 3."""
    try:
        text = path.read_text("utf-8-sig")
    except OSError as err:
        raise TrendnetError(f"{path}: {err.strerror or err}", 3) from err
    with prefixed(path), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parsed = parse(text, *args)
    for warning in caught:
        warnings.warn(f"{path}: {warning.message}", warning.category)
    return parsed


def _part(path: Path) -> Path:
    """The hidden file beside `path` that its text is written to before it is placed."""
    return path.with_name(f".{path.name}.part")


def _write_part(path: Path, text: str) -> Path:
    """Write `text` to the part of `path` and return `path`; a failed write exits 3 naming `path`."""
    try:
        _part(path).write_text(text, "utf-8")
    except OSError as err:
        raise TrendnetError(f"{path}: {err.strerror or err}", 3) from err
    return path


def _discard(targets: list[Path], made: list[Path]) -> None:
    """Remove the part of each target, where there is one, and the directories `made`."""
    for path in targets:
        _part(path).unlink(missing_ok=True)
    for directory in reversed(made):  # deepest first; a failed mkdir may have made fewer
        if directory.exists():
            directory.rmdir()


@contextmanager
def _staging(directory: Path, targets: list[Path]):
    """Create `directory` and its missing parents, and yield those created, shallowest
    first, to the block, which writes the parts of `targets`. If the block fails, every
    part of `targets` and the created directories are removed; a failed mkdir exits 3."""
    made = [*takewhile(lambda d: not d.exists(), [directory, *directory.parents])][::-1]
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        _discard([], made)
        raise TrendnetError(f"{directory}: {err.strerror or err}", 3) from err
    try:
        yield made
    except BaseException:
        _discard(targets, made)
        raise


def _commit(targets: list[Path], made: list[Path]) -> None:
    """Move the part of each target into place, in order.

    Each target replaced so far is kept as `.<name>.prev` until every part is
    in place; if a move fails, the earlier files are put back, and the parts
    and the directories `made` for them are removed.
    """
    prevs, placed = {}, []
    try:
        for path in targets:
            if path.is_symlink() or path.exists() and not path.is_dir():
                prev = path.with_name(f".{path.name}.prev")
                os.replace(path, prev)
                prevs[path] = prev
            os.replace(_part(path), path)
            placed.append(path)
    except OSError as err:
        for new in placed:
            if new not in prevs:
                new.unlink()
        for target, prev in prevs.items():
            os.replace(prev, target)
        _discard(targets, made)
        raise TrendnetError(f"{path}: {err.strerror or err}", 3) from err
    for prev in prevs.values():
        prev.unlink()


def _load_registry(path: Path | None) -> KeywordRegistry:
    return KeywordRegistry.default() if path is None else _parse(path, KeywordRegistry.from_csv)


def _parse_date(value: str) -> date:
    try:
        return util.iso_date(value)
    except ValueError:
        raise TrendnetError(f"must be an ISO date, got {value!r}") from None


def _parse_path(value: str) -> Path:
    if "\0" in value:  # no file name holds one; open() would raise ValueError
        raise TrendnetError(f"must not hold a NUL byte, got {value!r}")
    return Path(value)


def _parse_period(raw: str) -> tuple[date, date]:
    try:
        start, end = (util.iso_date(tok.strip()) for tok in raw.split(":"))
    except ValueError:
        raise TrendnetError(f"must be start:end ISO dates, got {raw!r}") from None
    if end < start:
        raise TrendnetError(f"end {end} precedes start {start}")
    return start, end


def _reject_label_collisions(raw: str, labels: list[str]) -> None:
    """Output files are named by these labels, so two equal labels would
    overwrite each other's files and repeat persistence rows."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise TrendnetError(f"values repeat the output label {', '.join(repeated)}, got {raw!r}")


def _parse_windows(raw: str) -> list[int]:
    try:
        windows = [util.number(tok, int) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise TrendnetError(f"must be integers, got {raw!r}") from None
    # dCor needs at least 2 points; a 1-day window would give all-zero frames.
    if not windows or any(w < 2 for w in windows):
        raise TrendnetError(f"must be integers of at least 2 days, got {raw!r}")
    _reject_label_collisions(raw, [str(w) for w in windows])
    return windows


def _parse_thresholds(raw: str) -> list[float]:
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    try:
        thresholds = [util.number(tok) for tok in tokens]
    except ValueError:
        raise TrendnetError(f"must be numbers, got {raw!r}") from None
    if not thresholds or any(not 0.0 < t < 1.0 for t in thresholds):
        raise TrendnetError(f"must lie in (0,1), got {raw!r}")
    # report draws one line colour per threshold.
    if len(thresholds) > len(render.SERIES_PALETTE):
        raise TrendnetError(f"takes at most {len(render.SERIES_PALETTE)} values,"
                            f" got {len(thresholds)}")
    labels = [f"{t:g}" for t in thresholds]
    _reject_label_collisions(raw, labels)
    for tok, t, label in zip(tokens, thresholds, labels):
        if float(label) != t:  # edges are drawn at t, but every output names the label
            raise TrendnetError(f"{tok} is labelled {label} in outputs;"
                                " give at most 6 significant digits")
    return sorted(thresholds)


def _parse_metric(value: str) -> str:
    if value not in render.METRIC_FIELDS:
        raise TrendnetError(f"must be {' or '.join(render.METRIC_FIELDS)}, got {value!r}")
    return value


REQUIRED = object()  # the default of a setting its command cannot run without
REPEATABLE = {"period"}  # a list of values, one per flag or config line

# Every setting of each command, by flag dest in `--help` order: (default, parse, help).
# A text default is parsed like a flag value; None means no value.
SETTINGS = {
    "stitch": {
        "daily_dir": (REQUIRED, _parse_path, None),
        "weekly_dir": (REQUIRED, _parse_path, None),
        "registry": (None, _parse_path, "keyword,category CSV (default: built-in set)"),
        "out": (REQUIRED, _parse_path, "output directory for stitched CSVs"),
        "span_start": ("2020-03-16", _parse_date, "ISO date"),
        "span_end": ("2021-03-15", _parse_date, "ISO date"),
    },
    "analyze": {
        "stitched": (REQUIRED, _parse_path, "directory of stitched CSVs"),
        "registry": (None, _parse_path, None),
        "windows": ("15,30", _parse_windows, "comma list"),
        "thresholds": ("0.4,0.5,0.6,0.8", _parse_thresholds, "comma list"),
        "period": (None, _parse_period,
                   "start:end persistence period (repeatable; default quarters)"),
        "out": (REQUIRED, _parse_path, None),
    },
    "report": {
        "metrics": (REQUIRED, _parse_path, "directory holding metrics_w*_t*.csv"),
        "events": (None, _parse_path, "events CSV (default: bundled timeline)"),
        "metric": ("density", _parse_metric, "charted metric, density or clustering"),
        "out": (REQUIRED, _parse_path, "output SVG path; _w<window> is appended per window"),
    },
}
COMMAND_HELP = {
    "stitch": "rescale daily segments with weekly weights",
    "analyze": "correlation frames, graph metrics, persistence",
    "report": "SVG charts and JSON reports from metrics",
}


def _parse_value(source: str, raw: str, parse):
    """`parse(raw)`, its error prefixed with `source`; empty text is an error."""
    if not raw.strip():
        raise TrendnetError(f"{source} is empty")
    with prefixed(source, " "):
        return parse(raw)


def _settings(args: argparse.Namespace) -> dict:
    """The command's parsed settings by flag dest: flag over config line over default,
    and under "sources" each dest's list of value sources, for checks across values.
    A repeatable setting given one value twice is an error naming both sources."""
    table = SETTINGS[args.command]
    config = {}
    if args.config is not None:
        path = _parse_value("--config", args.config, _parse_path)
        config = _parse(path, util.parse_config, set(table), REPEATABLE)
    raws = {}
    for key, (default, _, _) in table.items():
        name, given = key.replace("_", "-"), getattr(args, key)
        if given is not None:
            raws[key] = [(f"--{name}", raw) for raw in (given if key in REPEATABLE else [given])]
        elif key in config:
            raws[key] = [(f"{path}: config line {n}: {name}", raw) for n, raw in config[key]]
        else:
            raws[key] = [(f"--{name}", default)] if isinstance(default, str) else []
    required = [key for key, (default, _, _) in table.items() if default is REQUIRED]
    if not all(raws[key] for key in required):
        *names, last = (f"--{key.replace('_', '-')}" for key in required)
        raise TrendnetError(f"{args.command} requires {', '.join(names)} and {last}")
    settings = {"sources": {key: [source for source, _ in raws[key]] for key in table}}
    for key, (_, parse, _) in table.items():
        values = [_parse_value(source, raw, parse) for source, raw in raws[key]]
        for i, value in enumerate(values):
            if value in values[:i]:
                (source, raw), (first, first_raw) = raws[key][i], raws[key][values.index(value)]
                raise TrendnetError(f"{source} {raw} repeats {first} {first_raw}")
        settings[key] = values if key in REPEATABLE else values[0] if values else None
    return settings


# --- stitch ---

def cmd_stitch(settings: dict) -> tuple[list[Path], list[Path], str]:
    registry = _load_registry(settings["registry"])
    span = (settings["span_start"], settings["span_end"])
    if span[1] < span[0]:
        start_from, end_from = (settings["sources"][key][0] for key in ("span_start", "span_end"))
        raise TrendnetError(f"{start_from} {span[0]} is after {end_from} {span[1]}")
    daily_root, weekly_root = settings["daily_dir"], settings["weekly_dir"]
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
        segments = [_parse(seg_file, ingest.parse_daily_segment) for seg_file in seg_files]
        weekly = _parse(weekly_root / f"{keyword}.csv", ingest.parse_weekly)
        with prefixed(seg_dir):
            rescaled = stitch.stitch_series(ingest.assemble_daily(segments, span=span), weekly)
        return ingest.emit_daily_csv(rescaled)

    out = settings["out"]
    targets = [out / f"{kw}.csv" for kw in registry.keywords]
    # The keywords are independent, so contiguous groups of them run on every CPU;
    # a forked group writes its own parts and sends back only their paths.
    with _staging(out, targets) as made:
        util.forked_map(
            lambda group: [_write_part(out / f"{kw}.csv", stitch_keyword(kw)) for kw in group],
            registry.keywords, lambda group: f"stitch worker for keywords {group[0]}..{group[-1]}")
    return targets, made, f"stitched {len(targets)} keywords -> {out}"


# --- analyze ---

def _load_stitched(stitched_dir: Path, registry: Path | None):
    if not stitched_dir.is_dir():
        raise TrendnetError(f"{stitched_dir}: not a directory", 3)
    if registry is not None:
        keywords = _load_registry(registry).keywords
    else:
        keywords = tuple(sorted(p.stem for p in stitched_dir.glob("*.csv")))
        for kw in keywords:
            check_separator(kw, f"{stitched_dir / f'{kw}.csv'}: ")
    if not keywords:
        raise TrendnetError(f"{stitched_dir}: no stitched CSV files", 3)
    if len(keywords) < 2:
        raise TrendnetError(f"{stitched_dir}: 1 keyword ({keywords[0]}), analyze needs at least 2")
    return {kw: _parse(stitched_dir / f"{kw}.csv", ingest.parse_stitched) for kw in keywords}


def _window_outputs(out_root: Path, window: int, thresholds: list[float]) -> list[Path]:
    """The output files of one window, in the order `_analyze_windows` writes them."""
    return [out_root / f"correlations_w{window}.csv",
            *(out_root / f"metrics_w{window}_t{theta:g}.csv" for theta in thresholds),
            *(out_root / f"persistence_{kind}_w{window}.csv" for kind in ("pairs", "triads"))]


def _analyze_windows(series: dict, windows: list[int], settings: dict) -> list[Path]:
    """Write the correlation, metrics and persistence texts of each window, in window
    order, each to its part as soon as it is computed; returns their target paths."""
    explicit_periods, thresholds = settings["period"], settings["thresholds"]
    written = []
    for window in windows:
        outputs = _window_outputs(settings["out"], window, thresholds)
        correlations, *metrics, pairs, triads = outputs
        with prefixed(settings["stitched"]):
            frames = correlate.rolling_correlation(series, window)
        _write_part(correlations, correlate.emit_correlations_csv(frames))

        first, last = frames.label_dates[[0, -1]].tolist()
        periods = []
        # A long window can leave a default quarter without frames; it is skipped.
        candidates = explicit_periods or util.default_periods(first - timedelta(window), last)
        for i, (start, end) in enumerate(candidates):
            if netstat.period_mask(frames.label_dates, (start, end)).any():
                periods.append((start, end))
            elif explicit_periods:
                raise TrendnetError(f"{settings['sources']['period'][i]} {start}:{end} selects no"
                                    f" frame of window {window}, labeled {first}..{last}")
        groups = {netstat.pair_persistence: [], netstat.triad_persistence: []}
        for theta, path in zip(thresholds, metrics):
            graphs = netstat.threshold_adjacency(frames, theta)
            _write_part(path, netstat.emit_metrics_csv(netstat.frame_metrics(graphs)))
            for persistence, found in groups.items():
                found += [(p, theta, *c) for p, c in zip(periods, persistence(graphs, periods))]
        for path, found in zip((pairs, triads), groups.values()):
            _write_part(path, netstat.emit_persistence_csv(frames.keywords, found))
        written += outputs
    return written


def cmd_analyze(settings: dict) -> tuple[list[Path], list[Path], str]:
    series = _load_stitched(settings["stitched"], settings["registry"])
    windows, out = settings["windows"], settings["out"]
    every = [path for window in windows
             for path in _window_outputs(out, window, settings["thresholds"])]
    # The windows are independent, so contiguous groups of them run on every CPU;
    # a forked group writes its own parts and sends back only their paths.
    with _staging(out, every) as made:
        groups = util.forked_map(
            lambda group: _analyze_windows(series, group, settings), windows,
            lambda group: f"analyze worker for windows {','.join(map(str, group))}")
    summary = (f"analyzed {len(series)} keywords, windows {windows},"
               f" thresholds {settings['thresholds']} -> {out}")
    return [path for group in groups for path in group], made, summary


# --- report ---

def cmd_report(settings: dict) -> tuple[list[Path], list[Path], str]:
    metrics_root = settings["metrics"]
    if not metrics_root.is_dir():
        raise TrendnetError(f"{metrics_root}: not a directory", 3)
    metric_files = sorted(metrics_root.glob("metrics_w*_t*.csv"))
    if not metric_files:
        raise TrendnetError(f"{metrics_root}: no metrics_w*_t*.csv files", 3)

    table = netstat.MetricTable.concat([_parse(path, netstat.parse_metrics_csv)
                                        for path in metric_files])
    windows = sorted(set(table.window_days))

    events = (timeline.load_bundled_events() if settings["events"] is None
              else _parse(settings["events"], timeline.load_events))

    out_path = settings["out"]
    stem = out_path.stem if out_path.suffix else out_path.name
    charts = {window: out_path.with_name(f"{stem}_w{window}.svg") for window in windows}
    targets = [path for chart in charts.values() for path in (chart, chart.with_suffix(".json"))]
    with _staging(out_path.parent, targets) as made:
        for window, chart in charts.items():
            points = table.take([i for i, w in enumerate(table.window_days) if w == window])
            with prefixed(f"{metrics_root}: window {window}"):
                svg = render.render_metric_chart(points, events, metric=settings["metric"])
            _write_part(chart, svg)
            _write_part(chart.with_suffix(".json"), render.metrics_report_json(points, events))
    return targets, made, f"reported windows {windows} -> {out_path.parent or Path('.')}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendnet",
        description="Stitch segmented search-interest exports and analyze "
                    "rolling distance-correlation keyword networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in SETTINGS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        for key, (default, _, text) in table.items():
            if isinstance(default, str):
                text = f"{text} (default {default})"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=text,
                           action="append" if key in REPEATABLE else None)
        p.add_argument("--config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at call time, so a wrapper set on the module attribute runs.
        targets, made, summary = globals()[f"cmd_{args.command}"](_settings(args))
        _commit(targets, made)
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
