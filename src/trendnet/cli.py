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
`cmd_<command>` then computes its outputs, parsing no setting, in one
`_Outputs` block. Its `write` writes each output to a part chunk by chunk, as
the process that computes it (a forked keyword worker of `stitch` or window
worker of `analyze` included) formats the chunks; the block places every part
when it ends. So no process holds more than one window's outputs, nor a whole
correlations or persistence text. A failed command leaves no output, no part
and no directory it created, and puts back any file it had replaced.

Every failure is a `TrendnetError`, whose `code` is the exit status (2 bad
input or parameters, 3 I/O, 4 too little data for a window), or an
`OSError` (3). Each rule is owned by one library function, and the CLI adds
where the input came from, with `errors.prefixed`. `_parse`, the one reader
of an input file, decodes it as UTF-8, parses it and prefixes an error or a
warning from it with that file's path, so the message names the file and the
date, row or line; the parsers themselves take only text. So does
`registry.check_keyword`, which `analyze` without `--registry` runs on each
stitched file's name less `.csv`. Outputs
name thresholds by `netstat.threshold_label`. Seven rules the CLI checks again,
to name the flag or config line (CLI check, owner): window >= 2 (`_parse_windows`,
`kernels.rolling_dcor`); thresholds in (0, 1) and at most 10 of them
(`_parse_thresholds`, `netstat.threshold_adjacency` and
`render.render_metric_chart`); the metric name (`_parse_metric`,
`render_metric_chart`); span order (`cmd_stitch`, `ingest.assemble_daily`);
2 keywords or more (`_load_stitched`, `netstat.network_density`); a period
that selects a frame (`_analyze_windows`, `netstat._persistence`). All but the
last run before any work; a period is checked per window, after its dCor, before its files.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from collections.abc import Iterable
from datetime import date, timedelta
from itertools import chain, takewhile
from pathlib import Path

from . import correlate, ingest, netstat, render, stitch, timeline, util
from .errors import TrendnetError, prefixed
from .registry import DEFAULT_KEYWORDS, check_keyword, parse_registry


def _io_error(path: Path, err: OSError) -> TrendnetError:
    """The exit-3 error of an I/O failure at `path`."""
    return TrendnetError(f"{path}: {err.strerror or err}", 3)


def _parse(path: Path, parse, *args):
    """`parse(text, *args)` of the file at `path`, read as UTF-8 without a leading
    byte-order mark, each line end read as `\\n`; its errors and warnings are prefixed
    with the path, errors keep their exit code, and a failed read exits 3. A byte that
    is not UTF-8 exits 2 naming its line."""
    try:
        text = path.read_text("utf-8-sig")
    except OSError as err:
        raise _io_error(path, err) from err
    except UnicodeDecodeError as err:
        # `err.start` indexes `err.object`, the bytes after any byte-order mark.
        before = err.object[:err.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = before.count(b"\n") + 1
        raise TrendnetError(f"{path}: line {line}: byte {err.object[err.start]:#04x}"
                            " is not UTF-8") from None
    with prefixed(path), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parsed = parse(text, *args)
    for warning in caught:
        warnings.warn(f"{path}: {warning.message}", warning.category)
    return parsed


class _Outputs:
    """A `with` block that places all of a command's `targets` or none.

    Entering creates `directory`, which holds every target, and its missing parents. `write`
    writes a target's chunks of str (a bare str would go a character per call) to its hidden
    `.<name>.part` one by one, in any process. When the block ends, the parts are moved into
    place in order, each replaced file kept as `.<name>.prev` until the last move. If the block
    raises or a move fails, every file is put back as it was and each part and created
    directory removed. Each OSError exits 3 naming its path.
    """

    def __init__(self, directory: Path, targets: list[Path]):
        self.directory, self.targets = directory, targets

    @staticmethod
    def _part(path: Path) -> Path:
        return path.with_name(f".{path.name}.part")

    def __enter__(self) -> _Outputs:
        directory, self.placed, self.prevs = self.directory, [], {}
        # The directories created, shallowest first; a failed mkdir may create fewer.
        self.made = [*takewhile(lambda d: not d.exists(), [directory, *directory.parents])][::-1]
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            self._undo(parts=False)  # none was written, and none can be under a file
            raise _io_error(directory, err) from err
        return self

    def write(self, path: Path, chunks: Iterable[str]) -> None:
        try:
            with self._part(path).open("w", encoding="utf-8") as part:
                part.writelines(chunks)
        except OSError as err:
            raise _io_error(path, err) from err

    def __exit__(self, kind, error, trace) -> None:
        if kind is not None:
            self._undo()
            return
        try:
            for path in self.targets:
                if path.is_symlink() or path.exists() and not path.is_dir():
                    self.prevs[path] = path.with_name(f".{path.name}.prev")
                    os.replace(path, self.prevs[path])
                os.replace(self._part(path), path)
                self.placed.append(path)
        except OSError as err:
            self._undo()
            raise _io_error(path, err) from err
        for prev in self.prevs.values():
            prev.unlink()

    def _undo(self, parts: bool = True) -> None:
        for path in self.placed:
            if path not in self.prevs:
                path.unlink()
        for path, prev in self.prevs.items():
            os.replace(prev, path)
        for path in self.targets if parts else ():
            self._part(path).unlink(missing_ok=True)
        for directory in reversed(self.made):
            if directory.exists():
                directory.rmdir()


def _keywords(registry: Path | None) -> tuple[str, ...]:
    """The keywords of the registry file at `registry`, else of `DEFAULT_KEYWORDS`."""
    entries = DEFAULT_KEYWORDS if registry is None else _parse(registry, parse_registry)
    return tuple(keyword for keyword, _ in entries)


def _parse_date(value: str) -> date:
    try:
        return util.iso_date(value)
    except ValueError:
        raise TrendnetError(f"must be an ISO date, got {value!r}") from None


def _parse_path(value: str) -> Path:
    if "\0" in value:  # no file name holds one; open() would raise ValueError
        raise TrendnetError(f"must not hold a NUL byte, got {value!r}")
    return Path(value)


def _parse_chart(value: str) -> Path:
    if (path := _parse_path(value)).name in ("", ".."):  # `.`, `/` or `..`: no chart file
        raise TrendnetError(f"must name a chart file, got {value!r}")
    return path


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
    labels = list(map(netstat.threshold_label, thresholds))
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
        "out": (REQUIRED, _parse_chart, "output SVG path; _w<window> is appended per window"),
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

def cmd_stitch(settings: dict) -> str:
    keywords = _keywords(settings["registry"])
    span = (settings["span_start"], settings["span_end"])
    if span[1] < span[0]:
        start_from, end_from = (settings["sources"][key][0] for key in ("span_start", "span_end"))
        raise TrendnetError(f"{start_from} {span[0]} is after {end_from} {span[1]}")
    daily_root, weekly_root = settings["daily_dir"], settings["weekly_dir"]
    for root in (daily_root, weekly_root):
        if not root.is_dir():
            raise TrendnetError(f"{root}: not a directory", 3)

    out = settings["out"]
    outputs = _Outputs(out, [out / f"{kw}.csv" for kw in keywords])

    def stitch_keywords(group: tuple[str, ...]) -> None:
        for keyword in group:
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
            outputs.write(out / f"{keyword}.csv", (ingest.emit_daily_csv(rescaled),))

    # The keywords are independent, so contiguous groups of them run on every CPU;
    # a forked group writes its own parts and replies with nothing.
    with outputs:
        util.forked_map(stitch_keywords, keywords,
                        lambda group: f"stitch worker for keywords {group[0]}..{group[-1]}")
    return f"stitched {len(keywords)} keywords -> {out}"


# --- analyze ---

def _load_stitched(stitched_dir: Path, registry: Path | None):
    if not stitched_dir.is_dir():
        raise TrendnetError(f"{stitched_dir}: not a directory", 3)
    if registry is not None:
        keywords = _keywords(registry)
    else:
        keywords = sorted(p.name.removesuffix(".csv") for p in stitched_dir.glob("*.csv"))
        for kw in keywords:
            with prefixed(stitched_dir / f"{kw}.csv"):
                check_keyword(kw)
    if not keywords:
        raise TrendnetError(f"{stitched_dir}: no stitched CSV files", 3)
    if len(keywords) < 2:
        raise TrendnetError(f"{stitched_dir}: 1 keyword ({keywords[0]}), analyze needs at least 2")
    return {kw: _parse(stitched_dir / f"{kw}.csv", ingest.parse_stitched) for kw in keywords}


def _window_outputs(out_root: Path, window: int, thresholds: list[float]) -> list[Path]:
    """The one list of a window's output files, in the order `_analyze_windows` writes them."""
    return [out_root / f"correlations_w{window}.csv",
            *(out_root / f"metrics_w{window}_t{netstat.threshold_label(theta)}.csv"
              for theta in thresholds),
            *(out_root / f"persistence_{kind}_w{window}.csv" for kind in ("pairs", "triads"))]


def _analyze_windows(series: dict, windows: list[int], settings: dict, outputs: _Outputs) -> None:
    """Write each window's outputs with `outputs.write` as they are computed, in window order."""
    thresholds, out = settings["thresholds"], settings["out"]
    for window in windows:
        with prefixed(settings["stitched"]):
            frames = correlate.rolling_correlation(series, window)
        first, last = frames.label_dates[[0, -1]].tolist()
        for source, (start, end) in zip(settings["sources"]["period"], settings["period"]):
            if not netstat.period_mask(frames.label_dates, (start, end)).any():
                raise TrendnetError(f"{source} {start}:{end} selects no"
                                    f" frame of window {window}, labeled {first}..{last}")
        periods = settings["period"] or util.default_periods(first - timedelta(window), first, last)
        graphs = netstat.threshold_adjacency(frames, thresholds)
        table, n = netstat.frame_metrics(graphs), len(frames.label_dates)
        # Each file's chunks in `_window_outputs` order, each made only as its file is written.
        sources = chain((correlate.emit_correlations_csv(frames),),
                        ((netstat.emit_metrics_csv(table.take(range(t * n, (t + 1) * n))),)
                         for t in range(len(thresholds))),  # rows run threshold by threshold
                        (netstat.emit_persistence_csv(frames.keywords, kind(graphs, periods))
                         for kind in (netstat.pair_persistence, netstat.triad_persistence)))
        for path, chunks in zip(_window_outputs(out, window, thresholds), sources, strict=True):
            outputs.write(path, chunks)


def cmd_analyze(settings: dict) -> str:
    series = _load_stitched(settings["stitched"], settings["registry"])
    windows, out = settings["windows"], settings["out"]
    every = [path for window in windows
             for path in _window_outputs(out, window, settings["thresholds"])]
    # The windows are independent, so contiguous groups of them run on every CPU;
    # a forked group writes its own parts and replies with nothing.
    with _Outputs(out, every) as outputs:
        util.forked_map(
            lambda group: _analyze_windows(series, group, settings, outputs), windows,
            lambda group: f"analyze worker for windows {','.join(map(str, group))}")
    return (f"analyzed {len(series)} keywords, windows {windows},"
            f" thresholds {settings['thresholds']} -> {out}")


# --- report ---

def cmd_report(settings: dict) -> str:
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
    charts = {window: out_path.with_name(f"{out_path.stem}_w{window}.svg") for window in windows}
    targets = [path for chart in charts.values() for path in (chart, chart.with_suffix(".json"))]
    with _Outputs(out_path.parent, targets) as outputs:
        for window, chart in charts.items():
            points = table.take([i for i, w in enumerate(table.window_days) if w == window])
            with prefixed(f"{metrics_root}: window {window}"):
                svg = render.render_metric_chart(points, events, metric=settings["metric"])
            outputs.write(chart, (svg,))
            outputs.write(chart.with_suffix(".json"), (render.metrics_report_json(points, events),))
    return f"reported windows {windows} -> {out_path.parent}"


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
        summary = globals()[f"cmd_{args.command}"](_settings(args))
    except (TrendnetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, TrendnetError) else 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
