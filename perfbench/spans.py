"""Spans around calls into trendnet's public functions, recorded from outside.

`Recorder.install` replaces each traced function by a wrapper at its module
attribute, so calls made through the module (`netstat.frame_metrics(...)`
from the CLI, `clustering_global(g)` inside netstat) pass through it. A span
is [name, start, end, parent index]; spans stay in memory and the child
process writes them out when its command ends. Only stdlib is imported, so
tracing adds nothing to the measured import.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute) pairs; render.join_events is the name render calls.
TRACED = (
    ("ingest", ("parse_daily_segment", "parse_weekly", "assemble_daily",
                "parse_stitched", "emit_daily_csv")),
    ("stitch", ("stitch_series",)),
    ("kernels", ("rolling_dcor", "triangle_counts")),
    ("correlate", ("rolling_correlation", "emit_correlations_csv")),
    ("netstat", ("threshold_adjacency", "frame_metrics", "network_density",
                 "clustering_global", "clustering_avg_local", "pair_persistence",
                 "triad_persistence", "emit_metrics_csv", "emit_persistence_csv",
                 "parse_metrics_csv")),
    ("render", ("render_metric_chart", "metrics_report_json", "join_events")),
    ("timeline", ("load_bundled_events",)),
    ("cli", ("cmd_stitch", "cmd_analyze", "cmd_report")),
)

NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED for fn in fns)


class Recorder:
    """In-memory span list for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        for module_name, fns in TRACED:
            module = importlib.import_module(f"trendnet.{module_name}")
            for fn in fns:
                setattr(module, fn, self.wrap(f"{module_name}.{fn}", getattr(module, fn)))


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name total self time (duration minus direct children) and calls."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), inner in zip(spans, child_time):
        self_s[name] += end - start - inner
        calls[name] += 1
    return self_s, calls
