"""Deterministic SVG line charts of metric time series, plus JSON reports.

Charts are emitted as plain SVG 1.1 text with a fixed 1200x500 viewbox:
one polyline per threshold (fixed palette, ascending threshold order),
dashed vertical markers at event dates colored by category, month ticks on
the x axis and a [0, 1] y axis. Identical inputs yield byte-identical
output, so rendered files can serve as goldens.

Both outputs read a MetricTable by column, through row indices sorted once.
A metric column holds few distinct values, so each distinct value of a
column is formatted once (`util.distinct_texts`): a date placed on the x
axis, a value on the y axis, a JSON field. 0.0 and -0.0 keep their own
texts. The JSON report is byte for byte `json.dumps(body, indent=2)`, but
its metric rows are filled here from one row template: with `indent` set,
json uses its pure-Python encoder, which cost most of `report`'s time. The
template is derived from `netstat.METRIC_COLUMNS`, quoting only `label_date`.
Ints format by `str` and floats by `repr`, as json writes them; the parser
rejects NaN and infinities, which json would write as bare `NaN`/`Infinity`.
The few event rows still go through json, which escapes their labels.
"""

from __future__ import annotations

import json
from datetime import date

from .errors import TrendnetError
from .netstat import METRIC_COLUMNS, MetricTable, threshold_label
from .timeline import EventRecord, JoinedEvent, join_events
from .util import distinct_texts, month_starts

WIDTH = 1200
HEIGHT = 500
MARGIN_LEFT = 60.0
MARGIN_RIGHT = 170.0
MARGIN_TOP = 40.0
MARGIN_BOTTOM = 55.0

PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

# One stroke per threshold, assigned in ascending threshold order; a chart
# with more thresholds than colours is rejected rather than reusing one.
SERIES_PALETTE = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#ff7f0e",
                  "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

METRIC_FIELDS = {
    "density": ("density", "network density"),
    "clustering": ("clustering_global", "clustering coefficient"),
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _line(cls: str, x1: float, y1: float, x2: float, y2: float, stroke: str,
          width: str = "1", dash: str = "", title: str = "") -> str:
    """One `<line>` element, unclassed when `cls` is empty; a `title` nests inside it."""
    attrs = f' class="{cls}"' if cls else ""
    attrs += (f' x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
              f' stroke="{stroke}" stroke-width="{width}"')
    if dash:
        attrs += f' stroke-dasharray="{dash}"'
    return f"<line{attrs}><title>{_escape(title)}</title></line>" if title else f"<line{attrs}/>"


def _text(x: float, y: float, body: str, anchor: str = "") -> str:
    """One `<text>` element at (x, y), with a `text-anchor` when `anchor` is given."""
    align = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}"{align}>{body}</text>'


def render_metric_chart(
    metrics: MetricTable,
    events: list[EventRecord],
    metric: str = "density",
) -> str:
    """SVG chart of one metric, one line per threshold, event markers dashed.

    All table rows must share a window size; `metric` selects density or
    the global clustering coefficient.
    """
    if metric not in METRIC_FIELDS:
        raise TrendnetError(f"metric must be one of {sorted(METRIC_FIELDS)}")
    if not metrics.label_date:
        raise TrendnetError("no metric points to render")
    windows = set(metrics.window_days)
    if len(windows) > 1:
        raise TrendnetError(f"metric points mix window sizes: {sorted(windows)}")
    window_days = windows.pop()
    field, axis_label = METRIC_FIELDS[metric]
    dates, values = metrics.label_date, getattr(metrics, field)

    by_threshold: dict[float, list[int]] = {}  # ascending, rows in label-date order
    for i in metrics.order("threshold", "label_date"):
        by_threshold.setdefault(metrics.threshold[i], []).append(i)
    thresholds = list(by_threshold)
    if len(thresholds) > len(SERIES_PALETTE):
        raise TrendnetError(
            f"{len(thresholds)} thresholds in one chart, at most {len(SERIES_PALETTE)} "
            "have distinct colours"
        )
    first, last = min(dates), max(dates)
    span_days = max((last - first).days, 1)

    def x_at(when: date) -> float:
        return MARGIN_LEFT + PLOT_W * (when - first).days / span_days

    def y_at(value: float) -> float:
        # single place where the y axis is inverted
        return MARGIN_TOP + PLOT_H * (1.0 - value)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="12px">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{_fmt(MARGIN_LEFT)}" y="22" font-size="14px">'
        f"{axis_label}, {window_days}-day window</text>",
    ]

    # y gridlines and labels at 0, 0.2, ..., 1
    for i in range(6):
        value = i / 5
        y = y_at(value)
        parts.append(_line("grid", MARGIN_LEFT, y, MARGIN_LEFT + PLOT_W, y, "#dddddd"))
        parts.append(_text(MARGIN_LEFT - 8, y + 4, f"{value:.1f}", "end"))

    # x month ticks
    axis_y = MARGIN_TOP + PLOT_H
    for tick in month_starts(first, last):
        x = x_at(tick)
        parts.append(_line("tick", x, axis_y, x, axis_y + 6, "black"))
        parts.append(_text(x, axis_y + 20, f"{MONTHS[tick.month - 1]} {tick.year}", "middle"))
    parts.append(_line("", MARGIN_LEFT, axis_y, MARGIN_LEFT + PLOT_W, axis_y, "black"))

    # event markers under the series lines
    for event in sorted(events, key=lambda e: (e.date, e.label)):
        if first <= event.date <= last:
            x = x_at(event.date)
            parts.append(_line("event", x, MARGIN_TOP, x, axis_y, event.color, dash="5,4",
                               title=f"{event.date.isoformat()}: {event.label}"))

    # one polyline per threshold; each distinct date and value is placed once
    xs = distinct_texts(dates, lambda when: _fmt(x_at(when)))
    ys = distinct_texts(values, lambda value: _fmt(y_at(value)))
    for threshold, color in zip(thresholds, SERIES_PALETTE):
        coords = " ".join([f"{xs[i]},{ys[i]}" for i in by_threshold[threshold]])
        parts.append(
            f'<polyline class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{coords}"/>'
        )

    # legend
    legend_x = MARGIN_LEFT + PLOT_W + 18
    for idx, (threshold, color) in enumerate(zip(thresholds, SERIES_PALETTE)):
        y = MARGIN_TOP + 10 + idx * 20
        parts.append(_line("legend", legend_x, y, legend_x + 24, y, color, width="1.5"))
        parts.append(_text(legend_x + 30, y + 4, f"threshold {threshold_label(threshold)}"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# A metric row as `json.dumps(body, indent=2)` writes it, filled with the texts
# of its fields: dates by isoformat (a JSON string), ints by str and floats by repr.
_METRIC_ROW = "    {\n%s\n    }" % ",\n".join(
    f'      "{name}": ' + ('"%s"' if name == "label_date" else "%s") for name in METRIC_COLUMNS)
_METRIC_FORMATS = (date.isoformat, str, repr, str, repr, repr, repr)


def metrics_report_json(metrics: MetricTable, events: list[EventRecord]) -> str:
    """JSON report: metric rows mirroring the metrics CSV schema, then the
    event join; `json.dumps(body, indent=2)` byte for byte."""
    cells = list(zip(*map(distinct_texts, metrics, _METRIC_FORMATS)))
    rows = ",\n".join([_METRIC_ROW % cells[i] for i in metrics.order("threshold", "label_date")])
    text = '{\n  "metrics": ' + (f"[\n{rows}\n  ]" if rows else "[]")
    joined = [_joined_row(metrics, j) for j in join_events(metrics, events)]
    # json escapes newlines inside strings, so indenting each line nests the array.
    text += ',\n  "events": ' + json.dumps(joined, indent=2).replace("\n", "\n  ")
    return text + "\n}\n"


def _joined_row(metrics: MetricTable, joined: JoinedEvent) -> dict:
    row = {
        "date": joined.event.date.isoformat(),
        "label": joined.event.label,
        "category": joined.event.category,
        "match": joined.match,
    }
    if (i := joined.point) is not None:
        row["label_date"] = metrics.label_date[i].isoformat()
        row["threshold"] = metrics.threshold[i]
        row["density"] = metrics.density[i]
        row["clustering_global"] = metrics.clustering_global[i]
    return row
