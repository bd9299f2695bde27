import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from trendnet import render
from trendnet.netstat import METRIC_COLUMNS, MetricTable
from trendnet.render import metrics_report_json, render_metric_chart
from trendnet.timeline import join_events, load_bundled_events, load_events

from helpers import DAY, FIRST_LABEL as D, by_test_id

SVG = "{http://www.w3.org/2000/svg}"


def series(threshold, values, start=D, window=15):
    return MetricTable(
        label_date=[start + i * DAY for i in range(len(values))],
        window_days=[window] * len(values),
        threshold=[threshold] * len(values),
        edge_count=[int(v * 105) for v in values],
        density=list(values),
        clustering_global=[v / 2 for v in values],
        clustering_avg_local=[v / 2 for v in values],
    )


def render_tree(metrics, events, metric="density"):
    text = render_metric_chart(metrics, events, metric=metric)
    return text, ET.fromstring(text)


def collect(root, tag, cls):
    return [el for el in root.iter(f"{SVG}{tag}") if el.get("class") == cls]


def test_chart_structure_counts():
    # full 15-day label span, which contains every bundled event date
    metrics = MetricTable.concat(
        [series(theta, [0.1 * (idx + 1)] * 351) for idx, theta in enumerate((0.4, 0.5, 0.6, 0.8))]
    )
    events = load_bundled_events()
    text, root = render_tree(metrics, events)
    polylines = collect(root, "polyline", "series")
    assert len(polylines) == 4
    for line in polylines:
        assert len(line.get("points").split(" ")) == 351  # one point per label date
    assert len(collect(root, "line", "event")) == 16
    legend_texts = [el.text for el in root.iter(f"{SVG}text") if el.text and "threshold" in el.text]
    assert legend_texts == ["threshold 0.4", "threshold 0.5", "threshold 0.6", "threshold 0.8"]


def test_chart_is_deterministic():
    metrics = series(0.5, [0.0, 0.25, 0.5, 1.0])
    events = load_events("2020-04-01,marker,Policy\n")
    a = render_metric_chart(metrics, events)
    b = render_metric_chart(metrics, events)
    assert a == b
    assert a.encode() == b.encode()


def test_y_axis_inverts_once_and_tracks_values():
    metrics = series(0.5, [0.0, 1.0, 0.5])
    _, root = render_tree(metrics, [])
    points = collect(root, "polyline", "series")[0].get("points").split(" ")
    ys = [float(p.split(",")[1]) for p in points]
    assert ys[1] < ys[2] < ys[0]  # larger metric -> higher on screen


def test_constant_zero_series_sits_on_baseline():
    metrics = series(0.5, [0.0, 0.0, 0.0])
    _, root = render_tree(metrics, [])
    points = collect(root, "polyline", "series")[0].get("points").split(" ")
    ys = {p.split(",")[1] for p in points}
    assert len(ys) == 1  # horizontal line


def test_no_events_still_valid():
    text, root = render_tree(series(0.5, [0.2, 0.4]), [])
    assert collect(root, "line", "event") == []
    assert len(collect(root, "polyline", "series")) == 1


def test_events_outside_span_are_not_drawn():
    events = load_events("2019-01-01,way before,Milestone\n")
    _, root = render_tree(series(0.5, [0.2, 0.4]), events)
    assert collect(root, "line", "event") == []


def test_event_line_colors_follow_category():
    events = load_events(
        "2020-03-31,q,Quarantine\n2020-04-01,m,Milestone\n2020-04-02,p,Policy\n"
    )
    _, root = render_tree(series(0.5, [0.2, 0.4, 0.6, 0.8]), events)
    strokes = [el.get("stroke") for el in collect(root, "line", "event")]
    assert strokes == ["magenta", "black", "orange"]


def test_clustering_variant_selects_global_field():
    metrics = series(0.5, [0.2, 0.8])
    _, root = render_tree(metrics, [], metric="clustering")
    title = next(el.text for el in root.iter(f"{SVG}text") if "window" in (el.text or ""))
    assert "clustering coefficient" in title


def test_json_report_mirrors_metrics_schema():
    metrics = series(0.5, [0.25, 0.75])
    events = load_events("2020-04-01,marker,Vaccine\n")
    body = json.loads(metrics_report_json(metrics, events))
    assert len(body["metrics"]) == 2
    row = body["metrics"][0]
    assert set(row) == {
        "label_date",
        "window_days",
        "threshold",
        "edge_count",
        "density",
        "clustering_global",
        "clustering_avg_local",
    }
    assert row["label_date"] == "2020-03-31"
    assert body["events"][0]["match"] == "exact"
    assert body["events"][0]["label"] == "marker"


def test_five_thresholds_get_distinct_strokes():
    thetas = (0.3, 0.4, 0.5, 0.6, 0.8)
    metrics = MetricTable.concat([series(theta, [theta] * 5) for theta in thetas])
    _, root = render_tree(metrics, [])
    series_strokes = [el.get("stroke") for el in collect(root, "polyline", "series")]
    legend_strokes = [el.get("stroke") for el in collect(root, "line", "legend")]
    assert len(set(series_strokes)) == 5
    assert legend_strokes == series_strokes


ELEVEN = MetricTable.concat([series(t, [t] * 5) for t in (0.05 * i for i in range(1, 12))])
FAILURES = [  # (test id, call, message[, code, kind])
    ("test_empty_series_rejected", lambda: render_metric_chart(series(0.5, []), []),
     "no metric points to render"),
    ("test_mixed_windows_rejected", lambda: render_metric_chart(
        MetricTable.concat([series(0.5, [0.2]), series(0.5, [0.2], window=30)]), []),
     "metric points mix window sizes: [15, 30]"),
    ("test_unknown_metric_rejected",
     lambda: render_metric_chart(series(0.5, [0.2]), [], metric="entropy"),
     "metric must be one of ['clustering', 'density']"),
    ("test_more_thresholds_than_colours_rejected", lambda: render_metric_chart(ELEVEN, []),
     "11 thresholds in one chart, at most 10 have distinct colours"),
]
globals().update(by_test_id(FAILURES))


def reference_json(metrics, events):
    """The report as json.dumps writes it from row dicts."""
    def cell(name, i):
        value = getattr(metrics, name)[i]
        return value.isoformat() if name == "label_date" else value

    rows = range(len(metrics.label_date))
    order = sorted(rows, key=lambda i: (metrics.threshold[i], metrics.label_date[i]))
    body = {"metrics": [{name: cell(name, i) for name in METRIC_COLUMNS} for i in order],
            "events": []}
    for joined in join_events(metrics, events):
        row = {"date": joined.event.date.isoformat(), "label": joined.event.label,
               "category": joined.event.category, "match": joined.match}
        if joined.point is not None:
            row.update({name: cell(name, joined.point) for name in
                        ("label_date", "threshold", "density", "clustering_global")})
        body["events"].append(row)
    return json.dumps(body, indent=2) + "\n"


AWKWARD_EVENTS = (
    '2020-03-20,"quoted ""ECQ"" start",Quarantine\n'  # before the first label: following
    "2020-04-01,back\\slash,Policy\n"  # exact
    "2020-04-02,Bakuna para sa lahat — ñ é 疫苗,Vaccine\n"  # exact, non-ASCII
    "2021-06-01,after the last label,Milestone\n"  # unmatched
)


@pytest.mark.parametrize("events", ["", AWKWARD_EVENTS, "bundled"],
                         ids=["empty", "awkward", "bundled"])
def test_json_report_is_json_dumps_byte_for_byte(events):
    values = [0.0, 1 / 3, 1e-7, 0.1 + 0.2, 1.0, 5e-324, 0.25]
    metrics = MetricTable.concat([
        series(0.8, values), series(0.4, values[::-1]), series(0.55, values[:3], start=D + 2 * DAY)
    ])
    events = load_bundled_events() if events == "bundled" else load_events(events)
    assert metrics_report_json(metrics, events) == reference_json(metrics, events)


def test_json_report_of_empty_and_one_row_tables():
    for metrics in (series(0.5, []), series(0.5, [0.125])):
        for events in ([], load_events("2020-03-31,x,Policy\n")):
            assert metrics_report_json(metrics, events) == reference_json(metrics, events)


FLOAT_COLUMNS = ("threshold", "density", "clustering_global", "clustering_avg_local")


@st.composite
def repetitive_tables(draw):
    """Tables whose columns repeat few values, one float column holding both 0.0 and -0.0."""
    n = draw(st.integers(2, 40))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    floats = draw(st.lists(st.floats(-2, 2), min_size=1, max_size=4)) + [0.0, -0.0]
    table = MetricTable(
        label_date=column([D + i * DAY for i in range(draw(st.integers(1, 20)))]),
        window_days=[15] * n,
        threshold=column(draw(st.lists(st.sampled_from(floats), min_size=1, max_size=10))),
        edge_count=column(range(4)),
        density=column(floats),
        clustering_global=column(floats),
        clustering_avg_local=column(floats),
    )
    signed = getattr(table, draw(st.sampled_from(FLOAT_COLUMNS)))
    first = draw(st.integers(0, n - 2))
    signed[first], signed[draw(st.integers(first + 1, n - 1))] = draw(
        st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
    return table


def reference_points(metrics, metric):
    """Each polyline's points, every row placed on its own."""
    values = getattr(metrics, render.METRIC_FIELDS[metric][0])
    first, last = min(metrics.label_date), max(metrics.label_date)
    span_days = max((last - first).days, 1)
    lines = {}
    for i in sorted(range(len(values)), key=lambda i: (metrics.threshold[i], metrics.label_date[i])):
        x = render.MARGIN_LEFT + render.PLOT_W * (metrics.label_date[i] - first).days / span_days
        y = render.MARGIN_TOP + render.PLOT_H * (1.0 - values[i])
        lines.setdefault(metrics.threshold[i], []).append(f"{render._fmt(x)},{render._fmt(y)}")
    return [" ".join(points) for points in lines.values()]


@given(table=repetitive_tables(), metric=st.sampled_from(sorted(render.METRIC_FIELDS)))
def test_report_of_repeated_values_and_signed_zeros_matches_per_row_reference(table, metric):
    events = load_events("2020-04-01,marker,Policy\n")
    assert metrics_report_json(table, events) == reference_json(table, events)
    _, root = render_tree(table, events, metric)
    points = [line.get("points") for line in collect(root, "polyline", "series")]
    assert points == reference_points(table, metric)
