import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendnet import kernels
from trendnet.correlate import CorrelationFrame, emit_correlations_csv
from trendnet.netstat import (
    METRIC_COLUMNS,
    GraphFrame,
    MetricTable,
    clustering_avg_local,
    clustering_global,
    emit_metrics_csv,
    emit_persistence_csv,
    frame_metrics,
    network_density,
    pair_persistence,
    parse_metrics_csv,
    threshold_adjacency,
    triad_persistence,
)

from helpers import by_test_id
from oracles import graph_oracle

D = date(2020, 3, 31)
DAY = timedelta(days=1)


def graph_stack(adjacency, start=D, theta=0.5, keywords=None):
    """GraphFrame over an (F, K, K) stack labeled start, start+1, ..."""
    adjacency = np.asarray(adjacency, dtype=np.uint8)
    n_frames, k, _ = adjacency.shape
    return GraphFrame(
        label_dates=np.datetime64(start) + np.arange(n_frames),
        window_days=15,
        threshold=theta,
        keywords=keywords or tuple(f"k{i}" for i in range(k)),
        adjacency=adjacency,
    )


def graph_from_edges(n, edges):
    adjacency = np.zeros((1, n, n), dtype=np.uint8)
    for i, j in edges:
        adjacency[0, i, j] = adjacency[0, j, i] = 1
    return graph_stack(adjacency)


def random_graph(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, 1)
    return (upper | upper.T).astype(np.uint8)


def corr_frame(matrix, label=D):
    matrix = np.asarray(matrix, dtype=float)
    return CorrelationFrame(
        label_dates=np.array([label], dtype="datetime64[D]"),
        window_days=15,
        keywords=tuple(f"k{i}" for i in range(matrix.shape[0])),
        matrix=matrix[None],
    )


def test_threshold_boundary_is_inclusive():
    frame = corr_frame([[1.0, 0.80, 0.79], [0.80, 1.0, 0.2], [0.79, 0.2, 1.0]])
    g = threshold_adjacency(frame, 0.8)
    assert g.adjacency.shape == (1, 3, 3)
    assert g.adjacency[0, 0, 1] == 1
    assert g.adjacency[0, 0, 2] == 0
    assert np.all(np.diag(g.adjacency[0]) == 0)


def test_threshold_full_matrix_gives_complete_graph():
    frame = corr_frame(np.ones((4, 4)))
    g = threshold_adjacency(frame, 0.6)
    assert g.adjacency.sum() == 4 * 3  # every off-diagonal entry


def test_density_matches_reported_peak_arithmetic():
    pairs = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    [density] = network_density(graph_from_edges(15, pairs[:91]))
    assert density == pytest.approx(0.866667, abs=1e-6)
    assert round(density, 4) == 0.8667


def test_density_extremes():
    assert network_density(graph_from_edges(15, [])) == [0.0]
    all_pairs = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    assert network_density(graph_from_edges(15, all_pairs)) == [1.0]


def test_clustering_triangle():
    g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert clustering_global(g) == [1.0]
    assert clustering_avg_local(g) == [1.0]


def test_clustering_star_has_no_triangles():
    g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert clustering_global(g) == [0.0]
    assert clustering_avg_local(g) == [0.0]


def test_clustering_k4_minus_edge():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert clustering_global(g) == [0.75]  # 6 triangle incidences over 8 triples
    assert clustering_avg_local(g) == [5 / 6]


def test_clustering_edgeless_graph():
    g = graph_from_edges(4, [])
    assert clustering_global(g) == [0.0]
    assert clustering_avg_local(g) == [0.0]


def test_clustering_variants_agree_on_vertex_transitive_graphs():
    complete = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    cycle = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    for g in (complete, cycle):
        assert clustering_global(g) == clustering_avg_local(g)


def test_metrics_match_enumeration_oracle_exactly():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 16))
        adjacency = random_graph(rng, n, rng.uniform(0.1, 0.9))
        g = graph_stack(adjacency[None])
        oracle = graph_oracle(adjacency)
        assert network_density(g) == [float(oracle["density"])]
        assert clustering_global(g) == [float(oracle["clustering_global"])]
        assert clustering_avg_local(g) == [float(oracle["clustering_avg_local"])]
        assert sum(oracle["lambda"]) % 3 == 0  # each triangle counted thrice


def test_stack_metrics_match_enumeration_oracle_exactly():
    """Multi-frame stacks up to K=40, each frame at its own density."""
    rng = np.random.default_rng(47)
    for n in [40, 40, 33, *rng.integers(2, 30, 37).tolist()]:
        frames = [random_graph(rng, n, rng.uniform(0.0, 1.0)) for _ in range(rng.integers(2, 5))]
        g = graph_stack(np.stack(frames))
        oracles = [graph_oracle(a) for a in frames]
        assert network_density(g) == [float(o["density"]) for o in oracles]
        assert clustering_global(g) == [float(o["clustering_global"]) for o in oracles]
        assert clustering_avg_local(g) == [float(o["clustering_avg_local"]) for o in oracles]
        assert frame_metrics(g).edge_count == [o["edges"] for o in oracles]
        assert kernels.triangle_counts(g.adjacency).tolist() == [o["lambda"] for o in oracles]


def test_frame_metrics_fields():
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    m = frame_metrics(g)
    assert m.edge_count == [3]
    assert m.density == [0.5]
    assert m.clustering_global == [1.0]
    assert m.label_date == [D] and m.window_days == [15] and m.threshold == [0.5]
    assert all(type(v) is float for v in m.density + m.clustering_global + m.clustering_avg_local)
    assert type(m.label_date[0]) is date and type(m.edge_count[0]) is int


def test_triangles_counted_once_per_stack(monkeypatch):
    calls = []
    count = kernels.triangle_counts

    def counting(adj):
        calls.append(adj.shape)
        return count(adj)

    monkeypatch.setattr(kernels, "triangle_counts", counting)
    rng = np.random.default_rng(29)
    g = graph_stack(np.stack([random_graph(rng, 8, 0.5) for _ in range(5)]))
    frame_metrics(g)
    clustering_global(g)
    assert calls == [(5, 8, 8)]


def frames_with_planted_edges(n_frames, plant):
    """plant: {(i, j): set of frame indices where the edge exists}"""
    adjacency = np.zeros((n_frames, 4, 4), dtype=np.uint8)
    for (i, j), hits in plant.items():
        for f in hits:
            adjacency[f, i, j] = adjacency[f, j, i] = 1
    return graph_stack(adjacency)


def test_pair_persistence_counts_planted_edges():
    plant = {
        (0, 1): set(range(52)),       # quarantine-ecq style persistent pair
        (0, 2): set(range(0, 92, 2)),  # every other frame: 46
        (2, 3): set(),
    }
    frames = frames_with_planted_edges(92, plant)
    [(members, counts)] = pair_persistence(frames, [(D, D + 91 * DAY)])
    assert members.shape == (6, 2)  # exhaustive over all pairs
    assert members[:2].tolist() == [[0, 1], [0, 2]]
    assert counts.tolist() == [52, 46, 0, 0, 0, 0]


def test_pair_persistence_respects_period_bounds():
    plant = {(0, 1): set(range(92))}
    frames = frames_with_planted_edges(92, plant)
    [(members, counts)] = pair_persistence(frames, [(D + 10 * DAY, D + 19 * DAY)])
    assert members[0].tolist() == [0, 1]
    assert counts[0] == 10


def test_pair_persistence_ties_break_lexicographically():
    plant = {(0, 1): {0}, (2, 3): {0}, (0, 2): {0}}
    frames = frames_with_planted_edges(1, plant)
    [(members, counts)] = pair_persistence(frames, [(D, D)])
    assert members[:3].tolist() == [[0, 1], [0, 2], [2, 3]]
    assert counts[:3].tolist() == [1, 1, 1]


def test_triad_persistence_counts_planted_triangles():
    plant = {
        (0, 1): set(range(60)),
        (0, 2): set(range(60)),
        (1, 2): set(range(60)),
        (1, 3): set(range(92)),  # extra edge, no third side
    }
    frames = frames_with_planted_edges(92, plant)
    [(members, counts)] = triad_persistence(frames, [(D, D + 91 * DAY)])
    assert members.shape == (4, 3)  # C(4,3) triples
    assert members[0].tolist() == [0, 1, 2]
    assert counts.tolist() == [60, 0, 0, 0]


def test_persistence_overlapping_periods_count_as_each_alone():
    rng = np.random.default_rng(71)
    adjacency = np.stack([random_graph(rng, 7, 0.5) for _ in range(30)])
    g = graph_stack(adjacency, keywords=tuple(f"k{i}" for i in rng.permutation(7).tolist()))
    periods = [(D, D + 19 * DAY), (D + 5 * DAY, D + 29 * DAY), (D + 5 * DAY, D + 9 * DAY),
               (D, D + 19 * DAY)]
    for persistence in (pair_persistence, triad_persistence):
        together = persistence(g, periods)
        assert len(together) == len(periods)
        for period, (members, counts) in zip(periods, together):
            [(alone_members, alone_counts)] = persistence(g, [period])
            assert members.tolist() == alone_members.tolist()
            assert counts.tolist() == alone_counts.tolist()


def test_persistence_matches_recount_on_random_stacks():
    """Ties break on keyword strings, which here never sort in index order."""
    rng = np.random.default_rng(53)
    for _ in range(40):
        k = int(rng.integers(3, 12))
        n_frames = int(rng.integers(1, 25))
        adjacency = np.stack(
            [random_graph(rng, k, rng.uniform(0.1, 0.9)) for _ in range(n_frames)]
        )
        shuffled = rng.permutation(k)
        if (shuffled == np.sort(shuffled)).all():
            shuffled = shuffled[::-1]
        names = tuple(f"k{i}" for i in shuffled.tolist())
        g = graph_stack(adjacency, keywords=names)
        lo, hi = sorted(rng.integers(-3, n_frames + 3, 2).tolist())
        if hi < 0 or lo >= n_frames:
            continue
        period = (D + lo * DAY, D + hi * DAY)
        frames = range(max(lo, 0), min(hi, n_frames - 1) + 1)
        pairs = {
            (i, j): sum(int(adjacency[f, i, j]) for f in frames)
            for i in range(k) for j in range(i + 1, k)
        }
        triads = {
            (i, j, m): sum(
                int(adjacency[f, i, j] and adjacency[f, i, m] and adjacency[f, j, m])
                for f in frames
            )
            for i in range(k) for j in range(i + 1, k) for m in range(j + 1, k)
        }
        for [result], recount in ((pair_persistence(g, [period]), pairs),
                                  (triad_persistence(g, [period]), triads)):
            expected = sorted(
                recount.items(), key=lambda r: (-r[1], tuple(names[i] for i in r[0]))
            )
            members, counts = result
            assert members.tolist() == [list(ids) for ids, _ in expected]
            assert counts.tolist() == [count for _, count in expected]


def test_threshold_monotonicity_on_random_matrices():
    rng = np.random.default_rng(31)
    thetas = (0.4, 0.5, 0.6, 0.8)
    for _ in range(50):
        raw = rng.random((10, 10))
        sym = (raw + raw.T) / 2
        np.fill_diagonal(sym, 1.0)
        frame = corr_frame(sym)
        graphs = [threshold_adjacency(frame, t) for t in thetas]
        for lo, hi in zip(graphs, graphs[1:]):
            assert np.all(hi.adjacency <= lo.adjacency)  # nested edge sets
            assert network_density(hi) <= network_density(lo)


def test_metrics_csv_round_trip():
    g = graph_stack([random_graph(np.random.default_rng(f), 6, 0.5) for f in range(3)])
    metrics = frame_metrics(g)
    text = emit_metrics_csv(metrics)
    assert text.startswith(METRICS_HEADER)
    assert parse_metrics_csv(text) == metrics


def metrics_text(n_frames=3):
    g = graph_stack([random_graph(np.random.default_rng(f), 6, 0.5) for f in range(n_frames)])
    return emit_metrics_csv(frame_metrics(g))


METRICS_HEADER = (
    "label_date,window_days,threshold,edge_count,density,clustering_global,clustering_avg_local\n"
)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def metric_tables(draw):
    n = draw(st.integers(1, 12))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return MetricTable(
        label_date=column(st.dates()),
        window_days=column(st.integers(-(10**6), 10**6)),
        # The CSV writes thresholds with `:g`, so draw values that survive it.
        threshold=[float(f"{t:g}") for t in column(finite)],
        edge_count=column(st.integers(0, 10**12)),
        density=column(finite),
        clustering_global=column(finite),
        clustering_avg_local=column(finite),
    )


@given(table=metric_tables())
def test_metrics_csv_round_trip_property(table):
    parsed = parse_metrics_csv(emit_metrics_csv(table))
    assert [list(map(repr, c)) for c in parsed] == [list(map(repr, c)) for c in table]


def metrics_with(*edits, n_frames=3):
    """`metrics_text(n_frames)` with each edit (line, column, token) made: the field
    `column` of line `line` set to `token`, or, where `token` is None, cut off with
    the fields after it."""
    lines = [line.split(",") for line in metrics_text(n_frames).split("\n")]
    for line, column, token in edits:
        if token is None:
            del lines[line - 1][column:]
        else:
            lines[line - 1][column] = token
    return "\n".join(map(",".join, lines))


def first_bad_row_in_file_order(density):
    """Lines 4 and 5 are bad, and line 3 too unless `density` parses."""
    return metrics_with((3, 4, density), (4, 5, None), (5, 0, "2020-02-30"), n_frames=4)


FAILURES = [  # (test id, call, message)
    *[(f"test_threshold_out_of_range[{theta}]",
       lambda theta=theta: threshold_adjacency(corr_frame(np.ones((3, 3))), theta),
       f"threshold {theta} not in (0, 1)") for theta in (0.0, 1.0, -0.2, 1.5)],
    *[(name, lambda persistence=persistence: persistence(
        frames_with_planted_edges(5, {(0, 1): {0}}),
        [(D, D + 4 * DAY), (D + 100 * DAY, D + 110 * DAY)]),
       "no frames labeled within 2020-07-09..2020-07-19")
      for name, persistence in [("test_persistence_empty_period", pair_persistence),
                                ("test_triad_persistence_empty_period", triad_persistence)]],
    ("test_parse_metrics_csv_names_line_of_unparseable_field",
     lambda: parse_metrics_csv(metrics_with((3, 3, "xx"))),
     "line 3: edge_count 'xx' does not parse"),
    # A field text is parsed once however often it repeats; the error names its first line.
    ("test_parse_metrics_csv_names_first_line_of_a_repeated_bad_field",
     lambda: parse_metrics_csv(metrics_with((3, 3, "xx"), (5, 3, "xx"), n_frames=4)),
     "line 3: edge_count 'xx' does not parse"),
    ("test_parse_metrics_csv_names_line_of_truncated_row",
     lambda: parse_metrics_csv(metrics_with((4, 6, None))), "line 4: 6 fields, expected 7"),
    ("test_parse_metrics_csv_rejects_other_header",
     lambda: parse_metrics_csv(metrics_text().replace("edge_count", "edges", 1)),
     f"line 1: header is not {METRICS_HEADER.strip()}"),
    *[(f"test_parse_metrics_csv_rejects_non_finite_floats[{token}-{column}]",
       lambda column=column, token=token: parse_metrics_csv(metrics_with((4, column, token))),
       f"line 4: {METRIC_COLUMNS[column]} '{token}' is not finite")
      for token in ("nan", "inf", "-inf", "NaN", "1e999") for column in (2, 4, 5, 6)],
    # int() and float() read ' 1_5 ' as 15; the emitter writes neither.
    *[(f"test_parse_metrics_csv_rejects_whitespace_and_underscores[{column}-{token}]",
       lambda column=column, token=token: parse_metrics_csv(metrics_with((4, column, token))),
       f"line 4: {METRIC_COLUMNS[column]} {token!r} holds whitespace or an underscore")
      for column, token in [(0, " 2020-04-02"), (1, " 1_5 "), (1, "1_5"), (2, "0.5 "),
                            (3, "1_0"), (3, "\t1"), (4, "0.2_5"), (5, "0.25\u00a0"),
                            (6, " 0.25")]],
    ("test_parse_metrics_csv_names_first_bad_row_in_file_order",
     lambda: parse_metrics_csv(first_bad_row_in_file_order("nan")),
     "line 3: density 'nan' is not finite"),
    ("test_parse_metrics_csv_names_the_next_bad_row_once_the_first_is_mended",
     lambda: parse_metrics_csv(first_bad_row_in_file_order("0.5")), "line 4: 5 fields, expected 7"),
    ("test_parse_metrics_csv_without_data_rows[empty]", lambda: parse_metrics_csv(""),
     "no header and no data rows"),
    ("test_parse_metrics_csv_without_data_rows[header-only]",
     lambda: parse_metrics_csv(METRICS_HEADER), "no data rows"),
]
globals().update(by_test_id(FAILURES))


def test_persistence_csv_format():
    groups = [((D, D + 91 * DAY), 0.8, np.array([[1, 0]]), np.array([52]))]
    text = emit_persistence_csv(("quarantine", "ecq"), groups)
    lines = text.strip().split("\n")
    assert lines[0] == "period_start,period_end,threshold,members,count"
    assert lines[1] == "2020-03-31,2020-06-30,0.8,ecq|quarantine,52"


def test_csv_quoting_round_trips_through_csv_reader():
    """Keywords with commas, quotes, spaces and `%`, in unsorted order, are
    written as csv.writer writes them one row at a time."""
    names = ('z "q"', "b,c", "a b", 'x,"y"', "tail,", '"lead', "k10", "k2", "100% cotton",
             "%s,%d", '50%% "off"')
    k = len(names)
    rng = np.random.default_rng(61)
    raw = rng.random((3, k, k))
    matrix = (raw + raw.transpose(0, 2, 1)) / 2
    frames = CorrelationFrame(
        label_dates=np.datetime64(D) + np.arange(3),
        window_days=15,
        keywords=names,
        matrix=matrix,
    )
    g = threshold_adjacency(frames, 0.5)
    period = (D, D + 2 * DAY)
    groups = [(period, 0.5, *counted) for counted in triad_persistence(g, [period])]
    persistence_text = emit_persistence_csv(names, groups)
    correlations_text = emit_correlations_csv(frames)

    def written(rows):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        return out.getvalue()

    members, counts = groups[0][2:]
    expected_persistence = [["period_start", "period_end", "threshold", "members", "count"]] + [
        ["2020-03-31", "2020-04-02", "0.5", "|".join(names[i] for i in row), str(count)]
        for row, count in zip(members.tolist(), counts.tolist())
    ]
    expected_correlations = [["label_date", "keyword_a", "keyword_b", "dcor"]] + [
        [str(label), names[i], names[j], f"{matrix[f, i, j]:.12g}"]
        for f, label in enumerate(frames.label_dates)
        for i in range(k) for j in range(i + 1, k)
    ]
    for text, expected in ((persistence_text, expected_persistence),
                           (correlations_text, expected_correlations)):
        assert text == written(expected)
        assert list(csv.reader(io.StringIO(text))) == expected
    ordered = [row[3].split("|") for row in expected_persistence[1:]]
    assert any(row != sorted(row) for row in ordered)  # members keep index order
