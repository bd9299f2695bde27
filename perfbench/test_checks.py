"""The output checks must reject corrupted outputs, one corruption per layer.

    python3 -m pytest perfbench/test_checks.py -q

Runs the pipeline once on a small planted-block workload, checks that its
outputs pass, then corrupts one value in a copy of them and checks that the
failure is pinned on the command that wrote it.
"""

from __future__ import annotations

import json
import shutil
from datetime import date
from pathlib import Path

import pytest

import checks
import run
import workloads

SEED = 3
SMALL = workloads.Spec(
    "small", workloads.PAPER_KEYWORDS[:10], date(2020, 3, 16), date(2020, 7, 31),
    (15, 30), (0.4, 0.5, 0.8),
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("pipeline")
    inputs = workloads.generate(SMALL, SEED, work / "inputs")
    runner = run.Runner(Path(run.HERE).parent / "src", work)
    for op in run.OPS:
        assert runner.child(run.op_args(inputs, work / "out", op))["exit"] == 0, op
    return inputs, work / "out"


@pytest.fixture()
def copy(pipeline, tmp_path):
    inputs, out = pipeline
    shutil.copytree(out, tmp_path / "out")
    return inputs, tmp_path / "out"


def failures(inputs, out) -> list[tuple[str, str]]:
    return checks.check_run(inputs, out, SEED)


def edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text("utf-8").split("\n")
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines), "utf-8")


def set_field(index: int, value):
    def edit(line: str) -> str:
        fields = line.split(",")
        fields[index] = value(fields[index])
        return ",".join(fields)
    return edit


def test_clean_outputs_pass(pipeline):
    assert failures(*pipeline) == []


def test_stitched_value(copy):
    inputs, out = copy
    edit_line(out / "stitched" / "fever.csv", 40, set_field(1, lambda v: repr(float(v) * 1.001)))
    # analyze read the uncorrupted file, so its recomputed values disagree too
    command, message = failures(inputs, out)[0]
    assert command == checks.STITCH and "averages" in message


def test_dcor_value(copy):
    inputs, out = copy
    # the first frame is always among the recomputed ones
    edit_line(out / "analysis" / "correlations_w15.csv", 3,
              set_field(3, lambda v: f"{float(v) + 1e-10:.12g}"))
    found = failures(inputs, out)
    assert found and {c for c, _ in found} == {checks.ANALYZE}
    assert "definitional estimator" in found[0][1]


def test_metrics_row(copy):
    inputs, out = copy
    edit_line(out / "analysis" / "metrics_w30_t0.5.csv", 1,
              set_field(6, lambda v: repr(float(v) + 2 ** -40)))
    found = failures(inputs, out)
    assert any(c == checks.ANALYZE and "enumeration" in m for c, m in found)


def test_density_not_monotone(copy):
    inputs, out = copy
    k = len(inputs.keywords)
    path = out / "analysis" / "metrics_w15_t0.8.csv"
    low = (out / "analysis" / "metrics_w15_t0.4.csv").read_text("utf-8").split("\n")
    edges = int(low[20].split(",")[3]) + 1
    edit_line(path, 20, set_field(3, lambda v: str(edges)))
    edit_line(path, 20, set_field(4, lambda v: repr(2 * edges / (k * (k - 1)))))
    found = failures(inputs, out)
    assert any(c == checks.ANALYZE and "rises" in m for c, m in found)


def test_frame_missing(copy):
    inputs, out = copy
    path = out / "analysis" / "metrics_w30_t0.4.csv"
    lines = path.read_text("utf-8").split("\n")
    path.write_text("\n".join(lines[:7] + lines[8:]), "utf-8")
    found = failures(inputs, out)
    assert any(c == checks.ANALYZE and "one per frame" in m for c, m in found)


@pytest.mark.parametrize("kind", ["pairs", "triads"])
def test_persistence_count(copy, kind):
    inputs, out = copy
    kws = inputs.keywords
    subset = checks.persistence_subset(inputs, SEED, 15)
    members = "|".join(kws[i] for i in subset[: 2 if kind == "pairs" else 3])
    path = out / "analysis" / f"persistence_{kind}_w15.csv"
    lines = path.read_text("utf-8").split("\n")
    index = next(i for i, line in enumerate(lines) if line.split(",")[3:4] == [members])
    edit_line(path, index, set_field(4, lambda v: str(int(v) + 1)))
    found = failures(inputs, out)
    assert any(c == checks.ANALYZE and "recount" in m for c, m in found)


def test_malformed_row(copy):
    inputs, out = copy
    edit_line(out / "analysis" / "persistence_pairs_w30.csv", 2, lambda line: line[:12])
    found = failures(inputs, out)
    assert any(c == checks.ANALYZE and "unreadable output" in m for c, m in found)


def test_report_json_row(copy):
    inputs, out = copy
    path = out / "reports" / "density_w15.json"
    body = json.loads(path.read_text("utf-8"))
    body["metrics"][5]["clustering_avg_local"] += 1e-12
    path.write_text(json.dumps(body, indent=2) + "\n", "utf-8")
    assert [c for c, _ in failures(inputs, out)] == [checks.REPORTS["density"]]


def test_svg_point(copy):
    inputs, out = copy
    path = out / "reports" / "clustering_w30.svg"
    text = path.read_text("utf-8")
    start = text.index('points="') + len('points="')
    end = text.index(" ", start)
    x, y = text[start:end].split(",")
    path.write_text(text[:start] + f"{x},{float(y) + 0.5:.2f}" + text[end:], "utf-8")
    assert [c for c, _ in failures(inputs, out)] == [checks.REPORTS["clustering"]]


def test_svg_point_dropped(copy):
    inputs, out = copy
    path = out / "reports" / "density_w15.svg"
    text = path.read_text("utf-8")
    start = text.index('points="') + len('points="')
    end = text.index(" ", start)
    path.write_text(text[:start] + text[end + 1 :], "utf-8")
    assert [c for c, _ in failures(inputs, out)] == [checks.REPORTS["density"]]


def test_changed_byte_is_owned_by_its_command(copy):
    inputs, out = copy
    before = checks.digests(out)
    path = out / "analysis" / "persistence_triads_w30.csv"
    path.write_bytes(path.read_bytes() + b"\n")
    after = checks.digests(out)
    changed = [p for p in before if before[p] != after[p]]
    assert changed == ["analysis/persistence_triads_w30.csv"]
    assert checks.owner(changed[0]) == checks.ANALYZE
    assert checks.owner("reports/clustering_w15.json") == checks.REPORTS["clustering"]
    assert checks.owner("stitched/ubo.csv") == checks.STITCH
