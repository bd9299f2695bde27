"""Metamorphic properties of the whole stitch -> analyze pipeline.

Relabelling the inputs must relabel the outputs and change nothing else:
keyword order is presentation only, and distance correlation does not see
a positive affine change of units in one keyword's series.
"""

import csv
import io
from collections import Counter

import numpy as np
import pytest

from trendnet.cli import main
from trendnet.ingest import emit_daily_csv, parse_stitched

from helpers import daily_series, planted_block_series, write_export_tree

KEYWORDS = ("cough", "fever", "flu", "ubo", "sipon", "lagnat")
CATEGORY = {"cough": "SymptomsEnglish", "fever": "SymptomsEnglish", "flu": "SymptomsEnglish",
            "ubo": "SymptomsFilipino", "sipon": "SymptomsFilipino", "lagnat": "SymptomsFilipino"}
ANALYZE = ("--windows", "15,30", "--thresholds", "0.4,0.5,0.6,0.8")


def write_registry(path, keywords):
    path.write_text(
        "keyword,category\n" + "".join(f"{kw},{CATEGORY[kw]}\n" for kw in keywords), "utf-8"
    )
    return path


@pytest.fixture(scope="module")
def stitched(tmp_path_factory):
    """Two planted blocks of three keywords, stitched."""
    root = tmp_path_factory.mktemp("metamorphic")
    series, _ = planted_block_series(np.random.default_rng(61), KEYWORDS, block_size=3)
    write_export_tree(root, series)
    out = root / "stitched"
    assert main(["stitch", "--daily-dir", str(root / "daily"), "--weekly-dir",
                 str(root / "weekly"), "--registry", str(write_registry(root / "reg.csv", KEYWORDS)),
                 "--out", str(out)]) == 0
    return out


def analyze(stitched_dir, out, keywords):
    registry = write_registry(out.parent / f"{out.name}_registry.csv", keywords)
    assert main(["analyze", "--stitched", str(stitched_dir), "--registry", str(registry),
                 *ANALYZE, "--out", str(out)]) == 0
    return out


def rows(path):
    return list(csv.reader(io.StringIO(path.read_text())))[1:]


def dcor_by_pair(path):
    """{(label, {a, b}): dcor} from a correlations CSV."""
    return {(label, frozenset((a, b))): float(v) for label, a, b, v in rows(path)}


def persistence_multiset(path):
    """Rows with members as a set, so member order within a row is ignored."""
    return Counter(
        (start, end, theta, frozenset(members.split("|")), count)
        for start, end, theta, members, count in rows(path)
    )


def test_permuting_registry_permutes_rows_and_keeps_metrics(stitched, tmp_path):
    base = analyze(stitched, tmp_path / "base", KEYWORDS)
    order = [KEYWORDS[i] for i in (4, 0, 5, 2, 3, 1)]
    permuted = analyze(stitched, tmp_path / "permuted", order)

    metric_files = sorted(p.name for p in base.glob("metrics_*.csv"))
    assert len(metric_files) == 8
    for name in metric_files:
        assert (permuted / name).read_bytes() == (base / name).read_bytes(), name
    for window in (15, 30):
        before = dcor_by_pair(base / f"correlations_w{window}.csv")
        after = dcor_by_pair(permuted / f"correlations_w{window}.csv")
        assert after.keys() == before.keys()
        assert max(abs(after[key] - before[key]) for key in before) <= 1e-12
        # the first row follows the new keyword order
        assert rows(permuted / f"correlations_w{window}.csv")[0][1:3] == order[:2]
        for kind in ("pairs", "triads"):
            name = f"persistence_{kind}_w{window}.csv"
            assert persistence_multiset(permuted / name) == persistence_multiset(base / name)
    assert any(int(r[-1]) > 0 for r in rows(base / "persistence_triads_w15.csv"))


def test_affine_rescale_of_one_keyword_keeps_its_dcor_rows(stitched, tmp_path):
    base = analyze(stitched, tmp_path / "base", KEYWORDS)
    scaled_dir = tmp_path / "scaled_stitched"
    scaled_dir.mkdir()
    for kw in KEYWORDS:
        text = (stitched / f"{kw}.csv").read_text()
        if kw == "flu":
            series = parse_stitched(text)
            text = emit_daily_csv(daily_series(3.7 * series.values + 12.5, series.start_date))
        (scaled_dir / f"{kw}.csv").write_text(text)
    scaled = analyze(scaled_dir, tmp_path / "scaled", KEYWORDS)

    for window in (15, 30):
        before = rows(base / f"correlations_w{window}.csv")
        after = rows(scaled / f"correlations_w{window}.csv")
        assert [r[:3] for r in after] == [r[:3] for r in before]
        touched = [(a, b) for a, b in zip(before, after) if "flu" in a[1:3]]
        assert len(touched) == len(before) // 3  # flu is in 5 of the 15 pairs
        # 12 significant digits of values below 1: one unit in the last digit
        # is 1e-12, and values this close may round to neighbouring strings.
        assert max(abs(float(a[3]) - float(b[3])) for a, b in touched) <= 1e-12 + 1e-15
        assert [a for a in before if "flu" not in a[1:3]] == [
            b for b in after if "flu" not in b[1:3]
        ]
