"""Cross-output invariants and committed digests of the reference fixtures' runs.

Each reference fixture runs stitch -> analyze -> report once per module through
`helpers.run_reference`, laid out as `tests/pipeline_outputs.py` lays it out for
CI's byte diff. The tests read only the written files. They check that the files
agree with each other: persistence counts against the frames of their period,
against each other and over the thresholds, and each metrics row's edge count
against its frame's correlation rows. And they check that every file but the
correlations matches its sha256 in `tests/reference_outputs.sha256`.
"""

import csv
import hashlib
from collections import defaultdict
from decimal import Decimal
from pathlib import Path

import pytest

from helpers import REFERENCE_FIXTURES, run_reference

WINDOWS = (15, 30)
THRESHOLDS = ("0.4", "0.5", "0.6", "0.8")


DIGESTS = Path(__file__).with_name("reference_outputs.sha256")


@pytest.fixture(scope="module", params=REFERENCE_FIXTURES)
def out(request, tmp_path_factory):
    """The fixture's outputs, at <tmp>/<fixture>/out as `tests/pipeline_outputs.py` writes them."""
    return run_reference(tmp_path_factory.mktemp("runs") / request.param, request.param)


@pytest.fixture()
def analysis(out):
    return out / "analysis"


def rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


def persistence(analysis, kind, window):
    """{(period start, period end, threshold, members as a set): count} of one file."""
    return {(start, end, theta, frozenset(members.split("|"))): int(count)
            for start, end, theta, members, count
            in rows(analysis / f"persistence_{kind}_w{window}.csv")}


def test_persistence_counts_bounded_by_frames_and_pairs(analysis):
    """A count is at most the frames labeled in its period, and a triad's count at most
    each of its three pairs' counts for the same period and threshold."""
    for window in WINDOWS:
        labels = {label for label, *_ in rows(analysis / f"correlations_w{window}.csv")}
        pairs, triads = (persistence(analysis, kind, window) for kind in ("pairs", "triads"))
        frames = {(start, end): sum(start <= label <= end for label in labels)
                  for start, end in {key[:2] for key in pairs}}
        for (start, end, _, _), count in (pairs | triads).items():
            assert count <= frames[start, end]
        for (start, end, theta, members), count in triads.items():
            assert all(count <= pairs[start, end, theta, members - {kw}] for kw in members)


def test_persistence_counts_do_not_rise_with_threshold(analysis):
    """For the same period and members, each count is at most the one at the next lower
    threshold."""
    for window in WINDOWS:
        for kind in ("pairs", "triads"):
            by_theta = defaultdict(dict)
            for (start, end, theta, members), count in persistence(analysis, kind, window).items():
                by_theta[start, end, members][float(theta)] = count
            for counts in by_theta.values():
                ordered = [counts[theta] for theta in sorted(counts)]
                assert len(ordered) == len(THRESHOLDS)
                assert ordered == sorted(ordered, reverse=True)


def test_edge_counts_match_correlation_rows(analysis):
    """Each metrics row's edge count is its frame's correlation rows at or above the
    threshold. A dCor is written with 12 significant digits, so a written value equal
    to the threshold may stand for one just below it: a frame holding such a value is
    ambiguous at that threshold and skipped there. The reference fixtures hold no such
    frame: the skip count is asserted 0 at every window and threshold."""
    skipped = {}
    for window in WINDOWS:
        dcors = defaultdict(list)
        for label, _, _, dcor in rows(analysis / f"correlations_w{window}.csv"):
            dcors[label].append(Decimal(dcor))
        for theta in THRESHOLDS:
            bound = Decimal(theta)
            metrics = rows(analysis / f"metrics_w{window}_t{theta}.csv")
            assert [label for label, *_ in metrics] == list(dcors)
            skipped[window, theta] = 0
            for label, _, _, edges, *_ in metrics:
                if bound in dcors[label]:
                    skipped[window, theta] += 1
                    continue
                assert int(edges) == sum(d >= bound for d in dcors[label]), (window, theta, label)
    assert skipped == dict.fromkeys(skipped, 0)


def test_outputs_match_committed_digests(out):
    """Each output's sha256 is the one `tests/reference_outputs.sha256` records, and no
    file is missing or extra. The six `correlations_w*.csv` are left out: their last
    digits depend on the host's BLAS kernel (`tests/test_dcor.py`). The file reads as
    `sha256sum` writes it, by paths relative to `tests/pipeline_outputs.py`'s OUT, so
    `sha256sum -c` in OUT checks a tree that script wrote. An owner-approved byte change
    updates it, so the change shows in the diff."""
    root = out.parent.parent
    recorded = dict(line.split("  ", 1)[::-1] for line in DIGESTS.read_text("utf-8").splitlines())
    expected = {name: digest for name, digest in recorded.items()
                if name.startswith(f"{out.parent.name}/")}
    assert {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*")
            if path.is_file() and not path.match("correlations_w*.csv")} == expected
