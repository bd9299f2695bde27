"""Cross-output invariants of the reference fixtures' stitch -> analyze -> report runs.

Each reference fixture runs once per module through `helpers.run_reference`, as
`tests/pipeline_outputs.py` runs it for CI's byte diff. The tests read only the
written files and check that they agree with each other: persistence counts
against the frames of their period, against each other and over the thresholds,
and each metrics row's edge count against its frame's correlation rows.
"""

import csv
from collections import defaultdict
from decimal import Decimal

import pytest

from helpers import REFERENCE_FIXTURES, run_reference

WINDOWS = (15, 30)
THRESHOLDS = ("0.4", "0.5", "0.6", "0.8")


@pytest.fixture(scope="module", params=REFERENCE_FIXTURES)
def analysis(request, tmp_path_factory):
    return run_reference(tmp_path_factory.mktemp(request.param), request.param) / "analysis"


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
