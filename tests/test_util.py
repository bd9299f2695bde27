import csv
import importlib
import io
import os
import pickle
import warnings
from datetime import date

import pytest
from hypothesis import given, strategies as st

import trendnet
from trendnet.errors import TrendnetError
from trendnet.ingest import parse_daily_segment, parse_stitched, parse_weekly
from trendnet.netstat import parse_metrics_csv
from trendnet.registry import parse_registry
from trendnet.timeline import load_events
from trendnet.util import (
    _max_workers,
    csv_records,
    csv_rows,
    default_periods,
    forked_map,
    iso_date,
    month_starts,
)

from helpers import DAY, assert_raises, assert_reaped, by_test_id, raised_text, show_cpus

QUARTER_MONTHS = (1, 4, 7, 10)


def days(first, last):
    return [first + i * DAY for i in range((last - first).days + 1)]


def brute_default_periods(data_start, first_label, last_label):
    """Each quarter starting in [data_start, last_label], walked a day at a time to its
    end, unless it ends before first_label."""
    periods = []
    for start in days(data_start, last_label):
        if start.day == 1 and start.month in QUARTER_MONTHS:
            end = start
            while not ((end + DAY).day == 1 and (end + DAY).month in QUARTER_MONTHS):
                end += DAY
            if end >= first_label:
                periods.append((start, end))
    return periods


spans = st.tuples(st.dates(date(1990, 1, 1), date(2060, 12, 31)), st.integers(-40, 1200))


@given(spans, st.sampled_from([1, 2, 3, 4, 6, 12]))
def test_month_starts_match_a_day_by_day_walk(span, every):
    first, length = span
    last = first + length * DAY
    assert month_starts(first, last, every) == [
        d for d in days(first, last) if d.day == 1 and (d.month - 1) % every == 0
    ]


@given(spans, st.integers(0, 1200))
def test_default_periods_match_a_day_by_day_walk(span, offset):
    data_start, length = span
    last_label = data_start + length * DAY
    first_label = data_start + min(offset, max(length, 0)) * DAY  # inside the span
    assert (default_periods(data_start, first_label, last_label)
            == brute_default_periods(data_start, first_label, last_label))


def test_csv_records_skip_blank_rows_and_a_first_row_header_only():
    text = "a,b\n\n , \n x , y ,z\na,b\n"
    assert list(csv_records(text, ["a", "b"])) == [(4, ["x", "y", "z"]), (5, ["a", "b"])]


def test_csv_rows_number_every_row_blank_ones_included():
    text = 'a,b\n\n"x\ny",z\n\r\nc\n'
    assert list(csv_rows(text)) == [(1, ["a", "b"]), (2, []), (4, ["x\ny", "z"]), (5, []),
                                    (6, ["c"])]


def csv_error(row):
    """What `csv` says of the row it cannot read."""
    return raised_text(lambda: list(csv.reader(io.StringIO(row))))


# Two rows each parser reads without complaint, before the unreadable third.
READABLE_ROWS = {
    parse_daily_segment: "Day,cough: (Philippines)\n2020-03-16,100\n",
    parse_weekly: "Week,cough\n2020-03-15,100\n",
    parse_stitched: "date,value\n2020-03-16,1.5\n",
    parse_registry: "keyword,category\ncough,SymptomsEnglish\n",
    load_events: "date,label,category\n2020-04-01,ok,Policy\n",
    parse_metrics_csv: "label_date,window_days,threshold,edge_count,density,clustering_global,"
                       "clustering_avg_local\n2020-03-30,15,0.5,3,0.2,0.1,0.1\n",
}
UNREADABLE_ROWS = {"over-field-limit": "2020-03-17," + "1" * (csv.field_size_limit() + 1),
                   "bare-cr": "2020-03-17,5\r0,x"}
FAILURES = [  # (test id, call, message[, code, kind])
    # Python 3.11+ `date.fromisoformat` also reads the basic and ISO-week forms.
    *[(f"test_iso_date_reads_only_yyyy_mm_dd[{text}]", lambda text=text: iso_date(text),
       f"not a YYYY-MM-DD date: {text!r}", None, ValueError)
      for text in ["20200401", "2020-W14-5", "2020W141", "2020-W14", "2020-04-1", " 2020-04-01",
                   ""]],
    # Well-formed texts of no date fail `date.fromisoformat` itself.
    *[(f"test_iso_date_reads_only_yyyy_mm_dd[{text}]", lambda text=text: iso_date(text),
       raised_text(lambda text=text: date.fromisoformat(text)), None, ValueError)
      for text in ["2020-13-01", "2020-04-31"]],
    ("test_short_row_names_its_line_and_the_columns[registry]", lambda: parse_registry(
        "keyword,category\ncough,SymptomsEnglish\n\nfever\n"),
     "line 4: row needs keyword,category: ['fever']"),
    ("test_short_row_names_its_line_and_the_columns[events]", lambda: load_events(
        "date,label,category\n2020-04-01,ok,Policy\n\n2020-04-02,short\n"),
     "line 4: row needs date,label,category: ['2020-04-02', 'short']"),
    *[(f"test_unreadable_row_is_an_error_naming_its_line[{name}-{parse.__name__}]",
       lambda parse=parse, text=text + row + "\n": parse(text), f"line 3: {csv_error(row)}")
      for name, row in UNREADABLE_ROWS.items() for parse, text in READABLE_ROWS.items()],
]
globals().update(by_test_id(FAILURES))


# The package's top level: the names README "Library" uses.
PACKAGE_NAMES = {
    "GraphFrame", "MetricTable", "TrendnetError", "assemble_daily", "clustering_avg_local",
    "clustering_global", "frame_metrics", "network_density", "pair_persistence",
    "parse_daily_segment", "parse_weekly", "rolling_correlation", "stitch_series",
    "threshold_adjacency", "triad_persistence",
}
# Names the package root does not export, each by its module.
MODULE_NAMES = {
    "correlate": ("CorrelationFrame", "distance_correlation"),
    "ingest": ("WEEK", "Series", "check_step", "parse_stitched"),
    "registry": ("DEFAULT_KEYWORDS", "check_keyword", "parse_registry"),
    "render": ("render_metric_chart",),
    "timeline": ("EventRecord", "join_events", "load_bundled_events", "load_events"),
}


def test_package_exports_its_library_api_and_other_names_import_from_their_module():
    assert len(trendnet.__all__) == 15 and set(trendnet.__all__) == PACKAGE_NAMES
    for name in trendnet.__all__:
        assert getattr(trendnet, name)
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert not hasattr(trendnet, name), name
            assert getattr(importlib.import_module(f"trendnet.{module}"), name)


def test_trendnet_error_pickles_with_its_code():
    err = pickle.loads(pickle.dumps(TrendnetError("window of 400 days exceeds 365 days", 4)))
    assert type(err) is TrendnetError
    assert (str(err), err.code) == ("window of 400 days exceeds 365 days", 4)


@pytest.mark.parametrize("items, most, parts", [
    (range(7), None, [range(0, 2), range(2, 4), range(4, 7)]),
    (range(7), 2, [range(0, 3), range(3, 7)]),
    (range(7), 0, [range(0, 7)]),
    ([15, 30], None, [[15], [30]]),
])
def test_forked_map_cuts_contiguous_parts_one_per_worker(monkeypatch, items, most, parts):
    forks = show_cpus(monkeypatch, 3)
    results = forked_map(lambda part: [part, os.getpid()], items, str, most=most)
    assert [part for part, _ in results] == parts
    assert len(forks) == len(parts) - 1
    assert results[0][1] == os.getpid() and len({pid for _, pid in results}) == len(parts)


@pytest.mark.parametrize("cpus, workers", [(5, 5), (None, 1)])
def test_max_workers_counts_cpus_without_affinity_masks(monkeypatch, cpus, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _max_workers() == workers


def test_forked_map_raises_the_earliest_failing_part_with_its_code(monkeypatch):
    forks = show_cpus(monkeypatch, 3)

    def work(part):
        if part[0]:
            raise TrendnetError(f"part {part[0]}", 3 + part[0])
        return part

    assert_raises(lambda: forked_map(work, [0, 1, 2], str), "part 1", 4)
    assert len(forks) == 2
    assert_reaped()


def test_forked_map_own_part_error_wins_after_waiting(monkeypatch):
    show_cpus(monkeypatch, 3)

    def work(part):
        raise TrendnetError(f"part {part[0]}")

    assert_raises(lambda: forked_map(work, [0, 1, 2], str), "part 0")
    assert_reaped()


PART_WARNINGS = (UserWarning, RuntimeWarning, FutureWarning)  # the warning of part 0, 1, 2


def warn_then(fail: int | None = None):
    """The work of a part [i]: warn `part i` as category i, then raise if i is `fail`."""
    def work(part):
        warnings.warn(f"part {part[0]}", PART_WARNINGS[part[0]])
        if part[0] == fail:
            raise TrendnetError(f"part {part[0]}", 3)
        return part
    return work


def relayed(call) -> list:
    """`(category, text)` of each warning `call()` warns here, in order, and the
    one (file, line) they were all warned at."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        call()
    assert len({(w.filename, w.lineno) for w in log}) == 1
    return [(w.category, str(w.message)) for w in log]


def test_forked_map_relays_child_warnings_in_slice_order(monkeypatch):
    forks = show_cpus(monkeypatch, 3)
    assert relayed(lambda: forked_map(warn_then(), [0, 1, 2], str)) == [
        (UserWarning, "part 0"), (RuntimeWarning, "part 1"), (FutureWarning, "part 2")]
    assert len(forks) == 2
    assert_reaped()


def test_forked_map_drops_warnings_after_the_first_failing_part(monkeypatch):
    show_cpus(monkeypatch, 3)
    assert relayed(lambda: assert_raises(lambda: forked_map(warn_then(1), [0, 1, 2], str),
                                         "part 1", 3)) == [(UserWarning, "part 0"),
                                                           (RuntimeWarning, "part 1")]
    assert_reaped()


def test_forked_map_relayed_warning_raises_under_an_error_filter(monkeypatch):
    forks = show_cpus(monkeypatch, 3)

    def work(part):
        if part[0]:
            warnings.warn(f"part {part[0]}")
        return part

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_raises(lambda: forked_map(work, [0, 1, 2], str), "part 1", kind=UserWarning)
    assert len(forks) == 2
    assert_reaped()


def test_forked_map_relayed_warnings_meet_the_filters_of_their_module(monkeypatch):
    """A relayed warning is filtered as if warned here: by its module's name, and
    under "default" once per text and line in that module's registry."""
    show_cpus(monkeypatch, 3)

    def work(part):
        warnings.warn("the same text at the same line")
        return part

    for action, module, shown in [("default", "", 1), ("ignore", __name__, 0)]:
        with warnings.catch_warnings(record=True) as log:
            warnings.filterwarnings(action, module=module)
            forked_map(work, [0, 1, 2], str)
        assert len(log) == shown, action
    assert_reaped()


def test_forked_map_relays_a_warning_of_no_module_file(monkeypatch):
    show_cpus(monkeypatch, 2)

    def work(part):
        warnings.warn_explicit(f"part {part[0]}", UserWarning, "<string>", 1)
        return part

    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        forked_map(work, [0, 1], str)
    assert [(str(w.message), w.filename) for w in log] == [("part 0", "<string>"),
                                                           ("part 1", "<string>")]
    assert_reaped()


@pytest.mark.parametrize("unpicklable", ["reply", "warning"])
def test_forked_map_child_names_what_pickle_cannot_write(monkeypatch, unpicklable):
    """A child whose reply or warning pickle cannot write fails with pickle's error
    as the cause, and sends no warning."""
    show_cpus(monkeypatch, 2)

    def work(part):
        class LocalWarning(UserWarning):
            pass
        warnings.warn(f"part {part[0]}", LocalWarning if unpicklable == "warning" else UserWarning)
        return (lambda: part) if unpicklable == "reply" else part

    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        sent = (work([1]), [(str(w.message), w.category, w.filename, w.lineno) for w in log])
    try:  # the same objects, so the same wording on any Python version
        pickle.dumps(sent)
    except Exception as err:
        cause = f"{type(err).__name__}: {err}"
    warned = relayed(lambda: assert_raises(lambda: forked_map(work, [0, 1], str),
                                           f"[1] exited with status 1: {cause}",
                                           kind=ChildProcessError))
    # Only this process's own warning of part 0; each call of `work` makes its own class.
    assert [(c.__name__, text) for c, text in warned] == [(log[0].category.__name__, "part 0")]
    assert_reaped()


class TwoArgs(Exception):
    """An exception pickle writes but cannot read back: its args are not `__init__`'s."""

    def __init__(self, a, b):
        super().__init__(f"{a}{b}")


def test_forked_map_child_names_a_reply_pickle_cannot_read_back(monkeypatch):
    """A reply that pickles but does not unpickle fails in its child, which names the
    cause, and every later child is still waited for."""
    show_cpus(monkeypatch, 3)
    try:  # the same object, so the same wording on any Python version
        pickle.loads(pickle.dumps(TwoArgs("x", "y")))
    except Exception as err:
        cause = f"{type(err).__name__}: {err}"
    assert_raises(lambda: forked_map(lambda part: TwoArgs("x", "y") if part == [1] else part,
                                     [0, 1, 2], str),
                  f"[1] exited with status 1: {cause}", kind=ChildProcessError)
    assert_reaped()
