from datetime import date

from trendnet.netstat import MetricTable
from trendnet.timeline import (
    CATEGORY_COLORS,
    join_events,
    load_bundled_events,
    load_events,
)

from helpers import DAY, FIRST_LABEL as D, by_test_id


def metrics_at(dates, threshold=0.5):
    n = len(dates)
    return MetricTable(
        label_date=list(dates),
        window_days=[15] * n,
        threshold=[threshold] * n,
        edge_count=[3] * n,
        density=[0.2] * n,
        clustering_global=[0.1] * n,
        clustering_avg_local=[0.1] * n,
    )


def test_bundled_timeline_has_sixteen_events_sorted():
    events = load_bundled_events()
    assert len(events) == 16
    assert [e.date for e in events] == sorted(e.date for e in events)
    assert events[0].date == date(2020, 4, 7)
    assert events[0].category == "Quarantine"
    assert events[0].color == "magenta"
    assert events[-1].date == date(2021, 3, 12)


def test_bundled_timeline_categories_and_colors():
    events = load_bundled_events()
    by_category = {}
    for e in events:
        by_category.setdefault(e.category, []).append(e)
    assert len(by_category["Quarantine"]) == 6
    assert len(by_category["Milestone"]) == 2
    assert len(by_category["Policy"]) == 2
    assert len(by_category["Vaccine"]) == 2
    assert len(by_category["Variant"]) == 4
    vaccine = by_category["Vaccine"][0]
    assert vaccine.date == date(2021, 1, 14)
    assert "Pfizer" in vaccine.label
    assert vaccine.color == "yellow"
    assert all(e.color == "black" for e in by_category["Variant"])


def test_load_events_parses_and_sorts():
    text = (
        "date,label,category\n"
        "2020-06-01,GCQ begins,Quarantine\n"
        "2020-04-07,ECQ in Metro Manila extended to Apr 30,Quarantine\n"
    )
    events = load_events(text)
    assert [e.date for e in events] == [date(2020, 4, 7), date(2020, 6, 1)]
    assert events[0].color == "magenta"


def test_load_events_header_names_are_stripped():
    events = load_events(" date , label ,category\n2020-04-01,ok,Policy\n")
    assert [(e.date, e.label) for e in events] == [(date(2020, 4, 1), "ok")]


def test_load_events_empty_text_gives_empty_timeline():
    assert load_events("") == []
    assert load_events("date,label,category\n") == []


def test_join_exact_match():
    metrics = metrics_at([D + i * DAY for i in range(10)])
    joined = join_events(metrics, load_events(f"{(D + 3 * DAY).isoformat()},x,Policy\n"))
    assert joined[0].match == "exact"
    assert metrics.label_date[joined[0].point] == D + 3 * DAY


def test_join_points_index_rows_of_the_given_table():
    dates = [D + i * DAY for i in range(5)]
    metrics = MetricTable.concat([metrics_at(dates, 0.8), metrics_at(dates, 0.4)])
    [joined] = join_events(metrics, load_events("2020-04-02,x,Policy\n"))
    assert joined.match == "exact"
    assert (metrics.label_date[joined.point], metrics.threshold[joined.point]) == (
        D + 2 * DAY, 0.4)  # the lowest threshold's row on that date


def test_join_event_before_first_label_flags_following():
    metrics = metrics_at([D + i * DAY for i in range(5)])
    joined = join_events(metrics, load_events("2020-03-20,early,Quarantine\n"))
    assert joined[0].match == "following"
    assert metrics.label_date[joined[0].point] == D


def test_join_event_after_last_label_unmatched():
    metrics = metrics_at([D])
    joined = join_events(metrics, load_events("2021-06-01,late,Vaccine\n"))
    assert joined[0].match == "unmatched"
    assert joined[0].point is None


def test_join_every_event_appears_once_in_date_order():
    metrics = metrics_at([D + i * DAY for i in range(40)])
    events = load_bundled_events()
    joined = join_events(metrics, events)
    assert len(joined) == len(events)
    assert [j.event.date for j in joined] == [e.date for e in sorted(events, key=lambda e: e.date)]


def test_category_color_map_is_complete():
    assert set(CATEGORY_COLORS) == {"Quarantine", "Milestone", "Variant", "Policy", "Vaccine"}
    assert CATEGORY_COLORS["Policy"] == "orange"


def no_date(line, day):
    return f"line {line}: event date {day!r} does not parse"


FAILURES = [  # (test id, call, message)
    ("test_load_events_unknown_category", lambda: load_events("2020-04-07,quake,Earthquake\n"),
     "2020-04-07: unknown event category 'Earthquake';"
     " expected one of Milestone, Policy, Quarantine, Vaccine, Variant"),
    ("test_load_events_short_row", lambda: load_events("2020-04-01,only-two\n"),
     "line 1: row needs date,label,category: ['2020-04-01', 'only-two']"),
    ("test_load_events_mistyped_date_after_first_row_raises", lambda: load_events(
        "2020-04-01,ok,Policy\n2020-13-01,typo month,Policy\n2020-04-31,typo day,Vaccine\n"),
     no_date(2, "2020-13-01")),
    ("test_load_events_mistyped_date_after_a_blank_row_raises", lambda: load_events(
        "date,label,category\n\n2020-04-01,ok,Policy\n2020-04-31,typo,Vaccine\n"),
     no_date(4, "2020-04-31")),
    ("test_load_events_first_row_is_header_only_by_its_names",
     lambda: load_events("2020-13-01,typo month,Policy\n2020-04-01,ok,Policy\n"),
     no_date(1, "2020-13-01")),
    ("test_load_events_first_row_of_other_names_is_data",
     lambda: load_events("\nwhen,what,kind\n2020-04-01,ok,Policy\n"), no_date(2, "when")),
]
globals().update(by_test_id(FAILURES))
