from datetime import date, timedelta

import pytest

from trendnet.errors import UnknownCategory
from trendnet.netstat import MetricPoint
from trendnet.timeline import (
    CATEGORY_COLORS,
    join_events,
    load_bundled_events,
    load_events,
)

D = date(2020, 3, 31)
DAY = timedelta(days=1)


def metric_at(when, threshold=0.5):
    return MetricPoint(
        label_date=when,
        window_days=15,
        threshold=threshold,
        edge_count=3,
        density=0.2,
        clustering_global=0.1,
        clustering_avg_local=0.1,
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


def test_load_events_unknown_category():
    with pytest.raises(UnknownCategory, match="Earthquake"):
        load_events("2020-04-07,quake,Earthquake\n")


def test_load_events_empty_text_gives_empty_timeline():
    assert load_events("") == []
    assert load_events("date,label,category\n") == []


def test_join_exact_match():
    metrics = [metric_at(D + i * DAY) for i in range(10)]
    joined = join_events(metrics, load_events(f"{(D + 3 * DAY).isoformat()},x,Policy\n"))
    assert joined[0].match == "exact"
    assert joined[0].point.label_date == D + 3 * DAY


def test_join_event_before_first_label_flags_following():
    metrics = [metric_at(D + i * DAY) for i in range(5)]
    joined = join_events(metrics, load_events("2020-03-20,early,Quarantine\n"))
    assert joined[0].match == "following"
    assert joined[0].point.label_date == D


def test_join_event_after_last_label_unmatched():
    metrics = [metric_at(D)]
    joined = join_events(metrics, load_events("2021-06-01,late,Vaccine\n"))
    assert joined[0].match == "unmatched"
    assert joined[0].point is None


def test_join_every_event_appears_once_in_date_order():
    metrics = [metric_at(D + i * DAY) for i in range(40)]
    events = load_bundled_events()
    joined = join_events(metrics, events)
    assert len(joined) == len(events)
    assert [j.event.date for j in joined] == [e.date for e in sorted(events, key=lambda e: e.date)]


def test_category_color_map_is_complete():
    assert set(CATEGORY_COLORS) == {"Quarantine", "Milestone", "Variant", "Policy", "Vaccine"}
    assert CATEGORY_COLORS["Policy"] == "orange"
