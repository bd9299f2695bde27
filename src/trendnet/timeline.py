"""Annotated pandemic event timeline, read from `date,label,category` rows by
`util.csv_records` (the caller names the file), and its join onto metric series."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from importlib import resources

from .errors import TrendnetError
from .netstat import MetricTable
from .util import csv_records, iso_date

# Chart color per category; variant detections render black like milestones.
CATEGORY_COLORS = {
    "Quarantine": "magenta",
    "Milestone": "black",
    "Variant": "black",
    "Policy": "orange",
    "Vaccine": "yellow",
}

BUNDLED_EVENTS = "ph_covid_2020_2021.csv"
EVENT_COLUMNS = ["date", "label", "category"]


@dataclass(frozen=True)
class EventRecord:
    date: date
    label: str
    category: str

    @property
    def color(self) -> str:
        return CATEGORY_COLORS[self.category]


@dataclass(frozen=True)
class JoinedEvent:
    """An event paired with the metric table row at (or after) its date."""

    event: EventRecord
    point: int | None  # row index into the joined table
    match: str  # exact | following | unmatched


def load_events(raw_csv: str) -> list[EventRecord]:
    """Parse `date,label,category` rows into a date-sorted event list.

    A first row of exactly `date,label,category` is a header, and blank rows
    are skipped. A row with fewer than three fields, a date that does not
    parse and an unknown category are errors naming the line or date.
    Events outside the charted dates are kept; charts simply do not show them.
    """
    events = []
    for line, (day, label, category, *_) in csv_records(raw_csv, EVENT_COLUMNS):
        try:
            when = iso_date(day)
        except ValueError:
            raise TrendnetError(f"line {line}: event date {day!r} does not parse") from None
        if category not in CATEGORY_COLORS:
            raise TrendnetError(
                f"{when}: unknown event category {category!r};"
                f" expected one of {', '.join(sorted(CATEGORY_COLORS))}"
            )
        events.append(EventRecord(date=when, label=label, category=category))
    events.sort(key=lambda e: e.date)
    return events


def load_bundled_events() -> list[EventRecord]:
    text = resources.files("trendnet.events").joinpath(BUNDLED_EVENTS).read_text("utf-8")
    return load_events(text)


def join_events(metrics: MetricTable, events: list[EventRecord]) -> list[JoinedEvent]:
    """Pair each event with the metric table row at its date.

    Events before the first label date or between labels join the nearest
    following label date and are flagged; events after the last label date
    stay unmatched. Every event appears exactly once, in date order.
    """
    ordered = metrics.order("label_date", "threshold")
    dates = [metrics.label_date[i] for i in ordered]
    joined = []
    for event in sorted(events, key=lambda e: e.date):
        idx = bisect_left(dates, event.date)
        if idx == len(dates):
            joined.append(JoinedEvent(event, None, "unmatched"))
        else:
            match = "exact" if dates[idx] == event.date else "following"
            joined.append(JoinedEvent(event, ordered[idx], match))
    return joined
