"""Annotated pandemic event timeline and its join onto metric series."""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from importlib import resources

from .errors import UnknownCategory
from .netstat import MetricPoint

# Chart color per category; variant detections render black like milestones.
CATEGORY_COLORS = {
    "Quarantine": "magenta",
    "Milestone": "black",
    "Variant": "black",
    "Policy": "orange",
    "Vaccine": "yellow",
}

BUNDLED_EVENTS = "ph_covid_2020_2021.csv"


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
    """An event paired with the metric point at (or after) its date."""

    event: EventRecord
    point: MetricPoint | None
    match: str  # exact | following | unmatched


def load_events(raw_csv: str) -> list[EventRecord]:
    """Parse `date,label,category` rows into a date-sorted event list.

    Unknown categories are an error. Events outside the charted dates are
    kept; charts simply do not show them.
    """
    events = []
    for row in csv.reader(io.StringIO(raw_csv)):
        if not row or not row[0].strip():
            continue
        try:
            when = date.fromisoformat(row[0].strip())
        except ValueError:
            continue  # header or preamble
        if len(row) < 3:
            raise ValueError(f"event row needs date,label,category: {row!r}")
        label = row[1].strip()
        category = row[2].strip()
        if category not in CATEGORY_COLORS:
            raise UnknownCategory(
                f"{when}: unknown event category {category!r};"
                f" expected one of {', '.join(sorted(CATEGORY_COLORS))}"
            )
        events.append(EventRecord(date=when, label=label, category=category))
    events.sort(key=lambda e: e.date)
    return events


def load_bundled_events() -> list[EventRecord]:
    text = resources.files("trendnet.events").joinpath(BUNDLED_EVENTS).read_text("utf-8")
    return load_events(text)


def join_events(metrics: list[MetricPoint], events: list[EventRecord]) -> list[JoinedEvent]:
    """Pair each event with the metric point at its date.

    Events before the first label date or between labels join the nearest
    following label date and are flagged; events after the last label date
    stay unmatched. Every event appears exactly once, in date order.
    """
    ordered = sorted(metrics, key=lambda m: (m.label_date, m.threshold))
    dates = [m.label_date for m in ordered]
    joined = []
    for event in sorted(events, key=lambda e: e.date):
        idx = bisect_left(dates, event.date)
        if idx == len(dates):
            joined.append(JoinedEvent(event=event, point=None, match="unmatched"))
        elif dates[idx] == event.date:
            joined.append(JoinedEvent(event=event, point=ordered[idx], match="exact"))
        else:
            joined.append(JoinedEvent(event=event, point=ordered[idx], match="following"))
    return joined
