"""Parsing and validation of search-interest CSV exports.

Daily exports arrive as segmented CSV files (one contiguous block of days
per file), weekly exports as one year-long file per keyword. Rows are
`YYYY-MM-DD,value`; any leading rows whose first field is not an ISO date
are treated as export preamble and skipped. The censored export value `<1`
maps to 0.5, the midpoint of its interval.

Validation guarantees that daily dates are consecutive and week starts are
7 days apart, so a series is stored as its first date plus one float64
array of shape (days,) or (weeks,); the date of entry i is implied.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import (
    EmptySegment,
    EmptySeries,
    GapError,
    IrregularWeekSpacing,
    NonConsecutiveDates,
    OverlapError,
    SpanError,
    ValueOutOfRange,
)

DAY = timedelta(days=1)
WEEK = timedelta(days=7)


@dataclass(frozen=True, eq=False)
class DailySeries:
    """Consecutive daily values for a keyword.

    `values[i]` is the value on `start_date + i` days. Parsed export
    segments hold values in [0, 100]; stitched values are nonnegative and
    may exceed 100 because weekly weights can exceed 1.
    """

    keyword: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @property
    def end_date(self) -> date:
        return self.start_date + (len(self.values) - 1) * DAY

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class WeeklySeries:
    """Weekly values for a keyword; `values[i]` is the week starting
    `start_date + 7 * i` days."""

    keyword: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


def _parse_iso_date(token: str) -> date | None:
    try:
        return date.fromisoformat(token.strip())
    except ValueError:
        return None


def _parse_value(token: str, when: date, upper: float | None = 100.0) -> float:
    token = token.strip()
    if token == "<1":
        return 0.5
    try:
        value = float(token)
    except ValueError:
        raise ValueOutOfRange(f"{when}: unparseable value {token!r}") from None
    if not math.isfinite(value) or value < 0 or (upper is not None and value > upper):
        hi = upper if upper is not None else "inf"
        raise ValueOutOfRange(f"{when}: value {token} outside [0,{hi}]")
    return value


def _data_rows(raw_csv: str, upper: float | None) -> list[tuple[date, float]]:
    """Extract (date, value) rows, skipping preamble lines."""
    rows = []
    for record in csv.reader(io.StringIO(raw_csv)):
        if not record:
            continue
        when = _parse_iso_date(record[0])
        if when is None:
            continue  # preamble or header
        if len(record) < 2:
            raise ValueOutOfRange(f"{when}: missing value field")
        rows.append((when, _parse_value(record[1], when, upper)))
    return rows


def _consecutive_values(rows: list[tuple[date, float]], keyword: str) -> np.ndarray:
    """The values of rows whose dates run one day apart, else an error."""
    for (prev, _), (cur, _) in zip(rows, rows[1:]):
        if cur == prev:
            raise NonConsecutiveDates(f"{keyword}: duplicate date {cur}")
        if cur != prev + DAY:
            raise NonConsecutiveDates(
                f"{keyword}: missing date {prev + DAY} (rows jump {prev} -> {cur})"
            )
    return np.array([v for _, v in rows], dtype=np.float64)


def parse_daily_segment(raw_csv: str, keyword: str) -> DailySeries:
    """Parse one segment export into a validated DailySeries in [0, 100].

    Dates must be strictly increasing with no gaps. A segment whose values
    neither reach 100 nor are all zero is suspicious (exports normalize the
    segment maximum to 100) and draws a warning, not an error.
    """
    rows = _data_rows(raw_csv, upper=100.0)
    if not rows:
        raise EmptySegment(f"{keyword}: no data rows")
    values = _consecutive_values(rows, keyword)
    peak = values.max()
    if peak != 100.0 and peak != 0.0:
        warnings.warn(
            f"{keyword}: segment starting {rows[0][0]} has max {peak.tolist()};"
            " expected a 100 (or an all-zero segment) in a normalized export",
            stacklevel=2,
        )
    return DailySeries(keyword.lower(), rows[0][0], values)


def parse_weekly(raw_csv: str, keyword: str) -> WeeklySeries:
    """Parse a weekly export; rows must be spaced exactly 7 days apart."""
    rows = _data_rows(raw_csv, upper=100.0)
    if not rows:
        raise EmptySeries(f"{keyword}: no weekly data rows")
    for (prev, _), (cur, _) in zip(rows, rows[1:]):
        if cur - prev != WEEK:
            raise IrregularWeekSpacing(
                f"{keyword}: week starts {prev} -> {cur} are {(cur - prev).days}"
                " days apart, expected 7"
            )
    return WeeklySeries(keyword.lower(), rows[0][0], np.array([v for _, v in rows]))


def assemble_daily(
    segments: list[DailySeries],
    span: tuple[date, date] | None = None,
) -> DailySeries:
    """Merge per-segment series into one continuous DailySeries.

    Segments must tile the timeline exactly: each one starts the day after
    the previous one ends. When `span` is given the merged series must cover
    it and is trimmed to it.
    """
    if not segments:
        raise EmptySegment("no segments to assemble")
    keywords = {s.keyword for s in segments}
    if len(keywords) > 1:
        raise ValueError(f"segments mix keywords: {sorted(keywords)}")
    ordered = sorted(segments, key=lambda s: s.start_date)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start_date <= prev.end_date:
            raise OverlapError(
                f"{cur.keyword}: segments overlap at {cur.start_date}"
                f" (previous segment runs through {prev.end_date})"
            )
        if cur.start_date != prev.end_date + DAY:
            raise GapError(
                f"{cur.keyword}: missing date {prev.end_date + DAY}"
                f" between segments ({prev.end_date} -> {cur.start_date})"
            )
    first, last = ordered[0].start_date, ordered[-1].end_date
    values = np.concatenate([s.values for s in ordered])
    if span is not None:
        start, end = span
        if first > start or last < end:
            raise SpanError(
                f"{ordered[0].keyword}: assembled span {first}..{last}"
                f" does not cover {start}..{end}"
            )
        values = values[(start - first).days : (end - first).days + 1]
        first = start
    return DailySeries(ordered[0].keyword, first, values)


def parse_stitched(raw_csv: str, keyword: str) -> DailySeries:
    """Parse a canonical stitched CSV (`date,value`, full precision); values may exceed 100."""
    rows = _data_rows(raw_csv, upper=None)
    if not rows:
        raise EmptySeries(f"{keyword}: no data rows")
    return DailySeries(keyword.lower(), rows[0][0], _consecutive_values(rows, keyword))


def emit_daily_csv(series: DailySeries) -> str:
    """Canonical `date,value` emitter; floats keep full round-trip precision."""
    days = np.datetime64(series.start_date) + np.arange(len(series))
    rows = zip(np.datetime_as_string(days).tolist(), series.values.tolist())
    return "date,value\n" + "".join(f"{d},{v!r}\n" for d, v in rows)
