"""Parsing and validation of search-interest CSV exports.

Daily exports arrive as segmented CSV files (one contiguous block of days
per file), weekly exports as one year-long file per keyword, and stitched
series as one daily file per keyword. All three are `YYYY-MM-DD,value`
rows read by one reader. Rows before the first dated row whose first field
does not start with a digit are export preamble (`Category: ...`,
`Day,cough: (Philippines)`, `Week,value`) and skipped; any other row whose
first field is not an ISO date is an error naming its line, and each date
must follow the previous one by the series' step (1 day or 7). The
censored export value `<1` maps to 0.5, the midpoint of its interval.

So a series is one `Series(start_date, values, step)`: its first date, one
float64 array of shape (days,) or (weeks,), and its step, `DAY` or `WEEK`;
entry i falls on `start_date + i * step`. A function that needs one step
checks it with `check_step`. Parsers take only the text: the caller names
the file, and so the keyword, in errors and warnings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import TrendnetError
from .util import DAY, csv_rows, iso_date, number

WEEK = timedelta(days=7)


@dataclass(frozen=True, eq=False)
class Series:
    """Values of one series on dates `step` apart.

    `values[i]` is the value on `start_date + i * step`: a day for export
    segments and stitched series, a week for weekly exports. Parsed export
    values are in [0, 100]; stitched values are nonnegative and may exceed
    100 because weekly weights can exceed 1.
    """

    start_date: date
    values: np.ndarray
    step: timedelta = DAY

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @property
    def end_date(self) -> date:
        return self.start_date + (len(self.values) - 1) * self.step

    def __len__(self) -> int:
        return len(self.values)


def check_step(series: Series, step: timedelta, name: str) -> None:
    """Raise unless `series` steps `step`; the message names the series `name`."""
    if series.step != step:
        raise TrendnetError(f"{name}: {series.step.days}-day step, expected {step.days}-day")


def _parse_value(token: str, when: date, upper: float) -> float:
    token = token.strip()
    if token == "<1":
        return 0.5
    try:
        value = number(token)
    except ValueError:
        raise TrendnetError(f"{when}: unparseable value {token!r}") from None
    if not math.isfinite(value) or not 0 <= value <= upper:
        raise TrendnetError(f"{when}: value {token} outside [0,{upper}]")
    return value


def _read_series(raw_csv: str, step: timedelta, upper: float) -> Series:
    """The series of `date,value` rows spaced `step` apart.

    Rows before the first dated row whose first field does not start with a
    digit are preamble; every other row that is not blank must carry the
    next date and a value in [0, `upper`].
    """
    values, prev = [], None
    for line, record in csv_rows(raw_csv):
        if not record:
            continue
        token = record[0].strip()
        try:
            when = iso_date(token)
        except ValueError:
            if not any(field.strip() for field in record) or (
                    prev is None and not token[:1].isdigit()):
                continue  # blank row, or preamble and header before the data
            raise TrendnetError(f"line {line}: date {token!r} does not parse") from None
        if prev is None:
            first = when
        elif when != prev + step:
            raise TrendnetError(f"expected {prev + step} after {prev}, got {when}")
        if len(record) < 2:
            raise TrendnetError(f"{when}: missing value field")
        values.append(_parse_value(record[1], when, upper))
        prev = when
    if prev is None:
        raise TrendnetError("no data rows")
    return Series(first, np.array(values, dtype=np.float64), step)


def parse_daily_segment(raw_csv: str) -> Series:
    """Parse one segment export into a validated daily Series in [0, 100].

    Dates must be strictly increasing with no gaps. A segment whose values
    neither reach 100 nor are all zero is suspicious (exports normalize the
    segment maximum to 100) and draws a warning, not an error.
    """
    segment = _read_series(raw_csv, DAY, 100.0)
    peak = segment.values.max()
    if peak != 100.0 and peak != 0.0:
        warnings.warn(
            f"segment starting {segment.start_date} has max {peak.tolist()};"
            " expected a 100 (or an all-zero segment) in a normalized export",
            stacklevel=2,
        )
    return segment


def parse_weekly(raw_csv: str) -> Series:
    """Parse a weekly export; rows must be spaced exactly 7 days apart."""
    return _read_series(raw_csv, WEEK, 100.0)


def assemble_daily(
    segments: list[Series],
    span: tuple[date, date] | None = None,
) -> Series:
    """Merge daily segments into one continuous daily Series.

    Segments must step one day and tile the timeline exactly: each one
    starts the day after the previous one ends. When `span` is given it must
    not end before it starts, and the merged series must cover it and is
    trimmed to it.
    """
    if not segments:
        raise TrendnetError("no segments to assemble")
    for segment in segments:
        check_step(segment, DAY, f"segment starting {segment.start_date}")
    ordered = sorted(segments, key=lambda s: s.start_date)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start_date <= prev.end_date:
            raise TrendnetError(
                f"segments overlap at {cur.start_date}"
                f" (previous segment runs through {prev.end_date})"
            )
        if cur.start_date != prev.end_date + DAY:
            raise TrendnetError(
                f"missing date {prev.end_date + DAY}"
                f" between segments ({prev.end_date} -> {cur.start_date})"
            )
    first, last = ordered[0].start_date, ordered[-1].end_date
    values = np.concatenate([s.values for s in ordered])
    if span is not None:
        start, end = span
        if end < start:
            raise TrendnetError(f"span start {start} is after its end {end}")
        if first > start or last < end:
            raise TrendnetError(
                f"assembled span {first}..{last}"
                f" does not cover {start}..{end}"
            )
        values = values[(start - first).days : (end - first).days + 1]
        first = start
    return Series(first, values)


def parse_stitched(raw_csv: str) -> Series:
    """Parse a canonical stitched CSV (`date,value`, full precision); values may exceed 100."""
    return _read_series(raw_csv, DAY, math.inf)


def emit_daily_csv(series: Series) -> str:
    """Canonical `date,value` emitter of a daily series; floats keep full round-trip precision."""
    check_step(series, DAY, "series")
    days = np.datetime64(series.start_date) + np.arange(len(series))
    rows = zip(np.datetime_as_string(days).tolist(), series.values.tolist())
    return "date,value\n" + "".join(f"{d},{v!r}\n" for d, v in rows)
