"""Shared plumbing: dates, period arithmetic, config files and CSV rows and fields."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from datetime import date, timedelta

from .errors import TrendnetError

DAY = timedelta(days=1)


def iso_date(text: str) -> date:
    """The date written exactly `YYYY-MM-DD`; anything else raises ValueError.

    `date.fromisoformat` alone also reads `20200401` and `2020-W14-5` from
    Python 3.11 on, so the same input would parse on one supported Python
    and not on another.
    """
    if len(text) != 10 or text[7] != "-":
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def month_starts(first: date, last: date, every: int = 1) -> list[date]:
    """The first day of each month in [first, last] whose month number is 1 modulo `every`."""
    months = range(first.year * 12 + first.month - (first.day == 1), last.year * 12 + last.month)
    return [date(m // 12, m % 12 + 1, 1) for m in months if m % 12 % every == 0]


def default_periods(data_start: date, last_label: date) -> list[tuple[date, date]]:
    """Calendar quarters (Jan/Apr/Jul/Oct anchored) covering the analysis.

    Starts at the first quarter boundary on or after the data start and
    stops once quarters begin after the last frame label. The default
    timeline yields Apr-Jun, Jul-Sep, Oct-Dec, Jan-Mar.
    """
    starts = month_starts(data_start, last_label + 92 * DAY, every=3)  # one quarter past the end
    return [(start, after - DAY) for start, after in zip(starts, starts[1:]) if start <= last_label]


def parse_config(
    text: str, known: set[str], repeatable: set[str] = frozenset()
) -> dict[str, list[tuple[int, str]]]:
    """Parse a `key = value` config file; `#` starts a comment line.

    Maps each key to its (line number, value) pairs in file order, so the
    caller can name the line of a value it rejects. Keys are matched with
    `-` read as `_`; a key not in `known` is an error. A key in
    `repeatable` may appear on several lines, as a repeated flag may; any
    other key only once. Values are stripped and not parsed.
    """
    config: dict[str, list[tuple[int, str]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TrendnetError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in known:
            raise TrendnetError(f"config line {lineno}: unknown key {key.strip()!r}")
        if name in config and name not in repeatable:
            raise TrendnetError(
                f"config line {lineno}: key {key.strip()!r} repeats line {config[name][0][0]}"
            )
        config.setdefault(name, []).append((lineno, value.strip()))
    return config


def csv_records(text: str, columns: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each CSV row of `text` that is not blank.

    The first such row is a header, and skipped, when its fields equal
    `columns`; a row with fewer fields than `columns` is an error naming
    its line. Fields past `columns` are passed on.
    """
    rows = csv.reader(io.StringIO(text))
    header_allowed = True
    for row in rows:
        fields = [field.strip() for field in row]
        if not any(fields):
            continue
        if header_allowed:
            header_allowed = False
            if fields == columns:
                continue
        if len(fields) < len(columns):
            raise TrendnetError(f"line {rows.line_num}: row needs {','.join(columns)}: {row!r}")
        yield rows.line_num, fields


def csv_field(text: str) -> str:
    """`text` as one field of a `csv.writer(lineterminator="\\n")` row, quoted by its rules."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text,))
    return out.getvalue()[:-1]
