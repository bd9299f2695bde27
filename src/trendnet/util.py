"""Shared plumbing: period arithmetic, config files and CSV fields."""

from __future__ import annotations

import csv
import io
from datetime import date, timedelta

from .errors import TrendnetError

QUARTER_ANCHOR_MONTHS = (1, 4, 7, 10)


def _next_quarter_start(when: date) -> date:
    for month in QUARTER_ANCHOR_MONTHS:
        candidate = date(when.year, month, 1)
        if candidate >= when:
            return candidate
    return date(when.year + 1, 1, 1)


def _add_quarter(anchor: date) -> date:
    month = anchor.month + 3
    year = anchor.year
    if month > 12:
        month -= 12
        year += 1
    return date(year, month, 1)


def default_periods(data_start: date, last_label: date) -> list[tuple[date, date]]:
    """Calendar quarters (Jan/Apr/Jul/Oct anchored) covering the analysis.

    Starts at the first quarter boundary on or after the data start and
    stops once quarters begin after the last frame label. The default
    timeline yields Apr-Jun, Jul-Sep, Oct-Dec, Jan-Mar.
    """
    periods = []
    anchor = _next_quarter_start(data_start)
    while anchor <= last_label:
        periods.append((anchor, _add_quarter(anchor) - timedelta(days=1)))
        anchor = _add_quarter(anchor)
    return periods


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


def csv_field(text: str) -> str:
    """`text` as one field of a `csv.writer(lineterminator="\\n")` row, quoted by its rules."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text,))
    return out.getvalue()[:-1]
