"""Shared plumbing: period arithmetic and config files."""

from __future__ import annotations

from datetime import date, timedelta

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


def parse_period(text: str) -> tuple[date, date]:
    """Parse `YYYY-MM-DD:YYYY-MM-DD` into an inclusive date range."""
    try:
        start_text, end_text = text.split(":")
        start = date.fromisoformat(start_text.strip())
        end = date.fromisoformat(end_text.strip())
    except ValueError:
        raise ValueError(f"period must be start:end ISO dates, got {text!r}") from None
    if end < start:
        raise ValueError(f"period end {end} precedes start {start}")
    return start, end


def parse_config(text: str, known: set[str]) -> dict[str, str]:
    """Parse a `key = value` config file; `#` starts a comment line.

    Keys are matched with `-` read as `_`; a key not in `known` is an error.
    """
    config = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in known:
            raise ValueError(f"config line {lineno}: unknown key {key.strip()!r}")
        config[name] = value.strip()
    return config
