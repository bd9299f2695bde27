"""Keyword registry: the tracked search terms and their categories."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import TrendnetError

CATEGORIES = (
    "SymptomsEnglish",
    "SymptomsFilipino",
    "FaceWearing",
    "Quarantine",
    "NewNormal",
)

# Default 15-keyword set, five categories.
DEFAULT_KEYWORDS = (
    ("cough", "SymptomsEnglish"),
    ("fever", "SymptomsEnglish"),
    ("flu", "SymptomsEnglish"),
    ("headache", "SymptomsEnglish"),
    ("rashes", "SymptomsEnglish"),
    ("lagnat", "SymptomsFilipino"),
    ("sipon", "SymptomsFilipino"),
    ("ubo", "SymptomsFilipino"),
    ("masks", "FaceWearing"),
    ("face shield", "FaceWearing"),
    ("ecq", "Quarantine"),
    ("quarantine", "Quarantine"),
    ("frontliners", "NewNormal"),
    ("social distancing", "NewNormal"),
    ("work from home", "NewNormal"),
)


@dataclass(frozen=True)
class KeywordRegistry:
    """Ordered set of (keyword, category) entries.

    Keywords are lowercased on entry and must be unique; search interest
    lookups are case-insensitive so case carries no information.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        seen = set()
        for keyword, category in self.entries:
            _check_entry(keyword, category, seen)

    @property
    def keywords(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    @classmethod
    def default(cls) -> "KeywordRegistry":
        return cls(DEFAULT_KEYWORDS)

    @classmethod
    def from_csv(cls, text: str) -> "KeywordRegistry":
        """Parse a `keyword,category` CSV; a header row and blank rows are skipped.

        A short row, an unknown category, a repeated keyword or one that
        cannot be a file name is an error naming its line; so is a file
        without keyword rows.
        """
        entries, seen = [], set()
        rows = csv.reader(io.StringIO(text))
        for row in rows:
            if not any(field.strip() for field in row):
                continue
            where = f"line {rows.line_num}: "
            if len(row) < 2:
                raise TrendnetError(f"{where}registry row needs keyword,category: {row!r}")
            keyword, category = row[0].strip().lower(), row[1].strip()
            if keyword == "keyword" and category == "category":
                continue
            _check_entry(keyword, category, seen, where)
            entries.append((keyword, category))
        if not entries:
            raise TrendnetError("no keyword rows")
        return cls(tuple(entries))


def _check_entry(keyword: str, category: str, seen: set[str], where: str = "") -> None:
    """Reject an unknown category, a keyword already in `seen` or one that
    cannot name its `<keyword>.csv` file, then add it."""
    if keyword in ("", ".", "..") or "/" in keyword or "\\" in keyword:
        raise TrendnetError(f"{where}keyword {keyword!r} cannot name a file; a keyword"
                            " must not be empty, '.' or '..' or hold '/' or '\\'")
    if category not in CATEGORIES:
        raise TrendnetError(f"{where}unknown keyword category {category!r} for {keyword!r};"
                            f" expected one of {', '.join(CATEGORIES)}")
    if keyword in seen:
        raise TrendnetError(f"{where}duplicate keyword {keyword!r}")
    seen.add(keyword)
