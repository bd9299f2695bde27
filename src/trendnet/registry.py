"""Keyword registry: the tracked search terms and their categories."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import UnknownCategory

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
            if category not in CATEGORIES:
                raise UnknownCategory(
                    f"unknown keyword category {category!r} for {keyword!r};"
                    f" expected one of {', '.join(CATEGORIES)}"
                )
            if keyword in seen:
                raise ValueError(f"duplicate keyword {keyword!r}")
            seen.add(keyword)

    @property
    def keywords(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    @classmethod
    def default(cls) -> "KeywordRegistry":
        return cls(DEFAULT_KEYWORDS)

    @classmethod
    def from_csv(cls, text: str) -> "KeywordRegistry":
        """Parse a `keyword,category` CSV; a header row is skipped if present."""
        entries = []
        for row in csv.reader(io.StringIO(text)):
            if not row or not row[0].strip():
                continue
            if len(row) < 2:
                raise ValueError(f"registry row needs keyword,category: {row!r}")
            keyword = row[0].strip().lower()
            category = row[1].strip()
            if keyword == "keyword" and category == "category":
                continue
            entries.append((keyword, category))
        return cls(tuple(entries))
