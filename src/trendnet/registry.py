"""Keyword registry: the tracked search terms and their categories, read from
`keyword,category` rows by `util.csv_records`; the caller names the file.
`check_keyword` holds every rule on a keyword, for registry rows and stitched file names."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TrendnetError, prefixed
from .util import csv_records

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
        """Parse `keyword,category` rows; a first row of exactly `keyword,category`
        is a header, and blank rows are skipped.

        A short row, an unknown category, a repeated keyword or one `check_keyword`
        rejects is an error naming its line; so is a file without keyword rows.
        """
        entries, seen = [], set()
        for line, (keyword, category, *_) in csv_records(text, ["keyword", "category"]):
            keyword = keyword.lower()
            with prefixed(f"line {line}"):
                _check_entry(keyword, category, seen)
            entries.append((keyword, category))
        if not entries:
            raise TrendnetError("no keyword rows")
        return cls(tuple(entries))


def check_keyword(keyword: str) -> None:
    """Reject a keyword that cannot name its `<keyword>.csv` file, or one holding `|`, which
    joins a persistence row's keywords: two keyword sets could then be written alike."""
    if keyword in ("", ".", "..") or "/" in keyword or "\\" in keyword:
        raise TrendnetError(f"keyword {keyword!r} cannot name a file; a keyword"
                            " must not be empty, '.' or '..' or hold '/' or '\\'")
    if "\0" in keyword:
        raise TrendnetError(f"keyword {keyword!r} cannot name a file: it holds a NUL byte")
    if "|" in keyword:
        raise TrendnetError(f"keyword {keyword!r} holds '|', which joins the keywords"
                            " of a persistence row")


def _check_entry(keyword: str, category: str, seen: set[str]) -> None:
    """Reject what `check_keyword` does, an unknown category or a keyword in `seen`; add it."""
    check_keyword(keyword)
    if category not in CATEGORIES:
        raise TrendnetError(f"unknown keyword category {category!r} for {keyword!r};"
                            f" expected one of {', '.join(CATEGORIES)}")
    if keyword in seen:
        raise TrendnetError(f"duplicate keyword {keyword!r}")
    seen.add(keyword)
