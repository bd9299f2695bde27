"""Keyword registry: the tracked search terms and their categories. `parse_registry`
reads `keyword,category` rows by `util.csv_records` into checked `(keyword, category)`
entries, shaped like the built-in `DEFAULT_KEYWORDS`; the caller names the file.
`check_keyword` holds every rule on a keyword, for registry rows and stitched file names."""

from __future__ import annotations

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


def parse_registry(text: str) -> tuple[tuple[str, str], ...]:
    """The `(keyword, category)` entries of `keyword,category` rows, each keyword lowercased,
    as search interest lookups are case-insensitive; a first row of exactly
    `keyword,category` is a header, and blank rows are skipped.

    A short row, an unknown category, a repeated keyword or one `check_keyword`
    rejects is an error naming its line; so is a file without keyword rows.
    """
    entries = {}
    for line, (keyword, category, *_) in csv_records(text, ["keyword", "category"]):
        keyword = keyword.lower()
        with prefixed(f"line {line}"):
            check_keyword(keyword)
            if category not in CATEGORIES:
                raise TrendnetError(f"unknown keyword category {category!r} for {keyword!r};"
                                    f" expected one of {', '.join(CATEGORIES)}")
            if keyword in entries:
                raise TrendnetError(f"duplicate keyword {keyword!r}")
        entries[keyword] = category
    if not entries:
        raise TrendnetError("no keyword rows")
    return tuple(entries.items())


def check_keyword(keyword: str) -> None:
    """Reject a keyword that cannot name its `<keyword>.csv` file; one that is not UTF-8
    text, as a file name's byte that is not UTF-8 reads, which no UTF-8 output can hold;
    or one holding `|`, which joins a persistence row's keywords: two keyword sets could
    then be written alike."""
    if keyword in ("", ".", "..") or "/" in keyword or "\\" in keyword:
        raise TrendnetError(f"keyword {keyword!r} cannot name a file; a keyword"
                            " must not be empty, '.' or '..' or hold '/' or '\\'")
    if "\0" in keyword:
        raise TrendnetError(f"keyword {keyword!r} cannot name a file: it holds a NUL byte")
    try:
        keyword.encode("utf-8")
    except UnicodeEncodeError:
        raise TrendnetError(f"keyword {keyword!r} is not UTF-8 text,"
                            " in which every output is written") from None
    if "|" in keyword:
        raise TrendnetError(f"keyword {keyword!r} holds '|', which joins the keywords"
                            " of a persistence row")

