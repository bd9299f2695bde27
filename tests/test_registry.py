from trendnet import registry
from trendnet.registry import DEFAULT_KEYWORDS, check_keyword, parse_registry
from trendnet.util import csv_field

from helpers import by_test_id

HEADER = "keyword,category\n"


def test_from_csv_skips_header_and_blank_rows():
    entries = parse_registry(HEADER + "\nCough,SymptomsEnglish\nubo,SymptomsFilipino\n")
    assert entries == (("cough", "SymptomsEnglish"), ("ubo", "SymptomsFilipino"))


def test_default_keywords_read_back_unchanged():
    """The built-in entries are what a registry file of them parses to, so they pass
    every rule a registry row does."""
    rows = "".join(f"{csv_field(kw)},{category}\n" for kw, category in DEFAULT_KEYWORDS)
    assert parse_registry(HEADER + rows) == DEFAULT_KEYWORDS


def test_each_registry_row_is_checked_once(monkeypatch):
    checked = []
    monkeypatch.setattr(registry, "check_keyword", checked.append)
    parse_registry(HEADER + "cough,SymptomsEnglish\nubo,SymptomsFilipino\n")
    assert checked == ["cough", "ubo"]


def no_file(line, keyword):
    return f"line {line}: {cannot_name_a_file(keyword)}"


def cannot_name_a_file(keyword):
    return (f"keyword {keyword!r} cannot name a file; a keyword"
            " must not be empty, '.' or '..' or hold '/' or '\\'")


FAILURES = [  # (test id, call, message)
    *[(f"test_from_csv_errors_name_the_line[{name}]",
       lambda rows=rows: parse_registry(HEADER + rows), message)
      for name, rows, message in [
          ("duplicate", "cough,SymptomsEnglish\nfever,SymptomsEnglish\nCOUGH,SymptomsEnglish\n",
           "line 4: duplicate keyword 'cough'"),
          ("short", "cough,SymptomsEnglish\n\nfever\n",
           "line 4: row needs keyword,category: ['fever']"),
          ("category", "cough,Symptoms\n", "line 2: unknown keyword category 'Symptoms' for"
           " 'cough'; expected one of SymptomsEnglish, SymptomsFilipino, FaceWearing,"
           " Quarantine, NewNormal"),
          ("parent-dir", "../escaped,FaceWearing\n", no_file(2, "../escaped")),
          ("slash", "masks/n95,FaceWearing\n", no_file(2, "masks/n95")),
          ("backslash", "masks\\n95,FaceWearing\n", no_file(2, "masks\\n95")),
          ("dot", ".,FaceWearing\n", no_file(2, ".")),
          ("dot-dot", "..,FaceWearing\n", no_file(2, "..")),
          ("empty", "cough,SymptomsEnglish\n,FaceWearing\n", no_file(3, "")),
          ("blank", "  ,FaceWearing\n", no_file(2, "")),
          ("pipe", "a,FaceWearing\nb|c,FaceWearing\n",
           "line 3: keyword 'b|c' holds '|', which joins the keywords of a persistence row"),
      ]],
    *[(f"test_from_csv_without_keyword_rows_raises[{name}]",
       lambda text=text: parse_registry(text), "no keyword rows")
      for name, text in [("empty", ""), ("header-only", HEADER), ("blank", "\n\n")]],
    # One row per rule of `check_keyword`, which checks registry rows and stitched file names.
    *[(f"test_check_keyword_rejects[{rule}]", lambda keyword=keyword: check_keyword(keyword),
       message) for rule, keyword, message in [
          *[(rule, keyword, cannot_name_a_file(keyword)) for rule, keyword in [
              ("empty", ""), ("dot", "."), ("dot-dot", ".."), ("slash", "masks/n95"),
              ("backslash", "masks\\n95")]],
          ("nul", "fe\0ver", "keyword 'fe\\x00ver' cannot name a file: it holds a NUL byte"),
          ("pipe", "b|c", "keyword 'b|c' holds '|', which joins the keywords of a persistence row"),
          # A file name's byte 0xff, which is not UTF-8, reads as the lone surrogate \udcff.
          ("not-utf-8", "cough\udcff", "keyword 'cough\\udcff' is not UTF-8 text,"
           " in which every output is written"),
      ]],
]
globals().update(by_test_id(FAILURES))
