import re

import pytest

from trendnet.errors import TrendnetError
from trendnet.registry import KeywordRegistry

HEADER = "keyword,category\n"


def test_from_csv_skips_header_and_blank_rows():
    registry = KeywordRegistry.from_csv(HEADER + "\nCough,SymptomsEnglish\nubo,SymptomsFilipino\n")
    assert registry.entries == (("cough", "SymptomsEnglish"), ("ubo", "SymptomsFilipino"))


@pytest.mark.parametrize("rows, message", [
    ("cough,SymptomsEnglish\nfever,SymptomsEnglish\nCOUGH,SymptomsEnglish\n",
     "line 4: duplicate keyword 'cough'"),
    ("cough,SymptomsEnglish\n\nfever\n", "line 4: row needs keyword,category: ['fever']"),
    ("cough,Symptoms\n", "line 2: unknown keyword category 'Symptoms' for 'cough'"),
    ("../escaped,FaceWearing\n", "line 2: keyword '../escaped' cannot name a file"),
    ("masks/n95,FaceWearing\n", "line 2: keyword 'masks/n95' cannot name a file"),
    ("masks\\n95,FaceWearing\n", "line 2: keyword 'masks\\\\n95' cannot name a file"),
    (".,FaceWearing\n", "line 2: keyword '.' cannot name a file"),
    ("..,FaceWearing\n", "line 2: keyword '..' cannot name a file"),
    ("cough,SymptomsEnglish\n,FaceWearing\n", "line 3: keyword '' cannot name a file"),
    ("  ,FaceWearing\n", "line 2: keyword '' cannot name a file"),
    ("a,FaceWearing\nb|c,FaceWearing\n", "line 3: keyword 'b|c' holds '|', which joins"),
], ids=["duplicate", "short", "category", "parent-dir", "slash", "backslash", "dot", "dot-dot",
        "empty", "blank", "pipe"])
def test_from_csv_errors_name_the_line(rows, message):
    with pytest.raises(TrendnetError, match=f"^{re.escape(message)}"):
        KeywordRegistry.from_csv(HEADER + rows)


@pytest.mark.parametrize("text", ["", HEADER, "\n\n"], ids=["empty", "header-only", "blank"])
def test_from_csv_without_keyword_rows_raises(text):
    with pytest.raises(TrendnetError, match="^no keyword rows$"):
        KeywordRegistry.from_csv(text)



def test_keyword_holding_nul_cannot_name_a_file():
    with pytest.raises(TrendnetError, match=re.escape("keyword 'fe\\x00ver' cannot name a file")):
        KeywordRegistry((("fe\0ver", "SymptomsEnglish"),))
