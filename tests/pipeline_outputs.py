"""Write the stitch -> analyze -> report outputs of the three reference fixtures.

Usage: PYTHONPATH=src python tests/pipeline_outputs.py OUT

Builds the planted-block (seed 42) and flat (seed 101) 15-keyword year
fixtures of `helpers.py`, and the planted series again (seed 43) under a
registry of 15 keywords holding commas, quotes, `%` and spaces, in
unsorted order. Each runs through `trendnet.cli.main` with default
settings: stitch, analyze, and report for density and for clustering; the
third passes its registry to stitch and analyze, so the CSV writers quote
its keywords, and writes its daily exports as real ones look
(`dress_daily_exports`), so the export reader skips their preamble. That
leaves 37 files per fixture under OUT/<fixture>/out, 111 in all. Run it
once on each of two versions of `src` and compare the trees with
`diff -r OUT_A OUT_B`: an empty diff means the change moved no output
byte. Pytest does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import flat_latent_series, planted_block_series, write_export_tree  # noqa: E402

from trendnet.cli import main  # noqa: E402
from trendnet.registry import CATEGORIES, KeywordRegistry  # noqa: E402
from trendnet.util import csv_field  # noqa: E402

# Keywords that the CSV writers must quote or escape, in unsorted order.
QUOTED_KEYWORDS = (
    "work from home", 'say "ahh"', "zinc, vitamin c", "100% cotton", "%s,%d",
    "face shield", "ubo", "lagnat, ubo", "50%% off", 'masks "n95", kn95',
    "social distancing", "ecq", "a b c", "fever 38.5%", "cough",
)


def fixtures() -> dict[str, tuple[dict[str, np.ndarray], str | None]]:
    """Each fixture's series and registry CSV text, None for the built-in set."""
    keywords = KeywordRegistry.default().keywords
    planted, _ = planted_block_series(np.random.default_rng(42), keywords)
    quoted, _ = planted_block_series(np.random.default_rng(43), QUOTED_KEYWORDS)
    registry = "keyword,category\n" + "".join(
        f"{csv_field(kw)},{CATEGORIES[i % len(CATEGORIES)]}\n"
        for i, kw in enumerate(QUOTED_KEYWORDS))
    return {"planted": (planted, None),
            "flat": (flat_latent_series(np.random.default_rng(101), keywords), None),
            "quoted": (quoted, registry)}


def dress_daily_exports(daily: Path) -> None:
    """Rewrite each daily export the way real ones look, values unchanged: a
    `Category` line, a blank row and a `Day,<keyword>: (Philippines)` header
    first, CRLF line ends, and a UTF-8 byte-order mark on every other file."""
    for i, path in enumerate(sorted(daily.glob("*/*.csv"))):
        day = csv_field(f"{path.parent.name}: (Philippines)")
        path.write_text(f"Category: All categories\n\nDay,{day}\n" + path.read_text("utf-8"),
                        "utf-8-sig" if i % 2 else "utf-8", newline="\r\n")


def run_pipeline(root: Path, series: dict[str, np.ndarray], registry: str | None) -> None:
    daily, weekly = write_export_tree(root / "inputs", series)
    given = []
    if registry is not None:
        dress_daily_exports(daily)
        (root / "inputs" / "registry.csv").write_text(registry, "utf-8")
        given = ["--registry", str(root / "inputs" / "registry.csv")]
    out = root / "out"
    commands = [
        ["stitch", "--daily-dir", str(daily), "--weekly-dir", str(weekly), *given,
         "--out", str(out / "stitched")],
        ["analyze", "--stitched", str(out / "stitched"), *given,
         "--out", str(out / "analysis")],
        *(["report", "--metrics", str(out / "analysis"), "--metric", metric,
           "--out", str(out / "reports" / f"{metric}.svg")] for metric in ("density", "clustering")),
    ]
    for argv in commands:
        if main(argv) != 0:
            raise SystemExit(f"{root.name}: trendnet {argv[0]} failed")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2])
    for name, (series, registry) in fixtures().items():
        run_pipeline(Path(sys.argv[1]) / name, series, registry)
