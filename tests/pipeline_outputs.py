"""Write the stitch -> analyze -> report outputs of the two reference fixtures.

Usage: PYTHONPATH=src python tests/pipeline_outputs.py OUT

Builds the planted-block (seed 42) and flat (seed 101) 15-keyword year
fixtures of `helpers.py`, then runs each through `trendnet.cli.main` with
default settings: stitch, analyze, and report for density and for
clustering. That leaves 37 files per fixture under OUT/<fixture>/out, 74 in
all. Run it once on each of two versions of `src` and compare the trees
with `diff -r OUT_A OUT_B`: an empty diff means the change moved no output
byte. Pytest does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import flat_latent_series, planted_block_series, write_export_tree  # noqa: E402

from trendnet.cli import main  # noqa: E402
from trendnet.registry import KeywordRegistry  # noqa: E402


def fixtures() -> dict[str, dict[str, np.ndarray]]:
    keywords = KeywordRegistry.default().keywords
    planted, _ = planted_block_series(np.random.default_rng(42), keywords)
    return {"planted": planted, "flat": flat_latent_series(np.random.default_rng(101), keywords)}


def run_pipeline(root: Path, series: dict[str, np.ndarray]) -> None:
    daily, weekly = write_export_tree(root / "inputs", series)
    out = root / "out"
    commands = [
        ["stitch", "--daily-dir", str(daily), "--weekly-dir", str(weekly),
         "--out", str(out / "stitched")],
        ["analyze", "--stitched", str(out / "stitched"), "--out", str(out / "analysis")],
        *(["report", "--metrics", str(out / "analysis"), "--metric", metric,
           "--out", str(out / "reports" / f"{metric}.svg")] for metric in ("density", "clustering")),
    ]
    for argv in commands:
        if main(argv) != 0:
            raise SystemExit(f"{root.name}: trendnet {argv[0]} failed")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2])
    for name, series in fixtures().items():
        run_pipeline(Path(sys.argv[1]) / name, series)
