"""Seeded export trees for the pipeline benchmark.

Each workload is a set of keywords split into planted correlation blocks
of five: keywords in one block share a two-level latent signal that flips
day to day, plus small per-keyword noise; latents of different blocks are
independent. The seed decides which keywords share a block and every
value. The tree is laid out the way separate export requests arrive:
`daily/<keyword>/<n>.csv` segments (the first ends one month in, the rest
are 31-day blocks), each renormalised so its peak exports as 100, and one
`weekly/<keyword>.csv` of week means renormalised to 100, both with the
export preamble that the parser skips.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

DAY = timedelta(days=1)
BLOCK_SIZE = 5

# The paper's keyword set and categories (the program's built-in registry).
PAPER_KEYWORDS = (
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

# Regional variants (Philippines, Manila, Quezon City) that take the
# scale-out to 60 keywords.
WIDE_SUFFIXES = ("", " ph", " mnl", " qc")


@dataclass(frozen=True)
class Spec:
    """One workload's shape: keywords, span and analysis parameters."""

    name: str
    keywords: tuple[tuple[str, str], ...]
    start: date
    end: date
    windows: tuple[int, ...]
    thresholds: tuple[float, ...]

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1

    def frames(self, window: int) -> int:
        return self.n_days - window + 1


SPECS = {
    "paper": Spec(
        "paper", PAPER_KEYWORDS, date(2020, 3, 16), date(2021, 3, 15),
        (15, 30), (0.4, 0.5, 0.6, 0.8),
    ),
    # One window and two thresholds keep analyze near 7 s: with the paper's
    # 2 x 4 it takes ~25 s, a run holds two rounds, and the sub-second
    # commands are timed at only two moments of a machine whose speed drifts.
    "wide": Spec(
        "wide",
        tuple((kw + suffix, cat) for suffix in WIDE_SUFFIXES for kw, cat in PAPER_KEYWORDS),
        date(2020, 3, 16), date(2021, 3, 15),
        (15,), (0.5, 0.8),
    ),
    "long-window": Spec(
        "long-window", PAPER_KEYWORDS, date(2020, 3, 16), date(2022, 3, 15),
        (60, 90), (0.5, 0.8),
    ),
}


@dataclass(frozen=True)
class Inputs:
    """What was written to disk, kept for the output checks."""

    spec: Spec
    root: Path
    keywords: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    raw_daily: dict[str, np.ndarray]  # exported segment values, one per day
    weekly: dict[str, np.ndarray]  # exported weekly values as parsed
    week_starts: tuple[date, ...]

    @property
    def daily_dir(self) -> Path:
        return self.root / "daily"

    @property
    def weekly_dir(self) -> Path:
        return self.root / "weekly"

    @property
    def registry(self) -> Path:
        return self.root / "registry.csv"


def segment_bounds(start: date, end: date) -> list[tuple[date, date]]:
    """Consecutive export segments: one month, then 31-day blocks."""
    first_end = date(start.year + (start.month == 12), start.month % 12 + 1, start.day) - DAY
    bounds = []
    seg_start, seg_end = start, first_end
    while True:
        bounds.append((seg_start, min(seg_end, end)))
        if seg_end >= end:
            return bounds
        seg_start = seg_end + DAY
        seg_end = seg_start + 30 * DAY


def _latent_blocks(spec: Spec, rng: np.random.Generator):
    names = [kw for kw, _ in spec.keywords]
    order = rng.permutation(len(names))
    blocks = tuple(
        tuple(names[i] for i in sorted(order[b : b + BLOCK_SIZE]))
        for b in range(0, len(names), BLOCK_SIZE)
    )
    n = spec.n_days
    series = {}
    for block in blocks:
        latent = rng.choice([20.0, 80.0], size=n) + rng.uniform(-2.0, 2.0, n)
        for kw in block:
            series[kw] = np.clip(latent + rng.normal(0.0, 1.5, n), 0.0, 100.0)
    return blocks, series


def generate(spec: Spec, seed: int, root: Path) -> Inputs:
    """Write the export tree and registry of workload `spec` under `root`."""
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    blocks, latent = _latent_blocks(spec, rng)
    starts = []
    cursor = spec.start
    while cursor <= spec.end:
        starts.append(cursor)
        cursor += 7 * DAY

    raw_daily, weekly = {}, {}
    for keyword, _ in spec.keywords:
        truth = latent[keyword]
        seg_dir = root / "daily" / keyword
        seg_dir.mkdir(parents=True)
        values = []
        for idx, (lo_day, hi_day) in enumerate(segment_bounds(spec.start, spec.end), 1):
            lo = (lo_day - spec.start).days
            hi = (hi_day - spec.start).days + 1
            block = np.rint(100.0 * truth[lo:hi] / truth[lo:hi].max())
            values.append(block)
            lines = ["Category: All categories", "", f"Day,{keyword}: (Metro Manila)"]
            lines += [f"{(lo_day + i * DAY).isoformat()},{v:g}" for i, v in enumerate(block)]
            (seg_dir / f"{idx}.csv").write_text("\n".join(lines) + "\n", "utf-8")
        raw_daily[keyword] = np.concatenate(values)

        means = np.array([truth[7 * w : 7 * w + 7].mean() for w in range(len(starts))])
        texts = [f"{v:.4f}" for v in means * (100.0 / means.max())]
        weekly[keyword] = np.array([float(t) for t in texts])
        lines = ["Category: All categories", "", f"Week,{keyword}: (Metro Manila)"]
        lines += [f"{ws.isoformat()},{t}" for ws, t in zip(starts, texts)]
        (root / "weekly").mkdir(exist_ok=True)
        (root / "weekly" / f"{keyword}.csv").write_text("\n".join(lines) + "\n", "utf-8")

    rows = ["keyword,category"] + [f"{kw},{cat}" for kw, cat in spec.keywords]
    (root / "registry.csv").write_text("\n".join(rows) + "\n", "utf-8")
    return Inputs(
        spec=spec,
        root=root,
        keywords=tuple(kw for kw, _ in spec.keywords),
        blocks=blocks,
        raw_daily=raw_daily,
        weekly=weekly,
        week_starts=tuple(starts),
    )
