"""trendnet: keyword-network analytics over stitched search-interest data.

The top level holds the README's library API; every other name imports from its module.
"""

from .correlate import rolling_correlation
from .errors import TrendnetError
from .ingest import assemble_daily, parse_daily_segment, parse_weekly
from .netstat import (
    GraphFrame,
    MetricTable,
    clustering_avg_local,
    clustering_global,
    frame_metrics,
    network_density,
    pair_persistence,
    threshold_adjacency,
    triad_persistence,
)
from .stitch import stitch_series

__version__ = "0.1.0"

__all__ = [
    "GraphFrame",
    "MetricTable",
    "TrendnetError",
    "assemble_daily",
    "clustering_avg_local",
    "clustering_global",
    "frame_metrics",
    "network_density",
    "pair_persistence",
    "parse_daily_segment",
    "parse_weekly",
    "rolling_correlation",
    "stitch_series",
    "threshold_adjacency",
    "triad_persistence",
]
