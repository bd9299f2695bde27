"""trendnet: keyword-network analytics over stitched search-interest data."""

from .correlate import CorrelationFrame, distance_correlation, rolling_correlation
from .errors import TrendnetError
from .ingest import (
    DailySeries,
    WeeklySeries,
    assemble_daily,
    parse_daily_segment,
    parse_stitched,
    parse_weekly,
)
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
from .registry import KeywordRegistry
from .render import render_metric_chart
from .stitch import stitch_series
from .timeline import EventRecord, join_events, load_bundled_events, load_events

__version__ = "0.1.0"

__all__ = [
    "CorrelationFrame",
    "DailySeries",
    "EventRecord",
    "GraphFrame",
    "KeywordRegistry",
    "MetricTable",
    "TrendnetError",
    "WeeklySeries",
    "assemble_daily",
    "clustering_avg_local",
    "clustering_global",
    "distance_correlation",
    "frame_metrics",
    "join_events",
    "load_bundled_events",
    "load_events",
    "network_density",
    "pair_persistence",
    "parse_daily_segment",
    "parse_stitched",
    "parse_weekly",
    "render_metric_chart",
    "rolling_correlation",
    "stitch_series",
    "threshold_adjacency",
    "triad_persistence",
]
