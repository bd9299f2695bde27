"""Exception types raised by the trendnet pipeline.

All validation failures derive from TrendnetError so the CLI can map them
to exit codes uniformly. Messages carry the offending date/row context;
callers prepend file paths.
"""


class TrendnetError(Exception):
    """Base class for all trendnet validation errors."""


# --- ingest ---

class NonConsecutiveDates(TrendnetError):
    """Daily rows have a gap or duplicate date."""


class ValueOutOfRange(TrendnetError):
    """A parsed value falls outside the allowed range."""


class EmptySegment(TrendnetError):
    """A daily segment CSV contained no data rows."""


class EmptySeries(TrendnetError):
    """A series (weekly input, or a metric series to render) is empty."""


class IrregularWeekSpacing(TrendnetError):
    """Weekly rows are not spaced exactly 7 days apart."""


class OverlapError(TrendnetError):
    """Two daily segments share at least one date."""


class GapError(TrendnetError):
    """Missing days between consecutive daily segments."""


class SpanError(TrendnetError):
    """Assembled series does not cover the configured analysis span."""


# --- stitch ---

class UncoveredDate(TrendnetError):
    """A daily date falls outside the weekly series' coverage."""


# --- correlate ---

class LengthMismatch(TrendnetError):
    """Paired vectors have different lengths."""


class NonFiniteInput(TrendnetError):
    """Input contains NaN or infinite values."""


class MisalignedSeries(TrendnetError):
    """Keyword series do not share an identical date range."""


class WindowTooLong(TrendnetError):
    """Rolling window exceeds the series length."""


# --- netstat ---

class ThetaOutOfRange(TrendnetError):
    """Edge threshold must lie strictly between 0 and 1."""


class EmptyPeriod(TrendnetError):
    """No graph frames fall within the requested period."""


# --- render ---

class TooManySeries(TrendnetError):
    """A chart has more threshold lines than distinct palette colours."""


# --- timeline / registry ---

class UnknownCategory(TrendnetError):
    """A keyword or event category token is not recognized."""
