"""The one exception the trendnet library raises for bad input or arguments.

Each rule is checked once, by the function that owns it (the dCor data's
2-d shape, the window and finite data by `kernels.rolling_dcor`), and its
message names the offending date, row or line; a caller that knows the
input's file or window adds it with `prefixed`. `code` is the exit code
the CLI returns: 2 for invalid input or parameters, 3 for I/O problems, 4
for too little data for a requested window.
"""

from contextlib import contextmanager


class TrendnetError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@contextmanager
def prefixed(where: object, sep: str = ": "):
    """Re-raise a `TrendnetError` from the block as `where + sep + message`, keeping its code."""
    try:
        yield
    except TrendnetError as err:
        raise TrendnetError(f"{where}{sep}{err}", err.code) from err
