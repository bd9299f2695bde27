"""The one exception the trendnet library raises for bad input or arguments.

Each rule is owned by one function (the dCor data's 2-d shape, the window
and finite data: `kernels.rolling_dcor`), whose message names the offending
date, row or line; a caller that knows the input's file or window adds it
with `prefixed`. The CLI checks seven rules again, six before any work and
the period per window after that window's dCor, to name the flag or config
line (the `cli` docstring lists them). `code` is the CLI's exit code: 2
invalid input or parameters, 3 I/O, 4 too little data for a window.
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
