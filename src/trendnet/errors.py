"""The one exception the trendnet pipeline raises for bad input.

Its message names the offending date, row or line; the CLI prefixes the
file path. `code` is the exit code the CLI returns for it: 2 for invalid
input or parameters, 3 for I/O problems, 4 for too little data for a
requested window.
"""


class TrendnetError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code
