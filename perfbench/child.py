"""Run one trendnet command in a fresh interpreter and time it.

    python3 child.py <src-dir> <result.json> [--trace] [-- <cli args>...]

Imports `trendnet.cli` from <src-dir> (timed as the set-up cost every
command pays), optionally wraps the traced public functions, runs
`trendnet.cli.main(<cli args>)` (timed as the command's wall time), and
writes {"import_s", "command_s", "exit", "spans"} to <result.json>. With
no cli args only the import is timed. The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, result_path, *rest = argv
    traced = bool(rest) and rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    sys.path.insert(0, src)
    started = time.perf_counter()
    import trendnet.cli

    import_s = time.perf_counter() - started
    if Path(trendnet.cli.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"trendnet imported from {trendnet.cli.__file__}, not {src}")

    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    code = None
    command_s = 0.0
    if cli_args:
        started = time.perf_counter()
        code = trendnet.cli.main(cli_args)
        command_s = time.perf_counter() - started
    result = {
        "import_s": import_s,
        "command_s": command_s,
        "exit": code,
        "spans": recorder.spans if recorder else [],
    }
    Path(result_path).write_text(json.dumps(result), "utf-8")
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
