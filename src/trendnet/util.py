"""Shared plumbing: dates, numbers, period arithmetic, config files, CSV rows
and fields, the texts of a column, and work split over forked processes."""

from __future__ import annotations

import csv
import io
import math
import os
import pickle
import sys
import threading
import warnings
from collections.abc import Callable, Iterator, Sequence
from datetime import date, timedelta

from .errors import TrendnetError

DAY = timedelta(days=1)


def iso_date(text: str) -> date:
    """The date written exactly `YYYY-MM-DD`; anything else raises ValueError.

    `date.fromisoformat` alone also reads `20200401` and `2020-W14-5` from
    Python 3.11 on, so the same input would parse on one supported Python
    and not on another.
    """
    if len(text) != 10 or text[7] != "-":
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def number(text: str, kind: type = float) -> float | int:
    """`kind(text)`, int or float, which skip surrounding whitespace; ValueError on `_`."""
    if "_" in text:
        raise ValueError(f"{text!r} holds an underscore")
    return kind(text)


def month_starts(first: date, last: date, every: int = 1) -> list[date]:
    """The first day of each month in [first, last] whose month number is 1 modulo `every`."""
    months = range(first.year * 12 + first.month - (first.day == 1), last.year * 12 + last.month)
    return [date(m // 12, m % 12 + 1, 1) for m in months if m % 12 % every == 0]


def default_periods(data_start: date, first_label: date,
                    last_label: date) -> list[tuple[date, date]]:
    """Calendar quarters (Jan/Apr/Jul/Oct anchored) covering the frame labels.

    Each starts on or after the data start, on or before the last label, and
    ends on or after the first label, so it holds a label of daily frames.
    The default timeline yields Apr-Jun, Jul-Sep, Oct-Dec, Jan-Mar.
    """
    starts = month_starts(data_start, last_label + 92 * DAY, every=3)  # one quarter past the end
    return [(start, after - DAY) for start, after in zip(starts, starts[1:])
            if start <= last_label and after > first_label]


def parse_config(text: str, known: set[str],
                 repeatable: set[str]) -> dict[str, list[tuple[int, str]]]:
    """Parse a `key = value` config file; `#` starts a comment line.

    Maps each key to its (line number, value) pairs in file order, so the
    caller can name the line of a value it rejects. Keys are matched with
    `-` read as `_`; a key not in `known` is an error. A key in
    `repeatable` may appear on several lines, as a repeated flag may; any
    other key only once. Values are stripped and not parsed. Lines end at `\\n`
    only, as editors number them, not at a form feed as with `str.splitlines`.
    """
    config: dict[str, list[tuple[int, str]]] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TrendnetError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in known:
            raise TrendnetError(f"config line {lineno}: unknown key {key.strip()!r}")
        if name in config and name not in repeatable:
            raise TrendnetError(
                f"config line {lineno}: key {key.strip()!r} repeats line {config[name][0][0]}"
            )
        config.setdefault(name, []).append((lineno, value.strip()))
    return config


def csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every CSV row of `text`, blank ones included; a row
    spanning lines has its last line's number. A row `csv` cannot read (a field over
    its size limit, a bare `\\r`) is an error naming its line."""
    rows = csv.reader(io.StringIO(text))
    try:
        for row in rows:
            yield rows.line_num, row
    except csv.Error as err:
        raise TrendnetError(f"line {rows.line_num}: {err}") from None


def csv_records(text: str, columns: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each CSV row of `text` that is not blank.

    The first such row is a header, and skipped, when its fields equal
    `columns`; a row with fewer fields than `columns` is an error naming
    its line. Fields past `columns` are passed on.
    """
    header_allowed = True
    for line, row in csv_rows(text):
        fields = [field.strip() for field in row]
        if not any(fields):
            continue
        if header_allowed:
            header_allowed = False
            if fields == columns:
                continue
        if len(fields) < len(columns):
            raise TrendnetError(f"line {line}: row needs {','.join(columns)}: {row!r}")
        yield line, fields


def csv_field(text: str) -> str:
    """`text` as one field of a `csv.writer(lineterminator="\\n")` row, quoted by its rules."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text,))
    return out.getvalue()[:-1]


def distinct_texts(column: Sequence, fmt: Callable[[object], str]) -> list[str]:
    """`[fmt(v) for v in column]`, calling `fmt` once per distinct value. 0.0 and
    -0.0 are one key, but `repr` writes `-0.0`, so a zero is keyed by its sign too."""
    texts = {value: fmt(value) for value in set(column)}
    if 0 not in texts:
        return list(map(texts.__getitem__, column))
    zeros = {math.copysign(1, v): v for v in column if v == 0}
    zeros = {sign: fmt(v) for sign, v in zeros.items()}
    return [texts[v] if v else zeros[math.copysign(1, v)] for v in column]


def _max_workers() -> int:
    """CPUs in the affinity mask, or 1 where forking is unavailable or unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _warn_again(text: str, category: type, filename: str, lineno: int) -> None:
    """Warn as a forked child's `warnings.warn` did at `filename:lineno`: under the name
    and registry of that file's module, so its filters and once-per-line rule apply here."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:  # a module of None would drop the warning
        warnings.warn_explicit(text, category, filename, lineno)
    else:
        warnings.warn_explicit(text, category, filename, lineno, module.__name__,
                               vars(module).setdefault("__warningregistry__", {}))


def forked_map(work: Callable[[Sequence], object], items: Sequence,
               name: Callable[[Sequence], str], most: int | None = None) -> list:
    """`[work(part) for part in parts]`, the parts computed on every CPU.

    `items` is cut into contiguous slices, one per worker: as many as the
    CPUs in the affinity mask, but at most `most` and at most one per item.
    This process computes the first slice; a forked child computes each
    later one and sends back its result, pickled, over its own pipe. Forking
    is unsafe while other threads run, so then (as with one CPU, or no
    `os.fork`) every slice is computed here, in order. OpenBLAS stops its
    own thread pool at fork.

    Every child is waited for, also when this process's own slice raises;
    that error then wins, as the earliest. Otherwise the earliest failing
    child, in slice order, decides: a `TrendnetError` it raised is raised
    here as it was, code and all, so a run fails the same way on any number
    of CPUs. A child that raised anything else, exited nonzero or died by a
    signal raises ChildProcessError, `name(part)` followed by how it ended
    and, if it raised, its exception.

    A child records the warnings of its slice and sends them back with its
    reply, failed or not; they are warned here, at the place each was warned
    in the child, in slice order after this process's own, up to and including
    the first failing slice's. So a filter here, "error" included, sees every
    warning that one process would, in the same order. A child whose reply or
    warnings pickle cannot write, or read back, fails, and sends pickle's error
    in their place.
    """
    workers = max(1, min(_max_workers(), len(items), len(items) if most is None else most))
    parts = [items[len(items) * i // workers : len(items) * (i + 1) // workers]
             for i in range(workers)]
    children = []  # (part, pid, read end of the pipe the child replies on)
    try:
        for part in parts[1:]:
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:  # the child: reply, never return into the caller
                code = 1
                try:
                    os.close(reader)
                    with open(writer, "wb") as pipe, warnings.catch_warnings(record=True) as log:
                        warnings.simplefilter("always")
                        try:
                            reply, status = work(part), 0
                        except TrendnetError as err:
                            reply, status = err, 1
                        except Exception as err:
                            reply, status = f"{type(err).__name__}: {err}".replace("\n", " "), 1
                        warned = [(str(w.message), w.category, w.filename, w.lineno) for w in log]
                        try:  # whole before any byte is sent, so a failure sends its cause
                            data = pickle.dumps((reply, warned))
                            pickle.loads(data)  # and reads back, as the parent must
                        except Exception as err:  # a lambda, say, or a class local to `work`
                            data, status = pickle.dumps((f"{type(err).__name__}: {err}", [])), 1
                        pipe.write(data)
                    code = status
                finally:
                    os._exit(code)
            os.close(writer)
            children.append((part, pid, reader))
        results = [work(parts[0])]
    finally:
        replies = []
        for part, pid, reader in children:
            # Read before waiting: a child blocks on a full pipe until its reply is read.
            with open(reader, "rb") as pipe:
                try:
                    reply, warned = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the child ended before it replied
                    reply, warned = "", []
            replies.append((part, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reply, warned))
    for part, code, reply, warned in replies:
        for warning in warned:
            _warn_again(*warning)
        if code == 0:
            results.append(reply)
            continue
        if code == 1 and isinstance(reply, TrendnetError):
            raise reply
        how = f"died by signal {-code}" if code < 0 else f"exited with status {code}"
        cause = f": {reply}" if code == 1 and reply else ""
        raise ChildProcessError(f"{name(part)} {how}{cause}")
    return results
