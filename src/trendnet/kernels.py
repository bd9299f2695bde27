"""Hot numeric kernels: distance-correlation matrices and triangle counts.

Each kernel has one numpy implementation. The distance-correlation kernel
is the definitional O(n^2) algorithm: pairwise absolute-difference
matrices, double-centering (subtract row and column means, add the grand
mean), dCov^2 as the mean elementwise product, and dCor = dCov /
sqrt(dVar_x * dVar_y) clamped into [0, 1]. Windows are short (n <= 30 in
the paper's setup), so the O(n^2) route is also the production path.

Before any distance is formed, each window column is rescaled by a power of
two, x * 2**-e with e the `frexp` exponent of the column's largest |x|, so
the column's magnitude lands in [0.5, 1). In raw units the squared
distances, dVar_x * dVar_y and the Gram products under- or overflow for
columns far from 1 (around 1e-100 or 1e100), which turned a dCor of 0.98
into 1.0, 0.0 or NaN depending on the units. A power-of-two scale is exact
in binary floating point and commutes with every later rounding, so
wherever the unscaled computation neither under- nor overflowed the result
is bit-identical to it; dCor is scale-invariant, so the value means the
same thing. The only bits lost are those of entries more than 2**1021
times smaller than their column's maximum, which become subnormal and
weigh nothing against the column's spread.

Each call to `_dcor_frames` allocates its workspaces once and reuses them
for every frame of its range: the (k, n) rescaled window, the (k, n, n)
centred distance matrices, one per column and each contiguous, so the Gram
product reads them as one (k, n*n) matrix, and the (n, k) row means. Fresh
temporaries of that size per frame were served by `mmap` and page-faulted
in again on every frame. The reduction axes are fixed on purpose: numpy
sums pairwise along a contiguous axis but sequentially along an outer one,
so the row means reduce over the outer `i` axis of (k, n, n) and the grand
mean over the outer axis of the (n, k) buffer. Any other order moves the
last bits.

`rolling_dcor` splits the frames over processes. It cuts the F frames into
contiguous ranges, one per worker, of a stack in an anonymous shared
mapping, which it returns; it forks a child per range after the first,
computes the first itself and waits for every child, also when its own
range raises. A child that exits nonzero or dies by a signal raises
ChildProcessError naming its range and, if the child raised, its
exception, which the child writes to its own pipe before it exits. A frame
reads only its window and writes only its (k, k) slot, through the same
operations in the same order in any process, so the split moves no bit.
Threads do not pay: the per-frame numpy calls are short and serialise on
the interpreter lock. On a 2-CPU Xeon host (K = 15, n = 60 and 90, two
years of days) two threads took 0.8-1.7x the serial time, two processes
0.53-0.72x. Forking is unsafe while other threads run, so then the stack
is computed serially; OpenBLAS stops its own thread pool at fork.

Workers are the CPUs in the affinity mask, at most one per MIN_WORKER_WORK
frames * k * n**2 units. On that host a fork and wait cost 6-11 ms, the
serial kernel runs 2.5e7 (n = 15) to 9.8e7 (n = 90) units per second, and
two workers broke even at 1e6-3e6 units. 1e7 units are 0.1-0.2 s of work,
so a fork costs under a tenth of the share it takes over, even when the
other CPU is busy. One frame (`dcor_matrix`) and a year of 15 keywords at
n <= 30 (4.5e6 units at most) stay serial.
"""

from __future__ import annotations

import mmap
import os
import threading

import numpy as np

# Least frames * k * n**2 work units per worker process; see the module docstring.
MIN_WORKER_WORK = 10**7


def dcor_matrix(win: np.ndarray) -> np.ndarray:
    """Pairwise distance-correlation matrix of the columns of `win` (n, k)."""
    return rolling_dcor(win, len(win))[0]


def _max_workers() -> int:
    """CPUs in the affinity mask, or 1 where forking is unavailable or unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def rolling_dcor(data: np.ndarray, window: int) -> np.ndarray:
    """Stack of dcor matrices over every length-`window` slice of `data` (t, k).

    Diagonals are fixed at 1; a column with zero distance variance in a
    window correlates 0 with everything in that frame by convention.
    Large stacks are computed by forked workers, one contiguous frame range
    each; a worker that fails raises ChildProcessError naming its range and
    the worker's exception.
    """
    series = np.ascontiguousarray(np.transpose(data), dtype=np.float64)  # (k, t)
    k, t = series.shape
    frames = t - window + 1
    workers = max(1, min(_max_workers(), frames, frames * k * window * window // MIN_WORKER_WORK))
    out = np.frombuffer(mmap.mmap(-1, frames * k * k * 8)).reshape(frames, k, k)
    _forked_dcor_frames(series, window, out, [frames * i // workers for i in range(workers + 1)])
    # Mirror the upper triangle: the Gram product need not be exactly symmetric.
    rows, cols = np.triu_indices(k, 1)
    out[:, cols, rows] = out[:, rows, cols]
    diagonal = np.arange(k)
    out[:, diagonal, diagonal] = 1.0
    return out


def _forked_dcor_frames(series: np.ndarray, n: int, out: np.ndarray, bounds: list[int]) -> None:
    """Fill `out`, a shared mapping, by frame ranges [bounds[i], bounds[i+1]):
    a forked child per range after the first, which this process computes."""
    children = {}  # pid: (first, last, read end of the pipe the child reports its error on)
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:  # the child: fill the range, never return into the caller
                code = 1
                try:
                    _dcor_frames(series, n, out[first:last], first)
                    code = 0
                except Exception as err:
                    text = f"{type(err).__name__}: {err}".replace("\n", " ")
                    os.write(writer, text.encode(errors="replace"))
                finally:
                    os._exit(code)
            os.close(writer)
            children[pid] = (first, last, reader)
        _dcor_frames(series, n, out[: bounds[1]], 0)
    finally:
        exits = {}
        for pid, (first, last, reader) in children.items():
            with open(reader, "rb") as pipe:  # at end of file once the child has exited
                cause = pipe.read().decode(errors="replace")
            exits[first, last] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), cause
    for (first, last), (code, cause) in exits.items():
        if code:
            how = f"died by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"dCor worker for frames {first}..{last - 1} of {len(out)}"
                                    f" {how}" + (f": {cause}" if cause else ""))


def _dcor_frames(series: np.ndarray, n: int, out: np.ndarray, first: int) -> None:
    """dCor matrices of frames first, first + 1, ... into `out`, one (k, k) slot
    each, before the caller mirrors them and sets their diagonals."""
    k = len(series)
    win = np.empty((k, n))
    cen = np.empty((k, n, n))
    m = np.empty((n, k))
    flat = cen.reshape(k, n * n)
    for f, r in enumerate(out, first):
        x = series[:, f : f + n]
        _, exp = np.frexp(np.abs(x).max(axis=1))
        np.ldexp(x, -exp[:, None], out=win)
        np.abs(np.subtract(win[:, :, None], win[:, None, :], out=cen), out=cen)
        np.mean(cen, axis=1, out=m.T)
        g = m.mean(axis=0)
        cen -= m.T[:, None, :]
        cen -= m.T[:, :, None]
        cen += g[:, None, None]
        dvar = np.einsum("kij,kij->k", cen, cen) / (n * n)
        dcov2 = np.maximum(flat @ flat.T / (n * n), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # constant columns, zeroed below
            np.minimum(np.sqrt(dcov2 / np.sqrt(np.outer(dvar, dvar))), 1.0, out=r)
        constant = dvar == 0.0
        r[constant[:, None] | constant[None, :]] = 0.0


def triangle_counts(adj: np.ndarray) -> np.ndarray:
    """Triangles through each vertex of undirected 0/1 adjacency matrices.

    `adj` is one (K, K) matrix or a stack (..., K, K); the result has the
    shape of `adj` without its last axis.
    """
    a = np.asarray(adj, dtype=np.uint8).astype(np.int64)
    # ((A @ A) * A)[v].sum() counts closed 2-paths through v; each triangle
    # at v is counted twice. Integer matmul keeps this exact.
    return ((a @ a) * a).sum(axis=-1) // 2
