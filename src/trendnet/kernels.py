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

`rolling_dcor` splits the frames over processes with `util.forked_map`:
contiguous frame ranges, one per worker, of a stack in an anonymous shared
mapping, which it returns. A frame reads only its window and writes only
its (k, k) slot, through the same operations in the same order in any
process, so the split moves no bit. Threads do not pay: the per-frame
numpy calls are short and serialise on the interpreter lock. On a 2-CPU
Xeon host (K = 15, n = 60 and 90, two years of days) two threads took
0.8-1.7x the serial time, two processes 0.53-0.72x.

Workers are at most one per MIN_WORKER_WORK frames * k * n**2 units. On
that host a fork and wait cost 6-11 ms, the serial kernel runs 2.5e7
(n = 15) to 9.8e7 (n = 90) units per second, and two workers broke even at
1e6-3e6 units. 1e7 units are 0.1-0.2 s of work, so a fork costs under a
tenth of the share it takes over, even when the other CPU is busy. One
frame (`dcor_matrix`) and a year of 15 keywords at n <= 30 (4.5e6 units
at most) stay serial.

A window worker of `analyze` still splits its frames: at windows 60 and 90
over two years of 15 keywords, W = 90 holds two thirds of the dCor work.
Without the split, as with one CPU per window worker, `analyze` took 1.028 s
against 0.938 s on that host (medians of 6 alternating pairs, slower in 4).
"""

from __future__ import annotations

import mmap

import numpy as np

from . import util

# Least frames * k * n**2 work units per worker process; see the module docstring.
MIN_WORKER_WORK = 10**7


def dcor_matrix(win: np.ndarray) -> np.ndarray:
    """Pairwise distance-correlation matrix of the columns of `win` (n, k)."""
    return rolling_dcor(win, len(win))[0]


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
    out = np.frombuffer(mmap.mmap(-1, frames * k * k * 8)).reshape(frames, k, k)
    util.forked_map(
        lambda part: _dcor_frames(series, window, out[part.start : part.stop], part.start),
        range(frames), lambda part: f"dCor worker for frames {part[0]}..{part[-1]} of {frames}",
        most=frames * k * window * window // MIN_WORKER_WORK)
    # Mirror the upper triangle: the Gram product need not be exactly symmetric.
    rows, cols = np.triu_indices(k, 1)
    out[:, cols, rows] = out[:, rows, cols]
    diagonal = np.arange(k)
    out[:, diagonal, diagonal] = 1.0
    return out


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
