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

Each call to `_dcor_frames` takes the days of one contiguous range of
frames and returns the range's finished (F, k, k) frames. The small work
that does not touch the centred matrices runs once per range, not once per
frame: the power-of-two exponents of every frame come from one
sliding-window maximum over the range's days, and the dVar/dCov tail
(divide, clamp, square roots, the constant-column mask, the mirrored upper
triangle and the unit diagonal) runs once over the range's (F, k, k) slots,
each of which the frame's Gram product was written into directly, with its
dVar in an (F, k) array. Per frame only the centring and the two products
run, in workspaces allocated once per call: the (k, n) rescaled window, the
(k, n, n) centred distance matrices, one per column and each contiguous, so
the Gram product reads them as one (k, n*n) matrix, and the (k, n) row
means with an (n, k) copy. Per-frame temporaries of that size came as new
pages from the allocator and were page-faulted in again on every frame.

The reduction axes are fixed on purpose: numpy sums pairwise along a
contiguous axis but sequentially along an outer one. The row means reduce
over the outer `i` axis of (k, n, n). The grand mean reduces over the outer
axis of the contiguous (n, k) copy of the row means: over the transposed
(k, n) buffer, numpy would sum pairwise and move the last bits.

`rolling_dcor` splits the frames over processes with `util.forked_map`:
contiguous frame ranges, one per worker, each of which returns its range's
frames through `forked_map` (a window worker of `analyze` returns nothing:
`cmd_analyze`'s `_Outputs` places its parts); `rolling_dcor` joins them in
order. A frame reads only its window, through the same operations in the
same order in any process, and the once-per-range steps are a maximum and
elementwise arithmetic, so the split moves no bit. Threads do not pay: the
per-frame numpy calls are short and serialise on the interpreter lock.

Workers are at most one per MIN_WORKER_WORK frames * k * n**2 units, so a
fork costs at most a sixth of the share it takes over, even when the other
CPU is busy. One frame (`correlate.distance_correlation`) and a year of 15
keywords at n <= 30 (4.5e6 units at most) stay serial. A window worker of
`analyze` still splits its frames: at windows 60 and 90 over two years of
15 keywords, W = 90 holds two thirds of the dCor work. The README ("CLI")
gives the measurements behind these rules.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import util
from .errors import TrendnetError

# Least frames * k * n**2 work units per worker process; see the module docstring.
MIN_WORKER_WORK = 10**7


def rolling_dcor(data: np.ndarray, window: int) -> np.ndarray:
    """Stack of dcor matrices over every length-`window` slice of `data` (t, k).

    Diagonals are fixed at 1; a column with zero distance variance in a
    window correlates 0 with everything in that frame by convention.
    Large stacks are computed by forked workers, one contiguous frame range
    each; a worker that fails raises ChildProcessError naming its range and
    the worker's exception. It owns the dCor input rules: before any
    arithmetic or fork, data that is not 2-d, a window under 2 or over the
    t rows (code 4) or a non-finite value raises `TrendnetError`
    (`errors.prefixed` adds where).
    """
    if np.ndim(data) != 2:
        raise TrendnetError(f"data must be 2-d (days, keywords), got {np.ndim(data)}-d")
    series = np.ascontiguousarray(np.transpose(data), dtype=np.float64)  # (k, t)
    k, t = series.shape
    if window < 2:
        raise TrendnetError(f"need at least 2 points, got {window}")
    if window > t:
        raise TrendnetError(f"window of {window} days exceeds {t} days of data", 4)
    if not np.isfinite(series).all():
        raise TrendnetError("series contain non-finite values")
    frames = t - window + 1
    return np.concatenate(util.forked_map(
        lambda part: _dcor_frames(series[:, part.start : part.stop + window - 1], window),
        range(frames), lambda part: f"dCor worker for frames {part[0]}..{part[-1]} of {frames}",
        most=frames * k * window * window // MIN_WORKER_WORK))


def _dcor_frames(days: np.ndarray, n: int) -> np.ndarray:
    """The (F, k, k) dCor matrices of the F length-`n` frames of `days` (k, F + n - 1)."""
    k, frames = len(days), days.shape[1] - n + 1
    _, exp = np.frexp(sliding_window_view(np.abs(days), n, axis=1).max(axis=2))
    shifts = -exp.T[:, :, None]  # (frames, k, 1)
    win = np.empty((k, n))
    cen = np.empty((k, n, n))
    m = np.empty((k, n))
    mt = np.empty((n, k))
    g = np.empty(k)
    dvar = np.empty((frames, k))
    out = np.empty((frames, k, k))
    flat = cen.reshape(k, n * n)
    for f, r in enumerate(out):
        np.ldexp(days[:, f : f + n], shifts[f], out=win)
        np.abs(np.subtract(win[:, :, None], win[:, None, :], out=cen), out=cen)
        # np.mean's arithmetic, a sum then one division, without its per-call overhead.
        np.add.reduce(cen, axis=1, out=m)
        m /= n
        mt[...] = m.T
        np.add.reduce(mt, axis=0, out=g)
        g /= n
        cen -= m[:, None, :]
        cen -= m[:, :, None]
        cen += g[:, None, None]
        np.einsum("kij,kij->k", cen, cen, out=dvar[f])
        np.matmul(flat, flat.T, out=r)
    # dCov^2, dVar and dCor of every frame at once.
    out /= n * n
    np.maximum(out, 0.0, out=out)
    dvar /= n * n
    with np.errstate(divide="ignore", invalid="ignore"):  # constant columns, zeroed below
        np.minimum(np.sqrt(out / np.sqrt(dvar[:, :, None] * dvar[:, None, :])), 1.0, out=out)
    constant = dvar == 0.0
    out[constant[:, :, None] | constant[:, None, :]] = 0.0
    # Mirror the upper triangle: the Gram product need not be exactly symmetric.
    rows, cols = np.triu_indices(k, 1)
    out[:, cols, rows] = out[:, rows, cols]
    diagonal = np.arange(k)
    out[:, diagonal, diagonal] = 1.0
    return out


def triangle_counts(adj: np.ndarray) -> np.ndarray:
    """Triangles through each vertex of undirected 0/1 adjacency matrices.

    `adj` is one (K, K) matrix or a stack (..., K, K); the result has the
    shape of `adj` without its last axis.
    """
    a = np.asarray(adj, dtype=np.float64)
    # ((A @ A) * A)[v].sum() counts closed 2-paths through v; each triangle
    # at v is counted twice. The 0/1 products and their sums, at most
    # K(K - 1), are integers far below 2**53, so float64 keeps them exact.
    return ((a @ a) * a).sum(axis=-1).astype(np.int64) // 2
