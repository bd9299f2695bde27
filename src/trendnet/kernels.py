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

`rolling_dcor` allocates its workspaces once per call and reuses them for
every frame: the (k, n) rescaled window, the (k, n, n) centred distance
matrices, one per column and each contiguous, so the Gram product reads
them as one (k, n*n) matrix, and the (n, k) row means. Fresh temporaries
of that size per frame were served by `mmap` and page-faulted in again on
every frame. The reduction axes are fixed on purpose: numpy sums pairwise
along a contiguous axis but sequentially along an outer one, so the row
means reduce over the outer `i` axis of (k, n, n) and the grand mean over
the outer axis of the (n, k) buffer. Any other order moves the last bits.
"""

from __future__ import annotations

import numpy as np


def dcor_matrix(win: np.ndarray) -> np.ndarray:
    """Pairwise distance-correlation matrix of the columns of `win` (n, k)."""
    return rolling_dcor(win, len(win))[0]


def rolling_dcor(data: np.ndarray, window: int) -> np.ndarray:
    """Stack of dcor matrices over every length-`window` slice of `data` (t, k).

    Diagonals are fixed at 1; a column with zero distance variance in a
    window correlates 0 with everything in that frame by convention.
    """
    series = np.ascontiguousarray(np.transpose(data), dtype=np.float64)  # (k, t)
    k, t = series.shape
    n = window
    out = np.empty((t - n + 1, k, k))
    win = np.empty((k, n))
    cen = np.empty((k, n, n))
    m = np.empty((n, k))
    flat = cen.reshape(k, n * n)
    for f, r in enumerate(out):
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
    a = np.asarray(adj, dtype=np.uint8).astype(np.int64)
    # ((A @ A) * A)[v].sum() counts closed 2-paths through v; each triangle
    # at v is counted twice. Integer matmul keeps this exact.
    return ((a @ a) * a).sum(axis=-1) // 2
