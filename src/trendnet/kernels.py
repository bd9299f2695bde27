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
"""

from __future__ import annotations

import numpy as np


def _centered_stack(win: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double-centered |x_i - x_j| matrices for every column of `win`.

    Returns (centered (k, n, n), dvar (k,)) where dvar is the mean squared
    centered entry per column. Distance matrices are symmetric, so row and
    column means coincide. Columns are first rescaled by a power of two
    (see the module docstring).
    """
    n, _ = win.shape
    _, exp = np.frexp(np.abs(win).max(axis=0))
    win = np.ldexp(win, -exp)
    d = np.abs(win[:, None, :] - win[None, :, :])  # (n, n, k)
    m = d.mean(axis=0)  # (n, k)
    g = m.mean(axis=0)  # (k,)
    cen = d - m[None, :, :] - m[:, None, :] + g
    cen = np.ascontiguousarray(np.moveaxis(cen, 2, 0))  # (k, n, n)
    dvar = np.einsum("kij,kij->k", cen, cen) / (n * n)
    return cen, dvar


def dcor_matrix(win: np.ndarray) -> np.ndarray:
    """Pairwise distance-correlation matrix of the columns of `win` (n, k).

    Diagonal is fixed at 1; columns with zero distance variance correlate
    0 with everything by convention.
    """
    win = np.ascontiguousarray(win, dtype=np.float64)
    n, k = win.shape
    cen, dvar = _centered_stack(win)
    flat = cen.reshape(k, n * n)
    dcov2 = np.maximum(flat @ flat.T / (n * n), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # constant columns, zeroed below
        r = np.minimum(np.sqrt(dcov2 / np.sqrt(np.outer(dvar, dvar))), 1.0)
    constant = dvar == 0.0
    r[constant[:, None] | constant[None, :]] = 0.0
    # Mirror the upper triangle: the Gram product need not be exactly symmetric.
    upper = np.triu_indices(k, 1)
    out = np.eye(k)
    out[upper] = r[upper]
    out.T[upper] = r[upper]
    return out


def rolling_dcor(data: np.ndarray, window: int) -> np.ndarray:
    """Stack of dcor matrices over every length-`window` slice of `data` (t, k)."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    t, k = data.shape
    frames = t - window + 1
    out = np.empty((frames, k, k))
    for f in range(frames):
        out[f] = dcor_matrix(data[f : f + window])
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
