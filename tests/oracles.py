"""Independent reference implementations used only by the tests.

These are deliberately written from scratch against the definitions, not
by calling into trendnet: the distance-correlation oracle builds and
centers its matrices element by element, and the graph oracle enumerates
triangles and triples directly with exact integer/rational arithmetic.
`rolling_dcor_reference` is the production kernel's arithmetic written
one frame at a time with fresh temporaries, the bit-exact reference for
the kernel's reused workspaces.
"""

from fractions import Fraction

import numpy as np


def dcor_oracle(x, y) -> float:
    """Definitional distance correlation, element-by-element."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    assert len(y) == n and n >= 2

    a = np.empty((n, n))
    b = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = abs(x[i] - x[j])
            b[i, j] = abs(y[i] - y[j])

    def center(m):
        row = [m[i, :].sum() / n for i in range(n)]
        col = [m[:, j].sum() / n for j in range(n)]
        grand = m.sum() / (n * n)
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = m[i, j] - row[i] - col[j] + grand
        return out

    ca = center(a)
    cb = center(b)
    dcov2 = float((ca * cb).sum()) / (n * n)
    dvar_x = float((ca * ca).sum()) / (n * n)
    dvar_y = float((cb * cb).sum()) / (n * n)
    if dvar_x == 0.0 or dvar_y == 0.0:
        return 0.0
    dcov2 = max(dcov2, 0.0)
    value = (dcov2 ** 0.5) / (dvar_x * dvar_y) ** 0.25
    return min(value, 1.0)


def _centered_stack(win):
    """Power-of-two rescaled, double-centered |x_i - x_j| matrices of the
    columns of `win` (n, k), on the (n, n, k) layout: (cen (k, n, n), dvar (k,))."""
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


def rolling_dcor_reference(data, window) -> np.ndarray:
    """(F, k, k) dCor stack of `data` (t, k), each frame computed on its own."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    t, k = data.shape
    n = window
    out = np.empty((t - n + 1, k, k))
    upper = np.triu_indices(k, 1)
    for f in range(len(out)):
        cen, dvar = _centered_stack(np.ascontiguousarray(data[f : f + n]))
        flat = cen.reshape(k, n * n)
        dcov2 = np.maximum(flat @ flat.T / (n * n), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.minimum(np.sqrt(dcov2 / np.sqrt(np.outer(dvar, dvar))), 1.0)
        constant = dvar == 0.0
        r[constant[:, None] | constant[None, :]] = 0.0
        out[f] = np.eye(k)
        out[f][upper] = r[upper]
        out[f].T[upper] = r[upper]
    return out


def graph_oracle(adj) -> dict:
    """Exhaustive triangle/triple enumeration on a 0/1 adjacency matrix.

    Returns exact integer counts and Fraction-valued statistics:
    edges, lambda (triangles per vertex), tau (triples per vertex),
    density, clustering_global, clustering_avg_local.
    """
    adj = [[int(v) for v in row] for row in np.asarray(adj)]
    k = len(adj)
    edges = 0
    for i in range(k):
        for j in range(i + 1, k):
            assert adj[i][j] == adj[j][i]
            edges += adj[i][j]

    lam = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            for m in range(j + 1, k):
                if adj[i][j] and adj[i][m] and adj[j][m]:
                    lam[i] += 1
                    lam[j] += 1
                    lam[m] += 1

    degrees = [sum(row) for row in adj]
    tau = [d * (d - 1) // 2 for d in degrees]

    density = Fraction(2 * edges, k * (k - 1)) if k >= 2 else Fraction(0)
    total_tau = sum(tau)
    cluster_global = Fraction(sum(lam), total_tau) if total_tau else Fraction(0)
    local = Fraction(0)
    for v in range(k):
        if tau[v] > 0:
            local += Fraction(lam[v], tau[v])
    cluster_local = local / k if k else Fraction(0)

    return {
        "edges": edges,
        "lambda": lam,
        "tau": tau,
        "density": density,
        "clustering_global": cluster_global,
        "clustering_avg_local": cluster_local,
    }
