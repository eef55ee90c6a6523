"""Grid maximal function over axis-aligned squares, and the L log L norm.

M[f](x) is the largest average of |f| over grid-aligned squares (integer
cell size, corners on the lattice) that contain x's cell and sit inside
the padded bounding cube Q0.  Fields are extended by zero outside the
interior nodes, so enlarging Q0 can only add candidate squares: M is
monotone in the pad for nonnegative data, which the tests exercise.

Box averages come from a summed-area table.  The max over all squares
runs as a cascade from the largest size down.  Let V_s(a) be the largest
average over squares inside Q0 that contain the side-s square anchored
at a.  A square of side t >= s+1 containing (a, s) also contains one of
the side-(s+1) squares anchored at a, a-e1, a-e2, a-e1-e2 that lie in
Q0: per axis, take anchor a-1 if the big square starts before a, and
anchor a otherwise (the big square then reaches past a+s).  Hence

    V_s(a) = max(avg_s(a), V_{s+1} at those <= 4 anchors),

from V_N = avg_N down to V_2, and M = max(|f|, V_2 at the <= 4 anchors
whose square covers the cell); in 1D the anchors are a and a-1.  Each
size costs a few elementwise passes over its (N-s+1)^2 anchors, O(N^3)
in all for an N x N cube.  The averages are the same summed-area
expressions at every size and a max is exact, so the cascade returns
the same bits as a direct max over every square.

The companion functional

    llnl_norm(f) = int_{Q0} M[f] w dx

is the L log L quantity the conjugate Luxemburg norm is equivalent to;
the equivalence constants are measured by the test corpus, never
assumed.
"""

from __future__ import annotations

import numpy as np

from .grids import Field, WeightedGrid
from .errors import GridMismatch


def _sat(F: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: S[i, j] = sum F[:i, :j]."""
    S = np.zeros((F.shape[0] + 1, F.shape[1] + 1))
    np.cumsum(F, axis=0, out=S[1:, 1:])
    np.cumsum(S[1:, 1:], axis=1, out=S[1:, 1:])
    return S


def _cover(V: np.ndarray) -> np.ndarray:
    """One longer than V per axis: out[a] is the max of V over the anchors
    a - d, d in {0, 1}^ndim, that exist, i.e. over the squares one size
    up that contain the square anchored at a."""
    R = np.empty((V.shape[0] + 1,) + V.shape[1:])
    R[0], R[-1] = V[0], V[-1]
    np.maximum(V[:-1], V[1:], out=R[1:-1])
    if V.ndim == 1:
        return R
    U = np.empty((R.shape[0], R.shape[1] + 1))
    U[:, 0], U[:, -1] = R[:, 0], R[:, -1]
    np.maximum(R[:, :-1], R[:, 1:], out=U[:, 1:-1])
    return U


def maximal_function(f, grid: WeightedGrid, pad: int = 1) -> np.ndarray:
    """M[f] on every cell of the padded cube (flat interior values via
    `maximal_interior`)."""
    vals = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
    if vals.shape != (grid.n_interior,):
        raise GridMismatch("field length does not match grid")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    full = grid.to_lattice(np.abs(vals), pad)

    if grid.ndim == 1:
        N = full.size
        S = np.concatenate([[0.0], np.cumsum(full)])

        def avg(s):  # anchors 0..N-s
            return (S[s:] - S[:-s]) / s
    else:
        N = full.shape[0]
        S = _sat(full)

        def avg(s):
            return (S[s:, s:] - S[:-s, s:] - S[s:, :-s] + S[:-s, :-s]) / (s * s)

    V = avg(N)
    for s in range(N - 1, 1, -1):
        box = avg(s)
        V = np.maximum(box, _cover(V), out=box)
    return np.maximum(full, _cover(V), out=full)


def maximal_interior(f, grid: WeightedGrid) -> np.ndarray:
    """M[f] restricted to the interior nodes (one cell of padding)."""
    return maximal_function(f, grid)[grid.lattice_index(1)]


def llnl_norm(f, grid: WeightedGrid, weight: str = "lebesgue") -> float:
    """int_{Q0} M[f] w dx.  The rho weight vanishes off the interior, so
    only interior cells contribute there; the Lebesgue version integrates
    over the whole padded cube."""
    if weight == "lebesgue":
        M = maximal_function(f, grid)
        return float(M.sum() * grid.cell_measure)
    if weight == "rho":
        Mi = maximal_interior(f, grid)
        return float((Mi * grid.rho).sum() * grid.cell_measure)
    raise ValueError(f"unknown weight kind {weight!r}")
