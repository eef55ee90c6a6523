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
whose square covers the cell); in 1D the anchors are a and a-1.  O(N^3)
work in all for an N x N cube.

Flat layout.  Every pass of the cascade runs over one contiguous run of
a flat array, never over a strided k x k view (k = N - s + 1 anchors per
axis), because numpy pays a per-row overhead on such views that
dominates at these sizes.  Anchor (r, c) sits at index i = r W + c, with
W = N + 1 the row stride of the flattened table S, so the side-s box sums
are

    ((S[i + s(W+1)] - S[i + s]) - S[i + sW]) + S[i],   0 <= i < (k-1) W + k,

multiplied in place by fl(1/s^2) (in 1D, S[i + s] - S[i] over i < k,
multiplied by fl(1/s)).  The slots with c >= k between two rows are
junk anchors: their sums wrap across a row and mean nothing.  The max over the anchors a,
a-e1, a-e2, a-e1-e2 is two maxima of shifted runs, offsets 0 and -1,
then 0 and -W, read from buffers led by W + 1 entries of -inf.  A valid
anchor of the next size reads V_{s+1} only at columns -1..k-1 and rows
-1..k-1, so before it does, -inf goes on V_{s+1}'s junk column k-1 and
its column W-1 (read as column -1 of the next row); then no junk value
reaches a valid anchor.  The row after V_{s+1}'s last (in 1D, the slot
after its last anchor) needs no write: it lies past V_{s+1}'s span, and
spans only grow as s falls, so no earlier size wrote it either and it
still holds the -inf the buffer was allocated with.  Two buffers
alternate between V_{s+1} and V_s, and one more holds the first maximum;
a call allocates nothing per size.

Averages by a product.  A product costs less than a division, and the
average needs no more: S holds partial sums of up to N^d terms, so the
differences above already carry an absolute error of a few eps max S,
far more than sum * fl(1/s^d) can differ from sum / s^d: fl(1/s^d)
is within a relative eps/2 of 1/s^d, so the product is off by at most
one ulp before its own rounding, and the two rounded forms are at most
two ulps apart even on exact sums (the tests hold every value there).

The box sums are the same expressions, in the same order, as a direct
evaluation over every square, each is multiplied by the same fl(1/s^d),
and a max is exact, so the cascade returns the same bits as a direct
max over every square that averages the same way (the tests compare
it with one on integer data, bit for bit).

The companion functional

    llnl_norm(f) = int_{Q0} M[f] w dx

is the L log L quantity the conjugate Luxemburg norm is equivalent to;
the equivalence constants are measured by the test corpus, never
assumed.
"""

from __future__ import annotations

import numpy as np

from .grids import WeightedGrid


def _sat(F: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: S[i, j] = sum F[:i, :j]
    (S[i] = sum F[:i] in 1D)."""
    S = np.zeros(np.add(F.shape, 1))
    inner = S[(slice(1, None),) * F.ndim]
    np.cumsum(F, axis=0, out=inner)
    if F.ndim == 2:
        np.cumsum(inner, axis=1, out=inner)
    return S


def maximal_function(f, grid: WeightedGrid, pad: int = 1) -> np.ndarray:
    """M[f] on every cell of the padded cube (flat interior values via
    `maximal_interior`), by the flat cascade of the module docstring."""
    vals = grid.interior_values(f)
    if pad < 0:
        raise ValueError("pad must be >= 0")
    full = grid.to_lattice(np.abs(vals), pad)
    N = full.shape[0]
    S = _sat(full).ravel()
    W = N + 1
    if grid.ndim == 2:
        lead, size = W + 1, N * W

        def span(k):  # anchors 0..k-1 per axis lie in [0, span(k))
            return (k - 1) * W + k

        def fence(V, k):  # -inf on columns k and -1 (row k is still -inf)
            V[lead + k:lead + k * W:W] = -np.inf
            V[lead + W - 1:lead + k * W:W] = -np.inf

        def box_sums(s, out):
            m = out.size
            np.subtract(S[s * (W + 1):s * (W + 1) + m], S[s:s + m], out=out)
            out -= S[s * W:s * W + m]
            out += S[:m]
            out *= 1.0 / (s * s)
    else:
        lead, size = 1, N

        def span(k):
            return k

        def fence(V, k):  # slot k is still -inf
            pass

        def box_sums(s, out):
            np.subtract(S[s:s + out.size], S[:out.size], out=out)
            out *= 1.0 / s

    cur, nxt, tmp = (np.full(lead + size, -np.inf) for _ in range(3))

    def cover(V, m):
        """(buffer, d): the max of V over its anchors i and i-1 (and, in
        2D, i-W and i-W-1) is the max of buffer[lead + i] and
        buffer[lead + i - d], for i < m."""
        if grid.ndim == 1:
            return V, 1
        np.maximum(V[lead:lead + m], V[lead - 1:lead - 1 + m], out=tmp[lead:lead + m])
        return tmp, W

    box_sums(N, cur[lead:lead + 1])
    for s in range(N - 1, 1, -1):
        k = N - s + 1
        fence(cur, k - 1)
        m = span(k)
        out = nxt[lead:lead + m]
        box_sums(s, out)
        src, d = cover(cur, m)
        np.maximum(out, src[lead:lead + m], out=out)
        np.maximum(out, src[lead - d:lead - d + m], out=out)
        cur, nxt = nxt, cur
    fence(cur, N - 1)
    m = span(N)
    src, d = cover(cur, m)
    np.maximum(src[lead:lead + m], src[lead - d:lead - d + m], out=nxt[lead:lead + m])
    V1 = nxt[lead:].reshape(full.shape[:-1] + (-1,))[..., :N]  # drop junk columns
    return np.maximum(full, V1, out=full)


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
