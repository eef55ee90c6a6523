"""Discrete Laplacian, Green and Poisson operators, eigenpair, torsion field.

The interior operator A is the standard (2d+1)-point -Laplacian with
Dirichlet rows eliminated: A u = f holds on interior nodes, boundary
values enter through the coupling matrix B (one 1/h^2 entry per
stencil adjacency).  With that convention:

* ks.solve(f)                 solves A u = f        (u = 0 on the boundary)
* ks.solve(ks.coupling @ g)   solves A u = B g      (u = g on the boundary)

Both are exact inverses of the same symmetric M-matrix, which is what
makes the discrete Green identities used by the weak-residual and
capacity layers hold to solver precision.  Every solve reuses one sparse
LU factorisation of A: the capacity optimisers call the operators
thousands of times.

`assemble` factors A and solves for the torsion field zeta0, which every
Newton solve reads.  The principal eigenpair costs 9-11 more solves and
few callers read it, so a `KernelSet` computes it on first read.

Every sparse factorisation lives here.  `KernelSet.factor_shifted`
factors (A + diag(d))_FF, d >= 0, on a free node set F: the Newton
Jacobian A + diag(e^u) on all nodes, or the pinned block A_FF of a
harmonic fill.  It reuses the column order of A's LU and pays no
ordering.  Fill runs along paths through earlier-eliminated nodes and a
path inside F is one in A, so that order fills no entry A's factor does
not; the pivots stay on the diagonal of these diagonally dominant
M-matrices, so L + U has at most the nonzeros of A's factor.

A's LU and every `factor_shifted` factor go through `_lu_factor`, with
SuperLU's supernode relaxation off (`SUPERNODE_RELAX` = 1) and one-column
panels (`PANEL_SIZE` = 1) in place of its defaults.  Relaxed supernodes pad
these factors with explicit zeros (7,884 stored entries for A at square
n=16, against a true fill of 4,192), and the supernodes of a 5-point
M-matrix are too small for wide panels to save more than they cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverDiverged
from .grids import Field, WeightedGrid

EIG_TOL = 1e-8
EIG_MAXIT = 2000
# Column ordering of A's LU, which every other factor reuses.  For this
# symmetric M-matrix minimum degree on A^T + A leaves about half the fill
# of splu's default COLAMD on the square n=128 grid.
PERMC_SPEC = "MMD_AT_PLUS_A"
# SuperLU's supernode relaxation and panel width for every factor; the
# module docstring says why.
SUPERNODE_RELAX = 1
PANEL_SIZE = 1


def _assemble_matrices(grid: WeightedGrid):
    """Build A (interior x interior) and B (interior x boundary) in CSR.

    Ordinals ascend with the lattice index, so a row of A lists its
    columns in ascending lattice offset, (-m, -1, self, +1, +m) in 2D
    (m = n + 2) and (-1, self, +1) in 1D.  Boundary ordinals on the square run edge by
    edge, not in lattice order, so B's rows are sorted after assembly.
    """
    h2 = grid.h ** 2
    ni = grid.n_interior
    steps = grid.stencil_neighbours()
    half = len(steps) // 2
    cols_a = np.column_stack([oi for oi, _ in steps[:half]] + [np.arange(ni)]
                             + [oi for oi, _ in steps[half:]])
    vals_a = np.full(cols_a.shape, -1.0 / h2)
    vals_a[:, half] = 2.0 * grid.ndim / h2
    cols_b = np.column_stack([ob for _, ob in steps])
    B = _csr_rows(cols_b, np.full(cols_b.shape, 1.0 / h2), grid.n_boundary)
    B.sort_indices()
    return _csr_rows(cols_a, vals_a, ni), B


def _csr_rows(cols: np.ndarray, vals: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """CSR matrix whose row i holds vals[i, k] at cols[i, k] >= 0."""
    hit = cols >= 0
    indptr = np.concatenate(([0], np.cumsum(hit.sum(axis=1))))
    return sp.csr_matrix((vals[hit], cols[hit], indptr), shape=(cols.shape[0], n_cols))


def _lu_factor(M: sp.csc_matrix, permc_spec: str):
    """SuperLU factor of M with this module's supernode and panel settings
    (`spla.splu` is looked up per call, so patching it is seen here)."""
    return spla.splu(M, permc_spec=permc_spec, relax=SUPERNODE_RELAX,
                     panel_size=PANEL_SIZE)


@dataclass
class KernelSet:
    """Assembled operators plus the derived fields the solvers lean on.

    The first read of `rho_star` or `eigenvalue` computes and keeps both;
    `eig_iterations` counts its inverse-power steps and reads 0 until then.
    """

    grid: WeightedGrid
    lap: sp.csr_matrix
    coupling: sp.csr_matrix
    zeta0: np.ndarray = None
    eig_iterations: int = 0
    _lu: object = field(default=None, repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs; rhs may be (Ni,) or (Ni, k)."""
        return self._lu.solve(np.asarray(rhs, dtype=float))

    @cached_property
    def coupling_transpose(self) -> sp.csr_matrix:
        """B^T in CSR, built on first read."""
        return self.coupling.T.tocsr()

    @cached_property
    def stencil_graph(self) -> sp.csr_matrix:
        """|A|: the interior stencil's adjacency (with its diagonal), built
        on first read."""
        return abs(self.lap)

    @cached_property
    def _eigenpair(self):
        rho_star, lam, self.eig_iterations = _principal_eigen(self)
        return rho_star, lam

    @property
    def rho_star(self) -> np.ndarray:
        """Positive principal eigenfield of A, scaled to max 1."""
        return self._eigenpair[0]

    @property
    def eigenvalue(self) -> float:
        """Lowest eigenvalue of A."""
        return self._eigenpair[1]

    @cached_property
    def _shifted_pattern(self):
        """A's column order and A permuted symmetrically into it."""
        order = np.argsort(self._lu.perm_c)
        return order, self.lap[order][:, order]

    def factor_shifted(self, d: np.ndarray, free: np.ndarray | None = None):
        """Factor (A + diag(d)) restricted to the `free` nodes (all nodes
        when None) in A's column order; returns its solve, which maps rhs
        indexed like `free` to x with (A + diag(d))_FF x = rhs."""
        order, Ap = self._shifted_pattern
        if free is None:
            keep, block = order, Ap
        else:
            pos = self._lu.perm_c[free]
            keep = np.argsort(pos)
            block = Ap[pos[keep]][:, pos[keep]]
            d = d[free]
        lu = _lu_factor((block + sp.diags(d[keep])).tocsc(), "NATURAL")

        def solve(rhs: np.ndarray) -> np.ndarray:
            x = np.empty_like(rhs)
            x[keep] = lu.solve(rhs[keep])
            return x
        return solve


def assemble(grid: WeightedGrid) -> KernelSet:
    """Assemble A and B, factor A and solve for the torsion field."""
    A, B = _assemble_matrices(grid)
    ks = KernelSet(grid=grid, lap=A, coupling=B,
                   _lu=_lu_factor(A.tocsc(), PERMC_SPEC))
    ks.zeta0 = ks.solve(np.ones(grid.n_interior))
    return ks


def _principal_eigen(ks: KernelSet):
    """Inverse power iteration started from rho (deterministic)."""
    A = ks.lap
    v = ks.grid.rho.copy()
    v /= np.linalg.norm(v)
    lam = float(v @ (A @ v))
    for it in range(1, EIG_MAXIT + 1):
        w = ks.solve(v)
        w /= np.linalg.norm(w)
        lam = float(w @ (A @ w))
        res = np.linalg.norm(A @ w - lam * w)
        v = w
        if res <= EIG_TOL * lam:
            return v / v.max(), lam, it
    raise SolverDiverged(
        f"inverse iteration residual stalled above tolerance after {EIG_MAXIT} steps"
    )


def green_column(ks: KernelSet, nodes: int | np.ndarray) -> np.ndarray:
    """Green kernel columns: the potential of a unit atom at each interior
    node, (Ni,) for one node and (Ni, k) for an array of k nodes."""
    nodes = np.asarray(nodes)
    e = np.zeros((ks.grid.n_interior, nodes.size))
    e[nodes.ravel(), np.arange(nodes.size)] = 1.0 / ks.grid.cell_measure
    return ks.solve(e.reshape((-1,) + nodes.shape))


def normal_derivative(ks: KernelSet, f: Field | np.ndarray, order: int = 2) -> np.ndarray:
    """Outward normal derivative of a field at every boundary node.

    `f` is a Field, or an (Ni, k) stack of interior values with a zero
    boundary trace, one field per column, whose derivatives come back as
    the columns of an (Nb, k) array.

    order=2: one-sided second-order difference along the stencil-rounded
    inward direction, (3 f_b - 4 f_1 + f_2) / (2h), and order 1 where
    two inward steps do not exist.
    order=1: the flux implied by the discrete Green identity,
    (deg_b f_b - sum of adjacent interior values) / h; with this choice
    the weak residual of a converged boundary solve vanishes to solver
    precision on every shape.
    """
    grid = ks.grid
    if isinstance(f, Field):
        grid.require_same(f.grid)
        values, fb = f.values, f.boundary_values
    else:
        values, fb = f, None
    if fb is None:
        fb = np.zeros((grid.n_boundary,) + values.shape[1:])
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    adjacent = ks.coupling_transpose.astype(bool)
    degree = np.asarray(adjacent.sum(axis=1)).reshape((-1,) + (1,) * (values.ndim - 1))
    out = (degree * fb - adjacent @ values) / grid.h
    if order == 2:
        i1, i2 = grid.boundary_inward.T
        ok = (i1 >= 0) & (i2 >= 0)
        out[ok] = (3.0 * fb[ok] - 4.0 * values[i1[ok]] + values[i2[ok]]) / (2.0 * grid.h)
    return out
