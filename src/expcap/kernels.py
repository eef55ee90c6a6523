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

`assemble` builds A once, in CSC with int32 indices (which scipy's
constructor keeps as they are), and factors it; that is all every caller
reads.  A is symmetric, so `lap`, the CSR matrix the matvecs read, is the
same arrays read by rows.  It, the torsion field zeta0 (one solve), the
coupling B and the eigenpair (9-11 solves) are built on first read, so a
grid whose caller only solves with A, as a Green ladder does, pays for
none of them.  A 2-D grid's A is factored in `PERMC_SPEC` order, the
interval's in natural order: a path's tridiagonal A has no fill in its
own order (L + U holds nnz(A) + n entries, as minimum degree finds).

Every sparse factorisation lives here.  `KernelSet.factor_shifted`
factors (A + diag(d))_FF, d >= 0, on a free node set F: the Newton
Jacobian A + diag(e^u) on all nodes, or the pinned block A_FF of the
annulus fill in `experiments.interior_family` (the capacity witness
reads its fill off Green columns and factors nothing).  It reuses the column order of A's LU and pays no
ordering.  Fill runs along paths through earlier-eliminated nodes and a
path inside F is one in A, so that order fills no entry A's factor does
not; the pivots stay on the diagonal of these diagonally dominant
M-matrices, so L + U has at most the nonzeros of A's factor.

The shifted matrix is written in place: a copy of the data of A
permuted into that order (canonical CSR, sorted columns), with d added
at the cached slots of its diagonal.  A's diagonal is positive and
d >= 0, so the sparse sum A + diag(d) keeps exactly A's pattern and
stores A_ii + d_i on the diagonal and A's own entries off it: the same
entries, in the same slots, as `(A_perm + sp.diags(d)).tocsc()`, and by
symmetry its CSR arrays are that CSC matrix's arrays.

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

from .errors import SolverDiverged, SupportError
from .grids import WeightedGrid

EIG_TOL = 1e-8
EIG_MAXIT = 2000
# Column ordering of a 2-D A's LU, which every other factor reuses.  For
# this symmetric M-matrix minimum degree on A^T + A leaves about half the
# fill of splu's default COLAMD on the square n=128 grid.
PERMC_SPEC = "MMD_AT_PLUS_A"
# SuperLU's supernode relaxation and panel width for every factor; the
# module docstring says why.
SUPERNODE_RELAX = 1
PANEL_SIZE = 1


def _stencil_matrix(grid: WeightedGrid) -> sp.csc_matrix:
    """A in CSC.  Ordinals ascend with the lattice index, so a column lists
    its rows in ascending lattice offset, (-m, -1, self, +1, +m) in 2D
    (m = n + 2) and (-1, self, +1) in 1D: the indices come out sorted."""
    steps = [oi for oi, _ in grid.stencil_neighbours()]
    half = len(steps) // 2
    vals = np.full(2 * half + 1, -1.0 / grid.h ** 2)
    vals[half] = 2.0 * grid.ndim / grid.h ** 2
    cols = steps[:half] + [np.arange(grid.n_interior)] + steps[half:]
    return sp.csc_matrix(_compressed(cols, vals), shape=(grid.n_interior,) * 2)


def _coupling_matrix(grid: WeightedGrid) -> sp.csr_matrix:
    """B in CSR.  Boundary ordinals on the square run edge by edge, not
    in lattice order, so its rows are sorted after assembly."""
    cols = [ob for _, ob in grid.stencil_neighbours()]
    B = sp.csr_matrix(_compressed(cols, np.full(len(cols), 1.0 / grid.h ** 2)),
                      shape=(grid.n_interior, grid.n_boundary))
    B.sort_indices()
    return B


def _compressed(cols: list, vals: np.ndarray) -> tuple:
    """(data, indices, indptr), int32 indices, of the matrix whose row i
    holds vals[k] at cols[k][i] for each k with cols[k][i] >= 0."""
    table = np.array(cols, dtype=np.int32)  # (k, rows): row counts reduce axis 0
    hit = table >= 0
    indptr = np.concatenate(([0], np.add.reduce(hit, 0).cumsum()), dtype=np.int32)
    return vals.repeat(hit.shape[1]).reshape(hit.shape).T[hit.T], table.T[hit.T], indptr


def _lu_factor(M: sp.csc_matrix, permc_spec: str):
    """SuperLU factor of M with this module's supernode and panel settings
    (`spla.splu` is looked up per call, so patching it is seen here)."""
    return spla.splu(M, permc_spec=permc_spec, relax=SUPERNODE_RELAX,
                     panel_size=PANEL_SIZE)


def _diagonal_slots(M: sp.csr_matrix) -> np.ndarray:
    """Data index of each row's diagonal entry, in row order, for a
    canonical CSR matrix whose every row holds its diagonal."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    return np.flatnonzero(M.indices == rows)


@dataclass
class KernelSet:
    """Assembled operators plus the derived fields the solvers lean on.

    `assemble` fills in A (in CSC) and its LU; `lap`, `zeta0`, `coupling`
    and the eigenpair (`rho_star`, `eigenvalue`) are made on first read,
    and `eig_iterations` counts the eigenpair's inverse-power steps (0
    until then).  `factor_shifted` writes each shifted matrix into a copy
    of A's permuted data (module docstring).
    """

    grid: WeightedGrid
    _csc: sp.csc_matrix = field(repr=False)
    _lu: object = field(repr=False)
    eig_iterations: int = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs; rhs may be (Ni,) or (Ni, k)."""
        return self._lu.solve(np.asarray(rhs, dtype=float))

    @cached_property
    def lap(self) -> sp.csr_matrix:
        """A in CSR, on the arrays of the CSC matrix the LU read."""
        return self._csc.T

    @cached_property
    def zeta0(self) -> np.ndarray:
        """Torsion field, A zeta0 = 1, solved on first read."""
        return self.solve(np.ones(self.grid.n_interior))

    @cached_property
    def coupling(self) -> sp.csr_matrix:
        """B in CSR, built on first read."""
        return _coupling_matrix(self.grid)

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
        """A's column order, A permuted symmetrically into it (canonical
        CSR) and the data slots of its diagonal."""
        order = np.argsort(self._lu.perm_c)
        Ap = self.lap[order][:, order]
        Ap.sort_indices()
        return order, Ap, _diagonal_slots(Ap)

    def factor_shifted(self, d: np.ndarray, free: np.ndarray | None = None):
        """Factor (A + diag(d)) restricted to the `free` nodes (all nodes
        when None) in A's column order; returns its solve, which maps rhs
        indexed like `free` to x with (A + diag(d))_FF x = rhs."""
        order, block, diag = self._shifted_pattern
        if free is None:
            keep = order
        else:
            pos = self._lu.perm_c[free]
            keep = np.argsort(pos)
            # a principal block of a canonical matrix, in ascending order
            block = block[pos[keep]][:, pos[keep]]
            diag = _diagonal_slots(block)
            d = d[free]
        data = block.data.copy()
        data[diag] += d[keep]
        # symmetric, so its CSR arrays are its CSC arrays
        lu = _lu_factor(sp.csc_matrix((data, block.indices, block.indptr),
                                      shape=block.shape), "NATURAL")

        def solve(rhs: np.ndarray) -> np.ndarray:
            x = np.empty_like(rhs)
            x[keep] = lu.solve(rhs[keep])
            return x
        return solve


def assemble(grid: WeightedGrid) -> KernelSet:
    """Assemble A and factor it (module docstring has the ordering rule)."""
    A = _stencil_matrix(grid)
    return KernelSet(grid=grid, _csc=A,
                     _lu=_lu_factor(A, "NATURAL" if grid.ndim == 1 else PERMC_SPEC))


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
    node, (Ni,) for one node and (Ni, k) for an array of k nodes;
    SupportError for an ordinal outside 0..Ni-1."""
    nodes = np.asarray(nodes)
    ni = ks.grid.n_interior
    if nodes.size and not 0 <= nodes.min() <= nodes.max() < ni:
        raise SupportError(f"interior nodes {nodes.tolist()} reach outside 0..{ni - 1}")
    e = np.zeros((ni, nodes.size))
    e[nodes.ravel(), np.arange(nodes.size)] = 1.0 / ks.grid.cell_measure
    return ks.solve(e.reshape((-1,) + nodes.shape))


def normal_derivative(ks: KernelSet, values: np.ndarray, order: int = 2) -> np.ndarray:
    """Outward normal derivative at every boundary node of a field that is
    zero on the boundary.

    `values` holds the field's interior values, (Ni,), or an (Ni, k)
    stack of k such fields, one per column, whose derivatives come back
    as the columns of an (Nb, k) array.

    order=2: one-sided second-order difference along the stencil-rounded
    inward direction, (3 f_b - 4 f_1 + f_2) / (2h) with f_b = 0, and
    order 1 where two inward steps do not exist.
    order=1: the flux implied by the discrete Green identity,
    (deg_b f_b - sum of adjacent interior values) / h with f_b = 0; with
    this choice the weak residual of a converged boundary solve vanishes
    to solver precision on every shape.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    grid = ks.grid
    out = -(ks.coupling_transpose.astype(bool) @ values) / grid.h
    if order == 2:
        i1, i2 = grid.boundary_inward.T
        ok = (i1 >= 0) & (i2 >= 0)
        out[ok] = (values[i2[ok]] - 4.0 * values[i1[ok]]) / (2.0 * grid.h)
    return out
