"""Uniform lattices on the unit interval, unit square, and inscribed disk.

Conventions used throughout the package:

* the lattice has points a*h per axis, a = 0..n+1, with h = 1/(n+1);
  `n` counts interior nodes per axis on the interval and square;
* interior nodes carry fields and the quadrature weight h^d (midpoint
  rule), so the constant 1 on the square integrates to (n/(n+1))^2;
* every shape is a mask on the (n+2)^d lattice: interior nodes lie in
  the inner block (index 1..n on every axis), on the disk also strictly
  inside the inscribed circle (centre (1/2,1/2), radius 1/2), so no
  interior node sits on the lattice edge; boundary nodes are the
  outside nodes stencil-adjacent to an interior one, in lattice order
  (the square's edge by edge), and square corners never enter;
* boundary nodes carry Dirichlet data and the surface weight h^(d-1);
* rho is the distance to the boundary (exact formulas, not a solve):
  min(x, 1-x, ...) on interval/square, R - |x-c| on the disk;
* only this module knows which lattice cell holds which node: other
  modules read fields on the lattice through `WeightedGrid.to_lattice`
  (the zero extension) and `lattice_index`, and adjacency through
  `stencil_neighbours` and `boundary_graph`.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import BadInput, GridMismatch, TooCoarse

SHAPES = ("interval", "square", "disk")

_OCT = np.sin(np.pi / 8.0)  # octant half-angle for rounding normals


@dataclass(frozen=True)
class WeightedGrid:
    shape: str
    n: int
    h: float
    ndim: int
    # interior bookkeeping
    interior_coords: np.ndarray      # (Ni, ndim)
    rho: np.ndarray                  # (Ni,)
    interior_lattice: np.ndarray     # (Ni,) flat lattice index
    # boundary bookkeeping
    boundary_coords: np.ndarray      # (Nb, ndim)
    boundary_lattice: np.ndarray     # (Nb,)
    boundary_inward: np.ndarray      # (Nb, 2) interior ordinals one and two steps in (-1 if absent)
    boundary_normal: np.ndarray      # (Nb, ndim) outward unit direction (exact or radial)
    # lattice -> ordinal maps (-1 where absent)
    _int_of_lat: np.ndarray = field(repr=False, default=None)
    _bdy_of_lat: np.ndarray = field(repr=False, default=None)

    @property
    def n_interior(self) -> int:
        return self.interior_coords.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_coords.shape[0]

    @property
    def cell_measure(self) -> float:
        return self.h ** self.ndim

    @property
    def boundary_cell_measure(self) -> float:
        return self.h ** (self.ndim - 1)

    def same_as(self, other: "WeightedGrid") -> bool:
        return self.shape == other.shape and self.n == other.n

    def require_same(self, other: "WeightedGrid") -> None:
        if not self.same_as(other):
            raise GridMismatch(
                f"grids differ: ({self.shape}, n={self.n}) vs ({other.shape}, n={other.n})"
            )

    def weight_vector(self, weight: str = "lebesgue") -> np.ndarray:
        """Quadrature weights w_i * h^d over interior nodes."""
        if weight == "lebesgue":
            w = np.ones(self.n_interior)
        elif weight == "rho":
            w = self.rho.copy()
        else:
            raise ValueError(f"unknown weight kind {weight!r}")
        return w * self.cell_measure

    def coords(self, kind: str) -> np.ndarray:
        """Coordinates of the interior or the boundary nodes."""
        if kind == "interior":
            return self.interior_coords
        if kind == "boundary":
            return self.boundary_coords
        raise ValueError(f"kind must be interior or boundary, got {kind!r}")

    def nearest(self, point, kind: str = "interior", count: int = 1) -> np.ndarray:
        """Sorted ordinals of the `count` interior (or boundary) nodes
        nearest to `point` (ndim coordinates, or ValueError); among
        equidistant nodes the lowest ordinal wins.  Only the nodes no
        farther than the `count`-th distance are sorted."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.ndim,):
            raise ValueError(f"point {point.tolist()} needs {self.ndim} coordinates")
        offset = self.coords(kind) - point
        d2 = np.sum(offset ** 2, axis=1)
        k = min(count, d2.size) - 1
        near = np.flatnonzero(d2 <= np.partition(d2, k)[k])
        return np.sort(near[np.argsort(d2[near], kind="stable")[:count]])

    def lattice_index(self, pad: int = 0) -> tuple:
        """Per-axis indices of the interior nodes in a lattice array grown
        by `pad` cells on every side; pad=-1 indexes the inner n^d block
        that a centred difference of a lattice array produces."""
        idx = np.unravel_index(self.interior_lattice, (self.n + 2,) * self.ndim)
        return tuple(a + pad for a in idx)

    def to_lattice(self, values: np.ndarray, pad: int = 0) -> np.ndarray:
        """Zero extension of interior values onto the (n+2+2 pad)^d lattice."""
        full = np.zeros((self.n + 2 + 2 * pad,) * self.ndim)
        full[self.lattice_index(pad)] = values
        return full

    def stencil_neighbours(self) -> list:
        """Per stencil step, in ascending lattice offset ((-m, -1, +1, +m)
        in 2D, (-1, +1) in 1D), (interior ordinal, boundary ordinal) of
        each interior node's neighbour, -1 where it is not of that kind.

        Interior nodes never sit on the lattice edge, so a step never
        leaves the lattice or wraps a row, and it lands on an interior or
        a boundary node, never an exterior one.
        """
        m = self.n + 2
        steps = (-1, 1) if self.ndim == 1 else (-m, -1, 1, m)
        return [(self._int_of_lat[t], self._bdy_of_lat[t])
                for t in (self.interior_lattice + s for s in steps)]

    def boundary_graph(self) -> sp.csr_matrix:
        """Adjacency among boundary nodes (8-neighbourhood on the lattice)."""
        nb = self.n_boundary
        if self.ndim == 1:
            return sp.csr_matrix((nb, nb))
        m = self.n + 2
        bi, bj = np.divmod(self.boundary_lattice, m)
        rows, cols = [], []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == dj == 0:
                    continue
                i2, j2 = bi + di, bj + dj
                ok = (i2 >= 0) & (i2 < m) & (j2 >= 0) & (j2 < m)
                o = self._bdy_of_lat[i2[ok] * m + j2[ok]]
                rows.append(np.flatnonzero(ok)[o >= 0])
                cols.append(o[o >= 0])
        rows = np.concatenate(rows)
        return sp.csr_matrix((np.ones(rows.size), (rows, np.concatenate(cols))),
                             shape=(nb, nb))


@dataclass
class Field:
    """Values on the interior nodes of a grid, optional boundary trace."""

    grid: WeightedGrid
    values: np.ndarray
    boundary_values: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_interior,):
            raise GridMismatch(
                f"field has {self.values.shape} values, grid has {self.grid.n_interior} interior nodes"
            )
        if self.boundary_values is not None:
            self.boundary_values = np.asarray(self.boundary_values, dtype=float)
            if self.boundary_values.shape != (self.grid.n_boundary,):
                raise GridMismatch("boundary trace has wrong length")


def build_grid(shape: str, n: int) -> WeightedGrid:
    """Construct the lattice for one of the supported shapes.

    Raises TooCoarse for n < 3 (the one-sided second-order boundary
    differences need two interior layers plus slack).
    """
    if shape not in SHAPES:
        raise ValueError(f"shape must be one of {SHAPES}, got {shape!r}")
    if n < 3:
        raise TooCoarse(f"need n >= 3 interior nodes per axis, got {n}")
    h = 1.0 / (n + 1)
    ndim = 1 if shape == "interval" else 2
    m = n + 2
    pos = np.indices((m,) * ndim).reshape(ndim, -1).T  # lattice order
    inside = ((pos >= 1) & (pos <= n)).all(axis=1)
    if shape == "disk":
        # |a h - 1/2|^2 summed < 1/4, in integers, so nodes on the circle stay out
        inside &= ((2 * pos - (n + 1)) ** 2).sum(axis=1) < (n + 1) ** 2
    # inside stays off the lattice edge, so no stencil step from it wraps
    near = np.zeros_like(inside)
    for s in m ** np.arange(ndim):
        near[s:] |= inside[:-s]
        near[:-s] |= inside[s:]
    int_lat = np.flatnonzero(inside)
    bdy_lat = np.flatnonzero(near & ~inside)
    bpos = pos[bdy_lat]
    if shape == "square":
        # edge by edge: (0,k), (n+1,k), (k,0), (k,n+1) for k = 1..n
        edge = (bpos[:, 0] == 0) | (bpos[:, 0] == n + 1)
        side = 2 * ~edge + (bpos.max(axis=1) == n + 1)
        order = np.argsort(4 * np.where(edge, bpos[:, 1], bpos[:, 0]) + side)
        bdy_lat, bpos = bdy_lat[order], bpos[order]

    ic = pos[int_lat] * h
    bc = bpos * h
    if shape == "disk":
        rho = 0.5 - np.hypot(ic[:, 0] - 0.5, ic[:, 1] - 0.5)
        rvec = bc - 0.5
        normal = rvec / np.hypot(rvec[:, 0], rvec[:, 1])[:, None]
    else:
        rho = functools.reduce(np.minimum, np.minimum(ic, 1.0 - ic).T)
        normal = (bpos == n + 1).astype(float) - (bpos == 0)
        if ndim == 1:
            bc[-1] = 1.0  # (n+1) h rounds below 1 for some n
    int_of_lat = np.full(m ** ndim, -1)
    int_of_lat[int_lat] = np.arange(int_lat.size)
    bdy_of_lat = np.full(int_of_lat.size, -1)
    bdy_of_lat[bdy_lat] = np.arange(bdy_lat.size)

    return WeightedGrid(
        shape=shape, n=n, h=h, ndim=ndim,
        interior_coords=ic, rho=rho, interior_lattice=int_lat,
        boundary_coords=bc, boundary_lattice=bdy_lat,
        boundary_inward=_inward_pairs(bpos, normal, int_of_lat, m),
        boundary_normal=normal,
        _int_of_lat=int_of_lat, _bdy_of_lat=bdy_of_lat,
    )


def _inward_pairs(bpos, normal, int_of_lat, m: int) -> np.ndarray:
    """Interior ordinals one and two stencil steps in from each boundary
    node, along the first direction whose two steps are both interior.

    Directions tried, in order: the octant-rounded inward normal, its
    dominant axis, then +x, -x, +y, -y.  A node no direction serves keeps
    (-1, -1).  The lookup is padded by two cells of -1, so no step needs
    a bounds check.
    """
    nb, ndim = bpos.shape
    lookup = np.full((m + 4,) * ndim, -1)
    lookup[(slice(2, -2),) * ndim] = int_of_lat.reshape((m,) * ndim)
    lookup = lookup.ravel()
    stride = (m + 4) ** np.arange(ndim - 1, -1, -1)
    at = (bpos + 2) @ stride
    u = -normal

    def offsets():
        yield (np.sign(u).astype(int) * (np.abs(u) > _OCT)) @ stride
        axis = np.argmax(np.abs(u), axis=1)
        yield np.sign(u[np.arange(nb), axis]).astype(int) * stride[axis]
        for s in stride:
            yield s
            yield -s

    inward = np.full((nb, 2), -1)
    todo = np.ones(nb, dtype=bool)
    for off in offsets():
        one, two = lookup[at + off], lookup[at + 2 * off]
        hit = todo & (one >= 0) & (two >= 0)
        inward[hit, 0], inward[hit, 1] = one[hit], two[hit]
        todo &= ~hit
        if not todo.any():
            break
    return inward


def integrate(f, grid: WeightedGrid, weight: str = "lebesgue") -> float:
    """Midpoint quadrature sum f_i w_i h^d over interior nodes."""
    vals = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
    if vals.shape != (grid.n_interior,):
        raise GridMismatch("integrand length does not match grid")
    return float(vals @ grid.weight_vector(weight))


def dump_field_csv(f: Field, path: str) -> None:
    """Write a field as CSV (header row carries shape and n for reload)."""
    g = f.grid
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shape", g.shape, "n", g.n])
        w.writerow(["index"] + [f"x{k}" for k in range(g.ndim)] + ["value"])
        rows = np.column_stack([np.arange(g.n_interior), g.interior_coords, f.values])
        np.savetxt(fh, rows, fmt=["%d"] + ["%.17g"] * (g.ndim + 1), delimiter=",",
                   newline="\r\n")


def load_field_csv(path: str) -> Field:
    """Read a field written by dump_field_csv.

    BadInput if the file is not one: a first line other than
    shape,<shape>,n,<n>, a value that is not a number, or a row index
    that is not an interior ordinal.
    """
    with open(path, newline="") as fh:
        head = next(csv.reader(fh), [])
        try:
            if len(head) != 4 or head[0] != "shape" or head[2] != "n":
                raise ValueError("first line is not shape,<shape>,n,<n>")
            grid = build_grid(head[1], int(head[3]))
            rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise BadInput(f"{path}: {exc}") from None
    nodes = rows[:, 0].astype(int)
    if np.any((nodes != rows[:, 0]) | (nodes < 0) | (nodes >= grid.n_interior)):
        raise BadInput(f"{path}: a row index is not in 0..{grid.n_interior - 1}")
    vals = np.zeros(grid.n_interior)
    vals[nodes] = rows[:, -1]
    return Field(grid, vals)
