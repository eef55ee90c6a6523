"""Uniform lattices on the unit interval, unit square, and inscribed disk.

Conventions used throughout the package:

* the lattice has points a*h per axis, a = 0..n+1, with h = 1/(n+1);
  `n` counts interior nodes per axis on the interval and square;
* interior nodes carry fields and the quadrature weight h^d (midpoint
  rule), so the constant 1 on the square integrates to (n/(n+1))^2;
* boundary nodes carry Dirichlet data and the surface weight h^(d-1);
  square corners never enter any 5-point stencil and are dropped;
* the disk is the inscribed disk of the unit square (centre (1/2,1/2),
  radius 1/2) realised as a mask: interior nodes are lattice nodes
  strictly inside the circle, boundary nodes are the outside nodes
  stencil-adjacent to an interior one;
* rho is the distance to the boundary (exact formulas, not a solve):
  min(x, 1-x, ...) on interval/square, R - |x-c| on the disk;
* only this module knows which lattice cell holds which node: other
  modules read fields on the lattice through `WeightedGrid.to_lattice`
  (the zero extension) and `lattice_index`, and adjacency through
  `stencil_neighbours` and `boundary_graph`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch, TooCoarse

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
        """Per stencil step, (interior ordinal, boundary ordinal) of each
        interior node's neighbour, -1 where it is not of that kind.

        Interior nodes never sit on the lattice edge, so a step never
        leaves the lattice or wraps a row, and it lands on an interior or
        a boundary node, never an exterior one.
        """
        m = self.n + 2
        steps = (-1, 1) if self.ndim == 1 else (-m, m, -1, 1)
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

    def copy(self) -> "Field":
        bv = None if self.boundary_values is None else self.boundary_values.copy()
        return Field(self.grid, self.values.copy(), bv)


def _lat(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return i * (n + 2) + j


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

    if shape == "interval":
        return _build_interval(n, h)
    if shape == "square":
        return _build_square(n, h)
    return _build_disk(n, h)


def _build_interval(n: int, h: float) -> WeightedGrid:
    xs = (np.arange(1, n + 1)) * h
    rho = np.minimum(xs, 1.0 - xs)
    int_lat = np.arange(1, n + 1)
    bdy_lat = np.array([0, n + 1])
    int_of_lat = -np.ones(n + 2, dtype=int)
    int_of_lat[int_lat] = np.arange(n)
    bdy_of_lat = -np.ones(n + 2, dtype=int)
    bdy_of_lat[bdy_lat] = np.arange(2)

    inward = np.array([[0, 1], [n - 1, n - 2]], dtype=int)
    normal = np.array([[-1.0], [1.0]])

    return WeightedGrid(
        shape="interval", n=n, h=h, ndim=1,
        interior_coords=xs[:, None], rho=rho, interior_lattice=int_lat,
        boundary_coords=np.array([[0.0], [1.0]]), boundary_lattice=bdy_lat,
        boundary_inward=inward, boundary_normal=normal,
        _int_of_lat=int_of_lat, _bdy_of_lat=bdy_of_lat,
    )


def _build_square(n: int, h: float) -> WeightedGrid:
    m = n + 2
    ii, jj = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    coords = np.column_stack([ii * h, jj * h])
    rho = np.min(np.column_stack([coords, 1.0 - coords]), axis=1)
    int_lat = _lat(n, ii, jj)
    int_of_lat = -np.ones(m * m, dtype=int)
    int_of_lat[int_lat] = np.arange(int_lat.size)

    # four sides, corners excluded
    sides = []
    normals = []
    for k in range(1, n + 1):
        sides.append((0, k)); normals.append((-1.0, 0.0))
        sides.append((n + 1, k)); normals.append((1.0, 0.0))
        sides.append((k, 0)); normals.append((0.0, -1.0))
        sides.append((k, n + 1)); normals.append((0.0, 1.0))
    bi = np.array([s[0] for s in sides])
    bj = np.array([s[1] for s in sides])
    bdy_lat = _lat(n, bi, bj)
    bdy_of_lat = -np.ones(m * m, dtype=int)
    bdy_of_lat[bdy_lat] = np.arange(bdy_lat.size)
    bcoords = np.column_stack([bi * h, bj * h])
    normal = np.array(normals)

    di, dj = -normal.astype(int).T
    inward = np.column_stack([int_of_lat[_lat(n, bi + s * di, bj + s * dj)]
                              for s in (1, 2)])

    return WeightedGrid(
        shape="square", n=n, h=h, ndim=2,
        interior_coords=coords, rho=rho, interior_lattice=int_lat,
        boundary_coords=bcoords, boundary_lattice=bdy_lat,
        boundary_inward=inward, boundary_normal=normal,
        _int_of_lat=int_of_lat, _bdy_of_lat=bdy_of_lat,
    )


def _build_disk(n: int, h: float) -> WeightedGrid:
    m = n + 2
    centre = np.array([0.5, 0.5])
    radius = 0.5
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    xx = ii * h
    yy = jj * h
    dist = np.hypot(xx - centre[0], yy - centre[1])
    inside = dist < radius

    int_mask = inside
    if not int_mask.any():
        raise TooCoarse("no lattice node falls inside the disk")

    # boundary: outside nodes 4-adjacent to an inside node
    bdy_mask = np.zeros_like(inside)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        shifted = np.zeros_like(inside)
        src = inside[max(0, -di):m - max(0, di), max(0, -dj):m - max(0, dj)]
        shifted[max(0, di):m - max(0, -di), max(0, dj):m - max(0, -dj)] = src
        bdy_mask |= shifted
    bdy_mask &= ~inside

    int_idx = np.flatnonzero(int_mask.ravel())
    bdy_idx = np.flatnonzero(bdy_mask.ravel())
    int_of_lat = -np.ones(m * m, dtype=int)
    int_of_lat[int_idx] = np.arange(int_idx.size)
    bdy_of_lat = -np.ones(m * m, dtype=int)
    bdy_of_lat[bdy_idx] = np.arange(bdy_idx.size)

    ic = np.column_stack([xx.ravel()[int_idx], yy.ravel()[int_idx]])
    bc = np.column_stack([xx.ravel()[bdy_idx], yy.ravel()[bdy_idx]])
    rho = radius - np.hypot(ic[:, 0] - centre[0], ic[:, 1] - centre[1])

    # outward normal = radial direction from the centre
    rvec = bc - centre[None, :]
    rlen = np.hypot(rvec[:, 0], rvec[:, 1])
    normal = rvec / rlen[:, None]

    bi, bj = np.divmod(bdy_idx, m)
    inward = np.array([_disk_inward(normal[b], bi[b], bj[b], m, int_of_lat)
                       for b in range(bdy_idx.size)], dtype=int)

    return WeightedGrid(
        shape="disk", n=n, h=h, ndim=2,
        interior_coords=ic, rho=rho, interior_lattice=int_idx,
        boundary_coords=bc, boundary_lattice=bdy_idx,
        boundary_inward=inward, boundary_normal=normal,
        _int_of_lat=int_of_lat, _bdy_of_lat=bdy_of_lat,
    )


def _disk_inward(outward: np.ndarray, bi: int, bj: int, m: int, int_of_lat: np.ndarray):
    """Pick one- and two-step inward nodes along the stencil-rounded normal.

    Tries the octant-rounded inward direction first, then the dominant
    axis, then any axis with an interior neighbour.  Returns (-1, -1)
    only for pathological mask corners.
    """
    u = -outward
    cands = []
    d = (int(np.sign(u[0])) if abs(u[0]) > _OCT else 0,
         int(np.sign(u[1])) if abs(u[1]) > _OCT else 0)
    cands.append(d)
    dom = (int(np.sign(u[0])), 0) if abs(u[0]) >= abs(u[1]) else (0, int(np.sign(u[1])))
    cands.append(dom)
    cands.extend([(1, 0), (-1, 0), (0, 1), (0, -1)])
    for di, dj in cands:
        if di == 0 and dj == 0:
            continue
        ok = True
        picks = []
        for s in (1, 2):
            i2, j2 = bi + s * di, bj + s * dj
            if not (0 <= i2 < m and 0 <= j2 < m) or int_of_lat[i2 * m + j2] < 0:
                ok = False
                break
            picks.append(int(int_of_lat[i2 * m + j2]))
        if ok:
            return picks
    return [-1, -1]


def integrate(f, grid: WeightedGrid, weight: str = "lebesgue") -> float:
    """Midpoint quadrature sum f_i w_i h^d over interior nodes."""
    vals = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
    if vals.shape != (grid.n_interior,):
        raise GridMismatch("integrand length does not match grid")
    return float(vals @ grid.weight_vector(weight))


def dump_field_csv(f: Field, path: str) -> None:
    """Write a field as CSV (header row carries shape and n for reload)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shape", f.grid.shape, "n", f.grid.n])
        cols = ["index"] + [f"x{k}" for k in range(f.grid.ndim)] + ["value"]
        w.writerow(cols)
        for i in range(f.grid.n_interior):
            row = [i] + ["%.17g" % c for c in f.grid.interior_coords[i]] + ["%.17g" % f.values[i]]
            w.writerow(row)


def load_field_csv(path: str) -> Field:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        head = next(r)
        shape, n = head[1], int(head[3])
        next(r)  # column names
        grid = build_grid(shape, n)
        vals = np.zeros(grid.n_interior)
        for row in r:
            vals[int(row[0])] = float(row[-1])
    return Field(grid, vals)
