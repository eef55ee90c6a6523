"""Nonnegative measures on grid nodes, and grid-independent measure specs.

An InteriorMeasure (resp. BoundaryMeasure) is a finite list of atoms
(node ordinal, mass) plus an optional density sampled at the interior
(resp. boundary) nodes.  Atoms convert to densities through the cell
measure h^d (h^(d-1) on the boundary); that convention keeps total
mass independent of resolution when a spec is re-instantiated on a
refined grid.

MeasureSpec describes the same data in continuum coordinates (atom
locations, density callables) so refinement ladders can resample it;
atoms snap to the nearest node of the right kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotComparable, SupportError
from .grids import WeightedGrid


def _check_masses(atoms, n_nodes, what):
    for node, mass in atoms:
        if not (0 <= node < n_nodes):
            raise SupportError(f"{what} atom at node {node} outside 0..{n_nodes - 1}")
        if not np.isfinite(mass) or mass < 0:
            raise SupportError(f"{what} atom mass must be finite and >= 0, got {mass}")


def _check_density(density, n_nodes, what):
    if density is None:
        return None
    d = np.asarray(density, dtype=float)
    if d.shape != (n_nodes,):
        raise SupportError(f"{what} density has wrong length")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise SupportError(f"{what} density must be finite and >= 0")
    return d


@dataclass
class InteriorMeasure:
    grid: WeightedGrid
    atoms: Sequence[tuple[int, float]] = field(default_factory=list)
    density: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_masses(self.atoms, self.grid.n_interior, "interior")
        self.density = _check_density(self.density, self.grid.n_interior, "interior")

    def density_vector(self) -> np.ndarray:
        """Total density (atoms spread over their cells)."""
        d = np.zeros(self.grid.n_interior) if self.density is None else self.density.copy()
        for node, mass in self.atoms:
            d[node] += mass / self.grid.cell_measure
        return d

    def node_masses(self) -> np.ndarray:
        return self.density_vector() * self.grid.cell_measure

    @property
    def total_mass(self) -> float:
        return float(self.node_masses().sum())


@dataclass
class BoundaryMeasure:
    grid: WeightedGrid
    atoms: Sequence[tuple[int, float]] = field(default_factory=list)
    density: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_masses(self.atoms, self.grid.n_boundary, "boundary")
        self.density = _check_density(self.density, self.grid.n_boundary, "boundary")

    def dirichlet_data(self) -> np.ndarray:
        """Boundary density (mass per unit surface), atoms included."""
        d = np.zeros(self.grid.n_boundary) if self.density is None else self.density.copy()
        for node, mass in self.atoms:
            d[node] += mass / self.grid.boundary_cell_measure
        return d

    def node_masses(self) -> np.ndarray:
        return self.dirichlet_data() * self.grid.boundary_cell_measure

    @property
    def total_mass(self) -> float:
        return float(self.node_masses().sum())

    def split(self):
        """(singular part, truncatable part) as separate measures."""
        sing = BoundaryMeasure(self.grid, atoms=list(self.atoms))
        reg = BoundaryMeasure(self.grid, density=None if self.density is None
                              else self.density.copy())
        return sing, reg

    def truncated(self, level: float) -> "BoundaryMeasure":
        """Atoms kept, density capped at `level`."""
        d = None if self.density is None else np.minimum(self.density, level)
        return BoundaryMeasure(self.grid, atoms=list(self.atoms), density=d)


def compare_measures(mu1, mu2) -> bool:
    """Nodewise mu1 <= mu2; NotComparable if kinds or grids differ."""
    if type(mu1) is not type(mu2):
        raise NotComparable("measures live on different parts of the domain")
    mu1.grid.require_same(mu2.grid)
    m1, m2 = mu1.node_masses(), mu2.node_masses()
    return bool(np.all(m1 <= m2 + 1e-15 * (1.0 + m2.max(initial=0.0))))


@dataclass(frozen=True)
class MeasureSpec:
    """Grid-independent measure description for refinement ladders.

    atoms: (coords, mass) with coords a point of the closed domain;
    density: callable (coords array (N, d), h) -> nonnegative values.
    """

    kind: str  # "interior" | "boundary"
    atoms: tuple = ()
    density: Optional[Callable] = None
    name: str = ""

    def instantiate(self, grid: WeightedGrid):
        if self.kind == "interior":
            coords = grid.interior_coords
        elif self.kind == "boundary":
            coords = grid.boundary_coords
        else:
            raise ValueError(f"kind must be interior or boundary, got {self.kind!r}")
        atoms = [(int(grid.nearest(loc, self.kind)[0]), float(mass))
                 for loc, mass in self.atoms]
        dens = None
        if self.density is not None:
            dens = np.asarray(self.density(coords, grid.h), dtype=float)
        if self.kind == "interior":
            return InteriorMeasure(grid, atoms=atoms, density=dens)
        return BoundaryMeasure(grid, atoms=atoms, density=dens)
