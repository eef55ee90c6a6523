"""Nonnegative measures on grid nodes, and grid-independent measure specs.

An InteriorMeasure (resp. BoundaryMeasure) is a finite list of atoms
(node ordinal, mass) plus an optional density sampled at the interior
(resp. boundary) nodes.  Atoms convert to densities through the cell
measure h^d (h^(d-1) on the boundary); that convention keeps total
mass independent of resolution when a spec is re-instantiated on a
refined grid.  `load(ks)` is the right-hand side the measure puts into
A u = b: an interior density as it stands, boundary data through the
stencil's coupling.

MeasureSpec describes the same data in continuum coordinates (atom
locations, density callables) so refinement ladders can resample it;
atoms snap to the nearest node of the right kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import SupportError
from .grids import WeightedGrid


@dataclass
class _NodeMeasure:
    """Atoms (node ordinal, mass) plus an optional density on the nodes of
    one kind; subclasses set `kind` and the load the measure puts into
    A u = b."""

    grid: WeightedGrid
    atoms: Sequence[tuple[int, float]] = field(default_factory=list)
    density: Optional[np.ndarray] = None
    kind: ClassVar[str]

    def __post_init__(self):
        n_nodes = len(self.grid.coords(self.kind))
        for node, mass in self.atoms:
            if not (0 <= node < n_nodes):
                raise SupportError(
                    f"{self.kind} atom at node {node} outside 0..{n_nodes - 1}")
            if not np.isfinite(mass) or mass < 0:
                raise SupportError(
                    f"{self.kind} atom mass must be finite and >= 0, got {mass}")
        if self.density is not None:
            d = np.asarray(self.density, dtype=float)
            if d.shape != (n_nodes,):
                raise SupportError(f"{self.kind} density has wrong length")
            if not np.all(np.isfinite(d)) or np.any(d < 0):
                raise SupportError(f"{self.kind} density must be finite and >= 0")
            self.density = d

    @property
    def _cell(self) -> float:
        return (self.grid.cell_measure if self.kind == "interior"
                else self.grid.boundary_cell_measure)

    def density_vector(self) -> np.ndarray:
        """Total density (atoms spread over their cells)."""
        d = (np.zeros(len(self.grid.coords(self.kind))) if self.density is None
             else self.density.copy())
        for node, mass in self.atoms:
            d[node] += mass / self._cell
        return d

    def node_masses(self) -> np.ndarray:
        return self.density_vector() * self._cell

    @property
    def total_mass(self) -> float:
        return float(self.node_masses().sum())


class InteriorMeasure(_NodeMeasure):
    kind = "interior"

    def load(self, ks) -> np.ndarray:
        """Right-hand side of A u = b: the source density."""
        ks.grid.require_same(self.grid)
        return self.density_vector()


class BoundaryMeasure(_NodeMeasure):
    kind = "boundary"

    def load(self, ks) -> np.ndarray:
        """Right-hand side of A u = b: the density as Dirichlet data,
        through the stencil's boundary coupling."""
        ks.grid.require_same(self.grid)
        return ks.coupling @ self.density_vector()

    def truncated(self, level: float) -> "BoundaryMeasure":
        """Atoms kept, density capped at `level`."""
        d = None if self.density is None else np.minimum(self.density, level)
        return BoundaryMeasure(self.grid, atoms=list(self.atoms), density=d)


@dataclass(frozen=True)
class MeasureSpec:
    """Grid-independent measure description for refinement ladders.

    atoms: (coords, mass) with coords a point of the closed domain;
    density: callable (coords array (N, d), h) -> nonnegative values.
    """

    kind: str  # "interior" | "boundary"
    atoms: tuple = ()
    density: Optional[Callable] = None

    def instantiate(self, grid: WeightedGrid):
        coords = grid.coords(self.kind)
        cls = InteriorMeasure if self.kind == "interior" else BoundaryMeasure
        atoms = [(int(grid.nearest(loc, self.kind)[0]), float(mass))
                 for loc, mass in self.atoms]
        dens = None
        if self.density is not None:
            dens = np.asarray(self.density(coords, grid.h), dtype=float)
        return cls(grid, atoms=atoms, density=dens)
