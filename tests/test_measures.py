"""Measure containers, snapping, truncation."""

import numpy as np
import pytest

from expcap.errors import SupportError
from expcap.grids import build_grid
from expcap.measures import BoundaryMeasure, InteriorMeasure, MeasureSpec

G = build_grid("square", 8)


def test_interior_masses_add_up():
    mu = InteriorMeasure(G, atoms=[(3, 2.0), (3, 1.0), (10, 0.5)],
                         density=np.full(G.n_interior, 1.0))
    masses = mu.node_masses()
    assert masses[3] == pytest.approx(3.0 + G.cell_measure)
    assert mu.total_mass == pytest.approx(3.5 + G.n_interior * G.cell_measure)
    dv = mu.density_vector()
    assert dv[3] == pytest.approx(1.0 + 3.0 / G.cell_measure)


def test_boundary_density_units():
    mu = BoundaryMeasure(G, atoms=[(0, 2.0)], density=np.full(G.n_boundary, 0.5))
    d = mu.density_vector()
    assert d[0] == pytest.approx(0.5 + 2.0 / G.boundary_cell_measure)
    assert d[1] == 0.5
    assert mu.total_mass == pytest.approx(
        2.0 + 0.5 * G.n_boundary * G.boundary_cell_measure)


def test_validation_rejects_bad_input():
    with pytest.raises(SupportError):
        InteriorMeasure(G, atoms=[(G.n_interior, 1.0)])
    with pytest.raises(SupportError):
        InteriorMeasure(G, atoms=[(0, -1.0)])
    with pytest.raises(SupportError):
        BoundaryMeasure(G, density=np.full(G.n_boundary, -0.1))
    with pytest.raises(SupportError):
        InteriorMeasure(G, density=np.zeros(3))


def test_split_and_truncation():
    mu = BoundaryMeasure(G, atoms=[(5, 4.0)], density=np.full(G.n_boundary, 3.0))
    cut = mu.truncated(1.0)
    assert np.all(cut.density <= 1.0)
    assert cut.node_masses()[5] == pytest.approx(
        4.0 + 1.0 * G.boundary_cell_measure)
    # a level above the density is the identity on the regular part
    assert np.allclose(mu.truncated(10.0).density_vector(),
                       mu.density_vector())


def test_spec_snaps_atoms_to_nearest_node():
    spec = MeasureSpec("interior", atoms=(((0.5, 0.5), 2.0),))
    for n in (8, 16):
        g = build_grid("square", n)
        mu = spec.instantiate(g)
        assert isinstance(mu, InteriorMeasure)
        assert mu.total_mass == pytest.approx(2.0)
        node = int(np.flatnonzero(mu.node_masses() > 0)[0])
        d = np.abs(g.interior_coords[node] - 0.5).max()
        assert d <= g.h  # never further than one cell from the target


def test_spec_rejects_an_atom_of_another_dimension():
    spec = MeasureSpec("interior", atoms=(((0.5, 0.5), 2.0),))
    with pytest.raises(ValueError):
        spec.instantiate(build_grid("interval", 16))


def test_spec_density_callable_and_bad_kind():
    spec = MeasureSpec("boundary", density=lambda coords, h: coords[:, 0])
    mu = spec.instantiate(G)
    assert isinstance(mu, BoundaryMeasure)
    assert np.allclose(mu.density_vector(), G.boundary_coords[:, 0])
    with pytest.raises(ValueError):
        MeasureSpec("edge").instantiate(G)
