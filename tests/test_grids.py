"""Grid construction, quadrature, and field containers."""

import numpy as np
import pytest

from expcap.errors import GridMismatch
from expcap.grids import (Field, _inward_pairs, build_grid, dump_field_csv,
                          integrate, load_field_csv)
from expcap.kernels import assemble


def test_square_counts_and_spacing():
    g = build_grid("square", 16)
    assert g.ndim == 2
    assert g.h == pytest.approx(1.0 / 17.0, rel=1e-15)
    assert g.n_interior == 256
    assert g.n_boundary == 64
    assert g.cell_measure == pytest.approx(g.h ** 2)
    assert g.boundary_cell_measure == pytest.approx(g.h)


def test_interval_counts_and_spacing():
    g = build_grid("interval", 33)
    assert g.ndim == 1
    assert g.h == pytest.approx(1.0 / 34.0, rel=1e-15)
    assert g.n_interior == 33
    assert g.n_boundary == 2
    assert g.boundary_cell_measure == 1.0


def test_square_rho_is_distance_to_the_boundary():
    g = build_grid("square", 16)
    x, y = g.interior_coords[:, 0], g.interior_coords[:, 1]
    expect = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
    assert np.abs(g.rho - expect).max() < 1e-14
    assert g.rho.min() == pytest.approx(g.h)


def test_disk_geometry():
    g = build_grid("disk", 24)
    r = np.sqrt(np.sum((g.interior_coords - 0.5) ** 2, axis=1))
    assert r.max() < 0.5
    assert np.abs(g.rho - (0.5 - r)).max() < 1e-14
    assert np.allclose(np.linalg.norm(g.boundary_normal, axis=1), 1.0)
    # every boundary node is stencil-adjacent to an interior node
    assert (assemble(g).coupling.getnnz(axis=0) >= 1).all()


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        build_grid("torus", 16)


def test_integrate_closed_forms():
    g = build_grid("square", 32)
    ones = np.ones(g.n_interior)
    # the quadrature covers exactly the n^2 interior cells
    assert integrate(ones, g) == pytest.approx((32.0 * g.h) ** 2, rel=1e-14)
    x = g.interior_coords[:, 0]
    assert integrate(x, g) == pytest.approx(0.5 * integrate(ones, g), abs=2 * g.h)
    assert integrate(ones, g, weight="rho") < integrate(ones, g)


def test_weight_vector_validation():
    g = build_grid("square", 8)
    assert g.weight_vector("lebesgue").sum() == pytest.approx(64 * g.h ** 2)
    with pytest.raises(ValueError):
        g.weight_vector("volume")


def test_require_same():
    a = build_grid("square", 8)
    b = build_grid("square", 12)
    c = build_grid("interval", 8)
    a.require_same(build_grid("square", 8))
    with pytest.raises(GridMismatch):
        a.require_same(b)
    with pytest.raises(GridMismatch):
        a.require_same(c)


def test_field_validation():
    g = build_grid("square", 8)
    vals = np.zeros(g.n_interior)
    f = Field(g, vals)
    assert f.boundary_values is None
    with pytest.raises(GridMismatch):
        Field(g, np.zeros(5))
    with pytest.raises(GridMismatch):
        Field(g, vals, boundary_values=np.zeros(3))


def test_csv_roundtrip(tmp_path, rng):
    g = build_grid("square", 8)
    f = Field(g, rng.standard_normal(g.n_interior),
              rng.standard_normal(g.n_boundary))
    path = str(tmp_path / "field.csv")
    dump_field_csv(f, path)
    back = load_field_csv(path)
    g.require_same(back.grid)
    assert np.abs(back.values - f.values).max() < 1e-12
    # the CSV format persists interior values only
    assert back.boundary_values is None


@pytest.mark.parametrize("n", [97, 195])
def test_disk_interior_stays_off_the_lattice_edge(n):
    # (n+1) h rounds below 1 at these n, so the far lattice edge falls
    # inside the circle; the inner-block rule keeps that edge out of the interior
    g = build_grid("disk", n)
    for axis in g.lattice_index():
        assert axis.min() >= 1 and axis.max() <= n
    ks = assemble(g)
    ones = ks.solve(ks.coupling @ np.ones(g.n_boundary))
    assert np.abs(ones - 1.0).max() < 1e-11


@pytest.mark.parametrize("n", [33, 67, 169, 373, 393])
def test_disk_nodes_on_the_circle_are_not_interior(n):
    # a lattice node of these grids lies exactly on the circle; a float
    # distance test rounds it inside, with rho of order 1e-16
    g = build_grid("disk", n)
    assert g.rho.min() > g.h ** 2 / 4


def test_square_boundary_runs_edge_by_edge():
    n, m = 4, 6
    edge_by_edge = [(i, j) for k in range(1, n + 1)
                    for i, j in ((0, k), (n + 1, k), (k, 0), (k, n + 1))]
    assert build_grid("square", n).boundary_lattice.tolist() == [
        i * m + j for i, j in edge_by_edge]


_OCT = np.sin(np.pi / 8.0)


def _reference_inward(bpos, normal, ordinal):
    """Per-node inward search: the first of the octant-rounded inward
    normal, its dominant axis, +x, -x, +y, -y whose one- and two-step
    lattice nodes are both interior (ordinal >= 0); (-1, -1) if none."""
    m = ordinal.shape[0]
    out = []
    for (bi, bj), (u0, u1) in zip(bpos, -normal):
        octant = (int(np.sign(u0)) if abs(u0) > _OCT else 0,
                  int(np.sign(u1)) if abs(u1) > _OCT else 0)
        dominant = (int(np.sign(u0)), 0) if abs(u0) >= abs(u1) else (0, int(np.sign(u1)))
        picks = [-1, -1]
        for di, dj in (octant, dominant, (1, 0), (-1, 0), (0, 1), (0, -1)):
            steps = [(bi + s * di, bj + s * dj) for s in (1, 2)]
            if (di, dj) != (0, 0) and all(0 <= i < m and 0 <= j < m and ordinal[i, j] >= 0
                                          for i, j in steps):
                picks = [int(ordinal[i, j]) for i, j in steps]
                break
        out.append(picks)
    return np.array(out, dtype=int).reshape(-1, 2)


def test_disk_inward_pairs_match_a_per_node_search():
    for n in range(3, 41):
        g = build_grid("disk", n)
        ordinal = np.rint(g.to_lattice(np.arange(1.0, g.n_interior + 1))).astype(int) - 1
        bpos = np.column_stack(np.divmod(g.boundary_lattice, n + 2))
        assert np.array_equal(g.boundary_inward,
                              _reference_inward(bpos, g.boundary_normal, ordinal))


def test_inward_search_falls_back_in_order(rng):
    # on real grids the octant direction always serves; random masks and
    # directions reach every fallback and the (-1, -1) case
    m = 12
    for _ in range(20):
        inside = rng.random((m, m)) < 0.6
        ordinal = np.where(inside, np.cumsum(inside).reshape(m, m) - 1, -1)
        bpos = np.argwhere(~inside)
        angle = rng.uniform(0.0, 2.0 * np.pi, len(bpos))
        normal = np.column_stack([np.cos(angle), np.sin(angle)])
        assert np.array_equal(_inward_pairs(bpos, normal, ordinal.ravel(), m),
                              _reference_inward(bpos, normal, ordinal))


def test_nearest_matches_a_stable_argsort_on_exact_ties():
    # the centre of an even-n square is equidistant from four nodes, and
    # the rings around it tie in fours and eights
    for n in (8, 16):
        grid = build_grid("square", n)
        d2 = np.sum((grid.interior_coords - 0.5) ** 2, axis=1)
        for count in range(1, 10):
            want = np.sort(np.argsort(d2, kind="stable")[:count])
            assert np.array_equal(grid.nearest((0.5, 0.5), count=count), want)
