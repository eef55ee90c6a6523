"""Green/Poisson operators against closed forms and discrete identities."""

import numpy as np
import pytest

from expcap.grids import Field, build_grid, integrate
from expcap.kernels import (_assemble_matrices, assemble, green_column,
                            green_potential, harmonic_extension,
                            normal_derivative, poisson_column,
                            principal_eigen, solve_zeta0)


def test_interval_green_column_exact():
    for n in (17, 64):
        ks = assemble(build_grid("interval", n))
        xs = ks.grid.interior_coords[:, 0]
        j = n // 2
        y = xs[j]
        exact = np.where(xs <= y, xs * (1.0 - y), y * (1.0 - xs))
        assert np.abs(green_column(ks, j) - exact).max() < 1e-12


def test_interval_torsion_exact(ks_interval):
    xs = ks_interval.grid.interior_coords[:, 0]
    z = solve_zeta0(ks_interval)
    assert np.abs(z.values - 0.5 * xs * (1.0 - xs)).max() < 1e-12
    assert np.all(z.boundary_values == 0.0)


def test_square_eigenvalue_matches_stencil_formula(ks32):
    # the five-point stencil diagonalises in products of sines, so the
    # lowest eigenvalue is (8/h^2) sin^2(pi h / 2) exactly
    h = ks32.grid.h
    expect = 8.0 / h ** 2 * np.sin(np.pi * h / 2.0) ** 2
    assert ks32.eigenvalue == pytest.approx(expect, rel=1e-10)
    rho_star, lam = principal_eigen(ks32)
    assert lam == ks32.eigenvalue
    assert rho_star.values.max() == pytest.approx(1.0, abs=1e-14)
    assert rho_star.values.min() > 0.0
    resid = ks32.lap @ rho_star.values - lam * rho_star.values
    assert np.linalg.norm(resid) <= 1e-7 * lam


def test_green_symmetry_and_sign(ks16, rng):
    ni = ks16.grid.n_interior
    idx = [int(i) for i in rng.integers(0, ni, size=4)]
    cols = {i: green_column(ks16, i) for i in idx}
    for a in idx:
        for b in idx:
            assert cols[a][b] == pytest.approx(cols[b][a], rel=1e-11, abs=1e-13)
    assert all(c.min() >= 0.0 for c in cols.values())


def test_harmonic_extension_max_principle(ks16, rng):
    gdata = rng.uniform(-2.0, 3.0, ks16.grid.n_boundary)
    H = harmonic_extension(ks16, gdata)
    assert H.values.max() <= gdata.max() + 1e-12
    assert H.values.min() >= gdata.min() - 1e-12
    const = harmonic_extension(ks16, np.full(ks16.grid.n_boundary, 1.7))
    assert np.abs(const.values - 1.7).max() < 1e-10


def test_poisson_columns_form_a_partition(ks16):
    grid = ks16.grid
    tot = np.zeros(grid.n_interior)
    for b in range(grid.n_boundary):
        tot += poisson_column(ks16, b) * grid.boundary_cell_measure
    assert np.abs(tot - 1.0).max() < 1e-10


def test_flux_closes_the_green_identity(ks16):
    # int f dx = - sum_b (df/dnu) ds for the potential of f, exactly,
    # when the flux is the Green-identity-consistent first-order one
    grid = ks16.grid
    f = np.exp(grid.interior_coords[:, 0])
    u = green_potential(ks16, f)
    dnu = normal_derivative(ks16, u, order=1)
    lhs = integrate(f, grid)
    assert -float(dnu.sum()) * grid.boundary_cell_measure == pytest.approx(
        lhs, rel=1e-12)
    assert dnu.max() <= 1e-12  # outward derivative of a positive potential


def test_interval_normal_derivative_exact_on_quadratics(ks_interval):
    # the one-sided second-order difference is exact on the torsion field
    z = solve_zeta0(ks_interval)
    dnu = normal_derivative(ks_interval, z, order=2)
    assert np.allclose(dnu, -0.5, atol=1e-12)
    with pytest.raises(ValueError):
        normal_derivative(ks_interval, z, order=3)


def test_solve_round_trip(ks16, rng):
    v = rng.standard_normal(ks16.grid.n_interior)
    assert np.abs(ks16.solve(ks16.lap @ v) - v).max() < 1e-9


@pytest.mark.parametrize("shape", ["interval", "square", "disk"])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_assembly_matches_a_dense_stencil(shape, n):
    # reference: the (2d+1)-point stencil built densely from lattice
    # coordinates; A couples interior neighbours, B interior-boundary ones
    grid = build_grid(shape, n)
    A, B = _assemble_matrices(grid)
    h2 = grid.h ** 2
    ci = np.rint(grid.interior_coords / grid.h)
    cb = np.rint(grid.boundary_coords / grid.h)
    hops_ii = np.abs(ci[:, None, :] - ci[None, :, :]).sum(axis=2)
    hops_ib = np.abs(ci[:, None, :] - cb[None, :, :]).sum(axis=2)
    dense_a = np.where(hops_ii == 1, -1.0 / h2, 0.0)
    dense_a[np.diag_indices(grid.n_interior)] = 2.0 * grid.ndim / h2
    dense_b = np.where(hops_ib == 1, 1.0 / h2, 0.0)
    assert np.array_equal(A.toarray(), dense_a)
    assert np.array_equal(B.toarray(), dense_b)
    # every interior node sees 2d lattice neighbours, interior or boundary
    assert np.array_equal((hops_ii == 1).sum(axis=1) + (hops_ib == 1).sum(axis=1),
                          np.full(grid.n_interior, 2 * grid.ndim))


def test_disk_partition_and_torsion_sign(ks_disk):
    ones = ks_disk.solve(ks_disk.coupling @ np.ones(ks_disk.grid.n_boundary))
    assert np.abs(ones - 1.0).max() < 1e-10
    assert ks_disk.zeta0.min() > 0.0
