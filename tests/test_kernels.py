"""Green/Poisson operators against closed forms and discrete identities."""

import numpy as np
import pytest
import scipy.sparse as sp

import expcap.kernels as kernels

from expcap.errors import SupportError
from expcap.grids import _inward_pairs, build_grid, integrate
from expcap.kernels import (KernelSet, _coupling_matrix, _principal_eigen,
                            _stencil_matrix, assemble, green_column,
                            normal_derivative)


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
    z = ks_interval.zeta0
    assert np.abs(z - 0.5 * xs * (1.0 - xs)).max() < 1e-12
    # -Lap zeta0 = 1 with zero boundary values: no boundary data enters
    assert np.abs(ks_interval.lap @ z - 1.0).max() < 1e-12


def test_square_eigenvalue_matches_stencil_formula(ks32):
    # the five-point stencil diagonalises in products of sines, so the
    # lowest eigenvalue is (8/h^2) sin^2(pi h / 2) exactly
    h = ks32.grid.h
    expect = 8.0 / h ** 2 * np.sin(np.pi * h / 2.0) ** 2
    assert ks32.eigenvalue == pytest.approx(expect, rel=1e-10)
    rho_star, lam = ks32.rho_star, ks32.eigenvalue
    assert ks32.eig_iterations > 0
    assert rho_star.max() == pytest.approx(1.0, abs=1e-14)
    assert rho_star.min() > 0.0
    resid = ks32.lap @ rho_star - lam * rho_star
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
    H = ks16.solve(ks16.coupling @ gdata)
    assert H.max() <= gdata.max() + 1e-12
    assert H.min() >= gdata.min() - 1e-12
    const = ks16.solve(ks16.coupling @ np.full(ks16.grid.n_boundary, 1.7))
    assert np.abs(const - 1.7).max() < 1e-10


def test_poisson_columns_form_a_partition(ks16):
    # column b extends a unit atom at boundary node b
    grid = ks16.grid
    cols = ks16.solve(ks16.coupling.toarray() / grid.boundary_cell_measure)
    assert cols.shape == (grid.n_interior, grid.n_boundary)
    tot = cols.sum(axis=1) * grid.boundary_cell_measure
    assert np.abs(tot - 1.0).max() < 1e-10


def test_flux_closes_the_green_identity(ks16):
    # int f dx = - sum_b (df/dnu) ds for the potential of f, exactly,
    # when the flux is the Green-identity-consistent first-order one
    grid = ks16.grid
    f = np.exp(grid.interior_coords[:, 0])
    dnu = normal_derivative(ks16, ks16.solve(f), order=1)
    lhs = integrate(f, grid)
    assert -float(dnu.sum()) * grid.boundary_cell_measure == pytest.approx(
        lhs, rel=1e-12)
    assert dnu.max() <= 1e-12  # outward derivative of a positive potential


def test_cached_operators_are_the_rebuilt_ones(ks16):
    BT = ks16.coupling_transpose
    assert ks16.coupling_transpose is BT and BT.format == "csr"
    assert (BT != ks16.coupling.T).nnz == 0
    assert ks16.stencil_graph is ks16.stencil_graph
    assert (ks16.stencil_graph != abs(ks16.lap)).nnz == 0


def test_interval_normal_derivative_exact_on_quadratics(ks_interval):
    # the one-sided second-order difference is exact on the torsion field
    z = ks_interval.zeta0
    dnu = normal_derivative(ks_interval, z, order=2)
    assert np.allclose(dnu, -0.5, atol=1e-12)
    with pytest.raises(ValueError):
        normal_derivative(ks_interval, z, order=3)


@pytest.mark.parametrize("order", [1, 2])
def test_stacked_normal_derivative_is_the_per_field_one(ks16, ks_disk, ks_interval,
                                                         rng, order):
    for ks in (ks16, ks_disk, ks_interval):
        grid = ks.grid
        Z = rng.standard_normal((grid.n_interior, 3))
        stacked = normal_derivative(ks, Z, order=order)
        assert stacked.shape == (grid.n_boundary, 3)
        for j in range(3):
            one = normal_derivative(ks, Z[:, j], order=order)
            assert np.array_equal(stacked[:, j], one)


def test_factor_shifted_keeps_the_fill_of_a(ks16, ks32, ks_disk, ks_interval, rng,
                                            monkeypatch):
    # A + diag(d) in A's column order: diagonal pivots, A's fill, and the
    # solve maps back to the original node order
    factors = []
    splu = kernels.spla.splu
    monkeypatch.setattr(kernels.spla, "splu",
                        lambda *a, **kw: factors.append(splu(*a, **kw)) or factors[-1])
    for ks in (ks16, ks32, ks_disk, ks_interval):
        n = ks.grid.n_interior
        d = rng.uniform(0.0, 50.0, n)
        rhs = rng.standard_normal(n)
        x = ks.factor_shifted(d)(rhs)
        J = ks.lap + sp.diags(d)
        assert np.abs(J @ x - rhs).max() <= 1e-12 * abs(J).sum(axis=1).max() * np.abs(x).max()
        lu = factors[-1]
        assert np.array_equal(lu.perm_r, np.arange(n))
        assert lu.L.nnz + lu.U.nnz == ks._lu.L.nnz + ks._lu.U.nnz


def test_green_columns_stack_the_single_columns(ks16, ks_disk, ks_interval, rng):
    for ks in (ks16, ks_disk, ks_interval):
        ni = ks.grid.n_interior
        nodes = rng.choice(ni, size=5, replace=False)
        cols = green_column(ks, nodes)
        assert cols.shape == (ni, 5)
        for k, node in enumerate(nodes):
            one = green_column(ks, node)
            assert one.shape == (ni,)
            assert np.abs(cols[:, k] - one).max() <= 1e-14 * np.abs(one).max()


def test_green_column_refuses_nodes_outside_the_grid(ks_interval, ks16):
    # -1 once read the last node's column and Ni raised a bare IndexError
    for ks in (ks_interval, ks16):
        ni = ks.grid.n_interior
        for nodes in (-1, ni, np.array([0, ni]), np.array([[1, -2]])):
            with pytest.raises(SupportError, match=f"outside 0..{ni - 1}"):
                green_column(ks, nodes)


def test_interval_factors_in_natural_order_and_2d_grids_in_permc_spec(monkeypatch):
    # a path's tridiagonal A has no fill in its own order, so the interval
    # pays for no ordering: the factor's column order is the identity and
    # L + U holds nnz(A) + n entries, as minimum degree finds
    specs = []
    lu_factor = kernels._lu_factor
    monkeypatch.setattr(kernels, "_lu_factor",
                        lambda M, spec: specs.append(spec) or lu_factor(M, spec))
    for shape, n in (("interval", 3), ("interval", 64), ("interval", 255),
                     ("square", 8), ("disk", 12)):
        ks = assemble(build_grid(shape, n))
        if shape != "interval":
            assert specs.pop() == kernels.PERMC_SPEC
            continue
        assert specs.pop() == "NATURAL"
        assert np.array_equal(ks._lu.perm_c, np.arange(n))
        mmd = lu_factor(ks.lap.tocsc(), kernels.PERMC_SPEC)
        assert ks._lu.L.nnz + ks._lu.U.nnz == ks.lap.nnz + n
        assert mmd.L.nnz + mmd.U.nnz == ks.lap.nnz + n


def test_solve_round_trip(ks16, rng):
    v = rng.standard_normal(ks16.grid.n_interior)
    assert np.abs(ks16.solve(ks16.lap @ v) - v).max() < 1e-9


@pytest.mark.parametrize("shape", ["interval", "square", "disk"])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_assembly_matches_a_dense_stencil(shape, n):
    # reference: the (2d+1)-point stencil built densely from lattice
    # coordinates; A couples interior neighbours, B interior-boundary ones
    grid = build_grid(shape, n)
    A, B = _stencil_matrix(grid), _coupling_matrix(grid)
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


def test_eigenpair_waits_for_its_first_read(monkeypatch):
    solves = []
    orig = KernelSet.solve

    def counting(self, rhs):
        solves.append(np.shape(rhs))
        return orig(self, rhs)

    monkeypatch.setattr(KernelSet, "solve", counting)
    grid = build_grid("square", 24)
    ks = assemble(grid)
    # assembly solves nothing; the first read of zeta0 solves once
    assert ks.eig_iterations == 0
    assert solves == []
    zeta0 = ks.zeta0
    assert solves == [(grid.n_interior,)]
    assert ks.zeta0 is zeta0
    assert np.array_equal(zeta0, assemble(grid).solve(np.ones(grid.n_interior)))
    ref_rho, ref_lam, ref_iters = _principal_eigen(assemble(grid))
    del solves[:]
    rho_star = ks.rho_star
    assert np.array_equal(rho_star, ref_rho)
    assert ks.eigenvalue == ref_lam
    assert ks.eig_iterations == ref_iters > 0
    assert len(solves) == ref_iters
    # later reads of either half come from the cache
    assert ks.rho_star is rho_star
    assert ks.eigenvalue == ref_lam
    assert len(solves) == ref_iters


def test_a_factor_stores_exactly_its_fill(ks16):
    # with SuperLU's supernode relaxation the factor held 7,884 entries,
    # explicit zeros included
    assert ks16._lu.nnz == 4192


def test_every_factor_uses_the_module_superlu_settings(ks16, monkeypatch):
    from expcap.experiments import pinned_harmonic_fill
    from expcap.measures import InteriorMeasure
    from expcap.solver import solve_interior

    seen = []
    splu = kernels.spla.splu

    def spy(*a, **kw):
        seen.append((kw["relax"], kw["panel_size"]))
        return splu(*a, **kw)

    monkeypatch.setattr(kernels.spla, "splu", spy)
    ks = assemble(ks16.grid)
    assert len(seen) == 1
    n = ks.grid.n_interior
    solve_interior(InteriorMeasure(ks.grid, density=np.full(n, 50.0)), ks)
    assert len(seen) > 1
    fixed = np.zeros(n)
    fixed[ks.grid.nearest((0.5, 0.5))] = 1.0
    pinned_harmonic_fill(ks, fixed, np.flatnonzero(fixed == 0.0))
    assert len(seen) > 2
    assert set(seen) == {(kernels.SUPERNODE_RELAX, kernels.PANEL_SIZE)}


@pytest.mark.parametrize("fixture", ["ks32", "ks_disk"])
def test_factor_shifted_agrees_with_a_dense_solve(fixture, request, rng):
    ks = request.getfixturevalue(fixture)
    n = ks.grid.n_interior
    d = rng.uniform(0.0, 50.0, n)
    free = np.flatnonzero(rng.uniform(size=n) < 0.7)
    A = ks.lap.toarray() + np.diag(d)
    for nodes, J in ((None, A), (free, A[np.ix_(free, free)])):
        rhs = rng.standard_normal((J.shape[0], 10))
        exact = np.linalg.solve(J, rhs)
        x = ks.factor_shifted(d, nodes)(rhs)
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("shape,n", [("square", 12), ("disk", 15), ("interval", 20)])
def test_coupling_and_inward_pairs_wait_for_their_first_read(shape, n):
    grid = build_grid(shape, n)
    ks = assemble(grid)
    assert "coupling" not in vars(ks)
    assert "boundary_inward" not in vars(grid)
    B = _coupling_matrix(build_grid(shape, n))
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ks.coupling, attr), getattr(B, attr))
    assert ks.coupling is ks.coupling
    bpos = np.rint(grid.boundary_coords / grid.h).astype(int)
    eager = _inward_pairs(bpos, grid.boundary_normal, grid._int_of_lat, n + 2)
    assert np.array_equal(grid.boundary_inward, eager)
    assert grid.boundary_inward is grid.boundary_inward


def _same_csc(M, ref):
    return (M.format == ref.format == "csc" and M.shape == ref.shape
            and all(np.array_equal(getattr(M, a), getattr(ref, a))
                    for a in ("data", "indices", "indptr")))


def test_superlu_reads_the_matrices_a_sparse_sum_would_build(ks16, ks_disk, ks_interval,
                                                            rng, monkeypatch):
    # A goes to SuperLU as its CSC form, and a shifted matrix written in
    # place on A's permuted pattern carries the entries, indices and
    # pointers of (A_perm + diag(d)).tocsc(), on all nodes and on a block
    handed = []
    lu_factor = kernels._lu_factor
    monkeypatch.setattr(kernels, "_lu_factor",
                        lambda M, spec: handed.append(M) or lu_factor(M, spec))
    for ks in (ks16, ks_disk, ks_interval):
        fresh = assemble(ks.grid)
        assert _same_csc(handed.pop(), fresh.lap.tocsc())
        n = ks.grid.n_interior
        d = rng.uniform(0.0, 50.0, n) * (rng.uniform(size=n) < 0.8)
        order = np.argsort(ks._lu.perm_c)
        Ap = ks.lap[order][:, order]
        ks.factor_shifted(d)
        assert _same_csc(handed.pop(), (Ap + sp.diags(d[order])).tocsc())
        free = np.flatnonzero(rng.uniform(size=n) < 0.7)
        pos = ks._lu.perm_c[free]
        sel = np.sort(pos)
        ks.factor_shifted(d, free)
        ref = (Ap[sel][:, sel] + sp.diags(d[free][np.argsort(pos)])).tocsc()
        assert _same_csc(handed.pop(), ref)
