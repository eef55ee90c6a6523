"""Monotone semilinear solver, truncation ladder, residual screens."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import expcap.experiments as experiments
import expcap.kernels as kernels
import expcap.solver as solver
from conftest import cached_kernels
from expcap import errors
from expcap.errors import NoConvergence, NotAdmissible
from expcap.grids import Field, build_grid
from expcap.kernels import assemble, normal_derivative
from expcap.measures import BoundaryMeasure, InteriorMeasure, MeasureSpec
from expcap.solver import (admissibility_test, default_test_basis,
                           keller_osserman_diagnostic, solve_boundary,
                           solve_interior, truncation_scheme, weak_residual)
from expcap.experiments import target_nodes


def test_zero_data_gives_zero_solution(ks16):
    rep = solve_interior(InteriorMeasure(ks16.grid), ks16)
    assert np.abs(rep.u.values).max() == 0.0
    assert rep.monotone and rep.supersolution


def test_interior_solve_is_stationary(ks16, rng):
    # equation residual at the reported solution, checked directly
    grid = ks16.grid
    b = rng.uniform(0.0, 5.0, grid.n_interior)
    rep = solve_interior(InteriorMeasure(grid, density=b), ks16)
    u = rep.u.values
    resid = ks16.lap @ u + np.expm1(u) - b
    assert np.abs(resid).max() < 1e-10 * max(1.0, np.abs(b).max())
    assert np.all(u >= 0.0)
    assert rep.absorption_dx >= 0.0
    assert rep.absorption_rho <= rep.absorption_dx


def test_boundary_solve_sits_below_the_harmonic_extension(ks16):
    grid = ks16.grid
    mu = BoundaryMeasure(grid, density=np.full(grid.n_boundary, 3.0))
    rep = solve_boundary(mu, ks16)
    lin = ks16.solve(ks16.coupling @ mu.density_vector())
    # absorption only pulls the profile down
    assert np.all(rep.u.values <= lin + 1e-12)
    assert np.all(rep.u.values >= 0.0)
    assert rep.supersolution
    # constant trace g enters the rhs as g/h^2; corner nodes see two edges
    assert rep.data_max == pytest.approx(2 * 3.0 / grid.h**2)


def test_truncation_ladder_structure(ks32):
    grid = ks32.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    specs = [
        BoundaryMeasure(grid, atoms=[(bm, 3.0)]),
        BoundaryMeasure(grid, density=np.full(grid.n_boundary, 2.0)),
        BoundaryMeasure(grid, atoms=[(bm, 1.0)],
                        density=np.full(grid.n_boundary, 1.0)),
    ]
    for mu in specs:
        rep = truncation_scheme(mu, ks32)
        assert rep.flux_constant > 0.0
        assert rep.monotone
        # masses climb the ladder and never exceed the total
        masses = [lv.mass for lv in rep.levels]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(rep.total_mass)
        for lv in rep.levels:
            assert lv.min_gain >= -1e-12
            assert lv.bound_lhs <= lv.bound_rhs + 1e-12
        assert rep.saturated
        direct = solve_boundary(mu, ks32)
        assert np.abs(rep.final.u.values - direct.u.values).max() < 1e-10


def test_keller_osserman_diagnostic_is_uniformly_bounded(ks32):
    grid = ks32.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    ds = []
    for c in (2.0, 8.0):
        rep = solve_boundary(BoundaryMeasure(grid, atoms=[(bm, c)]), ks32)
        ds.append(keller_osserman_diagnostic(rep.u))
    assert ds[0] < ds[1] < 8.0


def test_weak_residual_interior_machine_precision(ks16, rng):
    grid = ks16.grid
    mu = InteriorMeasure(grid, density=rng.uniform(0.0, 3.0, grid.n_interior))
    rep = solve_interior(mu, ks16)
    basis = default_test_basis(ks16)
    assert len(basis) == 10
    assert all(np.all(z.boundary_values == 0.0) for z in basis)
    maxR, _ = weak_residual(rep.u, mu, ks16, basis)
    assert maxR < 1e-10


def test_weak_residual_boundary_flux_orders(ks16):
    grid = ks16.grid
    mu = BoundaryMeasure(grid, density=np.full(grid.n_boundary, 2.0))
    rep = solve_boundary(mu, ks16)
    basis = default_test_basis(ks16)
    exact, _ = weak_residual(rep.u, mu, ks16, basis, flux_order=1)
    onesided, _ = weak_residual(rep.u, mu, ks16, basis, flux_order=2)
    assert exact < 1e-10          # Green-identity flux closes the books
    assert onesided > 10.0 * exact  # the O(h) flux does not
    bad = Field(grid, np.zeros(grid.n_interior),
                np.ones(grid.n_boundary))
    with pytest.raises(errors.TestNotAdmissible):
        weak_residual(rep.u, mu, ks16, [bad])


def _weak_residual_per_test(u, mu, ks, tests, flux_order):
    """One test at a time: the loop weak_residual stacks."""
    out = []
    for zeta in tests:
        r = ks.grid.cell_measure * float(u.values @ (ks.lap @ zeta.values)
                                         + np.expm1(u.values) @ zeta.values)
        if isinstance(mu, BoundaryMeasure):
            r += float(normal_derivative(ks, zeta, order=flux_order) @ mu.node_masses())
        else:
            r -= float(zeta.values @ mu.node_masses())
        out.append(r)
    return np.array(out)


@pytest.mark.parametrize("flux_order", [1, 2])
def test_stacked_weak_residual_matches_the_per_test_loop(ks16, ks_disk, ks_interval,
                                                          rng, flux_order):
    # stacking changes the summation order only, so the two agree to rounding
    for ks in (ks16, ks_disk, ks_interval):
        grid = ks.grid
        basis = default_test_basis(ks)
        u = Field(grid, rng.uniform(0.0, 3.0, grid.n_interior))
        for mu in (BoundaryMeasure(grid, atoms=[(0, 1.5)],
                                   density=rng.uniform(0.0, 2.0, grid.n_boundary)),
                   InteriorMeasure(grid, density=rng.uniform(0.0, 2.0, grid.n_interior))):
            ref = _weak_residual_per_test(u, mu, ks, basis, flux_order)
            top, out = weak_residual(u, mu, ks, basis, flux_order=flux_order)
            tol = 64 * np.finfo(float).eps * max(1.0, float(np.abs(ref).max()))
            assert np.abs(out - ref).max() <= tol
            assert top == float(np.abs(out).max())


def _test_basis_per_field(ks):
    """One field at a time: the loop default_test_basis broadcasts."""
    grid = ks.grid
    x = grid.interior_coords[:, 0]
    if grid.shape == "interval":
        return [x * (1.0 - x) * np.cos(np.pi * j * x) for j in range(10)]
    pairs = sorted(((i, j) for i in range(10) for j in range(10)),
                   key=lambda p: (p[0] ** 2 + p[1] ** 2, p))[:10]
    y = grid.interior_coords[:, 1]
    out = []
    for i, j in pairs:
        vals = np.cos(np.pi * i * x) * np.cos(np.pi * j * y)
        if grid.shape == "disk":
            vals = ks.solve(vals)
            out.append(vals / np.abs(vals).max())
        else:
            out.append(x * (1.0 - x) * y * (1.0 - y) * vals)
    return out


def test_test_basis_matches_the_per_field_loop(ks32, ks_disk, ks_interval):
    # the same products on square and interval; the disk solves the
    # stack in one batch, which may round differently
    for ks, tol in ((ks32, 0.0), (ks_interval, 0.0),
                    (ks_disk, 16 * np.finfo(float).eps)):
        basis = default_test_basis(ks)
        ref = _test_basis_per_field(ks)
        assert len(basis) == len(ref) == 10
        for zeta, want in zip(basis, ref):
            assert np.abs(zeta.values - want).max() <= tol
            assert np.all(zeta.boundary_values == 0.0)


def test_admissibility_ladder_verdicts():
    spec_small = MeasureSpec("boundary", atoms=(((0.5, 0.0), 0.5),))
    spec_large = MeasureSpec("boundary", atoms=(((0.5, 0.0), 16.0),))
    ladder = [cached_kernels("square", n) for n in (8, 12, 16)]
    small = admissibility_test(spec_small, ladder)
    large = admissibility_test(spec_large, ladder)
    assert small.verdict == "Admissible"
    assert large.verdict == "DivergentTrend"
    assert small.slope < large.slope
    assert not small.overflowed
    assert [row[0] for row in small.table] == [8, 12, 16]
    with pytest.raises(ValueError):
        admissibility_test(spec_small, ladder[::2])


@pytest.mark.parametrize("kind", ["interior", "boundary"])
def test_solve_raises_when_newton_stalls(ks16, monkeypatch, kind):
    # a factorisation that has lost the Jacobian: every step is the same
    # small constant, so no step ever falls below the tolerance
    class Stalled:
        def solve(self, rhs):
            return np.full_like(rhs, 1e-3)

    monkeypatch.setattr(kernels.spla, "splu", lambda J, **kw: Stalled())
    grid = ks16.grid
    with pytest.raises(NoConvergence):
        if kind == "interior":
            solve_interior(InteriorMeasure(
                grid, density=np.ones(grid.n_interior)), ks16)
        else:
            solve_boundary(BoundaryMeasure(
                grid, density=np.ones(grid.n_boundary)), ks16)


def _bottom_atoms(ks, masses):
    grid = ks.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    return [BoundaryMeasure(grid, atoms=[(bm, c)]) for c in masses]


def test_newton_steps_do_not_grow_with_the_potential_height():
    # criterion 8's family: the linear potentials reach 47-378, and a
    # descent from them takes 40/86/180/368 steps
    ks = cached_kernels("square", 64)
    for mu in _bottom_atoms(ks, (2.0, 4.0, 8.0, 16.0)):
        rep = solve_boundary(mu, ks)
        assert rep.iterations <= 16
        assert rep.monotone and rep.supersolution


def test_overflow_guard_screens_the_clipped_start():
    # the mass-32 atom's linear potential reaches 756 > EXP_ARG_MAX, yet
    # the discrete problem has a solution of height about 16
    ks = cached_kernels("square", 64)
    mu, = _bottom_atoms(ks, (32.0,))
    assert ks.solve(mu.load(ks)).max() > solver.EXP_ARG_MAX
    rep = solve_boundary(mu, ks)
    assert rep.iterations <= 20
    assert rep.monotone and rep.supersolution
    assert rep.u.values.max() < 20.0


def test_overflow_guard_still_refuses_a_charged_hole(ks16):
    # the hole keeps its linear potential (about 731), so exp would overflow
    grid = ks16.grid
    mu = InteriorMeasure(grid, density=np.ones(grid.n_interior))
    K = target_nodes(grid, "interior", "center")
    with pytest.raises(NotAdmissible):
        experiments.punctured_solve(mu, ks16, K, charge=1200.0)


@pytest.mark.parametrize("hole", ["center", "cluster"])
@pytest.mark.parametrize("charge", [5.0, 20.0])
def test_punctured_start_is_a_supersolution(ks16, monkeypatch, hole, charge):
    # no constant is a supersolution on a charged hole, so the start must
    # leave the hole at its linear potential and clip only above it
    reports = []

    def spy(*args, **kw):
        reports.append(solver._semilinear_solve(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(experiments, "_semilinear_solve", spy)
    grid = ks16.grid
    mu = InteriorMeasure(grid, density=np.ones(grid.n_interior))
    K = target_nodes(grid, "interior", hole)
    assert K.size
    experiments.punctured_solve(mu, ks16, K, charge=charge)
    rep, = reports
    assert rep.monotone and rep.supersolution
    # the hole's Jacobian is reused across steps, and still certifies both
    assert rep.factorizations < rep.iterations


def _linear_start_newton(ks, b):
    """Plain monotone Newton from the linear potential, default LU ordering."""
    A = ks.lap.tocsc()
    u = spla.splu(A).solve(b)
    for _ in range(400):
        r = A @ u + np.expm1(u) - b
        delta = spla.splu((A + sp.diags(np.exp(u))).tocsc()).solve(-r)
        u = u + delta
        if np.abs(delta).max() < 1e-10:
            return u
    raise AssertionError("reference Newton did not converge")


def test_clipped_start_reaches_the_linear_start_solution(ks32):
    for mu in _bottom_atoms(ks32, (2.0, 4.0, 8.0, 16.0)):
        ref = _linear_start_newton(ks32, ks32.coupling @ mu.density_vector())
        u = solve_boundary(mu, ks32).u.values
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


def test_interior_density_factors_once():
    # the iterates of a smooth interior load stay within the reuse bound of
    # the first Jacobian; a factorisation per step made three
    ks = cached_kernels("square", 64)
    grid = ks.grid
    mu = InteriorMeasure(grid, density=np.full(grid.n_interior, 2.0))
    rep = solve_interior(mu, ks)
    assert rep.factorizations == 1
    assert rep.monotone and rep.supersolution
    ref = _linear_start_newton(ks, mu.load(ks))
    assert np.abs(rep.u.values - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("mass, newton_steps", [(2.0, 10), (16.0, 15), (32.0, 17)])
def test_lagged_jacobian_factors_no_more_than_newton(monkeypatch, mass, newton_steps):
    # criterion 8's family: a factorisation per step took `newton_steps`
    ks = cached_kernels("square", 64)
    mu, = _bottom_atoms(ks, (mass,))
    factored = _count_factorizations(monkeypatch)
    rep = solve_boundary(mu, ks)
    assert rep.factorizations == factored[0]
    assert rep.factorizations <= newton_steps
    assert rep.factorizations <= rep.iterations
    assert rep.monotone and rep.supersolution


def test_stale_factor_is_refreshed_and_stops_at_rounding(monkeypatch):
    # criterion 10's solves at a loose reuse bound: a stale factor reaches
    # the rounding plateau, where only a refresh on a step that does not
    # contract lets it stop, and the stop test at rounding lands on the
    # solution of the default bound (STEP_TOL alone leaves about 5e-12)
    for n in (33, 67, 135):
        ks = assemble(build_grid("square", n))
        grid = ks.grid
        solves = [
            (solve_boundary, BoundaryMeasure(grid, density=np.full(grid.n_boundary, 2.0))),
            (solve_interior, InteriorMeasure(grid, density=np.full(grid.n_interior, 2.0))),
        ]
        for solve, mu in solves:
            ref = solve(mu, ks).u.values
            with monkeypatch.context() as m:
                m.setattr(solver, "REUSE_TOL", 0.3)
                rep = solve(mu, ks)
            assert rep.monotone and rep.supersolution
            assert rep.factorizations < rep.iterations
            assert np.abs(rep.u.values - ref).max() <= 1e-13 * np.abs(ref).max()


def _criterion7_measures(grid):
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    nb = grid.n_boundary
    return [
        ("atom", BoundaryMeasure(grid, atoms=[(bm, 3.0)])),
        ("atom", BoundaryMeasure(grid, atoms=[(bm, 1.5), (bm + 7, 2.5)])),
        ("density", BoundaryMeasure(grid, density=np.full(nb, 2.0))),
        ("mixed", BoundaryMeasure(grid, atoms=[(bm, 1.0)], density=np.full(nb, 1.0))),
        ("atom", BoundaryMeasure(grid, atoms=[(bm, 8.0)])),
    ]


def _count_factorizations(monkeypatch):
    """One count per Jacobian factored; a Newton step may reuse an older one."""
    count = [0]
    orig = kernels.spla.splu

    def counting(*args, **kw):
        count[0] += 1
        return orig(*args, **kw)

    monkeypatch.setattr(kernels.spla, "splu", counting)
    return count


def test_truncation_ladder_runs_top_down(ks32, monkeypatch):
    # each level starts from the solution above it and must still land on
    # the solution an independent solve finds
    solutions, steps = [], []
    orig = solver._semilinear_solve

    def spy(*args, **kw):
        rep = orig(*args, **kw)
        solutions.append(rep.u.values)
        steps.append(rep.iterations)
        return rep

    monkeypatch.setattr(solver, "_semilinear_solve", spy)
    levels = [2.0 ** j for j in range(8)]
    criterion7_steps = 0
    for kind, mu in _criterion7_measures(ks32.grid):
        del solutions[:], steps[:]
        rep = truncation_scheme(mu, ks32)
        ladder_steps = sum(steps)
        ladder = list(solutions)
        assert [lv.level for lv in rep.levels] == levels
        assert all(lv.min_gain >= -1e-12 for lv in rep.levels)
        assert rep.monotone
        assert len(ladder) == len(levels)
        for k, u in zip(sorted(levels, reverse=True), ladder):
            ref = solve_boundary(mu.truncated(k), ks32).u.values
            assert np.abs(u - ref).max() <= 1e-13
        if kind == "atom":
            # every level carries the same data: one step each below the top
            assert ladder_steps <= rep.final.iterations + len(levels) - 1
        criterion7_steps += ladder_steps + solve_boundary(mu, ks32).iterations
    # with every level solved from scratch this path takes 360 steps
    assert criterion7_steps <= 130
