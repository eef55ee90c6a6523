"""Monotone semilinear solver, truncation ladder, residual screens."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import expcap.experiments as experiments
import expcap.kernels as kernels
import expcap.solver as solver
from conftest import cached_kernels
from expcap.errors import GridMismatch, NoConvergence, NotAdmissible
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


def test_truncation_ladder_hands_its_factor_down(ks32, monkeypatch):
    # each level starts below the last factor of the level above, so that
    # factor still certifies its steps: a ladder whose levels carry the
    # same data factors only at the top, and one whose caps cut the data
    # still lands every level on its cold solve
    grid = ks32.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    nb = grid.n_boundary
    reports = []
    orig = solver._semilinear_solve
    monkeypatch.setattr(solver, "_semilinear_solve",
                        lambda *a, **kw: reports.append(orig(*a, **kw)) or reports[-1])
    factored = _count_factorizations(monkeypatch)
    same = BoundaryMeasure(grid, atoms=[(bm, 1.0)], density=np.full(nb, 1.0))
    cut = BoundaryMeasure(grid, atoms=[(bm, 1.0)], density=np.linspace(0.0, 6.0, nb))
    for mu in (same, cut):
        del reports[:]
        factored[0] = 0
        rep = truncation_scheme(mu, ks32)
        assert factored[0] == sum(r.factorizations for r in reports)
        if mu is same:
            assert factored[0] == rep.final.factorizations == 4
        assert len(reports) == len(solver.TRUNCATION_LEVELS)
        for k, r in zip(solver.TRUNCATION_LEVELS, reports):
            assert r.monotone and r.supersolution
            ref = orig(ks32, mu.truncated(k).load(ks32)).u.values
            assert np.abs(r.u.values - ref).max() <= 1e-13
    # the caps at 4, 2 and 1 cut the density, so those levels refactor
    assert factored[0] > rep.final.factorizations


def test_truncation_ladder_solves_an_atom_whose_potential_overflows():
    # the atom's linear potential passes EXP_ARG_MAX; the Newton start's
    # screen is the only one, and every level is solved as solve_boundary
    # solves the full data
    ks = cached_kernels("square", 64)
    grid = ks.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    mu = BoundaryMeasure(grid, atoms=[(bm, 32.0)], density=np.ones(grid.n_boundary))
    assert ks.solve(mu.load(ks)).max() > solver.EXP_ARG_MAX
    rep = truncation_scheme(mu, ks)
    assert rep.monotone and rep.saturated
    for lv in rep.levels:
        assert lv.bound_lhs <= lv.bound_rhs
    direct = solve_boundary(mu, ks)
    assert np.abs(rep.final.u.values - direct.u.values).max() <= 1e-10


def test_a_carry_whose_load_does_not_dominate_is_left_unused(ks32, monkeypatch):
    # a smaller load's solution is no supersolution, and an atom elsewhere
    # is not comparable: either carry must give the cold solve and its work
    grid = ks32.grid
    bm = int(target_nodes(grid, "boundary", "bottom-mid")[0])
    b = BoundaryMeasure(grid, atoms=[(bm, 8.0)]).load(ks32)
    factored = _count_factorizations(monkeypatch)
    cold = solver._semilinear_solve(ks32, b)
    assert cold.factorizations == factored[0]
    for other in (BoundaryMeasure(grid, atoms=[(bm, 2.0)]),
                  BoundaryMeasure(grid, atoms=[(bm + 7, 16.0)])):
        carry = []
        solver._semilinear_solve(ks32, other.load(ks32), carry=carry)
        assert not np.all(b <= carry[0])
        factored[0] = 0
        rep = solver._semilinear_solve(ks32, b, carry=carry)
        assert rep.factorizations == factored[0] == cold.factorizations
        assert rep.monotone and rep.supersolution
        assert np.abs(rep.u.values - cold.u.values).max() <= 1e-13 * np.abs(cold.u.values).max()
        # the carry now holds this solve
        assert carry[0] is b and np.array_equal(carry[1], rep.u.values)


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
    assert basis.shape == (grid.n_interior, 10)
    maxR, _ = weak_residual(rep.u, mu, ks16, basis)
    assert maxR < 1e-10


def test_weak_residual_refuses_a_basis_of_another_grid(ks16):
    # square n=9 has 81 interior nodes, the n=8 solve 64
    ks8 = cached_kernels("square", 8)
    mu = InteriorMeasure(ks8.grid, density=np.ones(ks8.grid.n_interior))
    rep = solve_interior(mu, ks8)
    with pytest.raises(GridMismatch):
        weak_residual(rep.u, mu, ks8, default_test_basis(cached_kernels("square", 9)))
    with pytest.raises(GridMismatch):
        weak_residual(rep.u, mu, ks8, np.ones(ks8.grid.n_interior))


def test_weak_residual_boundary_flux_orders(ks16):
    grid = ks16.grid
    mu = BoundaryMeasure(grid, density=np.full(grid.n_boundary, 2.0))
    rep = solve_boundary(mu, ks16)
    basis = default_test_basis(ks16)
    exact, _ = weak_residual(rep.u, mu, ks16, basis, flux_order=1)
    onesided, _ = weak_residual(rep.u, mu, ks16, basis, flux_order=2)
    assert exact < 1e-10          # Green-identity flux closes the books
    assert onesided > 10.0 * exact  # the O(h) flux does not


def _weak_residual_per_test(u, mu, ks, tests, flux_order):
    """One test at a time: the loop weak_residual stacks."""
    out = []
    for zeta in tests.T:
        r = ks.grid.cell_measure * float(u.values @ (ks.lap @ zeta)
                                         + np.expm1(u.values) @ zeta)
        if isinstance(mu, BoundaryMeasure):
            r += float(normal_derivative(ks, zeta, order=flux_order) @ mu.node_masses())
        else:
            r -= float(zeta @ mu.node_masses())
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


def _test_basis_at_every_node(ks):
    """The stack evaluated at every node's own coordinates."""
    grid = ks.grid
    x = grid.interior_coords[:, 0]
    if grid.shape == "interval":
        return x * (1.0 - x) * np.cos(np.pi * np.arange(10)[:, None] * x)
    y = grid.interior_coords[:, 1]
    freq = np.pi * np.arange(4)[:, None]
    rows = np.cos(freq * x)[solver.TEST_MODES[0]] * np.cos(freq * y)[solver.TEST_MODES[1]]
    if grid.shape == "disk":
        cols = ks.solve(rows.T)
        return (cols / np.maximum(1e-300, np.abs(cols).max(axis=0))).T
    return x * (1.0 - x) * y * (1.0 - y) * rows


def test_test_basis_matches_the_per_field_loop(ks32, ks_disk, ks_interval):
    # the same products on square and interval; the disk solves the
    # stack in one batch, which may round differently.  Evaluated per
    # axis and gathered, the stack has the bits of the one evaluated at
    # every node.
    for ks, tol in ((ks32, 0.0), (ks_interval, 0.0),
                    (ks_disk, 16 * np.finfo(float).eps)):
        basis = default_test_basis(ks)
        ref = _test_basis_per_field(ks)
        assert basis.shape == (ks.grid.n_interior, len(ref)) and len(ref) == 10
        # C-ordered, as a stack of the columns, so products with it keep their bits
        assert basis.flags.c_contiguous
        for zeta, want in zip(basis.T, ref):
            assert np.abs(zeta - want).max() <= tol
        assert np.array_equal(basis.T, _test_basis_at_every_node(ks))


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


@pytest.mark.parametrize("shape, n", [("square", 32), ("square", 64), ("square", 128),
                                      ("disk", 64)])
def test_one_more_newton_step_moves_a_solution_by_rounding(shape, n):
    # the stop test leaves about q s with q s at rounding, so a fresh
    # Newton step from a returned solution is a few units of rounding:
    # at most 2.53 of eps max(1, |u|_inf) for atoms and interior data.
    # A boundary density's load reaches 4/h^2 at the corners and the
    # floor follows it: 2.55/4.32/10.13 on square n=32/64/128, 7.97 on
    # disk n=64 (see the `solver` docstring).
    ks = cached_kernels(shape, n)
    grid = ks.grid
    centre = int(target_nodes(grid, "interior", "center")[0])
    cases = [(mu, 4) for mu in _bottom_atoms(ks, (2.0, 4.0, 8.0, 16.0, 32.0)) + [
        InteriorMeasure(grid, atoms=[(centre, 8.0)]),
        InteriorMeasure(grid, density=np.full(grid.n_interior, 2.0)),
    ]] + [(BoundaryMeasure(grid, density=np.full(grid.n_boundary, 2.0)), 16)]
    for mu, units in cases:
        solve = solve_boundary if isinstance(mu, BoundaryMeasure) else solve_interior
        u = solve(mu, ks).u.values
        r = ks.lap @ u + np.expm1(u) - mu.load(ks)
        step = np.abs(ks.factor_shifted(np.exp(u))(r)).max()
        assert step <= units * np.finfo(float).eps * max(1.0, np.abs(u).max())


def test_stale_factor_is_refreshed_and_stops_at_rounding(monkeypatch):
    # criterion 10's solves at a loose reuse bound: a stale factor reaches
    # the rounding plateau, where only a refresh on a step that does not
    # contract lets it stop, and the stop test at rounding lands on the
    # solution of the default bound (a stop at steps below 1e-10 would
    # leave about 5e-12)
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


def _atom_cases(ks):
    """Boundary atoms of mass 2-32 (bottom-mid; the left end on the
    interval) and interior atoms at the centre."""
    grid = ks.grid
    bm = 0 if grid.ndim == 1 else int(target_nodes(grid, "boundary", "bottom-mid")[0])
    centre = int(target_nodes(grid, "interior", "center")[0])
    return ([BoundaryMeasure(grid, atoms=[(bm, c)]) for c in (2.0, 4.0, 8.0, 16.0, 32.0)]
            + [InteriorMeasure(grid, atoms=[(centre, c)]) for c in (8.0, 32.0)])


@pytest.mark.parametrize("shape, n", [("square", 32), ("disk", 32), ("interval", 63)])
def test_barrier_start_lands_on_the_clipped_start_solution(monkeypatch, shape, n):
    # with KO_BARRIER = inf the barrier lowers nothing: the clipped start
    ks = cached_kernels(shape, n)
    for mu in _atom_cases(ks):
        solve = solve_boundary if isinstance(mu, BoundaryMeasure) else solve_interior
        rep = solve(mu, ks)
        assert rep.barrier_start
        assert rep.monotone and rep.supersolution
        with monkeypatch.context() as m:
            m.setattr(solver, "KO_BARRIER", np.inf)
            ref = solve(mu, ks).u.values
        assert np.abs(rep.u.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_barrier_start_bounds_the_work_of_bottom_atoms(monkeypatch):
    # from the clipped start these took 11-19 steps and 10-17 factorisations
    ks = cached_kernels("square", 128)
    factored = _count_factorizations(monkeypatch)
    for mu in _bottom_atoms(ks, (2.0, 4.0, 8.0, 16.0, 32.0)):
        factored[0] = 0
        rep = solve_boundary(mu, ks)
        assert rep.barrier_start
        assert rep.iterations <= 10
        assert rep.factorizations == factored[0] <= 6
        assert rep.monotone and rep.supersolution


def test_a_barrier_that_fails_its_check_falls_back(ks32, monkeypatch):
    # lower the constant until the lowered start is no supersolution: the
    # solve then starts from the clipped start, says so, and lands on the
    # same solution
    mu, = _bottom_atoms(ks32, (8.0,))
    ref = solve_boundary(mu, ks32)
    assert ref.barrier_start
    constant = solver.KO_BARRIER
    while True:
        constant /= 2.0
        assert constant > 1e-12, "no constant failed the check"
        monkeypatch.setattr(solver, "KO_BARRIER", constant)
        rep = solve_boundary(mu, ks32)
        if not rep.barrier_start:
            break
    assert rep.monotone and rep.supersolution
    assert np.abs(rep.u.values - ref.u.values).max() <= 1e-13 * np.abs(ref.u.values).max()
    monkeypatch.setattr(solver, "KO_BARRIER", np.inf)
    clipped = solve_boundary(mu, ks32)
    assert np.array_equal(rep.u.values, clipped.u.values)
    assert rep.iterations == clipped.iterations
