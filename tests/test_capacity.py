"""Capacity programs: certificates, dual routes, pairings."""

import numpy as np
import pytest

import expcap.capacity as capacity
import expcap.kernels as kernels
import expcap.luxemburg as luxemburg
from conftest import cached_kernels
from expcap.capacity import (CapacityEstimate, CapacityOptions, CompactSet,
                             boundary_collar, boundary_measure,
                             boundary_test_norm, capacity_pair, dilate_boundary,
                             dilate_interior, dual_boundary, dual_interior,
                             pairing, primal_boundary, primal_interior)
from expcap.errors import SupportError
from expcap.kernels import green_column
from expcap.luxemburg import luxemburg_norm, orlicz_norm, orlicz_norm_and_argmin
from expcap.measures import BoundaryMeasure
from expcap.nfunctions import exponential_pair
from expcap.experiments import (interior_family, pinned_harmonic_fill,
                                target_nodes)

# frozen on the 16x16 square, centre node, default options
PAIR16_DIL0 = 4.2172024791
PAIR16_DIL1_PRIMAL = 4.7996993658
PAIR16_DIL1_DUAL = 4.7996993657


def _center_set(ks):
    return CompactSet(ks.grid, target_nodes(ks.grid, "interior", "center"),
                      "interior")


def test_compact_set_validation(ks16):
    grid = ks16.grid
    with pytest.raises(SupportError):
        CompactSet(grid, np.array([], dtype=int), "interior")
    with pytest.raises(SupportError):
        CompactSet(grid, np.array([grid.n_interior]), "interior")
    with pytest.raises(ValueError):
        CompactSet(grid, np.array([0]), "edge")
    K = CompactSet(grid, np.array([5, 3, 5]), "interior")
    assert K.nodes.tolist() == [3, 5]


def test_dilation_and_collar_helpers(ks16):
    nodes = target_nodes(ks16.grid, "interior", "center")
    assert np.array_equal(dilate_interior(ks16, nodes, 0), nodes)
    star = dilate_interior(ks16, nodes, 1)
    assert star.size == 5 and np.isin(nodes, star).all()
    ring = boundary_collar(ks16)
    assert ring.size == 60
    assert np.allclose(ks16.grid.rho[ring], ks16.grid.h)


class _Seeds(Exception):
    """Carries primal_boundary's seeds out before the search runs."""


@pytest.mark.parametrize("shape", ["square", "disk"])
@pytest.mark.parametrize("n", [16, 24])
def test_hop_counts_stopped_at_the_depth_read_change_nothing(shape, n, monkeypatch):
    # each search stops at the depth its caller reads; every node set and
    # every tent equals the one built from full-depth hop counts
    ks = cached_kernels(shape, n)
    grid = ks.grid
    hops = capacity._hop_distance
    stencil, ring = ks.stencil_graph, grid.boundary_graph
    first = np.flatnonzero(np.asarray(ks.coupling.sum(axis=1)).ravel() > 0)

    seen = []

    def grab(ks, eta_b):
        # the seeds' norms come first, one per tent, before any search
        seen.append(eta_b)
        if len(seen) == 4:
            raise _Seeds(list(seen))
        return 1.0

    monkeypatch.setattr(capacity, "boundary_test_norm", grab)
    assert np.array_equal(boundary_collar(ks), np.flatnonzero(hops(stencil, first) <= 0))
    for rings in range(4):
        for name in ("center", "cluster", "segment"):
            nodes = target_nodes(grid, "interior", name)
            assert np.array_equal(dilate_interior(ks, nodes, rings),
                                  np.flatnonzero(hops(stencil, nodes) <= rings))
            full = hops(stencil, nodes)
            cut = hops(stencil, nodes, rings)
            assert np.array_equal(cut[full <= rings], full[full <= rings])
            assert np.isinf(cut[full > rings]).all()
        for name in ("bottom-mid", "bottom-cluster"):
            nodes = target_nodes(grid, "boundary", name)
            ones = np.flatnonzero(hops(ring, nodes) <= rings)
            assert np.array_equal(dilate_boundary(grid, nodes, rings), ones)
            seen.clear()
            with pytest.raises(_Seeds) as seeds:
                primal_boundary(CompactSet(grid, nodes, "boundary"), ks,
                                CapacityOptions(dilation=rings))
            dist = hops(ring, ones)
            assert len(seeds.value.args[0]) == 4
            for width, tent in zip((2.0, 4.0, 8.0, 16.0), seeds.value.args[0]):
                want = np.maximum(0.0, 1.0 - dist / width)
                want[ones] = 1.0
                assert np.array_equal(tent, want)


@pytest.mark.parametrize("fixture", ["ks16", "ks_disk"])
def test_interior_dilation_matches_a_relaxation(fixture, request):
    # reference: rings of the stencil graph grown by repeated relaxation
    # over the sparsity pattern of the assembled Laplacian, independent
    # of the breadth-first search
    ks = request.getfixturevalue(fixture)
    lap = ks.lap.tocoo()
    off = lap.row != lap.col
    rows, cols = lap.row[off], lap.col[off]
    n = ks.grid.n_interior
    for nodes in (target_nodes(ks.grid, "interior", "center"),
                  np.array([0, n // 3, n - 1])):
        inside = np.zeros(n, dtype=bool)
        inside[nodes] = True
        for rings in range(4):
            assert np.array_equal(dilate_interior(ks, nodes, rings),
                                  np.flatnonzero(inside))
            grown = inside.copy()
            grown[rows[inside[cols]]] = True
            inside = grown


def test_undilated_pair_is_tight(ks16):
    # with no dilation both finite programs share the admissible set,
    # so the certificates pinch: primal == dual to optimiser precision
    est = capacity_pair(_center_set(ks16), ks16, CapacityOptions(dilation=0))
    rel = (est.primal_value - est.dual_value) / est.primal_value
    assert est.dual_value <= est.primal_value + 1e-8
    assert rel < 1e-6
    assert est.primal_value == pytest.approx(PAIR16_DIL0, rel=1e-4)
    assert est.kind == "pair-interior"


def test_singleton_dual_matches_reciprocal_column_norm(ks16):
    # independent route: the one-atom dual maximises m subject to
    # ||m G_j|| <= 1, so its value is 1 / ||G_j|| in the constraint norm;
    # a unit atom has no free direction, so no optimiser step is taken
    K = _center_set(ks16)
    est = dual_interior(K, ks16, CapacityOptions(dilation=0))
    col = green_column(ks16, int(K.nodes[0]))
    expect = 1.0 / orlicz_norm(col, ks16.grid, exponential_pair())
    assert est.dual_value == pytest.approx(expect, rel=1e-6)
    assert est.mu_masses.sum() == pytest.approx(est.dual_value, rel=1e-9)
    assert est.iterations == 0 and est.converged
    assert est.dual_value == expect


def test_interior_dual_reports_its_iteration_cap(ks16):
    K = CompactSet(ks16.grid, target_nodes(ks16.grid, "interior", "cluster"),
                   "interior")
    est = dual_interior(K, ks16, CapacityOptions(dilation=1, dual_iters=1))
    assert est.iterations == 1
    assert not est.converged


@pytest.mark.parametrize("target", ["cluster", "segment"])
def test_interior_dual_meets_its_kkt_conditions(ks16, target):
    # max m(K) subject to ||G m||_orl <= 1: with g = n(khat G m) W the
    # norm's gradient at the potential, value * (G^T g)_j >= 1 on every
    # atom, with equality where the mass is positive
    grid = ks16.grid
    K = CompactSet(grid, target_nodes(grid, "interior", target), "interior")
    est = dual_interior(K, ks16, CapacityOptions(dilation=1, dual_iters=30))
    assert est.converged
    nf = exponential_pair()
    cols = np.column_stack([green_column(ks16, int(j)) for j in est.mu_nodes])
    pot = cols @ est.mu_masses
    _, khat = orlicz_norm_and_argmin(pot, grid, nf)
    g = nf.p(khat * pot) * grid.weight_vector("lebesgue")
    kkt = est.dual_value * (cols.T @ g)
    assert kkt.min() >= 1.0 - 1e-6
    assert np.abs(kkt[est.mu_masses > 0] - 1.0).max() <= 1e-6


# parent L-BFGS-B duals (dual_iters 800), keyed (n, dilation, target)
LBFGSB_DUALS = {
    (16, 0, "center"): 4.217202479146822, (16, 0, "cluster"): 4.502528026199637,
    (16, 0, "segment"): 4.9630569800227935, (16, 1, "center"): 4.799699365712521,
    (16, 1, "cluster"): 5.198574529331588, (16, 1, "segment"): 5.906952256127503,
    (32, 0, "center"): 4.256729671171343, (32, 0, "cluster"): 4.4056554884791375,
    (32, 0, "segment"): 4.842854936913917, (32, 1, "center"): 4.543589189308624,
    (32, 1, "cluster"): 4.727757352582393, (32, 1, "segment"): 5.2950009249700996,
}


@pytest.mark.parametrize("target", ["center", "cluster", "segment"])
@pytest.mark.parametrize("dilation", [0, 1])
@pytest.mark.parametrize("n", [16, 32])
def test_newton_dual_is_no_lower_than_the_quasi_newton_dual(n, dilation, target):
    # Newton stops at a decrement at rounding, so its certified lower
    # bound is at least the quasi-Newton one it replaced, to rounding
    ks = cached_kernels("square", n)
    K = CompactSet(ks.grid, target_nodes(ks.grid, "interior", target), "interior")
    est = dual_interior(K, ks, CapacityOptions(dilation=dilation))
    assert est.converged and est.iterations <= 8
    assert est.dual_value >= LBFGSB_DUALS[n, dilation, target] * (1.0 - 1e-12)
    assert 0.0 <= est.aux["newton_decrement"] <= (capacity.NEWTON_DECREMENT_TOL
                                                  / est.dual_value)


def test_newton_dual_falls_back_to_gradient_steps(ks16, monkeypatch):
    # without a Cholesky factor every step is a backtracked gradient
    # step: each lowers the norm, so the certified bound rises from the
    # uniform measure's, and five of them do not reach the optimum
    def fails(hess):
        raise np.linalg.LinAlgError("not positive definite")

    K = CompactSet(ks16.grid, target_nodes(ks16.grid, "interior", "cluster"),
                   "interior")
    uniform = dual_interior(K, ks16, CapacityOptions(dual_iters=0))
    newton = dual_interior(K, ks16, CapacityOptions())
    assert uniform.iterations == 0 and not uniform.converged
    monkeypatch.setattr(capacity, "cho_factor", fails)
    est = dual_interior(K, ks16, CapacityOptions(dual_iters=5))
    assert est.iterations == 5 and not est.converged
    assert uniform.dual_value < est.dual_value < newton.dual_value


def test_newton_dual_steps_do_not_grow_with_the_grid():
    # the segment's support grows with n (20, 28 and 56 atoms at
    # n = 16, 32 and 64) while Newton's step count does not
    steps = {}
    for n in (16, 32, 64):
        ks = cached_kernels("square", n)
        K = CompactSet(ks.grid, target_nodes(ks.grid, "interior", "segment"),
                       "interior")
        est = dual_interior(K, ks, CapacityOptions(dilation=1))
        assert est.converged
        steps[n] = est.iterations
    assert max(steps.values()) <= 10
    assert steps[64] <= steps[32]


@pytest.mark.parametrize("target", ["center", "cluster", "segment"])
@pytest.mark.parametrize("dilation", [0, 1])
@pytest.mark.parametrize("fixture", ["ks16", "ks32"])
def test_interior_pair_closes_its_bracket(fixture, dilation, target, request,
                                          monkeypatch):
    # the signed dual is the exact dual of the pin eta = 1, so the two
    # certificates meet up to rounding and the dual's aligned witness
    # closes the bracket: the pair calls no optimiser, and the primal
    # reports the exact norm at the witness, certified optimal
    ks = request.getfixturevalue(fixture)
    K = CompactSet(ks.grid, target_nodes(ks.grid, "interior", target),
                   "interior")
    opts = CapacityOptions(dilation=dilation)
    dual = dual_interior(K, ks, opts)
    assert dual.dual_value > 0.0
    assert dual.converged
    primal = capacity.primal_interior
    calls, primals = [], []

    def kept(*args, **kw):
        primals.append(primal(*args, **kw))
        return primals[-1]

    monkeypatch.setattr(capacity, "_box_minimise", lambda *args: calls.append(args))
    monkeypatch.setattr(capacity, "primal_interior", kept)
    est = capacity_pair(K, ks, opts)
    assert est.dual_value == dual.dual_value
    assert abs(est.gap) <= 1e-9 * est.primal_value
    assert est.converged
    assert calls == []
    pri, = primals
    assert pri.iterations == 0 and pri.converged
    assert est.iterations == dual.iterations
    assert est.primal_value == pri.primal_value == luxemburg_norm(
        ks.lap @ pri.eta_star, ks.grid, exponential_pair(),
        side="conjugate", weight="lebesgue")


def _orlicz_setting_pairs(ks):
    # the benchmark's pairs: interior cluster and bottom-mid boundary node
    opts = CapacityOptions(dilation=1, dual_iters=30)
    return [capacity_pair(CompactSet(ks.grid, target_nodes(ks.grid, kind, name),
                                     kind), ks, opts)
            for kind, name in (("interior", "cluster"), ("boundary", "bottom-mid"))]


def test_warm_level_starts_change_no_value_and_save_evaluations(ks16, monkeypatch):
    # each search starts its level Newton at its previous root; started
    # cold (the quadratic guess every time) the pairs agree to 1e-9 and
    # take more level evaluations
    root, start = luxemburg._unit_level_root, luxemburg._level_start
    evaluations = [0]

    def counting(log_level, *args):
        def counted(t):
            evaluations[0] += 1
            return log_level(t)
        return root(counted, *args)

    monkeypatch.setattr(luxemburg, "_unit_level_root", counting)
    warm = _orlicz_setting_pairs(ks16)
    warm_evaluations, evaluations[0] = evaluations[0], 0
    monkeypatch.setattr(luxemburg, "_level_start",
                        lambda previous, m: start(None, m))
    cold = _orlicz_setting_pairs(ks16)
    assert warm_evaluations < evaluations[0]
    for w, c in zip(warm, cold):
        assert w.primal_value == pytest.approx(c.primal_value, rel=1e-9)
        assert w.dual_value == pytest.approx(c.dual_value, rel=1e-9)


def test_dilated_pair_weak_duality_and_frozen_values(ks16):
    est = capacity_pair(_center_set(ks16), ks16, CapacityOptions(dilation=1))
    assert est.dual_value <= est.primal_value + 1e-8
    assert est.primal_value == pytest.approx(PAIR16_DIL1_PRIMAL, rel=2e-3)
    assert est.dual_value == pytest.approx(PAIR16_DIL1_DUAL, rel=2e-3)
    assert est.eta_star is not None
    assert est.eta_star.min() >= -1e-12 and est.eta_star.max() <= 1.0 + 1e-12
    assert np.allclose(est.eta_star[_center_set(ks16).nodes], 1.0)


def test_monotone_in_the_target_set(ks16):
    opts = CapacityOptions(dilation=0)
    small = capacity_pair(_center_set(ks16), ks16, opts)
    nodes = target_nodes(ks16.grid, "interior", "cluster")
    big = capacity_pair(CompactSet(ks16.grid, nodes, "interior"), ks16, opts)
    assert small.primal_value <= big.primal_value + 1e-6
    assert small.dual_value <= big.dual_value + 1e-6


def test_subadditive_over_separated_singletons(ks16):
    # optimiser tolerance only; the inequality itself is structural
    grid = ks16.grid
    a = target_nodes(grid, "interior", "point:0.3,0.3")
    b = target_nodes(grid, "interior", "point:0.7,0.7")
    opts = CapacityOptions(dilation=0)

    def primal(nodes):
        K = CompactSet(grid, nodes, "interior")
        return primal_interior(K, ks16, dual_interior(K, ks16, opts))

    ca, cb, cu = primal(a), primal(b), primal(np.concatenate([a, b]))
    assert cu.primal_value <= 1.01 * (ca.primal_value + cb.primal_value)


def test_primal_norms_are_evaluated_once_per_point(ks16, monkeypatch):
    # each seed and the polished point cost one norm (an LU solve and a
    # level root-find on the boundary); the interior primal is its dual's
    # witness and is not polished; the reported value is the exact norm
    # at the returned eta
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return luxemburg_norm(*args, **kw)

    monkeypatch.setattr(capacity, "luxemburg_norm", counted)
    K = _center_set(ks16)
    opts = CapacityOptions(dilation=1)
    dual = dual_interior(K, ks16, opts)
    est = primal_interior(K, ks16, dual=dual)
    assert len(calls) == 1  # dual-aligned witness
    assert est.primal_value == luxemburg_norm(
        ks16.lap @ est.eta_star, ks16.grid, exponential_pair(),
        side="conjugate", weight="lebesgue")
    calls.clear()
    Kb = CompactSet(ks16.grid, target_nodes(ks16.grid, "boundary", "bottom-mid"),
                    "boundary")
    est = primal_boundary(Kb, ks16)
    assert len(calls) == 5  # four tents, polished point
    monkeypatch.undo()
    assert est.primal_value == boundary_test_norm(ks16, est.eta_star)


def test_boundary_pair_weak_duality(ks16):
    nodes = target_nodes(ks16.grid, "boundary", "bottom-mid")
    K = CompactSet(ks16.grid, nodes, "boundary")
    pri = primal_boundary(K, ks16)
    dua = dual_boundary(K, ks16)
    assert pri.primal_value > 0.0
    assert 0.0 < dua.dual_value <= pri.primal_value + 1e-8
    assert dua.mu_masses.min() >= 0.0


@pytest.mark.parametrize("target", ["point:0.0588,0", "point:0.1176,0"])
@pytest.mark.parametrize("dilation", [0, 1])
def test_boundary_dual_below_primal_near_a_corner(ks16, target, dilation):
    # |d_n rho*| tends to 0 at a corner, so a dual that certifies plain
    # mass against the harmonic extension overshoots the primal there
    K = CompactSet(ks16.grid, target_nodes(ks16.grid, "boundary", target),
                   "boundary")
    est = capacity_pair(K, ks16, CapacityOptions(dilation=dilation))
    assert 0.0 < est.dual_value <= est.primal_value + 1e-8


def test_estimate_gap_bookkeeping():
    est = CapacityEstimate(kind="primal-interior", primal_value=2.0)
    assert np.isnan(est.gap)
    est2 = CapacityEstimate(kind="pair", primal_value=2.0, dual_value=1.5)
    assert est2.gap == pytest.approx(0.5)


def test_pairing_orders_agree(ks16, rng):
    grid = ks16.grid
    for _ in range(5):
        eta_b = rng.uniform(0.0, 1.0, grid.n_boundary)
        atoms = [(int(rng.integers(0, grid.n_boundary)), float(rng.uniform(0.5, 3.0)))
                 for _ in range(3)]
        mu = BoundaryMeasure(grid, atoms=atoms)
        a, b = pairing(eta_b, mu, ks16)
        assert a == pytest.approx(b, rel=1e-11, abs=1e-13)


def test_boundary_measure_pairs_with_the_primal_operator(ks16, rng):
    # mu = vol L^T f satisfies sum mu_b eta_b = vol f^T L eta, with
    # L eta = -Lap(rho* P[eta]) assembled here independently
    grid = ks16.grid
    vol = grid.cell_measure
    for _ in range(5):
        eta_b = rng.uniform(0.0, 1.0, grid.n_boundary)
        f = rng.standard_normal(grid.n_interior)
        L_eta = ks16.lap @ (ks16.rho_star * ks16.solve(ks16.coupling @ eta_b))
        lhs = float(boundary_measure(ks16, f) @ eta_b)
        rhs = vol * float(f @ L_eta)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_boundary_certificate_reproduces_its_value(ks16):
    nodes = target_nodes(ks16.grid, "boundary", "bottom-mid")
    est = dual_boundary(CompactSet(ks16.grid, nodes, "boundary"), ks16)
    neg = est.aux["negative_mass"]
    assert neg <= 0.0
    expect = (est.mu_masses.sum() + neg) / est.aux["potential_norm"]
    assert est.dual_value == pytest.approx(expect, rel=1e-12)


def test_inverse_hessian_matches_the_two_loop_recursion(rng):
    # the compact form, bordered pair by pair and past its memory of 25,
    # applies the matrix of the two-loop recursion over the last 25 pairs
    n = 40
    M = rng.standard_normal((n, n))
    A = M @ M.T + np.eye(n)
    H = capacity._InverseHessian(n, 25)
    pairs = []
    for count in range(1, 31):
        s = rng.standard_normal(n)
        y = A @ s
        H.push(s, y, float(s @ y), float(y @ y))
        pairs = (pairs + [(s, y)])[-25:]
        v = rng.standard_normal(n)
        q, alphas = v.copy(), []
        for s_i, y_i in reversed(pairs):
            alphas.append((s_i @ q) / (s_i @ y_i))
            q -= alphas[-1] * y_i
        q *= (pairs[-1][0] @ pairs[-1][1]) / (pairs[-1][1] @ pairs[-1][1])
        for (s_i, y_i), a_i in zip(pairs, reversed(alphas)):
            q += (a_i - (y_i @ q) / (s_i @ y_i)) * s_i
        assert H.k == min(count, 25)
        assert np.abs(H.apply(v) - q).max() <= 1e-10 * np.abs(q).max()


def _boxed_quadratic():
    # f(x) = e.A e / 2 + g*.e with e = x - x*, A coupled and positive
    # definite: its KKT point on [0, 1]^12 is x*, with four nodes at 0
    # (g* > 0), four at 1 (g* < 0) and four inside (g* = 0), and f* = 0.
    # The relative-decrease stop ends a search about one step after
    # e.A e / 2 falls to 1e-14 max(|f|, 1); with f* = 0 and curvature of
    # order 1e4 that step lands below 1e-10 in x.  The objective fails
    # on any point outside the box.
    rng = np.random.default_rng(7)
    M = rng.standard_normal((12, 12))
    A = 1e4 * (M @ M.T + np.eye(12))
    x_star = np.concatenate([np.zeros(4), np.ones(4), rng.uniform(0.2, 0.8, 4)])
    g_star = 1e4 * np.concatenate([rng.uniform(0.5, 2.0, 4),
                                   -rng.uniform(0.5, 2.0, 4), np.zeros(4)])
    points = []

    def objective(x):
        assert x.min() >= 0.0 and x.max() <= 1.0
        points.append(x.copy())
        e = x - x_star
        return float(e @ (0.5 * (A @ e) + g_star)), A @ e + g_star

    return objective, x_star, points


def test_box_search_reaches_the_kkt_point_of_a_boxed_quadratic():
    objective, x_star, points = _boxed_quadratic()
    res = capacity._box_minimise(objective, np.full(12, 0.5), 600)
    assert res.success and 0 < res.nit < 600
    assert res.nfev == len(points)
    assert np.abs(res.x - x_star).max() <= 1e-10
    # the cap counts accepted steps: three of them do not reach x*
    capped = capacity._box_minimise(objective, np.full(12, 0.5), 3)
    assert capped.nit <= 3 and not capped.success


def test_boundary_search_cap_bounds_its_steps(ks32):
    # maxiter 0 takes no step: the primal is the best tent seed's exact
    # norm, unconverged; maxiter k takes at most k steps
    grid = ks32.grid
    K = CompactSet(grid, target_nodes(grid, "boundary", "bottom-mid"), "boundary")
    ones = dilate_boundary(grid, K.nodes, 1)
    dist = capacity._hop_distance(grid.boundary_graph, ones)
    tents = []
    for width in (2.0, 4.0, 8.0, 16.0):
        tent = np.maximum(0.0, 1.0 - dist / width)
        tent[ones] = 1.0
        tents.append(tent)
    norms = [boundary_test_norm(ks32, tent) for tent in tents]
    est = primal_boundary(K, ks32, CapacityOptions(maxiter=0))
    assert est.iterations == 0 and not est.converged
    assert est.primal_value == min(norms)
    assert np.array_equal(est.eta_star, tents[int(np.argmin(norms))])
    for k in (1, 2, 5):
        est = capacity_pair(K, ks32, CapacityOptions(maxiter=k))
        assert 1 <= est.iterations <= k and not est.converged
        assert est.primal_value < min(norms)


# parent L-BFGS-B boundary primals at dilation 1, keyed (n, target)
LBFGSB_BOUNDARY_PRIMALS = {
    (16, "bottom-mid"): 3.162594616861813,
    (16, "bottom-cluster"): 4.111035212169413,
    (16, "bottom-arc"): 5.011943089313972,
    (32, "bottom-mid"): 2.5903775187603384,
    (32, "bottom-cluster"): 3.429897697548926,
    (32, "bottom-arc"): 4.983432592507845,
}


@pytest.mark.parametrize("target", ["bottom-mid", "bottom-cluster", "bottom-arc"])
@pytest.mark.parametrize("n", [16, 32])
def test_boundary_pair_matches_the_quasi_newton_values(n, target):
    # the search stops at the same optimum as the L-BFGS-B call it
    # replaced, and aux reports the projected gradient at its eta
    ks = cached_kernels("square", n)
    K = CompactSet(ks.grid, target_nodes(ks.grid, "boundary", target), "boundary")
    est = capacity_pair(K, ks, CapacityOptions(dilation=1))
    assert est.converged
    assert est.primal_value == pytest.approx(LBFGSB_BOUNDARY_PRIMALS[n, target],
                                             rel=1e-12)
    assert est.dual_value <= est.primal_value + 1e-8
    assert est.gap <= 1e-6 * est.primal_value
    free = np.ones(ks.grid.n_boundary, dtype=bool)
    free[est.aux["ones"]] = False
    _, gw, _ = capacity._boundary_gauge_gradient(ks, est.eta_star)
    x, g = est.eta_star[free], capacity._boundary_adjoint(ks, gw)[free]
    pg = np.abs(np.clip(x - g, 0.0, 1.0) - x).max()
    assert est.aux["projected_gradient"] == pytest.approx(pg, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("fixture", ["ks32", "ks_disk", "ks_interval"])
def test_pinned_fill_factors_the_free_block_in_a_order(fixture, request,
                                                       monkeypatch):
    # interior_family's annulus fill solves A_FF against an independent
    # dense solve; its factor keeps diagonal pivots and at most A's fill
    ks = request.getfixturevalue(fixture)
    factors = []
    splu = kernels.spla.splu
    monkeypatch.setattr(kernels.spla, "splu",
                        lambda *a, **kw: factors.append(splu(*a, **kw)) or factors[-1])
    ni = ks.grid.n_interior
    K = target_nodes(ks.grid, "interior", "cluster")
    A = ks.lap.toarray()
    fixed = np.zeros(ni)
    fixed[dilate_interior(ks, K, 1)] = 1.0
    annulus = capacity._hop_distance(abs(ks.lap), K)
    free = np.flatnonzero((annulus > 1) & (annulus <= 4))
    rhs = -(A[free] @ fixed)
    exact = np.linalg.solve(A[np.ix_(free, free)], rhs)
    x = ks.factor_shifted(np.zeros(ni), free)(rhs)
    assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()
    eta = pinned_harmonic_fill(ks, fixed, free)
    want = fixed.copy()
    want[free] = np.clip(exact, 0.0, 1.0)
    assert np.abs(eta - want).max() <= 1e-12
    lu = factors[-1]
    assert np.array_equal(lu.perm_r, np.arange(free.size))
    assert lu.L.nnz + lu.U.nnz <= ks._lu.L.nnz + ks._lu.U.nnz
    # the fill is the R = 4 member of the family
    assert np.abs(interior_family(K, ks, [4])[0] - want).max() <= 1e-12


@pytest.mark.parametrize("target", ["center", "cluster", "segment"])
@pytest.mark.parametrize("fixture", ["ks32", "ks_disk", "ks_interval"])
def test_interior_witness_is_the_dense_pinned_solve(fixture, target, request):
    # the capacitance fill on the dual's Green block equals the pinned
    # system A_FF eta_F = w*_F - A_FS 1 solved densely, clipped to [0, 1]
    ks = request.getfixturevalue(fixture)
    grid = ks.grid
    K = CompactSet(grid, target_nodes(grid, "interior", target), "interior")
    dual = dual_interior(K, ks, CapacityOptions(dilation=1))
    est = primal_interior(K, ks, dual)
    nf = exponential_pair()
    pot = green_column(ks, dual.mu_nodes) @ dual.mu_masses
    _, khat = orlicz_norm_and_argmin(pot, grid, nf, "lebesgue")
    source = dual.dual_value * nf.p(khat * pot)
    A = ks.lap.toarray()
    fixed = np.zeros(grid.n_interior)
    fixed[dual.mu_nodes] = 1.0
    free = np.flatnonzero(fixed == 0.0)
    want = fixed.copy()
    want[free] = np.clip(np.linalg.solve(A[np.ix_(free, free)],
                                         source[free] - A[free] @ fixed), 0.0, 1.0)
    assert np.array_equal(est.aux["ones"], dual.mu_nodes)
    assert np.abs(est.eta_star - want).max() <= 1e-12


def test_interior_witness_makes_one_solve_and_factors_nothing(ks32, monkeypatch):
    # the witness reuses the dual's Green columns: one right-hand side
    # through A's LU and no factorisation, and the pair's record leaves
    # the block out
    K = CompactSet(ks32.grid, target_nodes(ks32.grid, "interior", "cluster"),
                   "interior")
    dual = dual_interior(K, ks32, CapacityOptions(dilation=1))
    assert dual.mu_nodes.size > 1
    solves, factors = [], []
    solve, lu_factor = kernels.KernelSet.solve, kernels._lu_factor

    def counted_solve(self, rhs):
        solves.append(np.shape(rhs))
        return solve(self, rhs)

    def counted_factor(*args):
        factors.append(args)
        return lu_factor(*args)

    monkeypatch.setattr(kernels.KernelSet, "solve", counted_solve)
    monkeypatch.setattr(kernels, "_lu_factor", counted_factor)
    est = primal_interior(K, ks32, dual)
    assert solves == [(ks32.grid.n_interior,)]
    assert factors == []
    assert est.converged
    pair = capacity_pair(K, ks32, CapacityOptions(dilation=1))
    assert "green_block" not in pair.aux
