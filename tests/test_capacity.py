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
                             pairing, pinned_harmonic_fill, primal_boundary,
                             primal_interior)
from expcap.errors import SupportError
from expcap.kernels import green_column
from expcap.luxemburg import luxemburg_norm, orlicz_norm, orlicz_norm_and_argmin
from expcap.measures import BoundaryMeasure
from expcap.nfunctions import exponential_pair
from expcap.experiments import interior_family, target_nodes

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
    assert boundary_collar(ks16, 0).size == 0
    ring = boundary_collar(ks16, 1)
    assert ring.size == 60
    assert np.allclose(ks16.grid.rho[ring], ks16.grid.h)
    # on the square the two-ring collar is every node within 2h of the edge
    rho = ks16.grid.rho
    expect = np.flatnonzero(rho <= 2.0 * ks16.grid.h * (1.0 + 1e-12))
    assert np.array_equal(boundary_collar(ks16, 2), expect)


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

    def grab(kind, seeds, *args):
        raise _Seeds(seeds)

    monkeypatch.setattr(capacity, "_polish", grab)
    for rings in range(4):
        for name in ("center", "cluster", "segment"):
            nodes = target_nodes(grid, "interior", name)
            assert np.array_equal(dilate_interior(ks, nodes, rings),
                                  np.flatnonzero(hops(stencil, nodes) <= rings))
            full = hops(stencil, nodes)
            cut = hops(stencil, nodes, rings)
            assert np.array_equal(cut[full <= rings], full[full <= rings])
            assert np.isinf(cut[full > rings]).all()
        assert np.array_equal(boundary_collar(ks, rings),
                              np.flatnonzero(hops(stencil, first) <= rings - 1))
        for name in ("bottom-mid", "bottom-cluster"):
            nodes = target_nodes(grid, "boundary", name)
            ones = np.flatnonzero(hops(ring, nodes) <= rings)
            assert np.array_equal(dilate_boundary(grid, nodes, rings), ones)
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


@pytest.mark.parametrize("target", ["center", "cluster", "segment"])
@pytest.mark.parametrize("dilation", [0, 1])
@pytest.mark.parametrize("fixture", ["ks16", "ks32"])
def test_interior_pair_closes_its_bracket(fixture, dilation, target, request,
                                          monkeypatch):
    # the signed dual is the exact dual of the pin eta = 1, so the two
    # certificates meet up to rounding and the dual-aligned seed closes
    # the bracket: the pair's only optimiser call is the dual's (none for
    # a single atom), and the primal reports the exact norm at the seed,
    # certified optimal
    ks = request.getfixturevalue(fixture)
    K = CompactSet(ks.grid, target_nodes(ks.grid, "interior", target),
                   "interior")
    opts = CapacityOptions(dilation=dilation)
    dual = dual_interior(K, ks, opts)
    assert dual.dual_value > 0.0
    assert dual.converged
    box, primal = capacity._box_minimise, capacity.primal_interior
    calls, primals = [], []

    def spy(objective, x0, bounds, maxiter):
        calls.append((x0.size, bounds, maxiter))
        return box(objective, x0, bounds, maxiter)

    def kept(*args, **kw):
        primals.append(primal(*args, **kw))
        return primals[-1]

    monkeypatch.setattr(capacity, "_box_minimise", spy)
    monkeypatch.setattr(capacity, "primal_interior", kept)
    est = capacity_pair(K, ks, opts)
    assert est.dual_value == dual.dual_value
    assert abs(est.gap) <= 1e-9 * est.primal_value
    assert est.converged
    support = dilate_interior(ks, K.nodes, dilation)
    if support.size == 1:
        assert calls == []
    else:
        assert calls == [(support.size - 1, None, opts.dual_iters)]
    pri, = primals
    assert pri.iterations == 0 and pri.aux["evaluations"] == 0 and pri.converged
    assert est.iterations == dual.iterations
    assert est.primal_value == pri.primal_value == luxemburg_norm(
        ks.lap @ pri.eta_star, ks.grid, exponential_pair(),
        side="conjugate", weight="lebesgue")


@pytest.mark.parametrize("target", ["center", "cluster", "segment"])
def test_interior_primal_searches_without_a_bound(ks16, target, monkeypatch):
    # withholding the dual's bound restores the search, which starts at
    # the optimum and still closes the bracket
    K = CompactSet(ks16.grid, target_nodes(ks16.grid, "interior", target),
                   "interior")
    opts = CapacityOptions(dilation=1)
    polish, box = capacity._polish, capacity._box_minimise
    calls = []

    def unbounded(*args, **kw):
        return polish(*args, **{**kw, "lower": None})

    def spy(*args):
        calls.append(args[2])
        return box(*args)

    monkeypatch.setattr(capacity, "_polish", unbounded)
    monkeypatch.setattr(capacity, "_box_minimise", spy)
    est = capacity_pair(K, ks16, opts)
    assert len(calls) == 2 and calls[0] is None and calls[1] is not None
    assert est.aux["evaluations"] > 0
    assert abs(est.gap) <= 1e-9 * est.primal_value


def _orlicz_setting_pairs(ks):
    # the benchmark's pairs: interior cluster and bottom-mid boundary node
    opts = CapacityOptions(dilation=1, dual_iters=30)
    return [capacity_pair(CompactSet(ks.grid, target_nodes(ks.grid, kind, name),
                                     kind), ks, opts)
            for kind, name in (("interior", "cluster"), ("boundary", "bottom-mid"))]


@pytest.mark.parametrize("withheld", [False, True])
def test_warm_level_starts_change_no_value_and_save_evaluations(ks16, withheld,
                                                                monkeypatch):
    # each search starts its level Newton at its previous root; started
    # cold (the quadratic guess every time) the pairs agree to 1e-9 and
    # take more level evaluations.  With the interior bound withheld the
    # interior primal's search runs warm too.
    root, start = luxemburg._unit_level_root, luxemburg._level_start
    evaluations = [0]

    def counting(log_level, *args):
        def counted(t):
            evaluations[0] += 1
            return log_level(t)
        return root(counted, *args)

    monkeypatch.setattr(luxemburg, "_unit_level_root", counting)
    if withheld:
        polish = capacity._polish
        monkeypatch.setattr(capacity, "_polish",
                            lambda *a, **kw: polish(*a, **{**kw, "lower": None}))
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
    ca = primal_interior(CompactSet(grid, a, "interior"), ks16, opts)
    cb = primal_interior(CompactSet(grid, b, "interior"), ks16, opts)
    cu = primal_interior(CompactSet(grid, np.concatenate([a, b]), "interior"),
                         ks16, opts)
    assert cu.primal_value <= 1.01 * (ca.primal_value + cb.primal_value)


def test_primal_norms_are_evaluated_once_per_point(ks16, monkeypatch):
    # each seed and the polished point cost one norm (an LU solve and a
    # level root-find on the boundary); the interior seed closes the
    # bracket with its dual, so nothing is polished there; the reported
    # value is still the exact norm at the returned eta
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return luxemburg_norm(*args, **kw)

    monkeypatch.setattr(capacity, "luxemburg_norm", counted)
    K = _center_set(ks16)
    opts = CapacityOptions(dilation=1)
    dual = dual_interior(K, ks16, opts)
    est = primal_interior(K, ks16, opts, dual=dual)
    assert len(calls) == 1  # dual-aligned seed
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


@pytest.mark.parametrize("fixture", ["ks32", "ks_disk", "ks_interval"])
def test_pinned_fill_factors_the_free_block_in_a_order(fixture, request, rng,
                                                       monkeypatch):
    # the fill solves A_FF against an independent dense solve, for a
    # dilated cluster pin with a source and for an interior_family
    # annulus; its factor keeps diagonal pivots and at most A's fill
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
    cases = [(fixed, np.flatnonzero(fixed == 0.0), rng.uniform(0.0, 5.0, ni)),
             (fixed, np.flatnonzero((annulus > 1) & (annulus <= 4)), None)]
    for fixed, free, source in cases:
        rhs = -(A[free] @ fixed) + (0.0 if source is None else source[free])
        exact = np.linalg.solve(A[np.ix_(free, free)], rhs)
        x = ks.factor_shifted(np.zeros(ni), free)(rhs)
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()
        eta = pinned_harmonic_fill(ks, fixed, free, source)
        want = fixed.copy()
        want[free] = np.clip(exact, 0.0, 1.0)
        assert np.abs(eta - want).max() <= 1e-12
        lu = factors[-1]
        assert np.array_equal(lu.perm_r, np.arange(free.size))
        assert lu.L.nnz + lu.U.nnz <= ks._lu.L.nnz + ks._lu.U.nnz
    # the last case is the R = 4 member of the family
    assert np.abs(interior_family(K, ks, [4])[0] - want).max() <= 1e-12
