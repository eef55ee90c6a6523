"""Gauge and Amemiya norms: closed forms, invariants, subgradients."""

import dataclasses
import gc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from expcap.errors import GridMismatch, OverflowInIntegrand, ZeroField
from expcap.grids import build_grid
from expcap.luxemburg import (_amemiya, _moments, luxemburg_norm,
                              luxemburg_subgradient, orlicz_norm)
from expcap.nfunctions import exponential_pair, quadratic_pair

NF = exponential_pair()
QP = quadratic_pair()

# gauge norm of the constant-one field on the 32x32 square, frozen from
# the brentq root of V * P(1/k) = 1 below
CONST_GAUGE_N32 = 0.8509558891758607


def test_quadratic_pair_reduces_to_weighted_l2(ks32, rng):
    # with N(t) = t^2/2 the unit level solves in closed form:
    # ||f|| = sqrt(sum f^2 w / 2)
    grid = ks32.grid
    for weight in ("lebesgue", "rho"):
        W = grid.weight_vector(weight)
        for _ in range(25):
            f = rng.standard_normal(grid.n_interior) * rng.uniform(0.1, 10.0)
            expect = np.sqrt(0.5 * float((f * f) @ W))
            got = luxemburg_norm(f, grid, QP, weight=weight)
            assert abs(got - expect) <= 1e-10 * max(1.0, expect)


def test_constant_field_anchor(ks32):
    grid = ks32.grid
    got = luxemburg_norm(np.ones(grid.n_interior), grid, NF)
    V = float(grid.weight_vector("lebesgue").sum())
    root = brentq(lambda k: V * float(NF.P(1.0 / k)) - 1.0,
                  1e-2, 1e3, xtol=1e-15)
    assert abs(got - root) < 2e-12
    assert abs(got - CONST_GAUGE_N32) < 1e-12


def test_homogeneity_and_triangle(ks16, rng):
    grid = ks16.grid
    for _ in range(20):
        f = rng.standard_normal(grid.n_interior)
        g = rng.standard_normal(grid.n_interior)
        c = rng.uniform(-9.0, 9.0)
        nf_ = luxemburg_norm(f, grid, NF)
        ng_ = luxemburg_norm(g, grid, NF)
        scaled = luxemburg_norm(c * f, grid, NF)
        assert abs(scaled - abs(c) * nf_) <= 1e-9 * max(1.0, abs(c) * nf_)
        assert luxemburg_norm(f + g, grid, NF) <= nf_ + ng_ + 1e-9


def test_norm_sits_at_the_unit_level(ks16, rng):
    grid = ks16.grid
    W = grid.weight_vector()
    for side, Nfun in (("principal", NF.P), ("conjugate", NF.Pstar)):
        f = 3.0 * rng.standard_normal(grid.n_interior)
        k = luxemburg_norm(f, grid, NF, side=side)
        assert abs(float(Nfun(f / k) @ W) - 1.0) < 1e-9


def test_zero_field_and_error_paths(ks16):
    grid = ks16.grid
    assert luxemburg_norm(np.zeros(grid.n_interior), grid, NF) == 0.0
    assert orlicz_norm(np.zeros(grid.n_interior), grid, NF) == 0.0
    with pytest.raises(ZeroField):
        luxemburg_subgradient(np.zeros(grid.n_interior), grid, NF)
    with pytest.raises(GridMismatch):
        luxemburg_norm(np.ones(7), grid, NF)
    bad = np.ones(grid.n_interior)
    bad[0] = np.inf
    with pytest.raises(OverflowInIntegrand):
        luxemburg_norm(bad, grid, NF)


def test_subgradient_euler_identity_and_central_differences(ks16, rng):
    grid = ks16.grid
    for trial in range(8):
        side = "principal" if trial % 2 == 0 else "conjugate"
        f = rng.standard_normal(grid.n_interior)
        k, gvec = luxemburg_subgradient(f, grid, NF, side=side)
        # 1-homogeneity: <g, f> = ||f||
        assert abs(float(gvec @ f) - k) < 1e-8 * max(1.0, k)
        v = rng.standard_normal(grid.n_interior)
        eps = 1e-6
        fd = (luxemburg_norm(f + eps * v, grid, NF, side=side)
              - luxemburg_norm(f - eps * v, grid, NF, side=side)) / (2.0 * eps)
        assert abs(fd - float(gvec @ v)) <= 1e-6 * max(1.0, abs(fd))


def test_amemiya_closed_form_for_quadratic(ks16, rng):
    # (1 + k^2 S/2)/k is minimal at k = sqrt(2/S) with value sqrt(2 S),
    # exactly twice the gauge value: the equivalence constant saturates.
    grid = ks16.grid
    W = grid.weight_vector()
    for _ in range(10):
        f = rng.standard_normal(grid.n_interior)
        S = float((f * f) @ W)
        no = orlicz_norm(f, grid, QP)
        assert abs(no - np.sqrt(2.0 * S)) < 1e-9 * max(1.0, no)
        assert abs(no - 2.0 * luxemburg_norm(f, grid, QP)) < 1e-9


def test_amemiya_gauge_equivalence_and_unit_holder(ks16, rng):
    grid = ks16.grid
    W = grid.weight_vector()
    for _ in range(12):
        f = rng.standard_normal(grid.n_interior) * rng.uniform(0.2, 4.0)
        g = rng.standard_normal(grid.n_interior) * rng.uniform(0.2, 4.0)
        no = orlicz_norm(f, grid, NF)
        nl = luxemburg_norm(f, grid, NF)
        assert nl - 1e-10 <= no <= 2.0 * nl + 1e-10
        # pairing against the conjugate gauge holds with constant one
        lhs = abs(float((f * g) @ W))
        assert lhs <= no * luxemburg_norm(g, grid, NF, side="conjugate") + 1e-9


def test_rho_scale_equals_explicit_quotient(ks16):
    # scale=rho evaluates ||f/rho|| without forming the quotient
    grid = ks16.grid
    r2 = np.sum((grid.interior_coords - 0.5) ** 2, axis=1)
    bump = np.exp(-40.0 * r2)
    direct = luxemburg_norm(bump / grid.rho, grid, NF,
                            side="conjugate", weight="rho")
    scaled = luxemburg_norm(bump, grid, NF,
                            side="conjugate", weight="rho", scale=grid.rho)
    assert abs(direct - scaled) < 1e-10 * max(1.0, direct)


def test_bad_side_and_bad_scale_rejected(ks16):
    grid = ks16.grid
    f = np.ones(grid.n_interior)
    with pytest.raises(ValueError):
        luxemburg_norm(f, grid, NF, side="sideways")
    with pytest.raises(ValueError):
        luxemburg_norm(f, grid, NF, scale=np.zeros(grid.n_interior))


@pytest.mark.parametrize("norm", [luxemburg_norm, luxemburg_subgradient])
def test_a_bad_scale_is_refused_before_the_level_newton(ks16, norm):
    # a NaN entry passes a test for entries <= 0, and an entry of 1e-320
    # overflows |f| / c to inf; either used to spend every level
    # evaluation before "could not solve the unit level".  The overflow
    # is refused as OverflowInIntegrand alone, with no numpy warning first.
    grid = ks16.grid
    f = np.ones(grid.n_interior)
    counted = _Counted(NF)
    nan_scale = grid.rho.copy()
    nan_scale[3] = np.nan
    with pytest.raises(ValueError):
        norm(f, grid, counted.nf, "conjugate", "rho", nan_scale)
    assert counted.calls <= 1
    counted.reset()
    tiny_scale = grid.rho.copy()
    tiny_scale[3] = 1e-320
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowInIntegrand):
            norm(f, grid, counted.nf, "conjugate", "rho", tiny_scale)
    assert counted.calls <= 1


class _Counted:
    """An N-function pair whose level evaluators count their calls and
    the calls that overflow; past `limit` (in max s = x max b) they raise
    as an overflowing integrand."""

    def __init__(self, base, limit=np.inf):
        self.base, self.limit = base, limit
        self.calls = self.overflows = 0
        self.nf = dataclasses.replace(base,
                                      principal_level=self._wrap(base.principal_level),
                                      conjugate_level=self._wrap(base.conjugate_level))

    def _wrap(self, level):
        def counted(x, b, W, *args):
            self.calls += 1
            if x * b.max(initial=0.0) > self.limit:
                self.overflows += 1
                raise OverflowInIntegrand("argument past the test limit")
            try:
                return level(x, b, W, *args)
            except OverflowInIntegrand:
                self.overflows += 1
                raise
        return counted

    def reset(self):
        self.calls = self.overflows = 0


def _level(base, f, grid, k, side, weight, scale):
    N = base.P if side == "principal" else base.Pstar
    return float(N(f / (k * (1.0 if scale is None else scale)))
                 @ grid.weight_vector(weight))


@pytest.mark.parametrize("magnitude", [1.0, 1e-150])
@pytest.mark.parametrize("base", [NF, QP], ids=["exponential", "quadratic"])
def test_level_identity_and_evaluation_count(ks16, rng, base, magnitude):
    grid = ks16.grid
    counted = _Counted(base)
    for _ in range(3):
        f = magnitude * rng.uniform(0.2, 4.0) * rng.standard_normal(grid.n_interior)
        for side in ("principal", "conjugate"):
            for weight in ("lebesgue", "rho"):
                for scale in (None, grid.rho):
                    counted.reset()
                    k = luxemburg_norm(f, grid, counted.nf, side, weight, scale)
                    assert counted.calls <= 20
                    assert abs(_level(base, f, grid, k, side, weight, scale)
                               - 1.0) < 1e-14


def test_overflow_at_the_first_guess():
    # A field concentrated on the node nearest a corner has almost no rho
    # weight, so the quadratic guess puts exp's argument past its range.
    grid = build_grid("square", 64)
    f = np.zeros(grid.n_interior)
    f[np.argmin(grid.rho)] = 3.0
    counted = _Counted(NF)
    k = luxemburg_norm(f, grid, counted.nf, weight="rho")
    assert counted.overflows >= 1 and counted.calls <= 20
    assert abs(_level(NF, f, grid, k, "principal", "rho", None) - 1.0) < 1e-14


@pytest.mark.parametrize("norm", ["principal", "amemiya"])
def test_upper_end_pulled_in_below_an_overflow(ks16, rng, norm):
    # The quadratic start lies above the root of both principal level
    # equations (P(s) and s p(s) - P(s) are at least s^2/2), so with the
    # integrand overflowing just past the root the first evaluation
    # overflows and the iteration has to come back below it.  (The
    # conjugate side starts below its root, P*(s) <= s^2/2, and rises to
    # it, so an overflow past its root is never reached.)
    grid = ks16.grid
    f = rng.standard_normal(grid.n_interior)
    if norm == "amemiya":  # x = k max|f|
        solve = lambda nf: _amemiya(f, grid, nf, "lebesgue")[1]
        exact = solve(NF)
        limit = 1.05 * exact * np.abs(f).max()
    else:  # x = max|f| / k
        solve = lambda nf: luxemburg_norm(f, grid, nf)
        exact = solve(NF)
        limit = 1.05 * np.abs(f).max() / exact
    counted = _Counted(NF, limit=limit)
    k = solve(counted.nf)
    assert counted.overflows >= 1 and counted.calls <= 20
    assert abs(k - exact) <= 1e-14 * exact


def _corpus(grid, rng):
    """Seeded normal fields over two decades of scale."""
    return [rng.uniform(0.1, 10.0) * rng.standard_normal(grid.n_interior)
            for _ in range(8)]


@pytest.mark.parametrize("base, bound", [(NF, 6.0), (QP, 2.0)],
                         ids=["exponential", "quadratic"])
def test_mean_level_evaluations_per_root(ks16, rng, base, bound):
    # Newton in log x from the quadratic start takes about five
    # evaluations a root for the exponential pair; the quadratic pair's
    # start is its root, so one evaluation confirms it.
    grid = ks16.grid
    counted = _Counted(base)
    roots = 0
    for f in _corpus(grid, rng):
        for weight in ("lebesgue", "rho"):
            for side in ("principal", "conjugate"):
                for scale in (None, grid.rho):
                    luxemburg_norm(f, grid, counted.nf, side, weight, scale)
                    roots += 1
            orlicz_norm(f, grid, counted.nf, weight=weight)
            roots += 1
    assert counted.calls <= bound * roots, counted.calls / roots


@pytest.mark.parametrize("side", ["principal", "conjugate"])
def test_level_evaluator_matches_the_n_function(ks16, rng, side):
    # sum W N(s) and sum W s n(s) at s = x b against the N-function and
    # its density; sum W s^2 n'(s) is d/dt sum W s n(s) - sum W s n(s) in
    # t = log x, the derivative taken by a complex step (exact to rounding,
    # where a central difference would stop near 1e-10)
    grid = ks16.grid
    W = grid.weight_vector("rho")
    N, n = (NF.P, NF.p) if side == "principal" else (NF.Pstar, NF.pbar)
    analytic_n = np.expm1 if side == "principal" else np.log1p
    level = NF.principal_level if side == "principal" else NF.conjugate_level
    for x in (0.05, 0.7, 5.0, 40.0):
        b = np.abs(rng.standard_normal(grid.n_interior))
        b /= b.max()
        s = x * b
        if side == "principal":  # only the Amemiya norm's side takes curvature
            got = level(x, b, W, _moments(b, W, True), True)
            assert level(x, b, W, _moments(b, W)) == got[:2]
        else:
            got = level(x, b, W, _moments(b, W))
        sn = float((s * n(s)) @ W)
        h = 1e-30
        z = np.exp(np.log(x) + 1j * h) * b
        curv = float((z * analytic_n(z)).imag @ W) / h - sn
        for value, expect in zip(got, (float(N(s) @ W), sn, curv)):
            assert abs(value - expect) <= 1e-12 * abs(expect)


def test_norms_leave_no_cycle_holding_the_field(ks16, rng):
    # Nothing a norm builds (its log-level closure, the traceback of an
    # overflow or a zero field it catches) may form a cycle that keeps the field alive
    # until the cyclic collector runs.
    grid = ks16.grid
    f = rng.standard_normal(grid.n_interior)
    spike = np.zeros(grid.n_interior)
    spike[np.argmin(grid.rho)] = 40.0
    calls = (lambda: luxemburg_norm(f, grid, NF),
             lambda: luxemburg_norm(f, grid, NF, "conjugate", "rho", grid.rho),
             lambda: luxemburg_norm(spike, grid, NF, weight="rho"),
             lambda: luxemburg_subgradient(f, grid, NF, side="conjugate"),
             lambda: orlicz_norm(f, grid, NF),
             lambda: orlicz_norm(spike, grid, NF, weight="rho"),
             lambda: orlicz_norm(np.zeros(grid.n_interior), grid, NF))
    # DEBUG_SAVEALL keeps every unreachable cycle in gc.garbage instead of
    # freeing it, and clearing that list leaves the cycles unreachable
    # again, so a collection under it would blame this call for cycles
    # left by earlier code (an earlier failing test's traceback, say).
    # Free those with the saved flags first, then watch the call alone.
    debug = gc.get_debug()
    gc.disable()
    try:
        for call in calls:
            gc.set_debug(debug)
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            call()
            gc.collect()
            held = [r for obj in gc.garbage for r in gc.get_referents(obj)
                    if isinstance(r, np.ndarray)]
            gc.garbage.clear()
            assert not held
    finally:
        gc.set_debug(debug)
        gc.enable()
