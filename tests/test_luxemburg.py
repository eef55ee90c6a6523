"""Gauge and Amemiya norms: closed forms, invariants, subgradients."""

import gc

import numpy as np
import pytest
from scipy.optimize import brentq

from expcap.errors import GridMismatch, OverflowInIntegrand, ZeroField
from expcap.grids import build_grid
from expcap.luxemburg import luxemburg_norm, luxemburg_subgradient, orlicz_norm
from expcap.nfunctions import NFunction, exponential_pair, quadratic_pair

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


class _Counted:
    """An N-function pair whose P and P* count their calls and the calls
    that overflow; past `limit` they raise as an overflowing integrand."""

    def __init__(self, base, limit=np.inf):
        self.base, self.limit = base, limit
        self.calls = self.overflows = 0
        self.nf = NFunction(base.name, self._wrap(base.principal),
                            self._wrap(base.conjugate), base.density,
                            base.conjugate_density)

    def _wrap(self, fn):
        def counted(t):
            self.calls += 1
            if np.abs(t).max(initial=0.0) > self.limit:
                self.overflows += 1
                raise OverflowInIntegrand("argument past the test limit")
            try:
                return fn(t)
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


@pytest.mark.parametrize("side", ["principal", "conjugate"])
def test_upper_end_pulled_in_below_an_overflow(ks16, rng, side):
    # The integrand overflows just past the root, so a bracketing step
    # lands beyond it and the upper end has to be pulled back in.
    grid = ks16.grid
    f = rng.standard_normal(grid.n_interior)
    exact = luxemburg_norm(f, grid, NF, side)
    counted = _Counted(NF, limit=1.05 * np.abs(f).max() / exact)
    k = luxemburg_norm(f, grid, counted.nf, side)
    assert counted.overflows >= 1 and counted.calls <= 20
    assert abs(k - exact) <= 1e-14 * exact


def test_norms_leave_no_cycle_holding_the_field(ks16, rng):
    # scipy's brentq wraps its function in a closure that refers to
    # itself; a closure over the field handed to it would keep the field
    # alive until the cyclic collector runs.
    grid = ks16.grid
    f = rng.standard_normal(grid.n_interior)
    spike = np.zeros(grid.n_interior)
    spike[np.argmin(grid.rho)] = 40.0
    calls = (lambda: luxemburg_norm(f, grid, NF),
             lambda: luxemburg_norm(f, grid, NF, "conjugate", "rho", grid.rho),
             lambda: luxemburg_norm(spike, grid, NF, weight="rho"),
             lambda: luxemburg_subgradient(f, grid, NF, side="conjugate"),
             lambda: orlicz_norm(f, grid, NF),
             lambda: orlicz_norm(spike, grid, NF, weight="rho"))
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
