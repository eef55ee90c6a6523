"""Algebra of the exponential / L log L conjugate pair."""

import math

import numpy as np
import pytest

from expcap.errors import OverflowInIntegrand
from expcap.grids import build_grid
from expcap.luxemburg import _moments
from expcap.nfunctions import (exponential_pair, pstar_sandwich, quadratic_pair,
                               young_gap)

NF = exponential_pair()


def test_closed_form_anchors():
    # P(1) = e - 2 and P*(e - 1) = 1, straight from the formulas
    assert float(NF.P(1.0)) == pytest.approx(math.e - 2.0, rel=1e-15)
    assert abs(float(NF.Pstar(math.e - 1.0)) - 1.0) < 1e-15
    assert NF.P(0.0) == 0.0
    assert NF.Pstar(0.0) == 0.0


def test_young_gap_nonnegative(rng):
    x = rng.uniform(-6.0, 6.0, size=10000)
    y = rng.uniform(-30.0, 30.0, size=10000)
    assert float(young_gap(x, y).min()) >= -1e-12


def test_young_gap_tight_on_the_density_graph(rng):
    x = rng.uniform(-5.0, 5.0, size=2000)
    assert float(np.abs(young_gap(x, NF.p(x))).max()) < 1e-9


def test_young_gap_unit_pair_value():
    # gap(1, 1) = (e - 2) + (2 ln 2 - 1) - 1
    expect = math.e + 2.0 * math.log(2.0) - 4.0
    assert float(young_gap(1.0, 1.0)) == pytest.approx(expect, abs=1e-14)


def test_densities_invert_each_other(rng):
    s = rng.uniform(-20.0, 20.0, size=300)
    assert np.abs(NF.pbar(NF.p(s)) - s).max() < 1e-12
    t = rng.uniform(-500.0, 500.0, size=300)
    assert np.allclose(NF.p(NF.pbar(t)), t, rtol=1e-12)


def test_symmetry(rng):
    t = rng.uniform(0.0, 8.0, size=64)
    assert np.allclose(NF.P(-t), NF.P(t))
    assert np.allclose(NF.Pstar(-t), NF.Pstar(t))
    assert np.allclose(NF.p(-t), -NF.p(t))
    assert np.allclose(NF.pbar(-t), -NF.pbar(t))


def test_conjugate_sandwich():
    a = np.geomspace(1e-4, 1e4, 300)
    lo, mid, hi = pstar_sandwich(a)
    assert np.all(lo <= mid + 1e-15)
    assert np.all(mid <= hi + 1e-15)
    assert np.allclose(hi, a * np.log1p(a))
    assert np.allclose(lo, 0.5 * a * np.log1p(a))


def test_overflow_guard():
    with pytest.raises(OverflowInIntegrand):
        NF.P(800.0)
    with pytest.raises(OverflowInIntegrand):
        NF.p(np.array([10.0, 750.0]))
    # just under the cap must still evaluate
    assert np.isfinite(float(NF.P(699.0)))


def test_quadratic_pair_is_self_conjugate(rng):
    q = quadratic_pair()
    x = rng.uniform(-5.0, 5.0, size=500)
    y = rng.uniform(-5.0, 5.0, size=500)
    assert float(young_gap(x, y, q).min()) >= -1e-12
    # equality exactly on the diagonal y = x
    assert float(np.abs(young_gap(x, x, q)).max()) < 1e-12


def _exact_terms(side, s):
    """(N(s), s n(s), s^2 n'(s)) at one s >= 0, accurate to rounding:
    N by its Taylor series below s = 0.1, where the closed form cancels
    (the terms fall by s / 10 or faster, so 30 reach eps)."""
    if side == "principal":
        N = (math.fsum(s ** k / math.factorial(k) for k in range(2, 30)) if s < 0.1
             else math.expm1(s) - s)
        return N, s * math.expm1(s), s * s * math.exp(s)
    N = (math.fsum((-s) ** k / (k * (k - 1)) for k in range(2, 30)) if s < 0.1
         else (1.0 + s) * math.log1p(s) - s)
    return N, s * math.log1p(s), s * s / (1.0 + s)


@pytest.mark.parametrize("side", ["principal", "conjugate"])
def test_level_evaluators_are_accurate_to_rounding(side, rng):
    # sum W N(s), sum W s n(s) and sum W s^2 n'(s) against sums of terms
    # accurate to rounding (math.fsum), at small s too, where N(s) ~ s^2/2
    # is what is left of e - s or l - s (3.8e-14 and 2.1e-14 at x = 1e-3);
    # forming sum W N from e . W - x sum b W instead is off by 1.5e-13
    # (P) and 4.0e-13 (P*) there
    grid = build_grid("square", 16)
    W = grid.weight_vector("rho")
    level = NF.principal_level if side == "principal" else NF.conjugate_level
    b = np.abs(rng.standard_normal(grid.n_interior))
    b /= b.max()
    for x in (1e-3, 0.05, 0.7, 5.0, 40.0):
        s = x * b
        terms = [_exact_terms(side, si) for si in s]
        exact = [math.fsum(w * t[i] for w, t in zip(W, terms)) for i in range(3)]
        for curvature in (False, True):
            got = level(x, b, W, _moments(b, W, curvature), curvature)
            for value, expect in zip(got, exact):
                assert abs(value - expect) <= 7e-14 * expect, (x, value, expect)
