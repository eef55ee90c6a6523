"""N-function algebra for the exponential Orlicz pair.

The pair driving everything here is

    P(t)  = e^|t| - 1 - |t|            (exponential growth)
    P*(t) = (|t| + 1) ln(|t| + 1) - |t|   (its Young conjugate, L log L growth)

with densities p(s) = sgn(s)(e^|s| - 1) and pbar(s) = sgn(s) ln(1 + |s|),
each the inverse of the other.  P* satisfies the doubling condition,
P does not; that asymmetry is why the conjugate side carries the
maximal-function machinery elsewhere in the package.

Generic pairs can be registered from a density; the conjugate is then
evaluated through a numeric inverse of the density and Young's
equality, which is slow but only meant for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OverflowInIntegrand

# exp overflows near 709 in float64; refuse a little earlier so the
# integrand is still finite when we test it.
EXP_ARG_MAX = 700.0
SEARCH_CAP = 1e6  # pair_from_density's bisection bracket stops doubling here


def _check_exp_range(t: np.ndarray) -> None:
    if np.any(np.abs(t) > EXP_ARG_MAX):
        raise OverflowInIntegrand(
            "N-function argument exceeds %g; integrand would overflow" % EXP_ARG_MAX
        )


@dataclass(frozen=True)
class NFunction:
    """A complementary pair (P, P*) with densities.

    All four callables are vectorised over numpy arrays.  `principal`
    and `conjugate` are even and vanish at 0; the densities are odd and
    increasing.
    """

    name: str
    principal: Callable[[np.ndarray], np.ndarray]
    conjugate: Callable[[np.ndarray], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray]
    conjugate_density: Callable[[np.ndarray], np.ndarray]

    def P(self, t):
        t = np.asarray(t, dtype=float)
        return self.principal(t)

    def Pstar(self, t):
        t = np.asarray(t, dtype=float)
        return self.conjugate(t)

    def p(self, s):
        s = np.asarray(s, dtype=float)
        return self.density(s)

    def pbar(self, s):
        s = np.asarray(s, dtype=float)
        return self.conjugate_density(s)


def _exp_P(t):
    a = np.abs(t)
    _check_exp_range(a)
    return np.expm1(a) - a


def _exp_Pstar(t):
    a = np.abs(t)
    return (a + 1.0) * np.log1p(a) - a


def _exp_p(s):
    a = np.abs(s)
    _check_exp_range(a)
    return np.sign(s) * np.expm1(a)


def _exp_pbar(s):
    return np.sign(s) * np.log1p(np.abs(s))


def exponential_pair() -> NFunction:
    """The pair P(t) = e^|t| - 1 - |t|, P*(t) = (|t|+1)ln(|t|+1) - |t|."""
    return NFunction(
        name="exponential",
        principal=_exp_P,
        conjugate=_exp_Pstar,
        density=_exp_p,
        conjugate_density=_exp_pbar,
    )


def quadratic_pair() -> NFunction:
    """Self-conjugate pair N(t) = t^2/2; used to reduce Orlicz tests to L2."""
    sq = lambda t: 0.5 * np.asarray(t, dtype=float) ** 2
    ident = lambda s: np.asarray(s, dtype=float)
    return NFunction(
        name="quadratic",
        principal=sq,
        conjugate=sq,
        density=ident,
        conjugate_density=ident,
    )


def pair_from_density(name: str, principal: Callable, density: Callable) -> NFunction:
    """Build an NFunction from scalar (P, p), with P* by Young's equality.

    pbar = p^{-1} comes from one vectorised bisection of the increasing
    density on [0, x_hi], x_hi doubled until p(x_hi) >= |y| or it reaches
    SEARCH_CAP; then P*(y) = |y| pbar(|y|) - P(pbar(|y|)), whose error is
    second order in that of pbar.  Intended for cross-checking, not
    production hot paths.
    """
    P, p = (np.vectorize(f, otypes=[float]) for f in (principal, density))

    def pbar(y):
        ay = np.abs(np.asarray(y, dtype=float))
        lo, hi = np.zeros_like(ay), np.ones_like(ay)
        short = (p(hi) < ay) & (hi < SEARCH_CAP)
        while short.any():
            hi = np.where(short, 2.0 * hi, hi)
            short = (p(hi) < ay) & (hi < SEARCH_CAP)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = p(mid) < ay
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def conj(y):
        x = pbar(y)
        return np.abs(y) * x - P(x)

    return NFunction(
        name=name,
        principal=lambda t: P(np.abs(t)),
        conjugate=conj,
        density=lambda s: np.sign(s) * p(np.abs(s)),
        conjugate_density=lambda s: np.sign(s) * pbar(s),
    )


def young_gap(x, y, nf: NFunction | None = None):
    """P(x) + P*(y) - x*y.  Nonnegative; zero exactly on the graph y = p(x)."""
    if nf is None:
        nf = exponential_pair()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return nf.P(x) + nf.Pstar(y) - x * y


def q_function(r):
    """Q(r) = (|r| + 1/2) ln(2|r| + 1) - |r|.

    A smoothed companion of P*; bounded above by 3 |r| ln(1 + |r|).
    """
    a = np.abs(np.asarray(r, dtype=float))
    return (a + 0.5) * np.log1p(2.0 * a) - a


def pstar_sandwich(a):
    """Return (lower, P*(a), upper) for the two-sided L log L comparison.

    lower = |a| ln(1 + |a|) / 2  <=  P*(a)  <=  |a| ln(1 + |a|) = upper.
    """
    t = np.abs(np.asarray(a, dtype=float))
    ref = t * np.log1p(t)
    return 0.5 * ref, _exp_Pstar(t), ref
