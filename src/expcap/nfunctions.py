"""N-function algebra for the exponential Orlicz pair.

The pair driving everything here is

    P(t)  = e^|t| - 1 - |t|            (exponential growth)
    P*(t) = (|t| + 1) ln(|t| + 1) - |t|   (its Young conjugate, L log L growth)

with densities p(s) = sgn(s)(e^|s| - 1) and pbar(s) = sgn(s) ln(1 + |s|),
each the inverse of the other.  P* satisfies the doubling condition,
P does not; that asymmetry is why the conjugate side carries the
maximal-function machinery elsewhere in the package.

Level evaluators.  Every norm in `luxemburg` solves a level equation in
s = x b, with b >= 0 a field scaled to max b = 1 and x > 0 a scalar, so
each side of a pair also carries one evaluator

    principal_level(x, b, W, m, curvature=False)
        -> (sum W N(s), sum W s n(s))                 or, with curvature,
        -> (sum W N(s), sum W s n(s), sum W s^2 n'(s))
    conjugate_level(x, b, W, m) -> (sum W N(s), sum W s n(s))

for N that side's N-function and n its density.  The first two give
the gauge's log-level and its slope in log x, the last two the Amemiya
level and its slope; the Amemiya norm is principal-side only, so only
that side takes curvature.  m = (b W, sum b^2 W, b^2 W) are the root's
moments, built once per root (`luxemburg._moments`; b^2 W is None for a
root that takes no curvature), so that every power of x leaves the
sums as a scalar factor.  Each evaluator makes one transcendental pass
and then dot products with the moments:

    exponential:  e = expm1(s);   sum W s n     = x (e . bW),
                  sum W s^2 n' = x^2 (e . b^2W + sum b^2 W),
                  sum W N      = (e - s) . W;
    conjugate:    l = log1p(s);   sum W s pbar  = x (l . bW),
                  sum W N*     = (l - s) . W + sum W s pbar;

that is five passes over the field (s = x b, the transcendental, a dot,
a subtraction, a dot), and one more dot for the curvature.  Forming
every sum elementwise took seven and eight passes, ten with curvature.
The quadratic pair
reads sum b^2 W and makes no pass.  Accuracy: N = e - s and l - s are
kept elementwise.  Each difference loses the digits of its own
cancellation (relative error about eps / s, with errors of random sign
across nodes), while the shorter e . W - x sum b W subtracts two sums
of size x from one of size x^2 / 2 and loses all of them at once: at
x = 1e-3 on square n=16 with rho weights (the tests' field) it is off
by 1.5e-13 (P) and 4.0e-13 (P*) relative, the elementwise form by
3.8e-14 and 2.1e-14, against sums exact to rounding; the tests hold
the evaluators to 7e-14.  The other sums add terms of one sign, each correct
to a few ulps.  Since max s = x, the exponential side's range test is
one scalar comparison; past EXP_ARG_MAX it raises OverflowInIntegrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OverflowInIntegrand

# exp overflows near 709 in float64; refuse a little earlier so the
# integrand is still finite when we test it.
EXP_ARG_MAX = 700.0


def _check_exp_range(amax: float) -> None:
    """Refuse an argument of largest modulus amax past EXP_ARG_MAX."""
    if amax > EXP_ARG_MAX:
        raise OverflowInIntegrand(
            "N-function argument exceeds %g; integrand would overflow" % EXP_ARG_MAX
        )


@dataclass(frozen=True)
class NFunction:
    """A complementary pair (P, P*) with densities and level evaluators.

    The callables are vectorised over numpy arrays.  `principal` and
    `conjugate` are even and vanish at 0.  `density` and
    `conjugate_density` take s >= 0 only; `p` and `pbar` extend them to
    odd functions, increasing.  `principal_level` and `conjugate_level`
    are the level evaluators of the module docstring.
    """

    principal: Callable[[np.ndarray], np.ndarray]
    conjugate: Callable[[np.ndarray], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray]
    conjugate_density: Callable[[np.ndarray], np.ndarray]
    principal_level: Callable[..., tuple]
    conjugate_level: Callable[..., tuple]

    def P(self, t):
        t = np.asarray(t, dtype=float)
        return self.principal(t)

    def Pstar(self, t):
        t = np.asarray(t, dtype=float)
        return self.conjugate(t)

    def p(self, s):
        s = np.asarray(s, dtype=float)
        return np.copysign(self.density(np.abs(s)), s)

    def pbar(self, s):
        s = np.asarray(s, dtype=float)
        return np.copysign(self.conjugate_density(np.abs(s)), s)


def _exp_P(t):
    a = np.abs(t)
    _check_exp_range(a.max(initial=0.0))
    return np.expm1(a) - a


def _exp_Pstar(t):
    a = np.abs(t)
    return (a + 1.0) * np.log1p(a) - a


def _exp_p(a):
    _check_exp_range(a.max(initial=0.0))
    return np.expm1(a)


def _exp_P_level(x, b, W, m, curvature=False):
    """Level sums of P at s = x b, from e = expm1(s) and the moments m."""
    _check_exp_range(x)
    bW, b2W_sum, b2W = m
    s = np.multiply(b, x)
    e = np.expm1(s)
    sn = x * float(e @ bW)                          # sum W s p(s)
    if curvature:
        curv = x * x * (float(e @ b2W) + b2W_sum)   # sum W s^2 (e + 1)
    e -= s                                          # P(s)
    N = float(e @ W)
    return (N, sn, curv) if curvature else (N, sn)


def _exp_Pstar_level(x, b, W, m):
    """Level sums of P* at s = x b, from l = log1p(s) and the moments m."""
    s = np.multiply(b, x)
    l = np.log1p(s)
    sn = x * float(l @ m[0])                        # sum W s pbar(s)
    l -= s
    return float(l @ W) + sn, sn                    # P*(s) = (l - s) + s l


def _quadratic_level(x, b, W, m, curvature=False):
    """Level sums of N(s) = s^2/2: sum W s^2 / 2, and sum W s^2 twice."""
    q = x * x * m[1]
    return (0.5 * q, q, q) if curvature else (0.5 * q, q)


def exponential_pair() -> NFunction:
    """The pair P(t) = e^|t| - 1 - |t|, P*(t) = (|t|+1)ln(|t|+1) - |t|."""
    return NFunction(
        principal=_exp_P,
        conjugate=_exp_Pstar,
        density=_exp_p,
        conjugate_density=np.log1p,
        principal_level=_exp_P_level,
        conjugate_level=_exp_Pstar_level,
    )


def quadratic_pair() -> NFunction:
    """Self-conjugate pair N(t) = t^2/2; used to reduce Orlicz tests to L2."""
    sq = lambda t: 0.5 * np.asarray(t, dtype=float) ** 2
    ident = lambda s: np.asarray(s, dtype=float)
    return NFunction(
        principal=sq,
        conjugate=sq,
        density=ident,
        conjugate_density=ident,
        principal_level=_quadratic_level,
        conjugate_level=_quadratic_level,
    )


def young_gap(x, y):
    """P(x) + P*(y) - x*y for the exponential pair.  Nonnegative; zero
    exactly on the graph y = p(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _exp_P(x) + _exp_Pstar(y) - x * y


def pstar_sandwich(a):
    """Return (lower, P*(a), upper) for the two-sided L log L comparison.

    lower = |a| ln(1 + |a|) / 2  <=  P*(a)  <=  |a| ln(1 + |a|) = upper.
    """
    t = np.abs(np.asarray(a, dtype=float))
    ref = t * np.log1p(t)
    return 0.5 * ref, _exp_Pstar(t), ref
