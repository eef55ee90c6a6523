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

    level(x, b, W, curvature=False)
        -> (sum W N(s), sum W s n(s))                 or, with curvature,
        -> (sum W N(s), sum W s n(s), sum W s^2 n'(s))

for N that side's N-function and n its density.  The first two give
the gauge's log-level and its slope in log x, the last two the Amemiya
level and its slope.  Each evaluator makes one transcendental pass
(exponential side: e = expm1(s), N = e - s, s n = s e, s^2 n' = s^2 (e + 1);
conjugate side: l = log1p(s), N* = (1 + s) l - s, s pbar = s l,
s^2 pbar' = s^2 / (1 + s)) and works in place on at most two arrays of
the field's length.  Since max s = x, the exponential side's range test
is one scalar comparison; past EXP_ARG_MAX it raises
OverflowInIntegrand.
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

    The first four callables are vectorised over numpy arrays.
    `principal` and `conjugate` are even and vanish at 0; the densities
    are odd and increasing.  `principal_level` and `conjugate_level`
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
        return self.density(s)

    def pbar(self, s):
        s = np.asarray(s, dtype=float)
        return self.conjugate_density(s)


def _exp_P(t):
    a = np.abs(t)
    _check_exp_range(a.max(initial=0.0))
    return np.expm1(a) - a


def _exp_Pstar(t):
    a = np.abs(t)
    return (a + 1.0) * np.log1p(a) - a


def _exp_p(s):
    a = np.abs(s)
    _check_exp_range(a.max(initial=0.0))
    return np.sign(s) * np.expm1(a)


def _exp_pbar(s):
    return np.sign(s) * np.log1p(np.abs(s))


def _exp_P_level(x, b, W, curvature=False):
    """Level sums of P at s = x b, from e = expm1(s)."""
    _check_exp_range(x)
    s = np.multiply(b, x)
    e = np.expm1(s)
    e -= s                      # P(s)
    N = float(e @ W)
    e += s
    e *= s                      # s p(s) = s e
    sn = float(e @ W)
    if not curvature:
        return N, sn
    e += s
    e *= s                      # s^2 p'(s) = s (s e + s)
    return N, sn, float(e @ W)


def _exp_Pstar_level(x, b, W, curvature=False):
    """Level sums of P* at s = x b, from l = log1p(s)."""
    s = np.multiply(b, x)
    l = np.log1p(s)
    s *= l                      # s pbar(s) = s l
    sn = float(s @ W)
    s += l                      # (1 + s) l
    np.multiply(b, x, out=l)
    s -= l                      # P*(s)
    N = float(s @ W)
    if not curvature:
        return N, sn
    np.add(l, 1.0, out=s)
    l *= l
    l /= s                      # s^2 pbar'(s) = s^2 / (1 + s)
    return N, sn, float(l @ W)


def _quadratic_level(x, b, W, curvature=False):
    """Level sums of N(s) = s^2/2: sum W s^2 / 2, and sum W s^2 twice."""
    q = x * x * float((b * b) @ W)
    return (0.5 * q, q, q) if curvature else (0.5 * q, q)


def exponential_pair() -> NFunction:
    """The pair P(t) = e^|t| - 1 - |t|, P*(t) = (|t|+1)ln(|t|+1) - |t|."""
    return NFunction(
        principal=_exp_P,
        conjugate=_exp_Pstar,
        density=_exp_p,
        conjugate_density=_exp_pbar,
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


def young_gap(x, y, nf: NFunction | None = None):
    """P(x) + P*(y) - x*y.  Nonnegative; zero exactly on the graph y = p(x)."""
    if nf is None:
        nf = exponential_pair()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return nf.P(x) + nf.Pstar(y) - x * y


def pstar_sandwich(a):
    """Return (lower, P*(a), upper) for the two-sided L log L comparison.

    lower = |a| ln(1 + |a|) / 2  <=  P*(a)  <=  |a| ln(1 + |a|) = upper.
    """
    t = np.abs(np.asarray(a, dtype=float))
    ref = t * np.log1p(t)
    return 0.5 * ref, _exp_Pstar(t), ref
