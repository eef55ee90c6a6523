"""Luxemburg and Orlicz norms on weighted grids.

The Luxemburg (gauge) norm of a field f against an N-function N and
weight w is

    ||f|| = inf { k > 0 : sum_i N(f_i / k) w_i h^d <= 1 },

the root of the decreasing level equation sum_i N(f_i / k) w_i h^d = 1.
An optional pointwise scale c_i generalises the integrand to N(f_i/(k c_i));
the boundary capacity uses that with c = rho to evaluate
||f / rho||_{L_{P*, rho}} without ever forming f / rho (the rho factors
cancel inside the integrand, which keeps near-boundary nodes finite).

The Amemiya form of the Orlicz norm,

    ||f||_orl = inf_{k>0} (1 + sum_i N(k f_i) w_i h^d) / k,

is also provided; it is the exact dual norm of the complementary
Luxemburg norm, which matters when weak duality between capacity
programs has to hold by construction rather than by luck.  The two
norms are equivalent within a factor 2.  Its minimising k solves the
increasing level equation sum N*(n(k |f_i|)) w_i h^d = 1.

Both level equations have the form sum_i w_i h^d G(x b_i) = 1 with
b = |f| / max|f| (|f| / c for the scaled gauge), G increasing, and
x = max|f| / k (gauge, G = N) or x = k max|f| (Amemiya, G = N* o n, which
is s n(s) - N(s) by Young's equality).  `_unit_level_root` solves both by
Newton's method in t = log x on the logarithm of the level, which is
linear in t where G is quadratic and far milder than the level itself
where G grows exponentially.  The N-function's level evaluator (see
`nfunctions`) gives the level and its slope from one transcendental pass:

    gauge:    g = log sum W N(s),           g' = sum W s n(s) / sum W N(s)
    Amemiya:  g = log sum W (s n(s) - N(s)), g' = sum W s^2 n'(s) / (that sum)

with s = e^t b.  Each root builds its field's moments once (`_moments`:
b W and sum b^2 W, and b^2 W for an Amemiya root), and every evaluation
at that root reads them, so an evaluation makes five passes over the
field (see `nfunctions`).  The root's set-up takes |f| (|f| / c) and its
maximum, and that maximum is the finiteness test: a NaN or infinity in
f, or an |f| / c that overflows, makes it non-finite, and the root
raises OverflowInIntegrand before any evaluation.  A cold Newton starts
at the quadratic guess x^2 = 2 / sum b^2 w h^d (exact when
N(t) = t^2/2), which reads sum b^2 W from the moments.  Inside one
capacity search the objective is evaluated at iterates that barely
move, so each evaluation's Newton starts warm, at the root t of that
search's previous evaluation (`_level_start`); the search holds that t,
and every seed, reported value and certificate is a cold call of the
public norms.
Newton keeps a sign bracket [lo, hi]; an evaluation whose integrand
overflows counts as above the root.  A Newton step that leaves the
bracket is replaced by bisection, or, while the bracket is open on that
side, by a step of LEVEL_STEP.  The iteration stops when the Newton step
is within a few ulps of t, or once it is below LEVEL_NOISE and no longer
shrinking (rounding then drives it), and returns the t it last
evaluated.

Why Newton converges fast here: with e = expm1(s), both exponential
log-levels are logarithms of power series in e^t with nonnegative
coefficients (e^s - 1 - s, and s(e^s - 1) - (e^s - 1 - s)), hence convex
in t, and Newton on an increasing convex function lands at or right of
the root after at most one step and then descends to it monotonically.
The quadratic guess is at or right of both exponential roots, since
P(s) and s p(s) - P(s) are at least s^2/2.  The conjugate gauge's per-node slope
s pbar(s) / P*(s) falls from 2 to 1, so its log-level is nearly linear,
and the quadratic guess sits at or left of its root (P*(s) <= s^2/2).
The bracket keeps every case safe without these facts, and from any
start: the level is increasing, so each evaluation moves lo or hi toward
the root, a step that leaves [lo, hi] is replaced, and an open side is
walked by LEVEL_STEP until the root is bracketed.  A warm start changes
only how many evaluations the root takes, and the stopping rule returns
the same root to within its tolerance.

No optimiser is needed, so a process that only takes norms never loads
scipy.optimize; the capacity programs load it at their first call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OverflowInIntegrand, ZeroField
from .grids import WeightedGrid
from .nfunctions import NFunction

LEVEL_STEP = math.log(2.0)  # step in log x where Newton leaves an open bracket
LEVEL_ULPS = 4.0          # stop: Newton step within this many ulps of max(1, |t|)
LEVEL_NOISE = 1e-9        # stop: a step below this that no longer shrinks
LEVEL_MAXIT = 200         # cap on level evaluations per root


def _side_fns(nf: NFunction, side: str):
    """(level evaluator, density on s >= 0) of one side of the pair."""
    if side == "principal":
        return nf.principal_level, nf.density
    if side == "conjugate":
        return nf.conjugate_level, nf.conjugate_density
    raise ValueError(f"side must be 'principal' or 'conjugate', got {side!r}")


def _moments(b, W, curvature=False):
    """The moments m = (b W, sum b^2 W, b^2 W) of a root's scaled field b,
    which every level evaluation at that root reads (see `nfunctions`);
    b^2 W only for a root whose evaluations take curvature, else None."""
    bW = b * W
    return bW, float(b @ bW), b * bW if curvature else None


def _level_start(previous, m):
    """Newton's first t: `previous`, the root of the same search's last
    evaluation, when there is one; else the quadratic guess, from the
    root's moments m."""
    if previous is not None:
        return previous
    return 0.5 * math.log(2.0 / m[1])


def _unit_level_root(log_level, m, start=None):
    """(t, sums at t) for the root of log_level(t) = (g, g', sums), an
    increasing log-level that raises OverflowInIntegrand where its
    integrand overflows (see the module docstring); m are the moments of
    the field scaled to max 1, and `start` a previous root to start from
    (or None)."""
    t = _level_start(start, m)
    lo, hi, last = -math.inf, math.inf, math.inf
    tol = LEVEL_ULPS * np.finfo(float).eps
    for _ in range(LEVEL_MAXIT):
        try:
            g, slope, sums = log_level(t)
        except OverflowInIntegrand:
            g = step = math.inf
        else:
            step = -g / slope
            if (abs(step) <= tol * max(1.0, abs(t))
                    or LEVEL_NOISE > abs(step) >= abs(last)):
                return t, sums
            last = step
        if g < 0.0:
            lo = t
        else:
            hi = t
        if lo < t + step < hi:
            t += step
        elif math.isfinite(lo) and math.isfinite(hi):
            t = 0.5 * (lo + hi)
        else:
            t += LEVEL_STEP if g < 0.0 else -LEVEL_STEP
    raise OverflowInIntegrand("could not solve the unit level")


def _gauge_root(vals, W, level, scale, start=None):
    """(rmax, t, sum W s n(s), b) at the root of the gauge's level equation
    (see the module docstring): b = |f| / c scaled to max 1 by rmax, and
    s = e^t b.  t is None for the zero field.  A NaN or infinity in f,
    or an |f| / c that overflows, shows as a non-finite rmax."""
    b = np.abs(vals)
    if scale is not None:
        sc = np.asarray(scale, dtype=float)
        if not np.all(sc > 0):
            raise ValueError("scale vector must be strictly positive")
        b /= sc
    rmax = float(b.max(initial=0.0))
    if not math.isfinite(rmax):
        raise OverflowInIntegrand("field (or field / scale) contains non-finite values")
    if rmax == 0.0:
        return rmax, None, 0.0, b
    b /= rmax
    m = _moments(b, W)

    def log_level(t):
        N, sn = level(math.exp(t), b, W, m)
        return math.log(N), sn / N, sn

    t, sn = _unit_level_root(log_level, m, start)
    return rmax, t, sn, b


def luxemburg_norm(f, grid: WeightedGrid, nf: NFunction, side: str = "principal",
                   weight: str = "lebesgue", scale=None) -> float:
    """Luxemburg norm, by one safeguarded Newton solve of its level
    equation in log k (see the module docstring); exact 0 for the zero
    field."""
    level, _ = _side_fns(nf, side)
    rmax, t, _, _ = _gauge_root(grid.interior_values(f), grid.weight_vector(weight),
                                level, scale)
    return 0.0 if t is None else rmax * math.exp(-t)


def luxemburg_subgradient(f, grid: WeightedGrid, nf: NFunction, side: str = "principal",
                          weight: str = "lebesgue", scale=None):
    """Gradient of the Luxemburg norm at f (implicit differentiation).

    g_i = (W_i / c_i) n(f_i/(k c_i)) / D    with
    D   = (1/k) sum_j n(f_j/(k c_j)) f_j W_j / c_j,

    so that <g, f> = k (the Euler identity for 1-homogeneous norms).  At
    the root s = |f| / (k c) = e^t b, so D = sum W s n(s) is the sum the
    level evaluator returned there, and one density pass on s >= 0 gives
    g = sign(f) (W / c) n(s) / D.  Returns (norm, g).
    """
    return _subgradient(f, grid, nf, side, weight, scale)[:2]


def _subgradient(f, grid, nf, side, weight, scale, start=None):
    """(norm, g, t): luxemburg_subgradient with its level Newton started
    at the root `start` of a previous evaluation, and its own root t."""
    vals = grid.interior_values(f)
    W = grid.weight_vector(weight)
    level, dens = _side_fns(nf, side)
    rmax, t, sn, b = _gauge_root(vals, W, level, scale, start)
    if t is None:
        raise ZeroField("subgradient undefined at the zero field")
    b *= math.exp(t)
    g = dens(b)
    g *= W
    if scale is not None:
        g /= scale
    g /= sn
    return rmax * math.exp(-t), np.copysign(g, vals, out=g), t


def orlicz_norm_and_argmin(f, grid: WeightedGrid, nf: NFunction,
                           side: str = "principal", weight: str = "lebesgue"):
    """(Amemiya norm of f, its minimising k); raises ZeroField at f = 0.

    Setting the derivative of (1 + sum N(k f) W) / k to zero gives the
    level equation sum W N*(n(k |f|)) = 1, whose left side increases
    with k.  The norm is the Amemiya functional evaluated at k, so it is
    never below the exact norm.  At k the envelope theorem gives the
    gradient of the norm in f as n(k f) W.
    """
    return _amemiya(f, grid, nf, side, weight)[:2]


def _amemiya(f, grid, nf, side, weight, start=None):
    """(norm, k, t): orlicz_norm_and_argmin with its level Newton started
    at the root `start` of a previous evaluation, and its own root t."""
    vals = grid.interior_values(f)
    a = np.abs(vals)
    amax = float(a.max(initial=0.0))
    if not math.isfinite(amax):
        raise OverflowInIntegrand("field contains non-finite values")
    if amax == 0.0:
        raise ZeroField("Amemiya minimiser undefined at the zero field")
    W = grid.weight_vector(weight)
    level, _ = _side_fns(nf, side)
    a /= amax
    m = _moments(a, W, curvature=True)

    def log_level(t):
        N, sn, curv = level(math.exp(t), a, W, m, True)
        G = sn - N
        return math.log(G), curv / G, N

    t, N = _unit_level_root(log_level, m, start)
    k = math.exp(t) / amax
    return (1.0 + N) / k, k, t


def orlicz_norm(f, grid: WeightedGrid, nf: NFunction, side: str = "principal",
                weight: str = "lebesgue") -> float:
    """Amemiya form of the Orlicz norm (exact dual of the complementary
    gauge); exact 0 for the zero field."""
    try:
        return _amemiya(f, grid, nf, side, weight)[0]
    except ZeroField:
        return 0.0
