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
x = max|f| / k (gauge, G = N) or x = k max|f| (Amemiya, G = N* o n).
`_unit_level_root` solves both by one root-find in t = log x on the
logarithm of the level, which is linear in t where G is quadratic and
far milder than the level itself where G grows exponentially: the
quadratic guess x^2 = 2 / sum b^2 w h^d (exact when N(t) = t^2/2), ln 2
steps in t until the root is bracketed, a pull-in while the upper end's
integrand overflows, then Brent's method (scipy's brentq).  The
log-level functions are module-level and `_unit_level_root` hands the
field to brentq through its `args`: scipy wraps the function in a
closure that refers to itself, so a closure over the field passed there
would stay alive until the cyclic collector runs.

`_unit_level_root` imports brentq at its call, not at module import:
scipy.optimize brings scipy.special and some 170 modules with it, and a
process that only assembles, solves or ladders never takes a norm, so
`import expcap` leaves the optimiser unloaded until the first one.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch, OverflowInIntegrand, ZeroField
from .grids import Field, WeightedGrid
from .nfunctions import NFunction

LEVEL_STEP = np.log(2.0)   # bracket growth in log x
LEVEL_XTOL = 1e-15         # root tolerance in log x
LEVEL_MAXIT = 200          # cap on bracket steps and on Brent iterations


def _resolve(f, grid: WeightedGrid):
    if isinstance(f, Field):
        grid.require_same(f.grid)
        return np.asarray(f.values, dtype=float)
    vals = np.asarray(f, dtype=float)
    if vals.shape != (grid.n_interior,):
        raise GridMismatch(
            f"field of length {vals.shape} on a grid with {grid.n_interior} interior nodes"
        )
    return vals


def _side_fn(nf: NFunction, side: str):
    if side == "principal":
        return nf.P, nf.p
    if side == "conjugate":
        return nf.Pstar, nf.pbar
    raise ValueError(f"side must be 'principal' or 'conjugate', got {side!r}")


def _gauge_log_level(t, b, W, Nfun):
    """log sum W N(e^t b), the gauge level at k = max|f| e^-t; overflow
    maps to +inf (k too small)."""
    try:
        out = float(Nfun(np.exp(t) * b) @ W)
    except OverflowInIntegrand:
        return np.inf
    return np.log(out) if np.isfinite(out) else np.inf


def _amemiya_log_level(t, b, W, Nfun, dens):
    """log sum W N*(n(e^t b)), the Amemiya level at k = e^t / max|f|, by
    Young's equality N*(n(s)) = s n(s) - N(s); overflow maps to +inf
    (k too large)."""
    s = np.exp(t) * b
    try:
        out = float((s * dens(s) - Nfun(s)) @ W)
    except OverflowInIntegrand:
        return np.inf
    return np.log(out) if np.isfinite(out) else np.inf


def _unit_level_root(log_level, b, W, *args) -> float:
    """t solving log_level(t, b, W, *args) = 0 (see the module docstring),
    for a log-level increasing in t and +inf where the integrand
    overflows; b is the field scaled to max 1."""
    lo = hi = 0.5 * np.log(2.0 / float((b * b) @ W))
    f_hi = f_lo = log_level(hi, b, W, *args)
    for _ in range(LEVEL_MAXIT):
        if f_lo >= 0.0:
            hi, f_hi = lo, f_lo
            lo -= LEVEL_STEP
            f_lo = log_level(lo, b, W, *args)
        elif f_hi < 0.0:
            lo, f_lo = hi, f_hi
            hi += LEVEL_STEP
            f_hi = log_level(hi, b, W, *args)
        else:
            break
    else:
        raise OverflowInIntegrand("could not bracket the unit level")
    # pull an overflowing upper end in until the level is finite there
    while not np.isfinite(f_hi):
        mid = 0.5 * (lo + hi)
        f_mid = log_level(mid, b, W, *args)
        if f_mid < 0.0:
            lo = mid
        else:
            hi, f_hi = mid, f_mid
    from scipy.optimize import brentq
    return brentq(log_level, lo, hi, args=(b, W) + args, xtol=LEVEL_XTOL,
                  maxiter=LEVEL_MAXIT)


def luxemburg_norm(f, grid: WeightedGrid, nf: NFunction, side: str = "principal",
                   weight: str = "lebesgue", scale=None) -> float:
    """Luxemburg norm, by one bracketed Brent root-find of its level
    equation in log k (see the module docstring); exact 0 for the zero
    field."""
    vals = _resolve(f, grid)
    if not np.all(np.isfinite(vals)):
        raise OverflowInIntegrand("field contains non-finite values")
    W = grid.weight_vector(weight)
    ratio = np.abs(vals)
    if scale is not None:
        sc = np.asarray(scale, dtype=float)
        if np.any(sc <= 0):
            raise ValueError("scale vector must be strictly positive")
        ratio /= sc
    rmax = float(ratio.max(initial=0.0))
    if rmax == 0.0:
        return 0.0
    Nfun, _ = _side_fn(nf, side)
    t = _unit_level_root(_gauge_log_level, ratio / rmax, W, Nfun)
    return rmax * float(np.exp(-t))


def luxemburg_subgradient(f, grid: WeightedGrid, nf: NFunction, side: str = "principal",
                          weight: str = "lebesgue", scale=None):
    """Gradient of the Luxemburg norm at f (implicit differentiation).

    g_i = (W_i / c_i) n'(f_i/(k c_i)) / D    with
    D   = (1/k) sum_j n'(f_j/(k c_j)) f_j W_j / c_j,

    so that <g, f> = k (the Euler identity for 1-homogeneous norms).
    Returns (norm, g).
    """
    vals = _resolve(f, grid)
    W = grid.weight_vector(weight)
    sc = np.ones_like(vals) if scale is None else np.asarray(scale, dtype=float)
    if float(np.abs(vals).max(initial=0.0)) == 0.0:
        raise ZeroField("subgradient undefined at the zero field")
    k = luxemburg_norm(vals, grid, nf, side, weight, scale)
    _, dens = _side_fn(nf, side)
    t = vals / (k * sc)
    nd = dens(t)
    D = float((nd * vals * W / sc).sum()) / k
    g = (W / sc) * nd / D
    return k, g


def _amemiya_argmin(vals, W, Nfun, dens) -> float:
    """k minimising the Amemiya functional (1 + sum N(k f) W) / k.

    Setting the derivative to zero gives the level equation
    sum W N*(n(k |f|)) = 1, whose left side increases with k.
    """
    a = np.abs(vals)
    amax = float(a.max())
    t = _unit_level_root(_amemiya_log_level, a / amax, W, Nfun, dens)
    return float(np.exp(t)) / amax


def orlicz_norm_and_argmin(f, grid: WeightedGrid, nf: NFunction,
                           side: str = "principal", weight: str = "lebesgue"):
    """(Amemiya norm of f, its minimising k); raises ZeroField at f = 0.

    The norm is the Amemiya functional evaluated at k, so it is never
    below the exact norm.  At k the envelope theorem gives the gradient
    of the norm in f as n(k f) W.
    """
    vals = _resolve(f, grid)
    if not np.all(np.isfinite(vals)):
        raise OverflowInIntegrand("field contains non-finite values")
    if float(np.abs(vals).max(initial=0.0)) == 0.0:
        raise ZeroField("Amemiya minimiser undefined at the zero field")
    W = grid.weight_vector(weight)
    Nfun, dens = _side_fn(nf, side)
    k = _amemiya_argmin(vals, W, Nfun, dens)
    return (1.0 + float(Nfun(k * vals) @ W)) / k, k


def orlicz_norm(f, grid: WeightedGrid, nf: NFunction, side: str = "principal",
                weight: str = "lebesgue") -> float:
    """Amemiya form of the Orlicz norm (exact dual of the complementary gauge)."""
    vals = _resolve(f, grid)
    if float(np.abs(vals).max(initial=0.0)) == 0.0:
        return 0.0
    return orlicz_norm_and_argmin(vals, grid, nf, side, weight)[0]
