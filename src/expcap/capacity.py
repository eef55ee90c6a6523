"""Primal and dual capacity estimates for interior and boundary sets.

Primal programs minimise a conjugate-side Luxemburg norm over cutoff
fields eta pinned to 1 on the target set (optionally dilated by one
stencil ring) and boxed to [0, 1]; the stencil extends every field by
zero at the boundary nodes, which is the discrete compact support:

    interior:  inf || -Lap eta ||_{L_{P*}}                  (Lebesgue weight)
    boundary:  inf || rho^{-1} Lap(rho* P[eta]) ||_{L_{P*, rho}}

The boundary objective is evaluated with the scale trick
P*(w / (k rho)) rho inside the level integrand, so rho never divides a
field directly.  Both objectives are convex and C^1 (the gauge of a
smooth strictly convex N-function is differentiable away from 0), so a
box-constrained quasi-Newton search from a pinned seed is reliable;
the reported value re-evaluates the exact norm at the final feasible
point, making every primal number a certified upper bound.

The interior dual is the exact dual of the pinned primal.  Every
admissible eta is 1 on the pinned set S, so for a measure m on S of
either sign m(S) = vol (G m)^T (-Lap eta) <= ||G m||_orl ||Lap eta||_lux
(G the Green operator; the Amemiya-Orlicz norm is the exact dual of the
primal's gauge norm).  The program fixes m(S) = 1, since the scale-free
ratio over unbounded m can drive m(S) through 0, and minimises
||G m||_orl; by minimax its optimum meets the primal.  The value
m(S) / ||G m||_orl, re-evaluated at the returned m, is a certified lower
bound.  Restricting to m >= 0 gives the nonnegative-measure capacity
(Adams and Hedberg, Function Spaces and Potential Theory, 1996), the
dual of the relaxed pin eta >= 1: valid but looser here (gaps of 1-5% on
the 32x32 square).

The boundary dual is the exact dual of the discretised boundary primal,
read through that primal's adjoint.  Write L eta = A diag(rho*) A^{-1} B eta
for the operator inside the boundary objective.  An interior potential f
defines the boundary measure mu = vol L^T f, the balayage onto the
boundary of the density vol rho* (-Lap f), and

    sum_b mu_b eta_b = vol f^T L eta <= ||f||_orl,rho ||L eta / rho||_lux,rho.

Every admissible eta is 1 on the pinned set and in [0, 1] off it, so
(mu(pinned) + sum of the negative part of mu off it) / ||f||_orl,rho is
a certified lower bound.  The potential taken is the gauge gradient at
the primal's final eta; by minimax the best potential attains the
primal value, so the boundary gap measures only the primal optimiser.

The boundary measure is defined through its potential rather than the
other way round because the harmonic extension P[m] is not the
potential the primal pairs against: vol P[m]^T L eta = sum_b (M m)_b eta_b
with M = (vol / h_b) B^T A^{-1} diag(rho*) B (h_b the boundary cell
measure), the discrete form of m weighted by |d_n rho*|.  That weight is
about pi at mid-edge and tends to 0 at a corner, where certifying m(K)
against ||P[m]|| gave numbers above the primal.  Keeping the harmonic
extension and certifying the weighted mass sum_{b in K} (M m)_b, or
pinning eta by (M eta)_b >= 1 instead of eta_b = 1, stays valid but
leaves boundary gaps of 9-33% on the 32x32 square, where the adjoint
certificate's are below 1e-5.

The one optimiser, L-BFGS-B in `_box_minimise`, imports scipy.optimize
at its call rather than with this module, so a process that runs no
capacity program (assembly, the Newton solves, the removability ladder)
never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import BadInput, Infeasible, SupportError
from .grids import WeightedGrid
from .kernels import KernelSet, green_column
from .luxemburg import (luxemburg_norm, luxemburg_subgradient, orlicz_norm,
                        orlicz_norm_and_argmin)
from .measures import BoundaryMeasure
from .nfunctions import exponential_pair


@dataclass(frozen=True)
class CompactSet:
    """A finite target set of node ordinals of a given kind."""

    grid: WeightedGrid
    nodes: np.ndarray
    kind: str  # "interior" | "boundary"
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "nodes",
                           np.unique(np.asarray(self.nodes, dtype=int)))
        count = len(self.grid.coords(self.kind))  # ValueError for another kind
        if self.nodes.size == 0:
            raise SupportError("target set is empty")
        if self.nodes.min() < 0 or self.nodes.max() >= count:
            raise SupportError("target set contains out-of-range nodes")


@dataclass
class CapacityOptions:
    dilation: int = 1          # stencil rings added to the pinned-1 set
    maxiter: int = 600         # quasi-Newton iteration cap (primals)
    # Quasi-Newton iteration cap of the interior dual; the boundary dual
    # is a closed-form certificate at the boundary primal's final eta.
    dual_iters: int = 800

    def __post_init__(self):
        if self.dilation < 0:
            raise BadInput(f"dilation must be >= 0, got {self.dilation}")


PAIR_GAP_TOL = 1e-9  # relative gap at which a pair's bracket proves it optimal


@dataclass
class CapacityEstimate:
    """One- or two-sided capacity record.

    Primal operations fill primal_value and eta_star; dual operations
    fill dual_value and the measure; capacity_pair fills both.  The
    primal is a certified upper bound (value of the exact norm at a
    feasible point), the dual a certified lower bound (mass of a
    feasible measure).
    """

    kind: str
    primal_value: Optional[float] = None
    dual_value: Optional[float] = None
    eta_star: Optional[np.ndarray] = None
    mu_nodes: Optional[np.ndarray] = None
    mu_masses: Optional[np.ndarray] = None
    iterations: int = 0
    converged: bool = True
    aux: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        if self.primal_value is None or self.dual_value is None:
            return float("nan")
        return self.primal_value - self.dual_value


# ---------------------------------------------------------------------------
# adjacency helpers

def _hop_distance(graph: sp.spmatrix, sources: np.ndarray) -> np.ndarray:
    """Breadth-first hop counts from `sources` over a nonnegative symmetric
    adjacency matrix (diagonal ignored); inf where unreachable."""
    dist = np.full(graph.shape[0], np.inf)
    dist[np.asarray(sources, dtype=int)] = 0.0
    frontier = dist == 0.0
    d = 0.0
    while frontier.any():
        d += 1.0
        frontier = (graph @ frontier > 0) & np.isinf(dist)
        dist[frontier] = d
    return dist


def dilate_interior(ks: KernelSet, nodes: np.ndarray, rings: int) -> np.ndarray:
    """Close `nodes` under `rings` steps of the interior stencil graph."""
    return np.flatnonzero(_hop_distance(abs(ks.lap), nodes) <= rings)


def boundary_collar(ks: KernelSet, rings: int) -> np.ndarray:
    """Interior nodes within `rings` graph steps of the boundary.

    rings=0 returns the empty set: boundary nodes themselves always
    carry zero through the stencil, so no interior node needs pinning.
    """
    first = np.flatnonzero(np.asarray(ks.coupling.sum(axis=1)).ravel() > 0)
    return np.flatnonzero(_hop_distance(abs(ks.lap), first) <= rings - 1)


def dilate_boundary(grid: WeightedGrid, nodes: np.ndarray, rings: int) -> np.ndarray:
    """Close boundary `nodes` under `rings` steps of the boundary graph."""
    return np.flatnonzero(_hop_distance(grid.boundary_graph(), nodes) <= rings)


# ---------------------------------------------------------------------------
# the optimiser and the primal programs

def _box_minimise(objective, x0, bounds, maxiter):
    """L-BFGS-B on objective(x) -> (value, gradient) within `bounds`: the
    one optimiser of every program in this module."""
    from scipy.optimize import minimize
    return minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                    options={"maxiter": maxiter, "ftol": 1e-14,
                             "gtol": 1e-12, "maxcor": 25})


def _polish(kind, seeds, norm_of, value_and_grad, fixed, free_idx,
            maxiter) -> CapacityEstimate:
    """Primal estimate from the best seed, polished by L-BFGS-B on the
    free entries in [0, 1].

    value_and_grad(eta) returns the objective and its gradient in eta.
    The reported value is norm_of at the returned eta, or at the best
    seed when that is lower: the exact norm at a feasible point.
    """
    values = [norm_of(seed) for seed in seeds]
    eta, value = seeds[int(np.argmin(values))], min(values)
    iters, converged, evals = 0, True, 0
    if free_idx.size:
        def objective(xf):
            full = fixed.copy()
            full[free_idx] = xf
            val, grad = value_and_grad(full)
            return val, grad[free_idx]

        res = _box_minimise(objective, eta[free_idx],
                            [(0.0, 1.0)] * free_idx.size, maxiter)
        cand = fixed.copy()
        cand[free_idx] = res.x
        cand_value = norm_of(cand)
        if cand_value <= value:
            eta, value = cand, cand_value
        iters, converged, evals = int(res.nit), bool(res.success), int(res.nfev)
    return CapacityEstimate(kind, primal_value=float(value), eta_star=eta,
                            iterations=iters, converged=converged,
                            aux={"evaluations": evals})


def _interior_pin(K: CompactSet, ks: KernelSet, opts: CapacityOptions):
    """(ones, fixed, free_idx) of the interior admissible class: eta = 1
    on K dilated by opts.dilation rings, free elsewhere.

    Nothing inside the boundary is pinned to 0: the zero boundary values
    of the stencil are the compact-support condition, and the interior
    dual is exact for this class only."""
    ones = dilate_interior(ks, K.nodes, opts.dilation)
    fixed = np.zeros(ks.grid.n_interior)
    fixed[ones] = 1.0
    return ones, fixed, np.flatnonzero(fixed == 0.0)


def pinned_harmonic_fill(ks: KernelSet, fixed: np.ndarray, free_idx: np.ndarray,
                         source: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve A eta = source (0 when None) on the free rows, eta = fixed
    elsewhere, and clip the free values to [0, 1]."""
    eta = fixed.copy()
    if free_idx.size:
        rhs = -(ks.lap[free_idx] @ fixed)
        if source is not None:
            rhs += source[free_idx]
        solve = ks.factor_shifted(np.zeros(ks.grid.n_interior), free_idx)
        eta[free_idx] = np.clip(solve(rhs), 0.0, 1.0)
    return eta


def primal_interior(K: CompactSet, ks: KernelSet,
                    opts: CapacityOptions = CapacityOptions(),
                    dual: Optional[CapacityEstimate] = None) -> CapacityEstimate:
    """Certified upper bound for the interior capacity of K.

    Seeds the box-constrained search with the duality alignment
    witness: for the best dual measure mu on K, the field
    G[p(khat G[mu])] rescaled to reach 1 on the pinned set achieves
    Hoelder equality in the unconstrained program, so the polish starts
    essentially at the optimum instead of crawling down an
    ill-conditioned valley.  `dual` is that measure's estimate from
    dual_interior with the same options; it is computed here when not
    given.
    """
    grid = ks.grid
    grid.require_same(K.grid)
    if K.kind != "interior":
        raise SupportError("primal_interior needs an interior target set")
    nf = exponential_pair()
    ones, fixed, free_idx = _interior_pin(K, ks, opts)

    def norm_of(eta):
        return luxemburg_norm(ks.lap @ eta, grid, nf, side="conjugate",
                              weight="lebesgue")

    def value_and_grad(eta):
        k, g = luxemburg_subgradient(ks.lap @ eta, grid, nf, side="conjugate",
                                     weight="lebesgue")
        return k, ks.lap @ g

    # alignment witness from the dual measure: impose the aligned source
    # p(khat G[mu]) on the free rows of the pinned system, so the pin is
    # satisfied without stomping values afterwards
    # (overwriting a solved field with zeros puts O(1/h^2) jumps into
    # its Laplacian and ruins the seed).  Without a positive potential
    # the source is 0 and the seed is the harmonic fill.
    if dual is None:
        dual = dual_interior(K, ks, opts)
    pot = green_column(ks, dual.mu_nodes) @ dual.mu_masses
    w_star = None
    if float(pot.max(initial=0.0)) > 0:
        _, khat = orlicz_norm_and_argmin(pot, grid, nf, "principal", "lebesgue")
        # Young equality makes p(khat pot) the unit-norm aligned source,
        # so the optimiser target is dual_value times it.
        w_star = dual.dual_value * nf.p(khat * pot)
    seed = pinned_harmonic_fill(ks, fixed, free_idx, w_star)

    est = _polish("primal-interior", [seed], norm_of, value_and_grad, fixed,
                  free_idx, opts.maxiter)
    est.aux["ones"] = ones
    return est


def _boundary_forward(ks: KernelSet, eta_b: np.ndarray) -> np.ndarray:
    """L eta = A diag(rho*) A^{-1} B eta, i.e. -Lap(rho* P[eta]) on the grid."""
    return ks.lap @ (ks.rho_star * ks.solve(ks.coupling @ eta_b))


def _boundary_adjoint(ks: KernelSet, g: np.ndarray) -> np.ndarray:
    """L^T g = B^T A^{-1} diag(rho*) A g (A is symmetric)."""
    return ks.coupling.T @ ks.solve(ks.rho_star * (ks.lap @ g))


def _boundary_gauge_gradient(ks: KernelSet, eta_b: np.ndarray):
    """(||L eta / rho||, g_w): the gauge and its gradient in w = L eta."""
    grid = ks.grid
    return luxemburg_subgradient(_boundary_forward(ks, eta_b), grid,
                                 exponential_pair(), side="conjugate",
                                 weight="rho", scale=grid.rho)


def boundary_measure(ks: KernelSet, f: np.ndarray) -> np.ndarray:
    """Boundary measure mu = vol L^T f that pairs with the boundary primal.

    For every boundary vector eta, sum_b mu_b eta_b = vol f^T L eta: mu is
    the balayage onto the boundary of the interior density
    vol rho* (-Lap f).  This is the measure the boundary dual certifies.
    """
    f = np.asarray(f, dtype=float)
    return _boundary_adjoint(ks, ks.grid.cell_measure * f)


def boundary_test_norm(ks: KernelSet, eta_b: np.ndarray) -> float:
    """|| rho^{-1} Lap(rho* P[eta]) ||_{L_{P*, rho}} for boundary values eta."""
    grid = ks.grid
    return luxemburg_norm(_boundary_forward(ks, np.asarray(eta_b, dtype=float)),
                          grid, exponential_pair(), side="conjugate",
                          weight="rho", scale=grid.rho)


def primal_boundary(K: CompactSet, ks: KernelSet,
                    opts: CapacityOptions = CapacityOptions()) -> CapacityEstimate:
    """Certified upper bound for the boundary capacity of K.

    Seeds: graph-distance tents of several widths around the pinned
    set; the best seed is polished by the box-constrained quasi-Newton
    search and the reported value is the exact norm at the final point.
    """
    grid = ks.grid
    grid.require_same(K.grid)
    if K.kind != "boundary":
        raise SupportError("primal_boundary needs a boundary target set")
    ones = dilate_boundary(grid, K.nodes, opts.dilation)
    nb = grid.n_boundary
    if ones.size >= nb:
        raise Infeasible("dilated target set covers the whole boundary")
    fixed = np.zeros(nb)
    fixed[ones] = 1.0
    mask_free = np.ones(nb, dtype=bool)
    mask_free[ones] = False
    free_idx = np.flatnonzero(mask_free)

    def value_and_grad(eta_b):
        k, gw = _boundary_gauge_gradient(ks, eta_b)
        return k, _boundary_adjoint(ks, gw)

    dist = _hop_distance(grid.boundary_graph(), ones)
    seeds = []
    for width in (2.0, 4.0, 8.0, 16.0):
        tent = np.maximum(0.0, 1.0 - dist / width)
        tent[ones] = 1.0
        seeds.append(tent)
    est = _polish("primal-boundary", seeds,
                  lambda eta_b: boundary_test_norm(ks, eta_b), value_and_grad,
                  fixed, free_idx, opts.maxiter)
    est.aux["ones"] = ones
    return est


# ---------------------------------------------------------------------------
# dual programs

def dual_interior(K: CompactSet, ks: KernelSet,
                  opts: CapacityOptions = CapacityOptions()) -> CapacityEstimate:
    """Certified lower bound from the signed measure of unit mass on K,
    dilated by opts.dilation rings like the primal's pin, whose Green
    potential has the least Orlicz norm (see the module docstring).

    L-BFGS-B runs over m = 1/|S| + Q y from y = 0, y free and Q an
    orthonormal basis of the mass-zero measures; mu_masses is
    m / ||G m||_orl.  A single atom has no free direction.
    """
    grid = ks.grid
    grid.require_same(K.grid)
    if K.kind != "interior":
        raise SupportError("dual_interior needs an interior target set")
    nf = exponential_pair()
    W = grid.weight_vector("lebesgue")
    support = dilate_interior(ks, K.nodes, opts.dilation)
    cols = green_column(ks, support)
    m = np.full(support.size, 1.0 / support.size)
    iters, converged = 0, True
    if support.size > 1:
        # the Householder reflection swapping e_1 and the unit mean
        # direction: its other columns span {sum m = 0} orthonormally
        u = np.full(support.size, support.size ** -0.5)
        u[0] -= 1.0
        Q = (np.eye(support.size) - 2.0 * np.outer(u, u) / (u @ u))[:, 1:]
        v0, GQ = cols @ m, cols @ Q

        def objective(y):
            v = v0 + GQ @ y
            nrm, k = orlicz_norm_and_argmin(v, grid, nf, "principal", "lebesgue")
            # envelope theorem: the norm's gradient in v is n(k v) W
            return nrm, GQ.T @ (nf.p(k * v) * W)

        res = _box_minimise(objective, np.zeros(support.size - 1),
                            [(None, None)] * (support.size - 1), opts.dual_iters)
        m = m + Q @ res.x
        iters, converged = int(res.nit), bool(res.success)
    nrm = orlicz_norm(cols @ m, grid, nf, "principal", "lebesgue")
    return CapacityEstimate("dual-interior", dual_value=float(m.sum() / nrm),
                            mu_nodes=support, mu_masses=m / nrm,
                            iterations=iters, converged=converged)


def _boundary_certificate(pri: CapacityEstimate, ks: KernelSet) -> CapacityEstimate:
    """Adjoint lower bound certified at the boundary primal's final eta.

    f = g_w / vol is the gradient of the gauge at w = L eta, so
    mu = vol L^T f (boundary_measure) pairs with every boundary vector
    as sum mu_b eta_b = vol f^T L eta <= ||f||_orl,rho ||L eta / rho||.
    Every admissible eta is 1 on the pinned set and in [0, 1] off it,
    so (mu(pinned) + sum of the negative part of mu off it) / ||f||_orl
    is below the primal value of every admissible eta.
    """
    grid = ks.grid
    ones = pri.aux["ones"]
    _, gw = _boundary_gauge_gradient(ks, pri.eta_star)
    f = gw / grid.cell_measure
    potential_norm = orlicz_norm(f, grid, exponential_pair(), side="principal",
                                 weight="rho")
    mu = boundary_measure(ks, f)
    off = np.ones(grid.n_boundary, dtype=bool)
    off[ones] = False
    negative_mass = float(np.minimum(mu[off], 0.0).sum())
    value = max(0.0, (float(mu[ones].sum()) + negative_mass) / potential_norm)
    return CapacityEstimate("dual-boundary", dual_value=value,
                            mu_nodes=ones, mu_masses=mu[ones],
                            converged=pri.converged,
                            aux={"potential_norm": potential_norm,
                                 "negative_mass": negative_mass})


def dual_boundary(K: CompactSet, ks: KernelSet,
                  opts: CapacityOptions = CapacityOptions()) -> CapacityEstimate:
    """Certified lower bound for the boundary capacity of K.

    Runs primal_boundary and certifies its final eta through the
    primal's adjoint (see _boundary_certificate): mu_masses holds the
    measure on the pinned set, aux its potential norm and the negative
    mass off the set, and dual_value = (mu_masses.sum() + negative_mass)
    / potential_norm.  The iteration count is the primal search's.
    """
    ks.grid.require_same(K.grid)
    if K.kind != "boundary":
        raise SupportError("dual_boundary needs a boundary target set")
    pri = primal_boundary(K, ks, opts)
    est = _boundary_certificate(pri, ks)
    est.iterations = pri.iterations
    return est


def capacity_pair(K: CompactSet, ks: KernelSet,
                  opts: CapacityOptions = CapacityOptions()) -> CapacityEstimate:
    """Both sides of the duality sandwich in one record.

    Interior: the dual runs once and also seeds the primal.  Boundary:
    the primal runs once and its final eta is certified.  The pair is
    converged if both optimisers pass their own stopping tests or if the
    bracket closes to PAIR_GAP_TOL: at an optimum reached to rounding
    L-BFGS-B's line search finds no decrease and stops abnormally.
    """
    if K.kind == "interior":
        dua = dual_interior(K, ks, opts)
        pri = primal_interior(K, ks, opts, dual=dua)
    else:
        pri = primal_boundary(K, ks, opts)
        dua = _boundary_certificate(pri, ks)
    aux = dict(dua.aux)
    aux.update(pri.aux)
    return CapacityEstimate(
        kind=f"pair-{K.kind}",
        primal_value=pri.primal_value,
        dual_value=dua.dual_value,
        eta_star=pri.eta_star,
        mu_nodes=dua.mu_nodes,
        mu_masses=dua.mu_masses,
        iterations=pri.iterations + dua.iterations,
        converged=((pri.converged and dua.converged)
                   or abs(pri.primal_value - dua.dual_value)
                   <= PAIR_GAP_TOL * pri.primal_value),
        aux=aux,
    )


# ---------------------------------------------------------------------------
# pairings

def pairing(eta_b: np.ndarray, mu: BoundaryMeasure, ks: KernelSet):
    """Two evaluation orders of -int P[mu] Lap(rho* P[eta]) dx.

    Returns (a, b): a integrates x first against the assembled potential
    of mu; b pairs each boundary source node against the kernel column,
    then sums in y.  For exact arithmetic a = b (discrete Fubini); the
    difference is pure floating-point reassociation.
    """
    grid = ks.grid
    minus_lap_z = _boundary_forward(ks, np.asarray(eta_b, dtype=float))
    vol = grid.cell_measure

    pot = ks.solve(mu.load(ks))
    a = vol * float(pot @ minus_lap_z)

    masses = mu.node_masses()
    idx = np.flatnonzero(masses > 0)
    b = 0.0
    if idx.size:
        G = np.zeros((grid.n_boundary, idx.size))
        G[idx, np.arange(idx.size)] = 1.0 / grid.boundary_cell_measure
        cols = ks.solve(ks.coupling @ G)
        inner = vol * (cols.T @ minus_lap_z)
        b = float(inner @ masses[idx])
    return a, b
