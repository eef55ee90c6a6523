"""Primal and dual capacity estimates for interior and boundary sets.

Primal programs minimise a conjugate-side Luxemburg norm over cutoff
fields eta pinned to 1 on the target set (optionally dilated by one
stencil ring) and boxed to [0, 1]; the stencil extends every field by
zero at the boundary nodes, which is the discrete compact support:

    interior:  inf || -Lap eta ||_{L_{P*}}                  (Lebesgue weight)
    boundary:  inf || rho^{-1} Lap(rho* P[eta]) ||_{L_{P*, rho}}

The boundary objective is evaluated with the scale trick
P*(w / (k rho)) rho inside the level integrand, so rho never divides a
field directly.  Every primal value is the exact norm at a feasible
eta, so a certified upper bound however eta was found.

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

The dual is solved by damped Newton over the unit-mass measures
m = 1/|S| + D y, D's columns the node differences e_j - e_0 (j >= 1),
which span the mass-zero measures; their potentials are
GD = G_S[:, 1:] - G_S[:, :1].  With phi(v) = min_k (1 + sum P(k v) W) / k
the Amemiya norm at v = G m and k its minimiser, the envelope theorem
gives phi's gradient p(k v) W and, as the k-derivative vanishes at k,
its Hessian diag(k P''(k v) W) - c c^T / F_kk with c = v P''(k v) W and
F_kk = v.c / k.  Both pass through GD, so a step is one
(interior x |S|) product and one |S| x |S| Cholesky solve (a gradient
step when the factor fails), backtracked on phi by Armijo's rule.  phi
is convex and Newton converges quadratically: 3-8 steps on square
n = 16-128, not growing with n.  It stops when the decrement
g^T H^{-1} g, twice the decrease one more step promises, is at most
NEWTON_DECREMENT_TOL phi: at rounding.

D need not be orthonormal: damped Newton is affine invariant (Boyd and
Vandenberghe, Convex Optimization, 2004, section 9.5).  With y = T z, T
invertible, the gradient is T^T g and the Hessian T^T H T, so the step
in z is T^{-1} times the step in y and the decrement and Armijo's test
read the same numbers: every basis of the mass-zero measures gives the
same iterates m in exact arithmetic (the gradient fallback aside).

The interior primal needs no search: the pinned harmonic fill carrying
the dual's aligned source w* = dual_value p(khat G mu) on its free rows
attains Hoelder equality, so its exact norm meets the dual's bound to
rounding (relative gaps of 0 to 5e-15 on square n = 16 and 32).
Within PAIR_GAP_TOL of the bound, of either sign, no feasible eta is
lower by more, and the estimate reports converged True: the
certificate, not a stopping test, proves it optimal.

The fill is read off the dual's Green block G_S by the capacitance
identity (Buzbee, Dorr, George and Golub, SIAM J. Numer. Anal. 8,
1971), so it factors nothing.  vol G_S = A^{-1} E_S (E_S the columns of
the identity on S), so with y = A^{-1} [w*_F; 0] every
eta = y + vol G_S sigma has A eta = [w*_F; 0] + E_S sigma, which is the
pinned system A_FF eta_F = w*_F - A_FS eta_S on the free rows F.
G_SS is symmetric positive definite (A^{-1} is), so
vol sigma = G_SS^{-1} (1 - y_S) exists and gives eta_S = 1: the exact
pinned fill from one solve with A's LU and one |S| x |S| Cholesky solve.

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

The boundary primal's search is `_box_minimise`, a projected
limited-memory BFGS written here on numpy (its docstring has the
method), so no program in this module loads scipy.optimize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .errors import BadInput, Infeasible, SupportError
from .grids import WeightedGrid
from .kernels import KernelSet, green_column
from .luxemburg import _amemiya, _subgradient, luxemburg_norm, orlicz_norm
from .measures import BoundaryMeasure
from .nfunctions import exponential_pair


@dataclass(frozen=True)
class CompactSet:
    """A finite target set of node ordinals of a given kind."""

    grid: WeightedGrid
    nodes: np.ndarray
    kind: str  # "interior" | "boundary"

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
    maxiter: int = 600         # step cap of the boundary primal's search
    # Newton step cap of the interior dual; the boundary dual is a
    # closed-form certificate at the boundary primal's final eta.
    dual_iters: int = 800

    def __post_init__(self):
        for name in ("dilation", "maxiter", "dual_iters"):
            if getattr(self, name) < 0:
                raise BadInput(f"{name} must be >= 0, got {getattr(self, name)}")


PAIR_GAP_TOL = 1e-9  # relative gap at which a pair's bracket proves it optimal
NEWTON_DECREMENT_TOL = 1e-15  # interior dual: decrement / norm at rounding


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

def _hop_distance(graph: sp.spmatrix, sources: np.ndarray,
                  depth: Optional[int] = None) -> np.ndarray:
    """Breadth-first hop counts from `sources` over a nonnegative symmetric
    adjacency matrix (diagonal ignored), up to `depth` hops (all when
    None); inf beyond that and where unreachable."""
    dist = np.full(graph.shape[0], np.inf)
    dist[np.asarray(sources, dtype=int)] = 0.0
    frontier = dist == 0.0
    d = 0.0
    while frontier.any() and (depth is None or d < depth):
        d += 1.0
        frontier = (graph @ frontier > 0) & np.isinf(dist)
        dist[frontier] = d
    return dist


def dilate_interior(ks: KernelSet, nodes: np.ndarray, rings: int) -> np.ndarray:
    """Close `nodes` under `rings` steps of the interior stencil graph."""
    return np.flatnonzero(_hop_distance(ks.stencil_graph, nodes, rings) <= rings)


def boundary_collar(ks: KernelSet) -> np.ndarray:
    """Interior nodes with a boundary neighbour (coupling row sum > 0)."""
    return np.flatnonzero(np.asarray(ks.coupling.sum(axis=1)).ravel() > 0)


def dilate_boundary(grid: WeightedGrid, nodes: np.ndarray, rings: int) -> np.ndarray:
    """Close boundary `nodes` under `rings` steps of the boundary graph."""
    return np.flatnonzero(_hop_distance(grid.boundary_graph, nodes, rings) <= rings)


# ---------------------------------------------------------------------------
# the optimiser and the primal programs

BOX_FTOL = 1e-14   # relative decrease of one step that ends the search
BOX_PGTOL = 1e-12  # projected-gradient inf-norm that ends the search
BOX_MEMORY = 25    # curvature pairs the quasi-Newton direction keeps
BOX_TRIALS = 20    # objective evaluations one line search may spend
_EPS = float(np.finfo(float).eps)


class _InverseHessian:
    """Limited-memory BFGS inverse Hessian over the last `memory` pairs
    (s, y), oldest first, in compact form (Byrd, Nocedal and Schnabel
    1994): with R = triu(S^T Y), D = diag(S^T Y) and gamma = s.y / y.y
    of the latest pair (1 with none),

        H v = gamma v + S a - gamma Y t,  t = R^{-1} S^T v,
        a = R^{-T} (D t + gamma Y^T Y t - gamma Y^T v),

    the matrix the two-loop recursion applies.  push keeps R^{-1} and
    Y^T Y by bordering: a new pair adds one column to R, whose inverse
    gains the column -R^{-1} S^T y / s.y, and dropping the oldest pair
    drops the first row and column of both."""

    def __init__(self, n, memory):
        self.S, self.Y = np.empty((memory, n)), np.empty((memory, n))
        self.Rinv, self.YY = np.zeros((memory, memory)), np.zeros((memory, memory))
        self.sy = np.zeros(memory)
        self.clear()

    def clear(self):
        self.k, self.gamma = 0, 1.0

    def push(self, s, y, s_y, y_y):
        S, Y, Rinv, YY, sy = self.S, self.Y, self.Rinv, self.YY, self.sy
        k = self.k
        if k == sy.size:  # drop the oldest pair
            S[:-1], Y[:-1], sy[:-1] = S[1:], Y[1:], sy[1:]
            Rinv[:-1, :-1], YY[:-1, :-1] = Rinv[1:, 1:], YY[1:, 1:]
            k -= 1
        Rinv[:k, k] = -(Rinv[:k, :k] @ (S[:k] @ y)) / s_y
        Rinv[k, :k] = 0.0
        Rinv[k, k] = 1.0 / s_y
        YY[:k, k] = YY[k, :k] = Y[:k] @ y
        YY[k, k] = y_y
        S[k], Y[k], sy[k] = s, y, s_y
        self.k, self.gamma = k + 1, s_y / y_y

    def apply(self, v):
        k, gamma = self.k, self.gamma
        if k == 0:
            return v
        S, Y, Rinv = self.S[:k], self.Y[:k], self.Rinv[:k, :k]
        t = Rinv @ (S @ v)
        a = (self.sy[:k] * t + gamma * (self.YY[:k, :k] @ t - Y @ v)) @ Rinv
        return gamma * v + a @ S - gamma * (t @ Y)


@dataclass
class _BoxResult:
    """Where _box_minimise stopped: the point, its accepted steps, the
    objective evaluations, whether a stopping test (not the cap or a
    failed line search) ended it, and the projected gradient's inf-norm."""

    x: np.ndarray
    nit: int
    nfev: int
    success: bool
    projected_gradient: float


def _box_minimise(objective, x0, maxiter):
    """Projected limited-memory BFGS on objective(x) -> (value, gradient)
    within the unit box [0, 1]^n: the boundary primal's search.

    A node at a bound whose gradient points out of the box is binding.
    The direction is -H g with g and the result zeroed on the binding
    set (P), H the _InverseHessian of the last BOX_MEMORY steps, so
    g.d = -(P g).H(P g) < 0; clipping a node whose step leaves the box
    drops a term g_i d_i >= 0, so the projected path
    x(a) = clip(x + a d) descends.  A step backtracks along that path by
    safeguarded quadratic interpolation until Armijo's test
    f(x(a)) <= f + 1e-4 g.(x(a) - x) holds, within BOX_TRIALS
    evaluations.  Each pair keeps y = g(x(a)) - g(x) only on the nodes
    the step moved, so once the binding set settles H learns the
    inverse of the free block of the Hessian, not the free block of its
    inverse.

    success is True when the projected gradient's inf-norm is at most
    BOX_PGTOL or a step lowers f by at most BOX_FTOL relative.  It is
    False after maxiter accepted steps (nit <= maxiter; 0 takes none)
    and when a line search from steepest descent finds no decrease; one
    from a quasi-Newton direction first clears the memory and retries.
    Every evaluated point lies in the box.
    """
    def project(v):
        return np.minimum(np.maximum(v, 0.0), 1.0)

    x = project(np.asarray(x0, dtype=float))
    f, g = objective(x)
    nfev, nit, success = 1, 0, False
    H = _InverseHessian(x.size, BOX_MEMORY)
    while True:
        pg = float(np.abs(project(x - g) - x).max())
        if pg <= BOX_PGTOL:
            success = True
        if success or nit >= maxiter:
            break
        binding = ((x <= 0.0) & (g > 0)) | ((x >= 1.0) & (g < 0))
        d = np.where(binding, 0.0, -H.apply(np.where(binding, 0.0, g)))
        alpha = 1.0
        for _ in range(BOX_TRIALS):
            xt = project(x + alpha * d)
            slope = float(g @ (xt - x))
            ft, gt = objective(xt)
            nfev += 1
            if ft <= f + 1e-4 * slope:
                break
            # the minimiser of the quadratic through f, slope and ft,
            # kept within [0.1, 0.5] of the rejected step
            alpha *= min(0.5, max(0.1, 0.5 * slope / (slope + f - ft)))
        else:
            if H.k == 0:
                break
            H.clear()
            continue
        s = xt - x
        y = np.where(s == 0.0, 0.0, gt - g)
        success = f - ft <= BOX_FTOL * max(abs(f), abs(ft), 1.0)
        x, f, g = xt, ft, gt
        nit += 1
        s_y, y_y = float(s @ y), float(y @ y)
        if not success and s_y > _EPS * y_y:  # else no curvature to keep
            H.push(s, y, s_y, y_y)
    return _BoxResult(x, nit, nfev, success, pg)


def primal_interior(K: CompactSet, ks: KernelSet,
                    dual: CapacityEstimate) -> CapacityEstimate:
    """Certified upper bound for the interior capacity of K: the exact
    norm at the alignment witness of `dual`, dual_interior's estimate
    for K (see the module docstring).  The witness is pinned to 1 on
    dual.mu_nodes and filled from the dual's Green block
    dual.aux["green_block"] by the capacitance identity.  No search
    runs: iterations is 0, and converged is True when the value lies
    within PAIR_GAP_TOL of dual.dual_value, relative and of either sign.
    """
    grid = ks.grid
    grid.require_same(K.grid)
    if K.kind != "interior":
        raise SupportError("primal_interior needs an interior target set")
    nf = exponential_pair()
    # eta = 1 on the dual's support, the dilated K, free elsewhere: the
    # stencil's zero boundary values are the compact support, and the dual
    # is exact for this class
    ones, cols = dual.mu_nodes, dual.aux["green_block"]
    # Young equality makes p(khat pot) the unit-norm aligned source; on the
    # free rows of the pinned system it keeps the pin without overwriting
    # a solved field (zeros written into one put O(1/h^2) jumps into its
    # Laplacian).  pot is never zero: (A 1)^T pot = mu(S) / vol > 0 with
    # A 1 >= 0, so it has a positive entry
    pot = cols @ dual.mu_masses
    _, khat, _ = _amemiya(pot, grid, nf, "lebesgue")
    w_star = dual.dual_value * nf.p(khat * pot)
    # the capacitance identity: y = A^{-1} [w*_F; 0], then G_S sigma lifts
    # y to 1 on the pin and adds nothing to A eta on the free rows
    w_star[ones] = 0.0
    y = ks.solve(w_star)
    sigma = cho_solve(cho_factor(cols[ones]), 1.0 - y[ones])
    eta = np.clip(y + cols @ sigma, 0.0, 1.0)
    eta[ones] = 1.0
    value = luxemburg_norm(ks.lap @ eta, grid, nf, side="conjugate",
                           weight="lebesgue")
    return CapacityEstimate(
        "primal-interior", primal_value=value, eta_star=eta,
        converged=abs(value - dual.dual_value) <= PAIR_GAP_TOL * value,
        aux={"ones": ones})


def _boundary_forward(ks: KernelSet, eta_b: np.ndarray) -> np.ndarray:
    """L eta = A diag(rho*) A^{-1} B eta, i.e. -Lap(rho* P[eta]) on the grid."""
    return ks.lap @ (ks.rho_star * ks.solve(ks.coupling @ eta_b))


def _boundary_adjoint(ks: KernelSet, g: np.ndarray) -> np.ndarray:
    """L^T g = B^T A^{-1} diag(rho*) A g (A is symmetric)."""
    return ks.coupling_transpose @ ks.solve(ks.rho_star * (ks.lap @ g))


def _boundary_gauge_gradient(ks: KernelSet, eta_b: np.ndarray, start=None):
    """(||L eta / rho||, g_w, t): the gauge, its gradient in w = L eta and
    its level root, with the level Newton started at `start` (see
    luxemburg._level_start)."""
    grid = ks.grid
    return _subgradient(_boundary_forward(ks, eta_b), grid, exponential_pair(),
                        "conjugate", "rho", grid.rho, start)


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
    set; _box_minimise polishes the best seed on the free nodes.  The
    reported value is the exact norm at the returned eta, or at the best
    seed when that is lower: a certified upper bound whether or not the
    search converged.  aux holds the search's objective evaluations and
    the inf-norm of its final projected gradient.
    """
    grid = ks.grid
    grid.require_same(K.grid)
    if K.kind != "boundary":
        raise SupportError("primal_boundary needs a boundary target set")
    ones = dilate_boundary(grid, K.nodes, opts.dilation)
    if ones.size >= grid.n_boundary:
        raise Infeasible("dilated target set covers the whole boundary")
    fixed = np.zeros(grid.n_boundary)
    fixed[ones] = 1.0
    free_idx = np.flatnonzero(fixed == 0.0)

    start = None  # the search's last level root: the next one's start

    def objective(xf):
        nonlocal start
        eta_b = fixed.copy()
        eta_b[free_idx] = xf
        k, gw, start = _boundary_gauge_gradient(ks, eta_b, start)
        return k, _boundary_adjoint(ks, gw)[free_idx]

    # a tent is zero from its width on, so the widest bounds the search
    widths = (2, 4, 8, 16)
    dist = _hop_distance(grid.boundary_graph, ones, widths[-1])
    eta, value = None, np.inf
    for width in widths:
        tent = np.maximum(0.0, 1.0 - dist / width)
        tent[ones] = 1.0
        tent_value = boundary_test_norm(ks, tent)
        if tent_value < value:
            eta, value = tent, tent_value
    res = _box_minimise(objective, eta[free_idx], opts.maxiter)
    cand = fixed.copy()
    cand[free_idx] = res.x
    cand_value = boundary_test_norm(ks, cand)
    if cand_value <= value:
        eta, value = cand, cand_value
    return CapacityEstimate(
        "primal-boundary", primal_value=float(value), eta_star=eta,
        iterations=res.nit, converged=res.success,
        aux={"evaluations": res.nfev,
             "projected_gradient": res.projected_gradient, "ones": ones})


# ---------------------------------------------------------------------------
# dual programs

def dual_interior(K: CompactSet, ks: KernelSet,
                  opts: CapacityOptions = CapacityOptions()) -> CapacityEstimate:
    """Certified lower bound from the signed measure of unit mass on K,
    dilated by opts.dilation rings like the primal's pin, whose Green
    potential has the least Orlicz norm (see the module docstring).

    Damped Newton runs over m = 1/|S| + D y from y = 0, D the node
    differences e_j - e_0 (j >= 1); being affine invariant, its steps do
    not depend on that basis of the mass-zero measures (see the module
    docstring).  It takes at most opts.dual_iters steps (converged False
    at the cap); mu_masses is m / ||G m||_orl, and aux["newton_decrement"]
    the decrement at the returned m.  A single atom has no free direction.
    aux["green_block"] holds the Green columns G_S of the support
    mu_nodes, (Ni, |S|), from which primal_interior builds its witness.
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
    steps, converged, decrement = 0, True, 0.0
    if support.size > 1:
        # the node differences e_j - e_0 span {sum m = 0}
        v0, GD = cols @ m, cols[:, 1:] - cols[:, :1]
        y, start = np.zeros(support.size - 1), None  # start: the last level root

        def amemiya(y):
            nonlocal start
            v = v0 + GD @ y
            nrm, k, start = _amemiya(v, grid, nf, "lebesgue", start)
            return nrm, k, v

        nrm, k, v = amemiya(y)
        while True:
            pk = nf.p(k * v)
            grad = GD.T @ (pk * W)
            d2 = (1.0 + np.abs(pk)) * W  # P''(k v) W: P'' = e^|s| = 1 + |p| here
            a = GD.T @ (v * d2)
            hess = k * (GD.T @ (GD * d2[:, None]) - np.outer(a, a) / (v @ (v * d2)))
            try:
                step = -cho_solve(cho_factor(hess), grad)
            except np.linalg.LinAlgError:
                step = -grad
            decrement = float(-(grad @ step))
            converged = decrement <= NEWTON_DECREMENT_TOL * nrm
            if converged or steps == opts.dual_iters:
                break
            for alpha in 0.5 ** np.arange(40.0):  # Armijo backtracking on phi
                trial = amemiya(y + alpha * step)
                if trial[0] <= nrm - 1e-4 * alpha * decrement:
                    break
            else:
                break  # no decrease above rounding: not converged
            y += alpha * step
            nrm, k, v = trial
            steps += 1
        m[1:] += y
        m[0] -= y.sum()
    nrm = orlicz_norm(cols @ m, grid, nf, "lebesgue")
    return CapacityEstimate("dual-interior", dual_value=float(m.sum() / nrm),
                            mu_nodes=support, mu_masses=m / nrm,
                            iterations=steps, converged=converged,
                            aux={"newton_decrement": decrement,
                                 "green_block": cols})


def _boundary_certificate(pri: CapacityEstimate, ks: KernelSet) -> CapacityEstimate:
    """Adjoint lower bound certified at the boundary primal's final eta.

    f = g_w / vol is the gradient of the gauge at w = L eta, so
    mu = vol L^T f = L^T g_w pairs with every boundary vector as
    sum mu_b eta_b = vol f^T L eta <= ||f||_orl,rho ||L eta / rho||.
    Every admissible eta is 1 on the pinned set and in [0, 1] off it,
    so (mu(pinned) + sum of the negative part of mu off it) / ||f||_orl
    is below the primal value of every admissible eta.
    """
    grid = ks.grid
    ones = pri.aux["ones"]
    _, gw, _ = _boundary_gauge_gradient(ks, pri.eta_star)
    potential_norm = orlicz_norm(gw / grid.cell_measure, grid, exponential_pair(),
                                 weight="rho")
    mu = _boundary_adjoint(ks, gw)
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

    Interior: the dual runs once and its aligned witness, filled from
    the dual's Green block, is the primal; the block stays out of the
    pair's aux.  Boundary: the primal runs once and its final eta is
    certified.  The pair is converged if both sides pass their own tests
    or if the bracket closes to PAIR_GAP_TOL: at an optimum reached to
    rounding the boundary search's line search can find no decrease, and
    the search then reports success False.
    """
    if K.kind == "interior":
        dua = dual_interior(K, ks, opts)
        pri = primal_interior(K, ks, dual=dua)
    else:
        pri = primal_boundary(K, ks, opts)
        dua = _boundary_certificate(pri, ks)
    aux = {key: value for key, value in dua.aux.items() if key != "green_block"}
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
        # B times the unit atoms at idx: B's columns scaled by 1 / h_b
        cols = ks.solve(ks.coupling[:, idx].toarray()
                        * (1.0 / grid.boundary_cell_measure))
        inner = vol * (cols.T @ minus_lap_z)
        b = float(inner @ masses[idx])
    return a, b
