"""Monotone solves of -Lap u + e^u - 1 = mu with interior or boundary data.

The nonlinear solve walks down from a supersolution.  Each step solves
the linearisation

    (A + diag(e^{u_m})) delta = -(A u_m + e^{u_m} - 1 - data)

and sets u_{m+1} = u_m + delta.  Because the absorption is convex and
A + positive diagonal is an M-matrix, every step has delta <= 0, every
iterate stays a supersolution, and the sequence decreases pointwise to
the discrete solution (monotone Newton for convex M-functions, Ortega &
Rheinboldt 1970).  That is the discrete mirror of a
supersolution-comparison argument, with the bonus of quadratic local
convergence; a plain fixed-point sweep u <- data - G[e^u - 1]
alternates around the solution instead of descending and blows up for
atoms, so it is not used.

A step may reuse the Jacobian factored at an earlier iterate u_f, a
chord step with a lagged Jacobian (Shamanskii's method; Kelley, Solving
Nonlinear Equations with Newton's Method, 2003):

    J_f delta = -F(u_m),   J_f = A + diag(e^{u_f}),   F(u) = A u + e^u - 1 - data.

The iterates only decrease, so u_m <= u_f and J_f >= F'(u_m): J_f
differs from the true Jacobian by the diagonal e^{u_f} - e^{u_m} >= 0.
The step is still monotone (J_f is an M-matrix and F(u_m) >= 0), and
by convexity F(u_m + delta) >= F(u_m) + F'(u_m) delta
= (J_f - F'(u_m)) (-delta) >= 0, so the new iterate stays a
supersolution.  Consecutive steps contract: nodewise
|delta_{m+1}| <= J_f^{-1} diag(e^{u_f} - e^{u_{m+1}}) |delta_m|, and
A 1 >= 0 gives J_f 1 >= e^{u_f}, hence J_f^{-1} e^{u_f} <= 1 and

    |delta_{m+1}|_inf <= q |delta_m|_inf,   q = 1 - exp(-max(u_f - u_{m+1})).

With an absorption mask every e^u carries the mask and the max runs over
absorbing nodes.  A factor is kept while q <= REUSE_TOL, and refreshed
when a step does not contract: at the rounding plateau the steps of a
stale factor stop shrinking.  What is left after a step of size s is
about q s, so the loop stops when q s <= eps max(1, |u|_inf).  On a
factor's first step q is the bound, which for a fresh factor is at most
s (q s is Newton's quadratic remainder); after that q is the smaller of
the bound and the observed ratio of the last two steps.  One more fresh
Newton step from a returned solution of atom or interior-density data
moves it by at most 2.53 eps max(1, |u|_inf) (square n=32-128 and disk
n=64).  A boundary density's load reaches 4/h^2 at the corners, and
that floor follows it: with density 2 one more step moves a solution by
2.55/4.32/10.13 eps max(1, |u|_inf) on square n=32/64/128 and by 7.97
on disk n=64, so the rule's unit of rounding is too small there (a unit
scaled by the residual's own terms would cover both).  Every Jacobian
is factored in A's own column order (`KernelSet.factor_shifted`).

REUSE_TOL is 0.05.  A kept factor costs a chord step more now and then,
a solve against a factorisation (about 1.3 ms against 20 ms at square
n=128): at 0.05 the n=128 interior atom of mass 8 factors twice, at
0.01 three times.  From the clipped start alone 0.05 took criterion 8's
n=64 atom of mass 16 to 17 steps; from the barrier start below, the
boundary atoms take 7-10.

The start is the least of two supersolutions, not the linear potential
u_lin = A^{-1} data alone: while e^u dominates, Newton lowers u by about
one per step, so a tall potential would cost a step per unit of height.

    u_0 = min(u_lin, c)  on absorbing nodes,   u_0 = u_lin  elsewhere,
    c   = max(log(1 + max data^+ over absorbing nodes),
              max u_lin over non-absorbing nodes).

Why u_0 is a supersolution: u_0 <= u_lin and A has nonpositive
off-diagonals, so a node left at u_lin keeps (A u_0)_i >= data_i.  A
node clipped to c has every neighbour <= c, so (A u_0)_i >= c (A 1)_i
>= 0, and e^c - 1 >= data_i.  With no hole in the absorption mask the
start is min(u_lin, log(1 + max data^+)); a node where the mask drops
the absorption is never clipped, since no constant is a supersolution
of its purely linear equation.

The clipped start still sits log(1 + max data) above zero at every
absorbing node, 11-18 at boundary atoms of mass 2-32 on square
n=32-128, where a solution is far lower away from the data: by the
Keller-Osserman estimate (Keller 1957; Osserman 1957) it is at most
about ln(C/d^2) at distance d from the data.  So the start is lowered
to the barrier

    u_0 <- min(u_0, beta),   beta_i = ln(KO_BARRIER / d_i^2),

with d_i the distance from node i to the bounding box of the support
{data > 0}, on every absorbing node off that box; beta = +inf on the box
and on nodes without absorption, so a punctured solve's hole keeps its
start.  KO_BARRIER = 16 is the 2-D Keller-Osserman constant of the
absorption e^u/2: the large solution of Lap U = e^U/2 on the disk of
radius R about x, U = ln(16 R^2 / (R^2 - r^2)^2), blows up on its
circle and is ln(16/R^2) at x, and e^u/2 <= e^u - 1 wherever u >= ln 2,
as beta >= ln 8 is (d^2 <= 2).  So where the disk of radius d_i about
node i holds no data, comparison with U bounds a continuum solution by
beta_i there.  For one atom the box is a point and d_i the exact
distance; for several, the distance to their box is at most the
distance to the support, so beta can only rise.  The constant comes
from this argument and is not tuned.

The argument is continuous, so it does not make the start a discrete
supersolution; one residual does.  The lowered start is kept only if
F(u_0) >= -1e-9 max(1, |data|_inf) at every node, the supersolution
flag's own test, and that residual is the first step's.  Otherwise the
solve starts from the clipped start, and `SolveReport.barrier_start`
records which start was taken.  Either way the start is a checked
supersolution, so every argument here and below holds unchanged.  The
minimum with a carried solution (next paragraph) is taken before the
check, so a carried factor's u_f still lies above the start.  The check
runs after the overflow screen, the only one on this path, so a charged
hole's potential never reaches expm1.  From the barrier start the
boundary atoms of mass 2-32 on square n=32-128 take 7-10 steps and 5-6
factorisations, against 8-19 and 6-17.

A solve can carry over to the next: its load b', its solution w, and
its last factor, taken at an iterate u_f of that solve.  The next solve
takes the carry only if its load b <= b' nodewise, and otherwise starts
cold.  Then w is a supersolution for b, as A w + e^w - 1 = b' >= b, and
the minimum of two supersolutions is one too: where it takes w_i, every
neighbour is at most its w value and A has nonpositive off-diagonals,
so the row keeps at least w's residual.  So the start is min(u_0, w).
The iterates of the earlier solve only decreased, so u_f >= w >= the
start, and the new iterates only decrease from there: J_f >= F'(u_m) at
every one of them, and the chord argument above holds as it stands.
The carried factor is kept while its contraction bound at the start is
at most REUSE_TOL, so a solve with the data of the one carried starts at
its solution and its one step factors nothing.  The truncation ladder
passes one carry down its levels, whose loads shrink with the cap.

Also here: the truncation ladder (singular part kept, density capped at
k, caps released monotonically), the weak-residual evaluator, the
potential-integrability screen over a refinement ladder, and the
Keller-Osserman diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NoConvergence, NotAdmissible, NotComparable
from .grids import Field, integrate
from .kernels import KernelSet, normal_derivative
from .measures import BoundaryMeasure, InteriorMeasure, MeasureSpec
from .nfunctions import EXP_ARG_MAX

# a Jacobian factor is kept while its contraction bound stays at or below this
REUSE_TOL = 0.05
# the 2-D Keller-Osserman constant of the barrier start (module docstring)
KO_BARRIER = 16.0
RES_TOL = 1e-8
MAX_OUTER = 100
SLOPE_TOL = 0.2
TRUNCATION_LEVELS = tuple(2.0 ** j for j in range(7, -1, -1))  # caps k, top down
TEST_MODES = np.array([[0, 0, 1, 1, 0, 2, 1, 2, 2, 0], [0, 1, 0, 1, 2, 0, 2, 1, 2, 3]])


@dataclass
class SolveReport:
    """Converged solution plus the iteration evidence the tests inspect."""

    u: Field
    iterations: int            # Newton steps taken
    factorizations: int        # Jacobians factored, at most one per step
    residual_history: list
    monotone: bool
    supersolution: bool
    absorption_dx: float       # int (e^u - 1) dx
    absorption_rho: float      # int (e^u - 1) rho dx
    mass_bound_integral: float  # int (u + (e^u - 1) zeta0) dx
    data_max: float
    barrier_start: bool        # min(clipped start, barrier) passed its check


def _semilinear_solve(ks: KernelSet, b: np.ndarray, mask: Optional[np.ndarray] = None,
                      carry: Optional[list] = None) -> SolveReport:
    """Newton solve of A u + mask (e^u - 1) = b.

    `b` is the full load, boundary data included; the solution is zero
    on the boundary nodes like every field, and boundary data acts only
    through `b`.  `mask` weights the absorption per interior node (all
    ones when None); a zero drops the equation's absorption there, as
    the punctured solve does on its hole.

    `carry`, when given, is a list that is empty or holds
    [load, solution, solve, u_f] from an earlier solve with the same
    mask: its load, its solution, and the solve of its last factored
    A + diag(mask e^{u_f}).  If b <= load nodewise the start is lowered
    to that solution and the solve starts with that factor while its
    contraction bound allows; otherwise it starts cold.  Either way the
    solve leaves its own four there (module docstring).
    """
    A = ks.lap
    if mask is None:
        mask = np.ones(ks.grid.n_interior)
    # start at the least of two supersolutions (module docstring)
    u_lin = ks.solve(b)
    on = mask > 0
    c = max(float(np.log1p(b[on].max(initial=0.0))),
            float(u_lin[~on].max(initial=0.0)))
    u = np.where(on, np.minimum(u_lin, c), u_lin)
    carried = bool(carry and np.all(b <= carry[0]))
    if carried:
        u = np.minimum(u, carry[1])
    if float(u.max(initial=0.0)) > EXP_ARG_MAX:
        raise NotAdmissible(
            "Newton start reaches %.1f; exp(u) overflows at this resolution"
            % float(u.max())
        )
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    # While exp(u) dominates, each Newton step lowers u by roughly one.  On
    # absorbing nodes the start sits at most log(1 + max b+) above zero, so
    # MAX_OUTER covers unmasked solves; a node without absorption keeps its
    # linear potential, and lifts c to it, so a charged hole still needs a
    # budget that grows with its height.
    limit = max(MAX_OUTER, int(np.ceil(float(u.max(initial=0.0)))) + 60)
    # lower the start to the Keller-Osserman barrier where that keeps it a
    # supersolution; the residual of the start taken is the first step's
    low = np.minimum(u, _barrier(ks.grid, b, on))
    r = A @ low + mask * np.expm1(low) - b
    barrier_start = bool(r.min() >= -1e-9 * scale)
    if barrier_start:
        u = low
    else:
        r = A @ u + mask * np.expm1(u) - b
    res_hist = []
    monotone = True
    supersolution = True
    factorizations = 0
    last = 0.0  # the last step with the factor in hand; 0 marks none yet
    refactor = True
    if carried:
        _, _, solve, u_f = carry
        refactor = _contraction_bound(u_f, u, on) > REUSE_TOL
    if carry is not None:
        carry.clear()
    for it in range(1, limit + 1):
        res_hist.append(float(np.abs(r).max()))
        if r.min() < -1e-9 * scale:
            supersolution = False
        if refactor:
            solve = None  # free the old factor before building the next
            solve = ks.factor_shifted(mask * np.exp(u))
            factorizations += 1
            u_f, last = u, 0.0
        delta = -solve(r)
        if delta.max() > 1e-11 * max(1.0, float(np.abs(u).max())):
            monotone = False
        u = u + delta
        r = A @ u + mask * np.expm1(u) - b
        step = float(np.abs(delta).max())
        bound = _contraction_bound(u_f, u, on)
        # about q s is left: q is the bound on a factor's first step, after
        # that the bound or the observed ratio
        q = min(bound, step / last) if last else bound
        if q * step <= np.finfo(float).eps * max(1.0, float(np.abs(u).max())):
            res_hist.append(float(np.abs(r).max()))
            if res_hist[-1] > RES_TOL * scale:
                raise NoConvergence(
                    "step converged but residual %.3e above tolerance" % res_hist[-1]
                )
            break
        refactor = bound > REUSE_TOL or 0.0 < last <= step
        last = step
    else:
        raise NoConvergence(f"no convergence in {limit} outer steps")
    if carry is not None:
        carry[:] = b, u, solve, u_f

    absorb = np.expm1(u)
    return SolveReport(
        u=Field(ks.grid, u),
        iterations=it,
        factorizations=factorizations,
        residual_history=res_hist,
        monotone=monotone,
        supersolution=supersolution,
        absorption_dx=integrate(absorb, ks.grid, "lebesgue"),
        absorption_rho=integrate(absorb, ks.grid, "rho"),
        mass_bound_integral=integrate(u + absorb * ks.zeta0, ks.grid, "lebesgue"),
        data_max=float(np.abs(b).max(initial=0.0)),
        barrier_start=barrier_start,
    )


def _barrier(grid, b: np.ndarray, on: np.ndarray) -> np.ndarray:
    """beta = ln(KO_BARRIER / d^2) on the absorbing nodes off the support of
    b, with d the distance to the support's bounding box; +inf elsewhere
    (module docstring)."""
    beta = np.full(b.shape, np.inf)
    supp = b > 0
    if not supp.any():
        return beta
    d2 = 0.0
    for x in grid.interior_coords.T:  # one axis at a time: its gap to the box
        xs = x[supp]
        d2 = d2 + np.maximum(np.maximum(xs.min() - x, x - xs.max()), 0.0) ** 2
    off = on & (d2 > 0)
    beta[off] = np.log(KO_BARRIER / d2[off])
    return beta


def _contraction_bound(u_f: np.ndarray, u: np.ndarray, on: np.ndarray) -> float:
    """q = 1 - exp(-max(u_f - u)) over the absorbing nodes: the contraction
    bound of a factor taken at u_f, at the iterate u (module docstring)."""
    return -float(np.expm1(-(u_f - u)[on].max(initial=0.0)))


def solve_interior(mu: InteriorMeasure, ks: KernelSet) -> SolveReport:
    """Zero boundary values, interior measure as source."""
    return _semilinear_solve(ks, mu.load(ks))


def solve_boundary(mu: BoundaryMeasure, ks: KernelSet) -> SolveReport:
    """Boundary measure as Dirichlet data, no interior source."""
    return _semilinear_solve(ks, mu.load(ks))


@dataclass
class TruncationLevel:
    level: float
    mass: float
    bound_lhs: float
    bound_rhs: float
    min_gain: float = 0.0  # min over nodes of u_k - u_{k-1}


@dataclass
class TruncationReport:
    levels: list
    final: SolveReport
    flux_constant: float
    total_mass: float
    monotone: bool
    saturated: bool


def truncation_scheme(mu: BoundaryMeasure, ks: KernelSet) -> TruncationReport:
    """Truncation ladder mu_S + min(k, mu_R), k in TRUNCATION_LEVELS, with
    the uniform mass bound.

    At every level the report records

        int (u_k + (e^{u_k} - 1) zeta0) dx  <=  c * ||mu||,

    where c is the largest one-sided second-order outward derivative of
    the torsion field over boundary nodes; the discrete Green identity
    makes the left side equal a flux pairing dominated by c * mass, so
    the inequality is structural, not tuned.  Each level's Newton start
    is screened for overflow like any solve's; data whose harmonic
    extension overflows exp is solved whenever that start fits.
    """
    c_flux = float(np.abs(normal_derivative(ks, ks.zeta0, order=2)).max())
    total = mu.total_mass

    # top-down, each level carrying the solve above it (module docstring);
    # a row's gain is set once the next is solved
    rows = []
    above = final = None
    carry = []
    monotone = True
    for k in TRUNCATION_LEVELS:
        data_k = mu.truncated(k)
        rep = _semilinear_solve(ks, data_k.load(ks), carry=carry)
        if above is None:
            final = rep
        else:
            gain = float((above.u.values - rep.u.values).min())
            rows[-1].min_gain = gain
            if gain < -1e-12 * max(1.0, float(np.abs(rep.u.values).max())):
                monotone = False
        above = rep
        rows.append(TruncationLevel(level=float(k), mass=data_k.total_mass,
                                    bound_lhs=rep.mass_bound_integral,
                                    bound_rhs=c_flux * total))
    rows.reverse()
    dens_max = 0.0 if mu.density is None else float(mu.density.max(initial=0.0))
    return TruncationReport(
        levels=rows, final=final, flux_constant=c_flux, total_mass=total,
        monotone=monotone, saturated=TRUNCATION_LEVELS[0] >= dens_max,
    )


# ---------------------------------------------------------------------------
# weak residual

def default_test_basis(ks: KernelSet) -> np.ndarray:
    """Ten smooth discrete test fields vanishing on the boundary nodes, as
    the columns of a C-ordered (Ni, 10) array.

    Square/interval: bubble-times-cosine products x(1-x) cos(i pi x)
    (and the y factor in 2D; TEST_MODES holds the ten (i, j) of least
    i^2 + j^2, ties by (i, j)).  The bubble keeps the second normal
    derivative away from zero on the boundary, so one-sided flux errors
    show their leading O(h) term instead of a degenerate higher order.
    Disk: Green potentials of cosine sources, zero on the boundary ring
    by construction.

    The cosines and the x(1-x) factor are evaluated on the n + 2 lattice
    abscissae of one axis and gathered per node, which gives the same
    values as evaluating them at every node's coordinates.
    """
    grid = ks.grid
    t = np.arange(grid.n + 2) * grid.h  # the lattice abscissae of one axis
    bubble = t * (1.0 - t)
    cosines = np.cos(np.pi * np.arange(10)[:, None] * t)
    if grid.shape == "interval":
        ix, = grid.lattice_index()
        rows = bubble[ix] * cosines[:, ix]
    else:
        ix, iy = grid.lattice_index()
        rows = cosines[TEST_MODES[0]][:, ix] * cosines[TEST_MODES[1]][:, iy]
        if grid.shape == "disk":
            cols = ks.solve(rows.T)
            cols /= np.maximum(1e-300, np.abs(cols).max(axis=0))
            return np.ascontiguousarray(cols)
        # left to right, as x(1-x) y (1-y) at each node's coordinates
        y = t[iy]
        rows = bubble[ix] * y * (1.0 - y) * rows
    return np.ascontiguousarray(rows.T)


def weak_residual(u: Field, mu, ks: KernelSet, tests: np.ndarray,
                  flux_order: int = 2):
    """R(zeta) per test; returns (max |R|, array of R).

    `tests` holds one test field per column, an (Ni, k) array of
    interior values of fields that vanish on the boundary nodes (as
    `default_test_basis` returns).

    For boundary data: R = int(-u Lap zeta + (e^u - 1) zeta) dx
                           + int d(zeta)/dnu dmu.
    For interior data: R = int(-u Lap zeta + (e^u - 1) zeta) dx
                           - int zeta dmu.
    flux_order=1 uses the Green-identity-consistent flux (residuals at
    solver precision for converged solves); flux_order=2 the one-sided
    second-order difference (residuals of order h).
    """
    grid = ks.grid
    grid.require_same(u.grid)
    tests = grid.interior_values(tests, stack=True)
    # ks.lap @ tests = -Lap zeta with zero extension, one test per column
    out = grid.cell_measure * (u.values @ (ks.lap @ tests) + np.expm1(u.values) @ tests)
    if isinstance(mu, BoundaryMeasure):
        out += mu.node_masses() @ normal_derivative(ks, tests, order=flux_order)
    elif isinstance(mu, InteriorMeasure):
        out -= mu.node_masses() @ tests
    else:
        raise NotComparable("mu must be an InteriorMeasure or BoundaryMeasure")
    return float(np.abs(out).max()), out


# ---------------------------------------------------------------------------
# admissibility screen

@dataclass
class AdmissibilityReport:
    verdict: str          # "Admissible" | "DivergentTrend"
    slope: float
    table: list           # rows (n, h, integral)
    overflowed: bool


def admissibility_test(spec: MeasureSpec, ladder: Sequence[KernelSet],
                       slope_tol: float = SLOPE_TOL) -> AdmissibilityReport:
    """Trend of I_h = int exp(potential) w dx over a refinement ladder.

    `ladder` holds the assembled kernel sets, one per refinement, and the
    table keeps their order.  w = dx for interior specs, rho dx for
    boundary specs.  The verdict is DivergentTrend when the least-squares
    slope of log I_h against log(1/h) exceeds slope_tol (or the integrand
    overflows outright).  At least three refinements are required for the
    fit.
    """
    if len(ladder) < 3:
        raise ValueError("need at least 3 refinements for a slope fit")
    wkind = "lebesgue" if spec.kind == "interior" else "rho"
    rows = []
    overflow = False
    for ks_n in ladder:
        grid = ks_n.grid
        pot = ks_n.solve(spec.instantiate(grid).load(ks_n))
        if float(pot.max(initial=0.0)) > EXP_ARG_MAX:
            overflow = True
            rows.append((grid.n, grid.h, np.inf))
            continue
        rows.append((grid.n, grid.h, integrate(np.exp(pot), grid, wkind)))

    if overflow:
        return AdmissibilityReport("DivergentTrend", np.inf, rows, True)
    logs = np.log([r[2] for r in rows])
    loginvh = np.log([1.0 / r[1] for r in rows])
    slope = float(np.polyfit(loginvh, logs, 1)[0])
    verdict = "DivergentTrend" if slope > slope_tol else "Admissible"
    return AdmissibilityReport(verdict, slope, rows, False)


def keller_osserman_diagnostic(u: Field) -> float:
    """D = max over interior nodes of u + 2 ln rho."""
    return float((u.values + 2.0 * np.log(u.grid.rho)).max())
