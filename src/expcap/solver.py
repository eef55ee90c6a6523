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
about q s, so the loop stops when s < STEP_TOL and q s is at rounding,
eps max(1, |u|_inf), with q the smaller of the bound and the observed
ratio of the last two steps; STEP_TOL alone would stop a chord at errors
of about 5e-12.  A fresh Newton step has q <= s, so for it the rule is
s < STEP_TOL.  Every Jacobian is factored in A's own column order
(`KernelSet.factor_shifted`).

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

A solve handed a known supersolution w starts at min(u_0, w).  If
b' >= b nodewise, the solution w for b' is a supersolution for b, as
A w + e^w - 1 = b' >= b.  The minimum of two supersolutions is one too:
where it takes w_i, every neighbour is at most its w value and A has
nonpositive off-diagonals, so the row keeps at least w's residual.  The
truncation ladder starts each level from the solution one level up (a
level with the same data then takes one step).

Also here: the truncation ladder (singular part kept, density capped at
k, caps released monotonically), the weak-residual evaluator, the
potential-integrability screen over a refinement ladder, and the
Keller-Osserman diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (NoConvergence, NotAdmissible, NotComparable,
                     TestNotAdmissible)
from .grids import Field, integrate
from .kernels import KernelSet, normal_derivative
from .measures import BoundaryMeasure, InteriorMeasure, MeasureSpec
from .nfunctions import EXP_ARG_MAX

STEP_TOL = 1e-10
# a Jacobian factor is kept while its contraction bound stays at or below this
REUSE_TOL = 0.01
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


def _semilinear_solve(ks: KernelSet, b: np.ndarray, gdata: Optional[np.ndarray] = None,
                      mask: Optional[np.ndarray] = None,
                      upper: Optional[np.ndarray] = None) -> SolveReport:
    """Newton solve of A u + mask (e^u - 1) = b.

    `b` is the full load, boundary data included; `gdata` only sets the
    boundary trace the solution carries (zero when None).  `mask`
    weights the absorption per interior node (all ones when None); a
    zero drops the equation's absorption there, as the punctured solve
    does on its hole.  `upper`, when given, is a known supersolution for
    `b` (say the solution for larger data), and the start is lowered to
    it (module docstring).
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
    if upper is not None:
        u = np.minimum(u, upper)
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
    res_hist = []
    monotone = True
    supersolution = True
    factorizations = 0
    refactor = True
    for it in range(1, limit + 1):
        r = A @ u + mask * np.expm1(u) - b
        res_hist.append(float(np.abs(r).max()))
        if r.min() < -1e-9 * scale:
            supersolution = False
        if refactor:
            solve = None  # free the old factor before building the next
            solve = ks.factor_shifted(mask * np.exp(u))
            factorizations += 1
            u_f, last = u, np.inf
        delta = -solve(r)
        if delta.max() > 1e-11 * max(1.0, float(np.abs(u).max())):
            monotone = False
        u = u + delta
        step = float(np.abs(delta).max())
        # the factor's contraction bound at the new iterate (module docstring)
        bound = -float(np.expm1(-(u_f - u)[on].max(initial=0.0)))
        rounding = np.finfo(float).eps * max(1.0, float(np.abs(u).max()))
        if step < STEP_TOL and min(bound, step / last) * step <= rounding:
            r = A @ u + mask * np.expm1(u) - b
            res_hist.append(float(np.abs(r).max()))
            if res_hist[-1] > RES_TOL * scale:
                raise NoConvergence(
                    "step converged but residual %.3e above tolerance" % res_hist[-1]
                )
            break
        refactor = bound > REUSE_TOL or step >= last
        last = step
    else:
        raise NoConvergence(f"no convergence in {limit} outer steps")

    uf = Field(ks.grid, u,
               gdata.copy() if gdata is not None else np.zeros(ks.grid.n_boundary))
    absorb = np.expm1(u)
    return SolveReport(
        u=uf,
        iterations=it,
        factorizations=factorizations,
        residual_history=res_hist,
        monotone=monotone,
        supersolution=supersolution,
        absorption_dx=integrate(absorb, ks.grid, "lebesgue"),
        absorption_rho=integrate(absorb, ks.grid, "rho"),
        mass_bound_integral=integrate(u + absorb * ks.zeta0, ks.grid, "lebesgue"),
        data_max=float(np.abs(b).max(initial=0.0)),
    )


def solve_interior(mu: InteriorMeasure, ks: KernelSet) -> SolveReport:
    """Zero boundary values, interior measure as source."""
    return _semilinear_solve(ks, mu.load(ks))


def solve_boundary(mu: BoundaryMeasure, ks: KernelSet) -> SolveReport:
    """Boundary measure as Dirichlet data, no interior source."""
    return _semilinear_solve(ks, mu.load(ks), mu.density_vector())


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
    the inequality is structural, not tuned.
    """
    sing, _ = mu.split()
    # screen the singular part: its harmonic extension must stay in exp range
    pot = ks.solve(sing.load(ks))
    if float(pot.max(initial=0.0)) > EXP_ARG_MAX:
        raise NotAdmissible("singular part already overflows exp at this grid")

    zeta0 = Field(ks.grid, ks.zeta0, np.zeros(ks.grid.n_boundary))
    c_flux = float(np.abs(normal_derivative(ks, zeta0, order=2)).max())
    total = mu.total_mass

    # top-down from the clipped start, each level started from the one
    # above (module docstring); a row's gain is set once the next is solved
    rows = []
    above = final = None
    monotone = True
    for k in TRUNCATION_LEVELS:
        data_k = mu.truncated(k)
        rep = _semilinear_solve(ks, data_k.load(ks), data_k.density_vector(),
                                upper=None if above is None else above.u.values)
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

def default_test_basis(ks: KernelSet) -> list:
    """Ten smooth discrete test fields vanishing on the boundary nodes.

    Square/interval: bubble-times-cosine products x(1-x) cos(i pi x)
    (and the y factor in 2D; TEST_MODES holds the ten (i, j) of least
    i^2 + j^2, ties by (i, j)).  The bubble keeps the second normal
    derivative away from zero on the boundary, so one-sided flux errors
    show their leading O(h) term instead of a degenerate higher order.
    Disk: Green potentials of cosine sources, zero on the boundary ring
    by construction.
    """
    grid = ks.grid
    x = grid.interior_coords[:, 0]
    if grid.shape == "interval":
        rows = x * (1.0 - x) * np.cos(np.pi * np.arange(10)[:, None] * x)
    else:
        y = grid.interior_coords[:, 1]
        freq = np.pi * np.arange(4)[:, None]
        rows = np.cos(freq * x)[TEST_MODES[0]] * np.cos(freq * y)[TEST_MODES[1]]
        if grid.shape == "disk":
            cols = ks.solve(rows.T)
            rows = (cols / np.maximum(1e-300, np.abs(cols).max(axis=0))).T
        else:
            rows = x * (1.0 - x) * y * (1.0 - y) * rows
    return [Field(grid, r, np.zeros(grid.n_boundary)) for r in rows]


def weak_residual(u: Field, mu, ks: KernelSet, tests: Sequence[Field],
                  flux_order: int = 2):
    """R(zeta) per test; returns (max |R|, list of R).

    For boundary data: R = int(-u Lap zeta + (e^u - 1) zeta) dx
                           + int d(zeta)/dnu dmu.
    For interior data: R = int(-u Lap zeta + (e^u - 1) zeta) dx
                           - int zeta dmu.
    Tests must vanish at the boundary nodes (TestNotAdmissible otherwise).
    flux_order=1 uses the Green-identity-consistent flux (residuals at
    solver precision for converged solves); flux_order=2 the one-sided
    second-order difference (residuals of order h).
    """
    grid = ks.grid
    grid.require_same(u.grid)
    for zeta in tests:
        grid.require_same(zeta.grid)
        if zeta.boundary_values is not None and np.any(zeta.boundary_values != 0.0):
            raise TestNotAdmissible("test function must vanish on the boundary nodes")
    # one test per column; ks.lap @ Z = -Lap zeta with zero extension
    Z = np.stack([zeta.values for zeta in tests], axis=1)
    out = grid.cell_measure * (u.values @ (ks.lap @ Z) + np.expm1(u.values) @ Z)
    if isinstance(mu, BoundaryMeasure):
        out += mu.node_masses() @ normal_derivative(ks, Z, order=flux_order)
    elif isinstance(mu, InteriorMeasure):
        out -= mu.node_masses() @ Z
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
