"""Batch experiments at desk scale.

Five drivers, one per phenomenon:

  * removability threshold: bracket the critical interior point mass on
    a 2D domain by running the exp-integrability screen over a grid
    ladder for each mass in a ladder straddling 4*pi;
  * vanishing inequality: the mass-versus-capacity bound
    mu(K) <= int (e^u - 1) eta + 3 ||u|| ||Lap eta|| for shrinking
    cutoff families, interior and boundary flavours, with both
    evaluation orders of the boundary pairing;
  * moderate extension: solve with the equation removed at a small node
    set K (harmonic bridging), then test whether the solution extends
    across K: correction term -int (zeta Lap eta + 2 grad zeta . grad
    eta) u dx decays as the cutoff shrinks and the weak residual on the
    whole domain stays at discretisation size;
  * boundary probe: the integrand |w| ln(1 + rho^-2 |w|) with
    w = Lap(rho* P[eta]) for shrinking boundary cutoffs (trend only, no
    verdict: the continuum question is open);
  * convergence suite: closed-form anchors (1D Green, torsion,
    eigenvalue, harmonic partition) plus residual trends and a certified
    capacity bracket over a refinement ladder.

Everything is deterministic: fixed iteration caps, and CSV outputs that
reproduce bit-identically on re-runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import (CompactSet, boundary_collar, boundary_test_norm,
                       capacity_pair, pairing, pinned_harmonic_fill,
                       _boundary_forward, _hop_distance)
from .errors import BadInput, Infeasible, LadderTooCoarse, SupportError
from .grids import SHAPES, build_grid, integrate
from .kernels import assemble, green_column
from .luxemburg import luxemburg_norm
from .measures import BoundaryMeasure, InteriorMeasure, MeasureSpec
from .nfunctions import exponential_pair
from .solver import (SLOPE_TOL, _semilinear_solve, admissibility_test,
                     default_test_basis, solve_boundary, solve_interior,
                     weak_residual)

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = ""
    shape: str = "disk"
    ladder: tuple = (32, 64, 128)
    masses: tuple = (2.0, 8.0, 11.0, 14.0, 20.0)
    target: str = ""  # "" names the experiment's default_target
    radii: tuple = (8, 6, 4, 3)
    charge: float = 0.0
    slope_tol: float = SLOPE_TOL
    residual_tol: float = 1e-4
    threshold_window: float = 0.15
    out: str = ""

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise BadInput(f"shape must be one of {', '.join(SHAPES)}, got {self.shape!r}")
        lad = tuple(int(v) for v in self.ladder)
        if any(b <= a for a, b in zip(lad, lad[1:])):
            raise BadInput("grid ladder must be strictly increasing")
        object.__setattr__(self, "ladder", lad)
        ms = tuple(float(v) for v in self.masses)
        if any(m < 0 for m in ms):
            raise BadInput("masses must be >= 0")
        object.__setattr__(self, "masses", ms)
        radii = tuple(int(v) for v in self.radii)
        if not radii:
            raise BadInput("the family needs at least one radius")
        if any(r < 1 for r in radii):
            raise BadInput("family radii must be >= 1")
        object.__setattr__(self, "radii", radii)


def write_csv(path: str, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Header row then data rows; floats serialised at full precision."""
    def fmt(v):
        if isinstance(v, float):
            return "%.17g" % v
        return v
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for r in rows:
            w.writerow([fmt(v) for v in r])


# ---------------------------------------------------------------------------
# target sets and cutoff families

def _domain_center(shape: str):
    return (0.5,) if shape == "interval" else (0.5, 0.5)


def _require_2d(cfg: ExperimentConfig, name: str) -> None:
    """Refuse the interval, for a 2-D experiment, before anything is built."""
    if cfg.shape == "interval":
        raise SupportError(f"{name} experiment needs a 2D shape")


def default_target(grid, kind: str) -> str:
    """The target named when none is given: center for interior sets;
    bottom-mid on 2-D grids and point:0 on the interval for boundary sets."""
    if kind == "interior":
        return "center"
    return "bottom-mid" if grid.ndim == 2 else "point:0"


def target_nodes(grid, kind: str, name: str) -> np.ndarray:
    """Resolve a named target set to node ordinals.

    Interior names: center | cluster (center plus nearest neighbours) |
    segment (nodes with |y - 1/2| < h/2, 0.4 <= x <= 0.6).
    Boundary names: bottom-mid | bottom-cluster | bottom-arc (2-D grids
    only; BadInput on the interval), or nearest-node forms 'point:x,y'.
    """
    coords = grid.coords(kind)

    if name.startswith("point:"):
        try:
            pt = tuple(float(v) for v in name.split(":", 1)[1].split(","))
            return grid.nearest(pt, kind)
        except ValueError as exc:
            raise BadInput(f"target {name!r}: {exc}") from None
    if kind == "interior":
        if name == "center":
            return grid.nearest(_domain_center(grid.shape), kind)
        if name == "cluster":
            return grid.nearest(_domain_center(grid.shape), kind, 3)
        if name == "segment":
            if grid.ndim == 1:
                sel = (coords[:, 0] >= 0.4) & (coords[:, 0] <= 0.6)
            else:
                sel = ((np.abs(coords[:, 1] - 0.5) < 0.51 * grid.h)
                       & (coords[:, 0] >= 0.4) & (coords[:, 0] <= 0.6))
            nodes = np.flatnonzero(sel)
            if nodes.size == 0:
                raise SupportError(f"segment target empty on this grid")
            return nodes
    else:
        if grid.ndim == 1 and name in ("bottom-mid", "bottom-cluster", "bottom-arc"):
            raise BadInput(f"boundary target {name!r} needs a 2-D grid; "
                           "on the interval name an end as 'point:0' or 'point:1'")
        if name == "bottom-mid":
            return grid.nearest((0.5, 0.0), kind)
        if name == "bottom-cluster":
            return grid.nearest((0.5, 0.0), kind, 3)
        if name == "bottom-arc":
            sel = ((coords[:, 1] < 0.51 * grid.h)
                   & (coords[:, 0] >= 0.35) & (coords[:, 0] <= 0.65))
            nodes = np.flatnonzero(sel)
            if nodes.size == 0:
                raise SupportError("bottom-arc target empty on this grid")
            return nodes
    raise SupportError(f"unknown {kind} target {name!r}")


def interior_family(K_nodes: np.ndarray, ks, radii: Sequence[int]):
    """Shrinking capacitary cutoffs: eta = 1 on dilate(K,1), harmonic on
    dilate(K,R) beyond, 0 elsewhere; one field per R (R descending)."""
    dist = _hop_distance(ks.stencil_graph, K_nodes)
    collar = boundary_collar(ks)
    fixed = (dist <= 1).astype(float)
    out = []
    for R in sorted(radii, reverse=True):
        if (dist[collar] <= R).any():
            raise Infeasible("cutoff support touches the boundary collar; shrink radii")
        free = np.flatnonzero((dist > 1) & (dist <= R))
        out.append(pinned_harmonic_fill(ks, fixed, free))
    return out


def boundary_family(K_nodes: np.ndarray, grid, radii: Sequence[int]):
    """Graph-distance tents on the boundary: eta = max(0, 1 - dist/R)."""
    dist = _hop_distance(grid.boundary_graph, K_nodes)
    out = []
    for R in sorted(radii, reverse=True):
        out.append(np.maximum(0.0, 1.0 - dist / float(R)))
    return out


# ---------------------------------------------------------------------------
# removability threshold

@dataclass
class RemovabilityResult:
    threshold: float
    verdict: str
    reference: float
    rows: list = field(default_factory=list)


def run_removability_threshold(cfg: ExperimentConfig) -> RemovabilityResult:
    """Bracket the critical interior point mass over cfg.masses.

    Verdict PASS when the bracketing midpoint sits within
    cfg.threshold_window of 4*pi; LadderTooCoarse when the ladder never
    changes sign.
    """
    _require_2d(cfg, "threshold")
    if len(cfg.ladder) < 3:
        raise BadInput("the slope fit needs a ladder of at least 3 grid sizes, "
                       f"got {len(cfg.ladder)}")
    ladder = [assemble(build_grid(cfg.shape, n)) for n in cfg.ladder]
    center = _domain_center(cfg.shape)
    rows = []
    admissible, divergent = [], []
    for m in sorted(cfg.masses):
        spec = MeasureSpec("interior", atoms=((center, m),))
        rep = admissibility_test(spec, ladder, slope_tol=cfg.slope_tol)
        rows.append((m, rep.slope, rep.verdict))
        (admissible if rep.verdict == "Admissible" else divergent).append(m)
    if not admissible or not divergent:
        raise LadderTooCoarse(
            "mass ladder does not straddle the threshold "
            f"(admissible={admissible}, divergent={divergent})")
    lo, hi = max(admissible), min(divergent)
    if lo > hi:
        raise LadderTooCoarse("verdicts are not monotone in mass; refine the ladder")
    thr = 0.5 * (lo + hi)
    verdict = ("PASS" if abs(thr - FOUR_PI) / FOUR_PI <= cfg.threshold_window
               else "FAIL")
    res = RemovabilityResult(thr, verdict, FOUR_PI, rows)
    if cfg.out:
        write_csv(cfg.out, ["mass", "slope", "verdict"], rows)
    return res


# ---------------------------------------------------------------------------
# vanishing inequality (mass vs capacity terms)

@dataclass
class VanishingResult:
    rows: list
    min_margin: float
    max_pairing_gap: float


def interior_pairing(eta: np.ndarray, mu: InteriorMeasure, ks):
    """(potential-side, node-side) evaluations of int eta dmu."""
    vol = ks.grid.cell_measure
    pot = ks.solve(mu.load(ks))
    a = vol * float(pot @ (ks.lap @ eta))
    b = float(mu.node_masses() @ eta)
    return a, b


def _interior_triple(case: str, mu: InteriorMeasure, K_nodes, ks, radii):
    nf = exponential_pair()
    grid = ks.grid
    rep = solve_interior(mu, ks)
    u = rep.u.values
    norm_u = luxemburg_norm(u, grid, nf, side="principal", weight="lebesgue")
    mass_on_K = float(mu.node_masses()[K_nodes].sum())
    rows = []
    for step, eta in enumerate(interior_family(K_nodes, ks, radii)):
        t2 = grid.cell_measure * float(np.expm1(u) @ eta)
        t3 = 3.0 * norm_u * luxemburg_norm(ks.lap @ eta, grid, nf,
                                           side="conjugate", weight="lebesgue")
        a, b = interior_pairing(eta, mu, ks)
        rows.append((case, step, mass_on_K, t2, t3, t2 + t3 - mass_on_K,
                     abs(a - b)))
    return rows


def _boundary_triple(case: str, mu: BoundaryMeasure, K_nodes, ks, radii):
    nf = exponential_pair()
    grid = ks.grid
    rep = solve_boundary(mu, ks)
    u = rep.u.values
    norm_u = luxemburg_norm(u, grid, nf, side="principal", weight="rho")
    mass_on_K = float(mu.node_masses()[K_nodes].sum())
    rows = []
    for step, eta in enumerate(boundary_family(K_nodes, grid, radii)):
        v = ks.solve(ks.coupling @ eta)
        z = ks.rho_star * v
        t2 = grid.cell_measure * float(np.expm1(u) @ z)
        t3 = 3.0 * norm_u * boundary_test_norm(ks, eta)
        a, b = pairing(eta, mu, ks)
        rows.append((case, step, mass_on_K, t2, t3, t2 + t3 - mass_on_K,
                     abs(a - b)))
    return rows


def run_vanishing_inequality(cfg: ExperimentConfig) -> VanishingResult:
    """Three (mu, K, family) triples; emits the terms per family step."""
    _require_2d(cfg, "vanishing")
    n = cfg.ladder[0]
    ks = assemble(build_grid(cfg.shape, n))
    grid = ks.grid
    center = _domain_center(cfg.shape)

    rows = []
    mu1 = MeasureSpec("interior", atoms=((center, 1.0),)).instantiate(grid)
    K1 = target_nodes(grid, "interior", "center")
    rows += _interior_triple("interior-charged", mu1, K1, ks, cfg.radii)

    mu2 = MeasureSpec("interior", atoms=(((0.25,) * grid.ndim, 2.0),)).instantiate(grid)
    rows += _interior_triple("interior-slack", mu2, K1, ks, cfg.radii)

    Kb = target_nodes(grid, "boundary", "bottom-mid")
    mu3 = BoundaryMeasure(grid, atoms=[(int(Kb[0]), 1.0)])
    rows += _boundary_triple("boundary-charged", mu3, Kb, ks, cfg.radii)

    res = VanishingResult(rows,
                          min(r[5] for r in rows),
                          max(r[6] for r in rows))
    if cfg.out:
        write_csv(cfg.out, ["case", "step", "mass_on_K", "absorption_term",
                            "holder_term", "margin", "pairing_gap"], rows)
    return res


# ---------------------------------------------------------------------------
# moderate extension across a punctured set

@dataclass
class ModerateResult:
    verdict: str
    decay_slope: float
    residual: float
    punctured_gap: float  # max |u_punctured - u_full|, nan if full solve skipped
    rows: list = field(default_factory=list)


def punctured_solve(mu: InteriorMeasure, ks, K_nodes: np.ndarray,
                    charge: float = 0.0):
    """Newton solve with the equation replaced at K by harmonic bridging.

    At K nodes the absorption is dropped and the load is `charge`
    (total, shared evenly over K); elsewhere the usual equation holds.
    Returns (Field, iterations); the monotone Newton loop of the solver
    raises NoConvergence when it runs out of steps or stops above its
    residual tolerance.
    """
    grid = ks.grid
    mask = np.ones(grid.n_interior)
    b = mu.load(ks)
    if K_nodes.size:
        mask[K_nodes] = 0.0
        b[K_nodes] = charge / (K_nodes.size * grid.cell_measure)
    rep = _semilinear_solve(ks, b, mask=mask)
    return rep.u, rep.iterations


def _centred_step(E: np.ndarray, axis: int) -> np.ndarray:
    """E[a + e_axis] - E[a - e_axis] on the inner block of a lattice array."""
    hi = tuple(slice(2, None) if k == axis else slice(1, -1) for k in range(E.ndim))
    lo = tuple(slice(None, -2) if k == axis else slice(1, -1) for k in range(E.ndim))
    return E[hi] - E[lo]


def _grad_dot_times(grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """grad a . grad b at interior nodes, centred differences, zero extension."""
    tw = 2.0 * grid.h
    Ea, Eb = grid.to_lattice(a), grid.to_lattice(b)
    g = sum((_centred_step(Ea, k) / tw) * (_centred_step(Eb, k) / tw)
            for k in range(grid.ndim))
    return g[grid.lattice_index(-1)]


def run_moderate_extension(cfg: ExperimentConfig) -> ModerateResult:
    """Puncture at cfg.target, solve, and test extension across the hole."""
    _require_2d(cfg, "moderate")
    n = cfg.ladder[-1]
    ks = assemble(build_grid(cfg.shape, n))
    grid = ks.grid
    if cfg.target == "none":
        K = np.array([], dtype=int)
    else:
        K = target_nodes(grid, "interior", cfg.target or default_target(grid, "interior"))
    mu = InteriorMeasure(grid, density=np.ones(grid.n_interior))
    if cfg.charge > 0 and K.size:
        mu_full = InteriorMeasure(grid, atoms=[(int(K[0]), cfg.charge)],
                                  density=np.ones(grid.n_interior))
    else:
        mu_full = mu

    up, _ = punctured_solve(mu, ks, K, charge=cfg.charge)
    gap = float("nan")
    if cfg.charge == 0.0:
        full = solve_interior(mu_full, ks)
        gap = float(np.abs(up.values - full.u.values).max())

    zeta = ks.zeta0
    rows = []
    if K.size == 0:
        slope = float("inf")
    else:
        if len(cfg.radii) < 2:
            raise LadderTooCoarse("need at least 2 family radii for a decay fit")
        vals = []
        for R, eta in zip(sorted(cfg.radii, reverse=True),
                          interior_family(K, ks, cfg.radii)):
            lap_term = grid.cell_measure * float((zeta * (ks.lap @ eta)) @ up.values)
            grad_term = 2.0 * grid.cell_measure * float(
                _grad_dot_times(grid, zeta, eta) @ up.values)
            corr = lap_term - grad_term
            rows.append((R, R * grid.h, corr))
            vals.append((R * grid.h, abs(corr)))
        if max(v for _, v in vals) < 1e-8:
            slope = float("inf")
        else:
            xs = np.log([x for x, _ in vals])
            ys = np.log([max(v, 1e-300) for _, v in vals])
            slope = float(np.polyfit(xs, ys, 1)[0])

    maxR, _ = weak_residual(up, mu_full, ks, default_test_basis(ks))
    # Corrections cannot decay below the h^2 discretization floor, so a
    # run whose corrections already sit under the tolerance counts as an
    # extension even when the log-log fit over floor noise is flat.
    small = (not rows) or max(abs(r[2]) for r in rows) < cfg.residual_tol
    verdict = ("EXTENDS" if (slope > 0.5 or small) and maxR < cfg.residual_tol
               else "OBSTRUCTED")
    res = ModerateResult(verdict, slope, maxR, gap, rows)
    if cfg.out:
        write_csv(cfg.out, ["rings", "radius", "correction"], rows)
    return res


# ---------------------------------------------------------------------------
# boundary probe

@dataclass
class BoundaryProbeResult:
    shrink_rows: list
    refine_rows: list
    est_slope: float


def _est_integral(ks, eta_b: np.ndarray) -> float:
    """int |w| ln(1 + rho^-2 |w|) dx with w = Lap(rho* P[eta])."""
    aw = np.abs(_boundary_forward(ks, eta_b))
    return integrate(aw * np.log1p(aw / ks.grid.rho ** 2), ks.grid, "lebesgue")


def run_boundary_probe(cfg: ExperimentConfig) -> BoundaryProbeResult:
    """Trend table for the boundary removability integrand (no verdict)."""
    _require_2d(cfg, "boundary-probe")
    n = cfg.ladder[-1]
    ks = assemble(build_grid(cfg.shape, n))
    grid = ks.grid
    name = cfg.target or default_target(grid, "boundary")
    K = target_nodes(grid, "boundary", name)

    shrink = []
    ests = []
    for R, eta in zip(sorted(cfg.radii, reverse=True),
                      boundary_family(K, grid, cfg.radii)):
        est = _est_integral(ks, eta)
        nrm = boundary_test_norm(ks, eta)
        shrink.append(("shrink", n, R, est, nrm))
        ests.append((R, est))
    if all(v <= 0 for _, v in ests):
        slope = 0.0
    else:
        xs = np.log([r for r, _ in ests])
        ys = np.log([max(v, 1e-300) for _, v in ests])
        slope = float(np.polyfit(xs, ys, 1)[0])

    # fixed continuum profile, refinement only: values should be stable
    refine = []
    width = 0.2
    for nn in cfg.ladder:
        ks_n = ks if nn == n else assemble(build_grid(cfg.shape, nn))
        gnn = ks_n.grid
        Kn = target_nodes(gnn, "boundary", name)
        anchor = gnn.boundary_coords[Kn[0]]
        d = np.sqrt(np.sum((gnn.boundary_coords - anchor[None, :]) ** 2, axis=1))
        eta = np.maximum(0.0, 1.0 - d / width)
        refine.append(("refine", nn, 0, _est_integral(ks_n, eta),
                       boundary_test_norm(ks_n, eta)))

    res = BoundaryProbeResult(shrink, refine, slope)
    if cfg.out:
        write_csv(cfg.out, ["mode", "n", "rings", "est_integral", "lln_norm"],
                  shrink + refine)
    return res


# ---------------------------------------------------------------------------
# convergence suite

@dataclass
class ConvergenceResult:
    rows: list


def _square_torsion_center() -> float:
    """Series value of the unit-square torsion function at the centre."""
    total = 0.125
    k = 1
    while True:
        term = (4.0 / math.pi ** 3) * math.sin(0.5 * math.pi * k) / (
            k ** 3 * math.cosh(0.5 * math.pi * k))
        total -= term
        if abs(term) < 1e-18:
            break
        k += 2
    return total


def run_convergence_suite(cfg: ExperimentConfig) -> ConvergenceResult:
    """Closed-form anchors and refinement trends; one row per (check, n)."""
    rows = []
    ref_eig = 2.0 * math.pi ** 2
    ref_tc = _square_torsion_center()

    prev = {}
    for n in cfg.ladder:
        ks = assemble(build_grid("square", n))
        grid = ks.grid
        err = abs(ks.eigenvalue - ref_eig) / ref_eig
        rows.append(("eigenvalue", "square", n, ks.eigenvalue, ref_eig, err,
                     prev.get("eig", float("nan")) / err if "eig" in prev else float("nan")))
        prev["eig"] = err

        center = target_nodes(grid, "interior", "center")
        tc = ks.zeta0[center[0]]
        err_t = abs(tc - ref_tc)
        rows.append(("torsion-center", "square", n, tc, ref_tc, err_t,
                     prev.get("tc", float("nan")) / err_t if "tc" in prev else float("nan")))
        prev["tc"] = err_t

        ones = ks.solve(ks.coupling @ np.ones(grid.n_boundary))
        err_p = float(np.abs(ones - 1.0).max())
        rows.append(("harmonic-partition", "square", n, 1.0 + err_p, 1.0,
                     err_p, float("nan")))

        gb = BoundaryMeasure(grid, density=np.full(grid.n_boundary, 2.0))
        rep = solve_boundary(gb, ks)
        maxR, _ = weak_residual(rep.u, gb, ks, default_test_basis(ks))
        rows.append(("weak-residual", "square", n, maxR, 0.0, maxR,
                     prev.get("wr", float("nan")) / maxR if "wr" in prev else float("nan")))
        prev["wr"] = maxR

        Kc = CompactSet(grid, center, "interior")
        pair = capacity_pair(Kc, ks)
        cap = pair.primal_value
        rows.append(("capacity-center", "square", n, cap, pair.dual_value,
                     pair.gap / cap, cap / prev["cap"] if "cap" in prev else float("nan")))
        prev["cap"] = cap

    for n in cfg.ladder:
        nn = min(2 * n + 1, 255)
        ks1 = assemble(build_grid("interval", nn))
        g1 = ks1.grid
        xs = g1.interior_coords[:, 0]
        node = nn // 2
        y = xs[node]
        col = green_column(ks1, node)
        exact = np.where(xs <= y, xs * (1.0 - y), y * (1.0 - xs))
        rows.append(("green-1d", "interval", nn, float(np.abs(col - exact).max()),
                     0.0, float(np.abs(col - exact).max()), float("nan")))
        errz = float(np.abs(ks1.zeta0 - 0.5 * xs * (1.0 - xs)).max())
        rows.append(("torsion-1d", "interval", nn, errz, 0.0, errz, float("nan")))

    res = ConvergenceResult(rows)
    if cfg.out:
        write_csv(cfg.out, ["check", "shape", "n", "value", "reference",
                            "error", "ratio"], rows)
    return res
