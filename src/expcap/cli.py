"""Command-line front end.

Subcommands map one-to-one onto the library layers: `norms`, `kernel`,
`solve`, and `capacity` expose single computations; `removability`,
`vanishing`, `moderate`, `boundary-probe`, and `converge` drive the
batch experiments, each taking only the parameters its runner reads: as
flags (any other is a usage error) or as keys of an optional key = value
config file, flags taking precedence.  Any other key or a malformed value
raises BadInput and a file that will not open an OSError; `main` prints
either, like every package error, as one `error: ...` line and exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiments as xp
from .capacity import CapacityOptions, CompactSet, capacity_pair
from .errors import BadInput, ExpcapError
from .grids import SHAPES, Field, build_grid, dump_field_csv, load_field_csv
from .kernels import assemble
from .luxemburg import luxemburg_norm, orlicz_norm
from .maximal import llnl_norm
from .measures import MeasureSpec
from .nfunctions import exponential_pair
from .solver import (keller_osserman_diagnostic, solve_boundary,
                     solve_interior, truncation_scheme)


def read_config(path: str) -> dict:
    """Parse a key = value file; '#' starts a comment, blanks ignored."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BadInput(f"{path}: config line without '=': {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parse_atoms(text: str, ndim: int):
    """'x,y:m;x,y:m' -> tuple of ((coords), mass)."""
    atoms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        loc, _, mass = chunk.rpartition(":")
        try:
            coords = tuple(float(v) for v in loc.split(","))
            mass = float(mass)
        except ValueError as exc:
            raise BadInput(f"atom {chunk!r}: {exc}") from None
        if len(coords) != ndim:
            raise BadInput(f"atom {chunk!r}: expected {ndim} coordinates")
        atoms.append((coords, mass))
    return tuple(atoms)


def _list_of(conv):
    return lambda s: tuple(conv(t) for t in s.replace(";", ",").split(",") if t.strip())


# each experiment parameter: one parse for its flag and its config key (lists
# split at commas or semicolons; ExperimentConfig validates), and its help
_PARAMS = {
    "shape": (str, f"grid shape: {', '.join(SHAPES)}"),
    "ladder": (_list_of(int), "comma-separated grid sizes, increasing"),
    "masses": (_list_of(float), "comma-separated interior point masses"),
    "target": (str, "named target set (default: center; boundary-probe: bottom-mid)"),
    "radii": (_list_of(int), "comma-separated cutoff radii (rings)"),
    "charge": (float, "load left on the punctured target (0: none)"),
    "slope_tol": (float, "largest log-log growth slope read as admissible"),
    "residual_tol": (float, "weak-residual bound for an extension"),
    "threshold_window": (float, "relative distance from 4*pi that still passes"),
    "out": (str, "CSV output path"),
}


def _experiment_config(args) -> xp.ExperimentConfig:
    _, _, keys = _EXPERIMENTS[args.command]
    data = read_config(args.config) if args.config else {}
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise BadInput(f"{args.config}: not a {args.command} flag: {', '.join(unknown)}")
    data.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    for key, text in data.items():
        try:
            data[key] = _PARAMS[key][0](text)
        except ValueError as exc:
            raise BadInput(f"{key}: {exc}") from None
    return xp.ExperimentConfig(**data)


def _field_from_args(args, grid):
    if args.field and args.constant is not None:
        raise BadInput("choose --field or --constant, not both")
    if args.field:
        f = load_field_csv(args.field)
        grid.require_same(f.grid)
        return f.values
    if args.constant is not None:
        return np.full(grid.n_interior, args.constant)
    c = grid.interior_coords
    r2 = np.sum((c - 0.5) ** 2, axis=1)
    return np.exp(-50.0 * r2)


def _cmd_norms(args) -> int:
    grid = build_grid(args.shape, args.n)
    nf = exponential_pair()
    vals = _field_from_args(args, grid)
    scale = grid.rho if args.scale_rho else None
    print(f"field: n={args.n} shape={args.shape} max|f|={np.abs(vals).max():.6g}")
    for side in ("principal", "conjugate"):
        v = luxemburg_norm(vals, grid, nf, side=side, weight=args.weight,
                           scale=scale)
        print(f"luxemburg[{side}] = {v:.12g}")
    print(f"orlicz[principal] = {orlicz_norm(vals, grid, nf, args.weight):.12g}")
    print(f"llnl = {llnl_norm(vals, grid, args.weight):.12g}")
    return 0


def _cmd_kernel(args) -> int:
    ks = assemble(build_grid(args.shape, args.n))
    grid = ks.grid
    print(f"shape={args.shape} n={args.n} interior={grid.n_interior} "
          f"boundary={grid.n_boundary}")
    print(f"principal eigenvalue = {ks.eigenvalue:.10g}")
    if args.shape == "square":
        ref = 2.0 * math.pi ** 2
        print(f"  2*pi^2 = {ref:.10g}  rel err = {abs(ks.eigenvalue - ref) / ref:.3e}")
    print(f"torsion max = {ks.zeta0.max():.10g}")
    ones = ks.solve(ks.coupling @ np.ones(grid.n_boundary))
    print(f"harmonic partition deviation = {np.abs(ones - 1.0).max():.3e}")
    if args.dump_torsion:
        dump_field_csv(Field(grid, ks.zeta0), args.dump_torsion)
        print(f"torsion field written to {args.dump_torsion}")
    return 0


def _cmd_solve(args) -> int:
    kind = ("boundary" if args.boundary_atoms or args.boundary_constant is not None
            else "interior")
    if kind == "boundary" and (args.interior_atoms or args.interior_constant is not None):
        raise BadInput("choose boundary data or an interior source, not both")
    if kind == "interior" and args.truncation:
        raise BadInput("--truncation applies to boundary data only")
    ks = assemble(build_grid(args.shape, args.n))
    atoms = _parse_atoms(getattr(args, f"{kind}_atoms") or "", ks.grid.ndim)
    const = getattr(args, f"{kind}_constant")
    density = None if const is None else lambda coords, h: np.full(len(coords), const)
    mu = MeasureSpec(kind, atoms=atoms, density=density).instantiate(ks.grid)
    if kind == "interior":
        rep = solve_interior(mu, ks)
    elif args.truncation:
        rep_t = truncation_scheme(mu, ks)
        print("level  mass        lhs          rhs         min_gain")
        for row in rep_t.levels:
            print(f"{row.level:<6g} {row.mass:<11.6g} {row.bound_lhs:<12.6g} "
                  f"{row.bound_rhs:<11.6g} {row.min_gain:.3e}")
        print(f"monotone={rep_t.monotone} saturated={rep_t.saturated}")
        rep = rep_t.final
    else:
        rep = solve_boundary(mu, ks)
    print(f"iterations = {rep.iterations}  factorizations = {rep.factorizations}  "
          f"residual = {rep.residual_history[-1]:.3e}")
    print(f"monotone descent = {rep.monotone}  supersolution path = {rep.supersolution}")
    print(f"int (e^u - 1) dx = {rep.absorption_dx:.10g}")
    print(f"int (e^u - 1) rho dx = {rep.absorption_rho:.10g}")
    print(f"int (u + (e^u - 1) zeta0) dx = {rep.mass_bound_integral:.10g}")
    print(f"max u = {rep.u.values.max():.10g}")
    print(f"KO diagnostic max(u + 2 ln rho) = {keller_osserman_diagnostic(rep.u):.6g}")
    if args.dump_u:
        dump_field_csv(rep.u, args.dump_u)
        print(f"solution written to {args.dump_u}")
    return 0


def _cmd_capacity(args) -> int:
    ks = assemble(build_grid(args.shape, args.n))
    grid = ks.grid
    target = args.target or xp.default_target(grid, args.kind)
    nodes = xp.target_nodes(grid, args.kind, target)
    K = CompactSet(grid, nodes, args.kind)
    opts = CapacityOptions(dilation=args.dilation, maxiter=args.maxiter,
                           dual_iters=args.dual_iters)
    est = capacity_pair(K, ks, opts)
    gap = (est.gap / est.primal_value if est.primal_value > 0 else float("nan"))
    print(f"target {args.kind}:{target} -> {nodes.size} node(s)")
    print(f"primal = {est.primal_value:.10g}   ({est.iterations} iterations total)")
    how = ("signed measure of unit mass" if args.kind == "interior"
           else "adjoint certificate at the primal's eta")
    print(f"dual   = {est.dual_value:.10g}   ({how})")
    print(f"gap    = {100.0 * gap:.3g}% of primal")
    if args.dump_eta and est.eta_star is not None:
        if args.kind == "interior":
            dump_field_csv(Field(grid, est.eta_star), args.dump_eta)
        else:
            np.savetxt(args.dump_eta, est.eta_star, delimiter=",", fmt="%.17g")
        print(f"minimiser written to {args.dump_eta}")
    return 0


def _cmd_removability(args) -> int:
    res = xp.run_removability_threshold(_experiment_config(args))
    print("mass     slope      verdict")
    for m, s, v in res.rows:
        print(f"{m:<8g} {s:<10.4f} {v}")
    print(f"threshold estimate = {res.threshold:.6g}  "
          f"(4*pi = {res.reference:.6g})  verdict: {res.verdict}")
    return 0 if res.verdict == "PASS" else 1


def _cmd_vanishing(args) -> int:
    res = xp.run_vanishing_inequality(_experiment_config(args))
    print("case              step  mass_on_K  absorption  holder      margin      pairing_gap")
    for case, step, t1, t2, t3, margin, gap in res.rows:
        print(f"{case:<17} {step:<5} {t1:<10.4g} {t2:<11.4g} {t3:<11.4g} "
              f"{margin:<11.4g} {gap:.3e}")
    print(f"min margin = {res.min_margin:.6g}  max pairing gap = {res.max_pairing_gap:.3e}")
    return 0 if res.min_margin > -1e-9 else 1


def _cmd_moderate(args) -> int:
    res = xp.run_moderate_extension(_experiment_config(args))
    for rings, radius, corr in res.rows:
        print(f"rings={rings:<3} radius={radius:<8.4g} correction={corr:.6e}")
    print(f"decay slope = {res.decay_slope:.4g}  weak residual = {res.residual:.3e}")
    if res.punctured_gap == res.punctured_gap:
        print(f"max |punctured - full| = {res.punctured_gap:.3e}")
    print(f"verdict: {res.verdict}")
    return 0


def _cmd_boundary_probe(args) -> int:
    res = xp.run_boundary_probe(_experiment_config(args))
    print("mode     n     rings  est_integral  lln_norm")
    for mode, n, rings, est, nrm in res.shrink_rows + res.refine_rows:
        print(f"{mode:<8} {n:<5} {rings:<6} {est:<13.6g} {nrm:.6g}")
    print(f"shrink-mode slope of log(est) vs log(radius) = {res.est_slope:.4g}")
    return 0


def _cmd_converge(args) -> int:
    res = xp.run_convergence_suite(_experiment_config(args))
    print("check               shape     n    value         error        ratio")
    for check, shape, n, value, ref, err, ratio in res.rows:
        shown = f"{ratio:.3g}" if ratio == ratio else "-"
        print(f"{check:<19} {shape:<9} {n:<4} {value:<13.6g} {err:<12.4g} {shown}")
    return 0


# each experiment: its command, its help, and the parameters its runner reads
_EXPERIMENTS = {
    "removability": (_cmd_removability, "point-mass threshold bracket",
                     ("shape", "ladder", "masses", "slope_tol", "threshold_window", "out")),
    "vanishing": (_cmd_vanishing, "vanishing-inequality table",
                  ("shape", "ladder", "radii", "out")),
    "moderate": (_cmd_moderate, "extension across a punctured set",
                 ("shape", "ladder", "target", "radii", "charge", "residual_tol", "out")),
    "boundary-probe": (_cmd_boundary_probe, "boundary removability integrand trends",
                       ("shape", "ladder", "target", "radii", "out")),
    "converge": (_cmd_converge, "closed-form anchors over a ladder", ("ladder", "out")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expcap",
        description="Orlicz-capacity and exponential-absorption experiments "
                    "on finite-difference grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    on_grid = argparse.ArgumentParser(add_help=False)
    on_grid.add_argument("--shape", default="square", choices=SHAPES)
    on_grid.add_argument("--n", type=int, default=32)

    p = sub.add_parser("norms", parents=[on_grid],
                       help="Orlicz norms of a field")
    p.add_argument("--field", help="CSV produced by a --dump flag")
    p.add_argument("--constant", type=float, help="use a constant field")
    p.add_argument("--weight", default="lebesgue", choices=("lebesgue", "rho"))
    p.add_argument("--scale-rho", action="store_true",
                   help="divide the integrand argument by rho")
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("kernel", parents=[on_grid],
                       help="assemble and report kernel data")
    p.add_argument("--dump-torsion", dest="dump_torsion")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("solve", parents=[on_grid],
                       help="nonlinear solve with measure data")
    p.add_argument("--boundary-atoms", help="'x,y:mass;...' boundary atoms")
    p.add_argument("--boundary-constant", type=float,
                   help="constant boundary density")
    p.add_argument("--interior-atoms", help="'x,y:mass;...' interior atoms")
    p.add_argument("--interior-constant", type=float,
                   help="constant interior density")
    p.add_argument("--truncation", action="store_true",
                   help="run the truncation ladder before the final solve")
    p.add_argument("--dump-u", dest="dump_u")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("capacity", parents=[on_grid],
                       help="primal and dual capacity of a set")
    p.add_argument("--kind", default="interior",
                   choices=("interior", "boundary"))
    p.add_argument("--target",
                   help="named target set (default: center, or for --kind "
                        "boundary bottom-mid, point:0 on the interval)")
    p.add_argument("--dilation", type=int, default=CapacityOptions.dilation)
    p.add_argument("--maxiter", type=int, default=CapacityOptions.maxiter)
    p.add_argument("--dual-iters", dest="dual_iters", type=int,
                   default=CapacityOptions.dual_iters)
    p.add_argument("--dump-eta", dest="dump_eta")
    p.set_defaults(fn=_cmd_capacity)

    for name, (fn, blurb, keys) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="key = value parameter file")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), help=_PARAMS[key][1])
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ExpcapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
