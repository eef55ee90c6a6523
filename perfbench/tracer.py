"""Span tracer that instruments expcap from the outside.

`Tracer.install` replaces each traced public function of expcap by a
wrapper, in every expcap module that holds a reference to it, so callers
inside the package (which look names up in their own module globals)
reach the wrapper too.  `KernelSet.solve`, `NFunction.P`/`Pstar` and
`scipy.sparse.linalg.splu` are patched on their class or module.
`uninstall` puts every original back.

A span records (name, layer, start, end, parent, round).  The three
counted calls (P, P*, splu) carry no span of their own: each call is
added to the innermost open span.  Wrappers pass straight through while
the tracer is inactive, so output checks run between rounds, or with
`paused()`, leave no trace.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import scipy.sparse.linalg as spla

# (module, function, harvest) per layer; harvest names a hook below that
# copies work counts out of the function's result.
TRACED = {
    "grids": [("grids", "build_grid", None)],
    "kernels": [("kernels", "assemble", "eig")],
    "luxemburg": [("luxemburg", "luxemburg_norm", None),
                  ("luxemburg", "luxemburg_subgradient", None),
                  ("luxemburg", "orlicz_norm", None)],
    "maximal": [("maximal", "llnl_norm", None),
                ("maximal", "maximal_function", None),
                ("maximal", "maximal_interior", None)],
    "solver": [("solver", "solve_interior", "newton"),
               ("solver", "solve_boundary", "newton"),
               ("solver", "truncation_scheme", None),
               ("solver", "weak_residual", None),
               ("solver", "default_test_basis", None),
               ("solver", "admissibility_test", None)],
    "capacity": [("capacity", "capacity_pair", "estimate"),
                 ("capacity", "primal_interior", "estimate"),
                 ("capacity", "primal_boundary", "estimate"),
                 ("capacity", "dual_interior", "estimate"),
                 ("capacity", "dual_boundary", "estimate")],
    "experiments": [("experiments", "run_removability_threshold", None)],
}
COUNTED = ("P", "Pstar", "splu")
PAIR = "capacity_pair"
PRIMALS = ("primal_interior", "primal_boundary")
DUALS = ("dual_interior", "dual_boundary")
SOLVES = ("solve_interior", "solve_boundary")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "round", "counts")

    def __init__(self, name, layer, parent, round_id):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.round = round_id
        self.counts = dict.fromkeys(COUNTED, 0)
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


def _harvest(kind, span, args, result):
    if kind == "eig":
        span.counts["eig_iterations"] = result.eig_iterations
    elif kind == "newton":
        span.counts["newton_steps"] = result.iterations
    elif kind == "estimate":
        span.counts["iterations"] = result.iterations
        span.counts["evaluations"] = result.aux.get("evaluations", 0)
        span.counts["converged"] = int(result.converged)
        if result.primal_value is not None and result.dual_value is not None:
            side = result.kind.split("-")[1]  # "pair-interior" -> "interior"
            span.counts["gap_" + side] = result.gap / result.primal_value
            span.counts["pairs_" + side] = 1
    elif kind == "rhs":
        rhs = args[1]
        span.counts["rhs"] = 1 if getattr(rhs, "ndim", 1) == 1 else rhs.shape[1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.round = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, parent, self.round)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name, layer="bench", round_id=None):
        """A span opened by the benchmark itself (set-up, round, operation)."""
        if round_id is not None:
            self.round = round_id
        s = self._open(name, layer)
        try:
            yield s
        finally:
            self._close(s)

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name, layer, harvest):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            s = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if harvest:
                _harvest(harvest, s, args, result)
            return result
        return traced

    def _counting(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and tracer.stack:
                tracer.stack[-1].counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "expcap" or name.startswith("expcap."))]
        for layer, entries in TRACED.items():
            for modname, fname, harvest in entries:
                orig = getattr(sys.modules["expcap." + modname], fname)
                wrapper = self._wrap(orig, fname, layer, harvest)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, wrapper)
        kernels = sys.modules["expcap.kernels"]
        nfunctions = sys.modules["expcap.nfunctions"]
        self._patch(kernels.KernelSet, "solve",
                    self._wrap(kernels.KernelSet.solve, "solve", "kernels", "rhs"))
        for key in ("P", "Pstar"):
            self._patch(nfunctions.NFunction, key,
                        self._counting(getattr(nfunctions.NFunction, key), key))
        self._patch(spla, "splu", self._counting(spla.splu, "splu"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.active = False

    def dump(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.layer, s.start, s.end,
                 None if s.parent is None else index[id(s.parent)], s.round]
                for s in self.spans]


# ---------------------------------------------------------------------------
# layer metrics

def raw_metrics(spans) -> dict:
    """Sums over one group of spans (the set-up, or one round)."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.dur
    r = {}

    def add(key, v):
        r[key] = r.get(key, 0) + v

    for s in spans:
        add(f"self.{s.layer}_s", s.dur - child.get(id(s), 0.0))
        for key in COUNTED:
            add(f"{key}.{s.layer}.{s.name}", s.counts[key])
        add(f"calls.{s.name}", 1)
        add(f"time.{s.name}_s", s.dur)
        for key, v in s.counts.items():
            if key not in COUNTED:
                add(f"{key}.{s.name}", v)
        if s.name in DUALS and _has_ancestor(s, PAIR):
            add("dual_in_pair", 1)
        if s.layer == "maximal" and (s.parent is None or s.parent.layer != "maximal"):
            add("calls.maximal", 1)
            add("time.maximal_s", s.dur)
    return r


def _has_ancestor(span, name) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def is_count(key: str) -> bool:
    """Raw keys ending in "_s" are times; all others repeat exactly."""
    return not key.endswith("_s")


def combine(setup: dict, rounds: list) -> dict:
    """Set-up once plus one round: counts from any round (they agree), times
    the fastest over rounds, as for the end-to-end `run_s`."""
    return {k: setup.get(k, 0) + min(r.get(k, 0) for r in rounds)
            for k in set(setup).union(*rounds)}


def layer_metrics(raw: dict, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from combined sums."""
    g = lambda k: raw.get(k, 0)

    def tot(prefix, names):
        return sum(g(f"{prefix}.{n}") for n in names)

    def evals(layer, name):
        return g(f"P.{layer}.{name}") + g(f"Pstar.{layer}.{name}")

    def per(a, b):
        return a / b if b else 0.0

    def layer_sum(prefix, layer):
        return sum(v for k, v in raw.items()
                   if k.startswith(f"{prefix}.{layer}."))

    norm_calls = g("calls.luxemburg_norm")
    orl_calls = g("calls.orlicz_norm")
    pairs = g("calls.capacity_pair")
    solves = tot("calls", SOLVES)
    steps = tot("newton_steps", SOLVES)
    return {
        "nfunctions.P_evals": sum(v for k, v in raw.items() if k.startswith("P.")),
        "nfunctions.Pstar_evals": sum(v for k, v in raw.items() if k.startswith("Pstar.")),
        "luxemburg.norm_calls": norm_calls,
        "luxemburg.norm_s": g("time.luxemburg_norm_s"),
        "luxemburg.evals_per_norm": per(evals("luxemburg", "luxemburg_norm"), norm_calls),
        "luxemburg.subgradient_calls": g("calls.luxemburg_subgradient"),
        "luxemburg.subgradient_s": g("time.luxemburg_subgradient_s"),
        "luxemburg.orlicz_calls": orl_calls,
        "luxemburg.orlicz_s": g("time.orlicz_norm_s"),
        "luxemburg.evals_per_orlicz": per(evals("luxemburg", "orlicz_norm"), orl_calls),
        "luxemburg.self_s": g("self.luxemburg_s"),
        "capacity.pair_calls": pairs,
        "capacity.pair_s": g("time.capacity_pair_s"),
        "capacity.primal_s": tot("time", [f"{n}_s" for n in PRIMALS]),
        "capacity.dual_s": tot("time", [f"{n}_s" for n in DUALS]),
        "capacity.dual_runs": tot("calls", DUALS),
        "capacity.dual_runs_per_pair": per(g("dual_in_pair"), pairs),
        "capacity.dual_steps": tot("iterations", DUALS),
        "capacity.primal_iterations": tot("iterations", PRIMALS),
        "capacity.primal_evaluations": tot("evaluations", PRIMALS),
        "capacity.converged_frac": per(g("converged.capacity_pair"), pairs),
        "capacity.gap_interior_rel": per(g("gap_interior.capacity_pair"),
                                         g("pairs_interior.capacity_pair")),
        "capacity.gap_boundary_rel": per(g("gap_boundary.capacity_pair"),
                                         g("pairs_boundary.capacity_pair")),
        "capacity.lu_factorizations": layer_sum("splu", "capacity"),
        "capacity.self_s": g("self.capacity_s"),
        "solver.solve_calls": solves,
        "solver.solve_s": tot("time", [f"{n}_s" for n in SOLVES]),
        "solver.newton_steps": steps,
        "solver.steps_per_solve": per(steps, solves),
        "solver.lu_factorizations": layer_sum("splu", "solver"),
        "solver.truncation_s": g("time.truncation_scheme_s"),
        "solver.weak_residual_s": g("time.weak_residual_s"),
        "solver.admissibility_calls": g("calls.admissibility_test"),
        "solver.admissibility_s": g("time.admissibility_test_s"),
        "solver.self_s": g("self.solver_s"),
        "kernels.assemble_calls": g("calls.assemble"),
        "kernels.assemble_s": g("time.assemble_s"),
        "kernels.eig_iterations": g("eig_iterations.assemble"),
        "kernels.lu_factorizations": layer_sum("splu", "kernels"),
        "kernels.solve_calls": g("calls.solve"),
        "kernels.solve_rhs": g("rhs.solve"),
        "kernels.solve_s": g("time.solve_s"),
        "kernels.self_s": g("self.kernels_s"),
        "grids.build_calls": g("calls.build_grid"),
        "grids.build_s": g("time.build_grid_s"),
        "maximal.calls": g("calls.maximal"),
        "maximal.s": g("time.maximal_s"),
        "experiments.removability_s": g("time.run_removability_threshold_s"),
        "trace.overhead_s": overhead_s,
    }
