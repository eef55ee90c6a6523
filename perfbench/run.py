#!/usr/bin/env python3
"""expcap benchmark: one closed-loop caller against the public API.

    python3 perfbench/run.py --workload orlicz --seed 0 --seconds 55 --trace 0

Run from the repository root.  It imports expcap from `src/` of the same
tree (and refuses any other copy), builds the grids the workload reuses,
then repeats rounds of the workload's operations until `--seconds` have
passed; each operation is issued after the previous one returns.  Every
output is checked; the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (tracing off).  With
`--trace 1` untraced and traced rounds alternate, and the metrics are the
per-layer ones from the traced rounds plus the tracing overhead; the
spans go to `perfbench/out/`.  See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP pools before numpy is first imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("orlicz", "pde"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """Commit of the working tree, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(ec):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "expcap": ec.__file__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def log(label, values):
    # .item() prints numpy scalars as plain numbers
    print(f"output {label}: " + " ".join(
        f"{k}={getattr(v, 'item', lambda: v)()!r}" for k, v in values.items()))


def fresh_import_s(src: Path) -> float:
    """Seconds to import expcap in a fresh interpreter with the same pinning."""
    probe = ("import time; t = time.perf_counter(); import expcap; "
             "print(time.perf_counter() - t, expcap.__file__)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    secs, path = out.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != (src / "expcap").resolve():
        raise RuntimeError(f"fresh interpreter imported {path.strip()}")
    return float(secs)


class Rounds:
    """Runs rounds of operations; keeps every operation's times and checks."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures = []
        self.first = {}  # output values of the first round, per op
        self.wall = {op.label: [] for op in ops}
        self.cpu = {op.label: [] for op in ops}

    def run(self, tracer=None, untimed=None):
        """One round; returns the wall seconds spent inside operations.
        Operations passed as `untimed` are run and checked instead of the
        workload's own, and their times are not kept."""
        total = 0.0
        results = {}
        for op in untimed or self.ops:
            self.attempted += 1
            span = tracer.span("op:" + op.label) if tracer else contextlib.nullcontext()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with span:
                    res = op.run()
            except Exception as exc:  # the operation failed; count it, go on
                self.failures.append(f"{op.label}: raised {exc!r}")
                continue
            wall = time.perf_counter() - w0
            if not untimed:
                self.cpu[op.label].append(time.process_time() - c0)
                self.wall[op.label].append(wall)
            total += wall
            results[op.label] = res
            try:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    values = op.check(res, results)
            except Exception as exc:  # wrong output, or a check that could not run
                self.failures.append(f"{op.label}: check failed: {exc!r}")
                continue
            if op.label not in self.first:
                self.first[op.label] = values
                log(op.label, values)
            elif values != self.first[op.label]:
                self.failures.append(f"{op.label}: output changed between rounds: "
                                     f"{values} vs {self.first[op.label]}")
        return total

    @staticmethod
    def best(samples: dict) -> float:
        """One round with every operation at its fastest.  The box's speed
        swings by tens of percent over seconds; an operation's minimum over
        rounds spread across the run is far steadier than any round."""
        return sum(min(v) for v in samples.values() if v)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import expcap as ec
    except ImportError as exc:
        print(f"cannot import expcap from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if Path(ec.__file__).resolve().parent != (src / "expcap").resolve():
        print(f"refusing to measure {ec.__file__}: not this tree's src/expcap",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    prov = provenance(ec)
    print("provenance " + json.dumps(prov))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    wl = WORKLOADS[args.workload](args.seed)

    if args.trace:
        rounds, metrics, extra_failures = traced(wl, ec, args, prov)
    else:
        setup_s = []

        def set_up(imp):
            s0 = time.perf_counter()
            state = wl.setup(ec)
            setup_s.append(imp + time.perf_counter() - s0)
            return state

        rounds = Rounds(wl.ops(ec, set_up(import_s)))
        t1 = time.perf_counter()
        took = []
        # closed loop: stop before a round that would end past the deadline
        while (len(took) < MIN_ROUNDS
               or time.perf_counter() - t1 + statistics.median(took) <= args.seconds):
            r0 = time.perf_counter()
            rounds.run()
            took.append(time.perf_counter() - r0)
            # the other set-ups are spread over the run, between rounds, so
            # their median sees the box's speed across it, not in one stretch
            if time.perf_counter() - t1 >= len(setup_s) * args.seconds / SETUP_REPEATS:
                set_up(fresh_import_s(src))
        while len(setup_s) < SETUP_REPEATS:
            set_up(fresh_import_s(src))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"rounds {len(took)}, seconds per round with checks {took}")
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_s": (Rounds.best(rounds.wall), "s"),
            "cpu_s": (Rounds.best(rounds.cpu), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        extra_failures = []
        for label, values in rounds.first.items():
            if "gap_rel" in values:  # capacity pairs: gap_interior_rel, gap_boundary_rel
                print(f"metric {label.replace('pair', 'gap')}_rel = {values['gap_rel']!r} ratio")
    rounds.run(untimed=wl.reference_ops(ec))
    failures = rounds.failures + extra_failures
    for f in failures:
        print("FAILED " + f)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric fail_frac = {len(failures) / rounds.attempted!r} "
          f"({len(failures)} failed of {rounds.attempted} attempted)")
    print(json.dumps({
        "correct": not failures, "attempted": rounds.attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced(wl, ec, args, prov):
    """Alternate untraced and traced rounds; per-layer metrics come from the
    traced ones, the overhead from the difference of the fastest of each."""
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        tr.active = True
        with tr.span("setup", round_id="setup"):
            state = wl.setup(ec)
        tr.active = False
        rounds = Rounds(wl.ops(ec, state))
        plain, traced_walls = [], []
        t0 = time.perf_counter()
        while (len(traced_walls) < MIN_TRACED_ROUNDS
               or time.perf_counter() - t0 < args.seconds):
            plain.append(rounds.run())
            tr.active = True
            with tr.span("round", round_id=len(traced_walls)):
                traced_walls.append(rounds.run(tr))
            tr.active = False
    finally:
        tr.uninstall()

    groups = {}
    for s in tr.spans:
        groups.setdefault(s.round, []).append(s)
    setup_raw = tracing.raw_metrics(groups.pop("setup"))
    per_round = [tracing.raw_metrics(groups[r]) for r in sorted(groups)]
    failures = []
    for key in sorted(set().union(*per_round)):
        if tracing.is_count(key):
            seen = [r.get(key, 0) for r in per_round]
            if len(set(seen)) > 1:
                failures.append(f"work count {key} differs between traced rounds: {seen}")
    overhead = min(traced_walls) - min(plain)
    layers = tracing.layer_metrics(tracing.combine(setup_raw, per_round), overhead)
    print(f"rounds untraced {plain} traced {traced_walls}")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "provenance": prov, "workload": args.workload, "seed": args.seed,
        "fields": ["name", "layer", "start", "end", "parent", "round"],
        "spans": tr.dump()}))
    print(f"spans {len(tr.spans)} written to {spans_file.relative_to(ROOT)}")
    return rounds, {k: (v, unit_of(k)) for k, v in layers.items()}, failures


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_frac", "_rel")) or "_per_" in name:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
