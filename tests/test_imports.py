"""What a fresh interpreter loads: never scipy.optimize, whether for
assembly, the Newton solves, the ladders, the norms or an interior or
boundary capacity pair.
And what the package exports: only names that the package itself, the
benchmark or the acceptance criteria use."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import expcap
from conftest import cached_kernels
from expcap.capacity import CapacityOptions, CompactSet, capacity_pair
from expcap.experiments import target_nodes
from expcap.luxemburg import luxemburg_norm
from expcap.measures import InteriorMeasure
from expcap.nfunctions import exponential_pair
from expcap.solver import solve_interior

SCRIPT = """
import json, sys
import numpy as np
import expcap
seen = {"import": "scipy.optimize" in sys.modules}
from expcap import (BoundaryMeasure, CompactSet, ExperimentConfig,
                    InteriorMeasure, assemble, build_grid, capacity_pair,
                    default_test_basis, exponential_pair, llnl_norm,
                    luxemburg_norm, luxemburg_subgradient, orlicz_norm,
                    run_removability_threshold, solve_boundary, solve_interior,
                    target_nodes, truncation_scheme, weak_residual)
ks = assemble(build_grid("square", 8))
grid = ks.grid
rep = solve_interior(InteriorMeasure(grid, density=np.full(grid.n_interior, 2.0)), ks)
bdy = BoundaryMeasure(grid, atoms=[(0, 4.0)], density=np.ones(grid.n_boundary))
solve_boundary(bdy, ks)
truncation_scheme(bdy, ks)
weak_residual(rep.u, bdy, ks, default_test_basis(ks))
run_removability_threshold(ExperimentConfig(ladder=(8, 12, 16), masses=(4.0, 16.0)))
seen["pde"] = "scipy.optimize" in sys.modules
nf = exponential_pair()
lux = luxemburg_norm(rep.u.values, grid, nf)
luxemburg_subgradient(rep.u.values, grid, nf, side="conjugate", weight="rho",
                      scale=grid.rho)
orlicz_norm(rep.u.values, grid, nf, weight="rho")
llnl_norm(rep.u.values, grid)
seen["norms"] = "scipy.optimize" in sys.modules
K = CompactSet(grid, target_nodes(grid, "interior", "center"), "interior")
est = capacity_pair(K, ks)
seen["interior"] = "scipy.optimize" in sys.modules
Kb = CompactSet(grid, target_nodes(grid, "boundary", "bottom-mid"), "boundary")
bdy = capacity_pair(Kb, ks)
seen["boundary"] = "scipy.optimize" in sys.modules
seen["values"] = [lux, est.primal_value, est.dual_value, bdy.primal_value,
                  bdy.dual_value]
print(json.dumps(seen))
"""


def test_no_program_loads_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(expcap.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["import"] is False
    assert seen["pde"] is False
    assert seen["norms"] is False
    assert seen["interior"] is False
    assert seen["boundary"] is False
    # the programs run in a fresh process give the same bits as in this one
    ks = cached_kernels("square", 8)
    grid = ks.grid
    u = solve_interior(InteriorMeasure(grid, density=np.full(grid.n_interior, 2.0)),
                       ks).u.values
    K = CompactSet(grid, target_nodes(grid, "interior", "center"), "interior")
    est = capacity_pair(K, ks, CapacityOptions())
    Kb = CompactSet(grid, target_nodes(grid, "boundary", "bottom-mid"), "boundary")
    bdy = capacity_pair(Kb, ks, CapacityOptions())
    assert seen["values"] == [luxemburg_norm(u, grid, exponential_pair()),
                              est.primal_value, est.dual_value, bdy.primal_value,
                              bdy.dual_value]


def _names_used(paths, with_strings=False):
    """Every Name and attribute name in the files; string constants too
    when with_strings is set (the tracer patches functions by name)."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (with_strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                used.add(node.value)
    return used


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    package = Path(expcap.__file__).parent
    root = Path(__file__).resolve().parent.parent
    used = (_names_used(p for p in package.glob("*.py") if p.name != "__init__.py")
            | _names_used(root.glob("perfbench/*.py"), with_strings=True)
            | _names_used([root / "tests" / "test_acceptance.py"]))
    public = [name for name in expcap.__all__
              if not isinstance(getattr(expcap, name), types.ModuleType)]
    unused = sorted(set(public) - used)
    assert not unused, f"exported, but only unit tests use: {unused}"
