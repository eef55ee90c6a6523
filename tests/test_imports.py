"""What a fresh interpreter loads: scipy.optimize only at the first
optimiser call, never for assembly, the Newton solves or the ladders."""

import json
import os
import subprocess
import sys

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
                    default_test_basis, exponential_pair, luxemburg_norm,
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
lux = luxemburg_norm(rep.u.values, grid, exponential_pair())
K = CompactSet(grid, target_nodes(grid, "interior", "center"), "interior")
est = capacity_pair(K, ks)
seen["values"] = [lux, est.primal_value, est.dual_value]
print(json.dumps(seen))
"""


def test_scipy_optimize_loads_only_at_the_first_optimiser_call():
    src = os.path.dirname(os.path.dirname(os.path.abspath(expcap.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["import"] is False
    assert seen["pde"] is False
    # the optimisers loaded late give the same bits as in this process
    ks = cached_kernels("square", 8)
    grid = ks.grid
    u = solve_interior(InteriorMeasure(grid, density=np.full(grid.n_interior, 2.0)),
                       ks).u.values
    K = CompactSet(grid, target_nodes(grid, "interior", "center"), "interior")
    est = capacity_pair(K, ks, CapacityOptions())
    assert seen["values"] == [luxemburg_norm(u, grid, exponential_pair()),
                              est.primal_value, est.dual_value]
