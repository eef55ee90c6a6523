"""Orlicz-space machinery for the exponential absorption problem.

Layers, bottom to top: N-functions and their norms (`nfunctions`,
`luxemburg`, `maximal`), grids and kernels (`grids`, `kernels`),
measures and the monotone solver (`measures`, `solver`), capacity
programs (`capacity`), and batch experiments with a CLI
(`experiments`, `cli`).
"""

from .errors import (BadInput, ExpcapError, GridMismatch, Infeasible,
                     LadderTooCoarse, NoConvergence, NotAdmissible,
                     NotComparable, OverflowInIntegrand, SolverDiverged,
                     SupportError, TooCoarse, ZeroField)
from .nfunctions import (NFunction, exponential_pair, pstar_sandwich,
                         quadratic_pair, young_gap)
from .grids import (Field, WeightedGrid, build_grid, dump_field_csv,
                    integrate, load_field_csv)
from .luxemburg import (luxemburg_norm, luxemburg_subgradient, orlicz_norm,
                        orlicz_norm_and_argmin)
from .maximal import llnl_norm, maximal_function, maximal_interior
from .kernels import KernelSet, assemble, green_column, normal_derivative
from .measures import BoundaryMeasure, InteriorMeasure, MeasureSpec
from .solver import (AdmissibilityReport, SolveReport, TruncationReport,
                     admissibility_test, default_test_basis,
                     keller_osserman_diagnostic, solve_boundary,
                     solve_interior, truncation_scheme, weak_residual)
from .capacity import (CapacityEstimate, CapacityOptions, CompactSet,
                       boundary_measure, boundary_test_norm, capacity_pair,
                       dual_boundary, dual_interior, pairing, primal_boundary,
                       primal_interior)
from .experiments import (ExperimentConfig, run_boundary_probe,
                          run_convergence_suite, run_moderate_extension,
                          run_removability_threshold,
                          run_vanishing_inequality, target_nodes)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
