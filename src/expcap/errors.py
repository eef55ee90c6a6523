"""Exception types shared across the package.

Everything derives from ExpcapError so callers can catch broadly; the
individual classes mirror the failure modes of the numerical layers
(norm evaluation, grid construction, linear and nonlinear solves,
capacity optimisation), and BadInput those of the user's own
parameters, which the command line reports in one line.
"""


class ExpcapError(RuntimeError):
    """Base class for all package errors."""


class OverflowInIntegrand(ExpcapError):
    """An N-function integrand became non-finite (argument past the exp range)."""


class ZeroField(ExpcapError):
    """Operation undefined at the identically zero field."""


class GridMismatch(ExpcapError):
    """Two fields (or a field and an operator) live on different grids."""


class TooCoarse(ExpcapError):
    """Grid resolution below the minimum needed for the stencils used."""


class SupportError(ExpcapError):
    """A measure charges nodes outside its admissible support."""


class SolverDiverged(ExpcapError):
    """An iterative linear solve failed to reach tolerance."""


class NoConvergence(ExpcapError):
    """A nonlinear iteration hit its cap before meeting tolerance."""


class NotAdmissible(ExpcapError):
    """Measure data too singular for the working grid (exp of potential overflows)."""


class NotComparable(ExpcapError):
    """Comparison requested between measures without nodewise ordering."""


class Infeasible(ExpcapError):
    """A capacity program or cutoff family has an empty feasible set."""


class LadderTooCoarse(ExpcapError):
    """A threshold search ladder produced no sign change."""


class BadInput(ExpcapError, ValueError):
    """A config file, flag value or experiment parameter is malformed."""
