"""Exception hierarchy.

Every failure the library raises deliberately is a FastDiffError subclass.
Each class carries the CLI exit code of its class of failure through three
bases: bad input (InputError, 2), numerical failure (NumericalError, 3) and
violated invariant (InvariantError, 4).  A bare FastDiffError counts as a
numerical failure.
"""


class FastDiffError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class InputError(FastDiffError):
    """Bad input or configuration."""

    exit_code = 2


class NumericalError(FastDiffError):
    """A numerical method failed to deliver its result."""

    exit_code = 3


class InvariantError(FastDiffError):
    """A mathematical invariant failed on computed data."""

    exit_code = 4


# --- bad input / configuration ---------------------------------------------

class ConfigError(InputError):
    """Malformed or inconsistent run configuration."""


class RangeError(InputError, ValueError):
    """Parameter outside its admissible range."""


class DegenerateError(InputError):
    """Parameter combination hits a pole of a derived quantity."""


class GridMismatchError(InputError):
    """Two tabulated fields do not share a grid."""


# --- numerical failures ------------------------------------------------------

class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class StiffnessError(NumericalError):
    """ODE step size underflowed before reaching the end of the span."""


class BlowUpError(NumericalError):
    """ODE solution exceeded the overflow guard."""


class ToleranceError(NumericalError):
    """Iteration exhausted its budget before reaching tolerance."""


class ExtrapolationError(NumericalError):
    """A limit read off computed data fails its own check; no trustworthy value."""


class ResolutionError(NumericalError):
    """Tabulated data does not resolve the scales a check requires."""


class NewtonDivergence(NumericalError):
    """Newton iteration failed to converge after step-size reduction."""


# --- violated invariants ------------------------------------------------------

class InternalError(InvariantError):
    """A quantity the theory pins down came out wrong; indicates a bug."""


class NonContractionError(InvariantError):
    """Picard update ratios stopped contracting; constants are suspect."""


class BoundViolationError(InvariantError):
    """A proven pointwise bound failed on computed data."""


class PositivityError(InvariantError):
    """Evolved field lost positivity and step-size reduction could not fix it."""


class SandwichViolationError(InvariantError):
    """Field left the self-similar sandwich that encloses it."""
