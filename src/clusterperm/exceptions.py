"""Exception types raised across the package.

Every error carries a stable ``code`` (its class name) so the CLI can emit
machine-readable failures.
"""

from __future__ import annotations


class ClusterPermError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DimensionError(ClusterPermError):
    """Shapes or index extents are inconsistent."""


class MissingDataError(ClusterPermError):
    """An operation requiring fully observed cells hit an unobserved one."""


class DegenerateInputError(ClusterPermError):
    """Input carries no usable variation (e.g. fewer than two values)."""


class InsufficientDimensionError(ClusterPermError):
    """Too many regressors for the sample: the projector would be empty."""


class NonFiniteInputError(ClusterPermError):
    """Data or statistics hold NaN or inf, so no valid p-value exists."""


class GroupError(ClusterPermError):
    """Row maps do not form the cyclic group the validity argument needs."""


class ResolutionError(ClusterPermError):
    """Requested level is outside (0, 1) or below the p-value floor 1/(K+1)."""


class CapExceededError(ClusterPermError):
    """Exact biclique solver called above its size cap."""


class EmptyMaskError(ClusterPermError):
    """Mask contains no observed cell."""


class UnbalancedError(ClusterPermError):
    """Dataset does not fill the index box required by a balanced design."""


class NoEligibleCellsError(ClusterPermError):
    """No cell meets the minimum observation count."""


class VarianceBudgetError(ClusterPermError):
    """Variance shares are infeasible (phi1 + phi2 must be < 1)."""


class ParseError(ClusterPermError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateCellError(ParseError):
    """The same cell appears more than once in a single-observation format."""
