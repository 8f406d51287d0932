"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: config errors exit 1,
numeric failures exit 2, constraint-gate failures exit 3, I/O exit 4.
Singular points inside a grid sweep are data, not errors: dressing
flags each one and keeps the reason as its note, raising nothing.
"""


class VestureError(Exception):
    """Base class for all package errors."""


class ConfigError(VestureError):
    """Invalid configuration, parameters, or input file."""


class SeedError(ConfigError):
    """Seed solution violates its constraints (membership, invertibility)."""


class DomainError(VestureError):
    """A function was evaluated outside its mathematical domain."""


class SingularPointError(VestureError):
    """Evaluation hit a genuine singular locus (branch point, det A ~ 0,
    coincident pole pair, singular extraction)."""


class NumericError(VestureError):
    """Numerical failure: condition cap exceeded, unachievable solve
    residual, non-invertible matrix."""
