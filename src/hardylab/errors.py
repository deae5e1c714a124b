"""Exception hierarchy shared by all hardylab modules.

The CLI maps these onto distinct process exit codes, so keep the tree
shallow: one class per failure category, subclassed only where a caller
may reasonably want to catch the narrower condition.
"""


class HardyLabError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HardyLabError, ValueError):
    """Invalid argument, exponent, or configuration value."""


class ShapeError(ParameterError):
    """Mismatched vector lengths or samples taken on different rules."""


class DomainError(ParameterError):
    """Point not interior to the requested domain, or wrong domain kind."""


class UnsupportedDomainError(ParameterError):
    """Operation not defined on this domain (e.g. Blaschke duals off the disc)."""


class ContractError(ParameterError):
    """A dual system of the wrong kind for the route (finite p where sup-norm is needed)."""


class DependencyError(HardyLabError):
    """A required precomputed ingredient (cached norm, table entry) is missing."""


class CapacityError(HardyLabError):
    """Exact enumeration or other bounded-size method asked beyond its cap."""


class NumericError(HardyLabError):
    """Numerical failure: non-convergence, singular solve, eigensolver failure."""


class IllConditionedError(NumericError):
    """Collocation/Gram system condition number beyond the trust threshold."""


class InvariantViolation(HardyLabError):
    """A mathematically guaranteed inequality or identity failed numerically."""


# Process exit codes used by the CLI.
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_NUMERIC = 4
EXIT_INVARIANT = 5


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ParameterError):
        return EXIT_CONFIG
    if isinstance(exc, CapacityError):
        return EXIT_CAPACITY
    if isinstance(exc, InvariantViolation):
        return EXIT_INVARIANT
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    return 1
