"""Exception hierarchy shared by all modules.

Three failure families map onto the three CLI exit codes: configuration
problems (bad cones, bad charges, malformed config files) exit with 2, check
failures exit with 1, and internal consistency violations are always raised
as hard errors because they indicate a broken build rather than a failed
physics check.
"""


class ConebraidError(RuntimeError):
    """Base class for all package errors."""


class ConfigError(ConebraidError):
    """Invalid construction parameters or malformed configuration input."""


class UsageError(ConebraidError):
    """Operation applied to operands it is not defined for."""


class DomainError(ConebraidError):
    """Operand lies outside the mathematical domain of the operation."""


class InternalError(ConebraidError):
    """An internal cross-check failed; the build itself is inconsistent."""
