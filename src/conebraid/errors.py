"""Exception hierarchy shared by all modules.

The CLI maps them onto its exit codes: a ConfigError (a bad cone, bad
charges, a malformed config file) exits with 2, and any other error ends
the run with exit 1, one line on stderr and no report, like a failed check
but without rows.  A UsageError is a broken internal operand check, which
no validated config reaches; an InternalError means the build itself is
inconsistent, not that a physics check failed.
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
