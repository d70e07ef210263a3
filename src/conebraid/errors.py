"""Exception hierarchy shared by all modules.

The CLI maps them onto its exit codes: a ConfigError, raised only by
reading, validating (config) or planning (suites.plan_counts) a config
or writing its report, exits with 2; any other error ends the run with
exit 1, one line on stderr and no report.  A UsageError is a broken
internal operand check, which no validated config reaches; an
InternalError means the build itself is inconsistent, not that a physics
check failed.
"""


class ConebraidError(RuntimeError):
    """Base class for all package errors."""


class ConfigError(ConebraidError):
    """A config that cannot be read, validated or planned, or a report that cannot be written."""


class UsageError(ConebraidError):
    """Operation applied to operands it is not defined for."""


class DomainError(ConebraidError):
    """Operand lies outside the mathematical domain of the operation."""


class InternalError(ConebraidError):
    """An internal cross-check failed; the build itself is inconsistent."""
