"""Exception hierarchy shared by all modules.

The CLI maps them onto its exit codes: a ConfigError, raised only by
reading, validating (config) or planning (suites.plan_counts) a config
or writing its report, exits with 2; any other error ends the run with
exit 1, one line on stderr and no report.  A UsageError is a broken
internal operand check, which no validated config reaches; an
InternalError means the build itself is inconsistent, not that a physics
check failed.  Frozen, the base of the identity types, lives here too,
since this is the one module that every layer imports.
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


class Frozen:
    """Base of the identity types (FieldVector, WeylElement and its Intertwiner):
    fields are set once, in __init__, through the instance dict, and assigning
    or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
