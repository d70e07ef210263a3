"""The package's two errors, one per exit code, and the identity types' base.

The CLI maps the errors onto its exit codes: a ConfigError, raised only by
reading, validating (config) or planning (suites.plan_counts) a config or
writing its report, exits with 2; a RunError exits with 1.  Either prints
one line on stderr and writes no report.  Frozen, the base of the identity
types, lives here too, since this is the one module that every layer
imports.
"""


class ConfigError(RuntimeError):
    """A config that cannot be read, validated or planned, or a report that cannot be written."""


class RunError(RuntimeError):
    """A run that cannot finish: a failed operand check, a limit hit (the radial rule's node cap) or a failed cross-check."""


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
