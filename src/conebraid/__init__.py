"""Cone-localized charge braiding and tail-window sequence algebras.

The package has three layers: radial quadrature and field vectors
(quadrature, field), the phase algebra they generate and its charge
category (weyl, category), and asymptotic machinery for sequence algebras
(seqalg).  config/suites/report/cli wrap everything into reproducible
check runs.  The momentum cutoff is the one constant field.R_MAX, so every
field vector lives in one model and no operand carries a grid.
"""

from .config import RunConfig, load_config, save_config
from .errors import (
    ConebraidError,
    ConfigError,
    DomainError,
    InternalError,
    UsageError,
)
from .report import Report, emit_report
from .suites import SUITE_NAMES, plan_counts, run_suite

__all__ = [
    "ConebraidError",
    "ConfigError",
    "DomainError",
    "InternalError",
    "UsageError",
    "RunConfig",
    "load_config",
    "save_config",
    "Report",
    "emit_report",
    "SUITE_NAMES",
    "plan_counts",
    "run_suite",
]

__version__ = "0.1.0"
