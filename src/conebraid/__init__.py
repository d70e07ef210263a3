"""Cone-localized charge braiding and tail-window sequence algebras.

The package has three layers: radial quadrature and field vectors
(quadrature, field), the phase algebra they generate and its charge
category (weyl, category), and asymptotic machinery for sequence algebras
(seqalg).  config/suites/report/cli wrap everything into reproducible
check runs.  The momentum cutoff is the one constant field.R_MAX, so every
field vector lives in one model and no operand carries a grid.
"""

__version__ = "0.1.0"
