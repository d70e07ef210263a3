"""Cone-localized charge braiding and tail-window sequence algebras.

The package has three layers: radial quadrature and field vectors
(quadrature, field), the Weyl generators they label and the charge
category whose arrows are such generators (weyl, category), and asymptotic
machinery for sequences of 2 x 2 matrices modulo null sequences (seqalg).
config/suites/report/cli wrap everything into reproducible check runs.  The
momentum cutoff is the one constant field.R_MAX, so every field vector lives
in one model and no operand carries a grid.
"""

__version__ = "0.1.0"
