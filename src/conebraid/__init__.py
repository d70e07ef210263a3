"""Cone-localized charge braiding and tail-window sequence algebras.

The package has three layers: radial quadrature and field vectors
(quadrature, field), the Weyl generators and the charge category over any
symplectic vector type (weyl, category, which import nothing from field),
and bounded sequences of those generators modulo null sequences (seqalg).
config/suites/report/cli wrap everything into reproducible check runs.
The momentum cutoff is the one constant field.R_MAX, so every field
vector lives in one model and no operand carries a grid.
"""

__version__ = "0.1.0"
