"""Field data for the free massless scalar field in momentum space.

A field vector is a finite real-linear combination of translated radial
atoms.  Each atom stores a radial momentum profile, the channel it feeds
(the "g" channel enters as i omega^{-3/2} g~, the "h" channel as
omega^{-1/2} h~), and an accumulated spacetime translation offset.  The
one-particle wave function is

    f~(p) = i omega^{-3/2} g~(p) + omega^{-1/2} h~(p),    omega = |p|,

with the Fourier convention f~(p) = (2 pi)^{-3/2} integral e^{-i p.x} f d^3x.
Spatial translation by a multiplies both channels by e^{-i p.a}; time
translation mixes them like the free evolution, g~ -> cos(omega a0) g~ +
omega sin(omega a0) h~ and h~ -> cos(omega a0) h~ - omega^{-1} sin(omega a0) g~,
which is exactly f~ -> e^{i omega a0} f~.

A profile is its value: a Gaussian kind with its width, or a bump with its
RadialPolynomial position shape, whose transform is closed form
(quadrature.radial_fourier).
RadialPolynomial, Profile and Atom are named tuples of their fields, so
they compare, hash and order as those fields, and one exact identity
serves terms, pair memo and Weyl labels: atoms are equal exactly when
profile, channel and offset are.  A vector's terms stay canonical (sorted
by atom, each atom once, coefficients nonzero), so a sum merges two sorted
term tuples in one pass.

The two bilinear forms are

    (x, y)      = integral conj(f~_x) f~_y d^3p            (scalar product)
    sigma(x, y) = integral omega^{-2} (g~_x(-p) h~_y(p) - g~_y(-p) h~_x(p)) d^3p

over momenta |p| <= R_MAX, one fixed cutoff for every vector, and sigma =
-Im (x, y) whenever both sides are defined.  Charge is carried
analytically: q = (2 pi)^{3/2} g~(0), evaluated from the profile's closed
form at construction.

A vector's class is its charge: only a test vector, of charge exactly 0.0,
has a scalar product.  A sum's charge is the sum of its operands', so a
difference of equal charges is a test vector however it was built.

Both bilinear forms take one route, the radial route, which integrates the
exact angular average (the phase pair e^{i p.(d_A - d_B)} averages to
sinc(r |d_A - d_B|)) and so stays accurate at arbitrary translation radius.

The radial route sums c_x c_y k(a_x, a_y, |d_x - d_y|) over term pairs.  Each
memoized pair integral k uses the rule sized for its own pair, so it does not
depend on the other pairs of a call, and the correctly rounded sum makes both
forms exactly bilinear over pairs.  Both forms are invariant under a joint
time translation, so one table, _KERNEL, gives each form's kernel of a
channel pair as sign phi_a phi_b r^power trig(r dt), dt = t_a - t_b, and
both routes below read it.  A sin kernel at dt = 0 is 0.0 with no panel
evaluated.  The pairs (a, b) and (b, a) share one memo entry: swapping the
atoms negates the sigma kernel and keeps the Re kernel, both bit for bit.

Each pair integral takes one of two routes:

- closed form: sigma of two "gauss" atoms, in any channels and with any
  time offsets, at separation d >= CLOSED_FORM_MIN_DELTA, while the cutoff
  tail e^{-a R_MAX^2} is at most e^{-CLOSED_FORM_MIN_TAIL}.  Its erf and exp
  terms cost the same at every d, and swapping the atoms negates the value
  exactly.
- panel rule: every other pair (Re, any "gauss2" or "bump" atom, d below
  the minimum, a short tail) integrates over (0, R_MAX] on equal panels,
  each the one cached RADIAL_RULE_PANEL_ORDER-node Gauss-Legendre rule
  scaled in place, so no composite rule is stored.  The origin is never a
  node, so the r^{-1} factors are evaluated directly.  The kernel times
  sinc(d r) is evaluated node by node, a panel at a time, and summed with
  math.fsum.  The node count grows linearly with the kernel's frequency
  d + |dt| and is capped at RADIAL_RULE_MAX_NODES; its cost is about a
  microsecond per node, and its memory that of one panel.

Like every module of the package, this one and quadrature (the one
Gauss-Legendre rule and the bump transform) use the standard library only.
quadrature imports nothing from here and knows no panel layout; it is
imported where first needed (the panel rule, a bump's values and charge), so
building Gaussian vectors never loads it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain
import math
import operator
from typing import NamedTuple

from .errors import ConfigError, DomainError, UsageError

TWO_PI_32 = (2.0 * math.pi) ** 1.5  # (2 pi)^{3/2}, the Fourier normalisation

# The momentum cutoff: every bilinear form integrates over (0, R_MAX].
R_MAX = 10.0

# Radial-route rule sizing: at least BASE nodes, OVERSAMPLE nodes per
# oscillation wavelength of the fastest sinc/trig factor over (0, R_MAX],
# rounded up to whole panels of the one cached PANEL_ORDER-node rule.
# _panel_pair_integral evaluates the kernel one such panel at a time.
RADIAL_RULE_BASE = 192
RADIAL_RULE_OVERSAMPLE = 10.0
RADIAL_RULE_PANEL_ORDER = 64
# Most nodes one pair integral off the closed-form route walks: a bump pair
# at separation 2e6 needs 31.8M nodes on (0, R_MAX].  Only a panel is held at
# once, so the cap bounds time (about a microsecond per node), not memory.
RADIAL_RULE_MAX_NODES = 1 << 25
# SIGMA of two "gauss" atoms takes its closed form at separations from
# MIN_DELTA on (below it the erf forms cancel, and the panel rule has only its
# 192 base nodes) and while a R_MAX^2 >= MIN_TAIL: the closed form integrates
# over [0, inf), which differs from the rule's (0, R_MAX] by about e^{-a R_MAX^2}.
CLOSED_FORM_MIN_DELTA = 0.5
CLOSED_FORM_MIN_TAIL = 40.0
# Coefficients of each named bump shape in powers of (r/R)^2: the indicator
# is 1, smooth is (1 - (r/R)^2)^2 inside the support, C^1 at the boundary.
BUMP_SHAPES = {"indicator": (1.0,), "smooth": (1.0, -2.0, 1.0)}
# Pair integrals kept; the default run needs about 4k.
PAIR_CACHE_SIZE = 1 << 14
SIGMA, RE = "sigma", "re"
# _KERNEL[form, c_a, c_b] = (sign, power, trig).  Less the phase e^{-i p.d}, a g atom at time t has channel
# factors G = cos(r t) phi, H = -sin(r t) phi / r and an h atom G = r sin(r t) phi, H = cos(r t) phi, so SIGMA's
# G_a H_b - G_b H_a and RE's G_a G_b / r + r H_a H_b are sign phi_a phi_b r^power trig(r (t_a - t_b)).
_KERNEL = {
    (SIGMA, "g", "g"): (1.0, -1, math.sin),
    (SIGMA, "g", "h"): (1.0, 0, math.cos),
    (SIGMA, "h", "g"): (-1.0, 0, math.cos),
    (SIGMA, "h", "h"): (1.0, 1, math.sin),
    (RE, "g", "g"): (1.0, -1, math.cos),
    (RE, "g", "h"): (-1.0, 0, math.sin),
    (RE, "h", "g"): (1.0, 0, math.sin),
    (RE, "h", "h"): (1.0, 1, math.cos),
}
# quadrature's bump transform stays accurate up to 4 terms (see _SERIES_MAX_X).
_MAX_POLY_TERMS = 4


class Frozen:
    """Base of the identity types (FieldVector, WeylElement and its Intertwiner,
    ConeSpec): fields are set once, in __init__, through the instance dict, and
    assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RadialPolynomial(NamedTuple("RadialPolynomial", [("support", float), ("coeffs", tuple)])):
    """Radial position profile f(r) = sum_k coeffs[k] (r / support)^{2k} on [0, support].

    quadrature.radial_fourier transforms it in closed form.  The value is
    the tuple (support, coeffs), so it compares, hashes and orders by them.
    """

    __slots__ = ()

    def __new__(cls, coeffs, support: float) -> "RadialPolynomial":
        coeffs = tuple(float(c) for c in coeffs)
        if not 1 <= len(coeffs) <= _MAX_POLY_TERMS or not all(math.isfinite(c) for c in coeffs):
            raise ConfigError(f"radial polynomial needs 1 to {_MAX_POLY_TERMS} finite coefficients")
        if not math.isfinite(support) or support <= 0.0:
            raise ConfigError(f"support radius must be positive, got {support}")
        return super().__new__(cls, float(support), coeffs)

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild through __new__, whose order differs from the fields'
        return self.coeffs, self.support


class Profile(NamedTuple("Profile", [("kind", str), ("width", float), ("shape", tuple)])):
    """Radial momentum profile of an atom.

    kind "gauss" is exp(-r^2 w^2 / 2); kind "gauss2" is r^2 exp(-r^2 w^2 / 2)
    (chargeless in the g channel); kind "bump" is the radial Fourier
    transform of the position profile ``shape``.  The value is the tuple
    (kind, width, shape), with shape () for a Gaussian, so profiles compare,
    hash and order by it.  A Gaussian's width must be finite and positive,
    and a bump has none, so each function has one profile.
    """

    __slots__ = ()

    def __new__(cls, kind: str, width: float = 0.0, shape: RadialPolynomial | tuple = ()) -> "Profile":
        if kind not in ("gauss", "gauss2", "bump"):
            raise UsageError(f"profile kind must be 'gauss', 'gauss2' or 'bump', got {kind!r}")
        if not (isinstance(shape, RadialPolynomial) if kind == "bump" else shape == ()):
            raise UsageError("a bump profile needs a RadialPolynomial shape, and only a bump has one")
        if kind == "bump":
            if width != 0.0:
                raise UsageError("a bump profile has no width")
        elif not (math.isfinite(width) and width > 0.0):
            raise ConfigError("width must be positive")
        return super().__new__(cls, kind, width, shape)

    def values(self, r: list[float]):
        """The radial momentum profile at the momenta r, one float per momentum."""
        if self.kind == "bump":
            from .quadrature import cached_transform

            return cached_transform(self.shape, r)
        exp, w = math.exp, self.width
        if self.kind == "gauss":
            return [exp(-0.5 * (w * x) ** 2) for x in r]
        return [x**2 * exp(-0.5 * (w * x) ** 2) for x in r]


class Atom(NamedTuple):
    """A profile in one channel at a spacetime offset (t, x, y, z).

    Atoms compare, hash and order as the tuple (profile, channel, offset).
    """

    profile: Profile
    channel: str
    offset: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


def _canonical_terms(items) -> tuple[tuple[float, Atom], ...]:
    """Sorted by atom, each atom once with the sum of its coefficients in input order, zeros dropped."""
    kept = sorted(((c, a) for c, a in items if c != 0.0), key=operator.itemgetter(1))
    return reduce(_merge_terms, [(term,) for term in kept], ())


def _merge_terms(xs: tuple, ys: tuple) -> tuple:
    """The canonical terms of xs + ys for two canonical term tuples, in one pass.

    Both are sorted by atom with unique atoms and nonzero coefficients, so
    equal atoms meet side by side; their coefficient is cx + cy, and a
    zero sum is dropped.
    """
    if not xs or not ys:
        return xs or ys
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        (cx, ax), (cy, ay) = xs[i], ys[j]
        if ax < ay:
            out.append(xs[i])
            i += 1
        elif ay < ax:
            out.append(ys[j])
            j += 1
        else:
            c = cx + cy
            if c != 0.0:
                out.append((c, ax))
            i += 1
            j += 1
    return (*out, *xs[i:], *ys[j:])


# FieldVector is the object the algebra builds most, so its constructor fills
# the instance dict item by item.
class FieldVector(Frozen):
    """Immutable finite combination of translated radial atoms.

    ``terms`` is canonical: (coefficient, atom) pairs sorted by atom, each
    atom once, every coefficient nonzero.  ``charge`` is the vector's class:
    0.0 for a test vector.  Vectors compare by identity; their terms tuple,
    which ``weyl.label_id`` returns, is their exact value identity.
    """

    def __init__(self, terms: tuple, charge: float):
        d = self.__dict__
        d["terms"], d["charge"] = terms, charge

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _make(items, charge) -> FieldVector:
    terms = _canonical_terms(items)
    if not terms:
        return zero_vector()
    return FieldVector(terms, charge)


def zero_vector() -> FieldVector:
    return FieldVector((), 0.0)


def make_charge_vector(q: float = 1.0, width: float = 1.0) -> FieldVector:
    """Gaussian g-channel vector of total charge q and momentum width 1/width."""
    profile = Profile("gauss", width=float(width))
    if q == 0.0:
        return zero_vector()
    return _make([(q / TWO_PI_32, Atom(profile, "g"))], float(q))


def make_test_vector(
    amplitude: float = 1.0,
    width: float = 1.0,
    channel: str = "h",
) -> FieldVector:
    """Chargeless Gaussian vector.

    The h channel uses the plain Gaussian; a g-channel request uses the
    r^2-damped Gaussian so the zero-momentum value (the charge) vanishes.
    """
    if channel not in ("g", "h"):
        raise ConfigError(f"channel must be 'g' or 'h', got {channel!r}")
    profile = Profile("gauss" if channel == "h" else "gauss2", width=float(width))
    if amplitude == 0.0:
        return zero_vector()
    return _make([(float(amplitude), Atom(profile, channel))], 0.0)


def make_bump_vector(
    shape: RadialPolynomial,
    channel: str = "g",
    amplitude: float = 1.0,
) -> FieldVector:
    """Vector from a compactly supported radial position profile.

    The charge is the profile's own integral (4 pi int r^2 f dr times the
    amplitude), (2 pi)^{3/2} times the closed-form transform of ``shape`` at
    zero momentum, and 0.0 below 1e-12; an h-channel bump is a test vector.
    Vectors built from equal shapes have equal atoms.
    """
    if channel not in ("g", "h"):
        raise ConfigError(f"channel must be 'g' or 'h', got {channel!r}")
    atom = Atom(Profile("bump", shape=shape), channel)
    q = 0.0
    if channel == "g":
        from .quadrature import radial_fourier

        q = TWO_PI_32 * radial_fourier(shape, 0.0)
    return _make([(float(amplitude), atom)], amplitude * (0.0 if abs(q) < 1e-12 else q))


def add(x: FieldVector, y: FieldVector) -> FieldVector:
    """Sum of two vectors, of charge x.charge + y.charge."""
    terms = _merge_terms(x.terms, y.terms)
    if not terms:
        return zero_vector()
    return FieldVector(terms, x.charge + y.charge)


def scale(c: float, x: FieldVector) -> FieldVector:
    if isinstance(c, complex):
        raise UsageError("field vectors form a real linear space; scale by a real number")
    c = float(c)
    if not math.isfinite(c):
        raise UsageError("scale factor must be finite")
    if c == 0.0 or x.is_zero:
        return zero_vector()
    terms = tuple([(c * coeff, atom) for coeff, atom in x.terms])
    if any(coeff == 0.0 for coeff, _ in terms):
        # a product underflowed; drop it, so every coefficient stays nonzero
        return _make(terms, c * x.charge)
    return FieldVector(terms, c * x.charge)


def negate(x: FieldVector) -> FieldVector:
    return scale(-1.0, x)


def subtract(x: FieldVector, y: FieldVector) -> FieldVector:
    return add(x, negate(y))


def intertwiner_label(source: FieldVector, target: FieldVector) -> FieldVector:
    """target - source, a test vector (its charge is exactly 0.0); requires exactly equal charges."""
    if target.charge != source.charge:
        raise DomainError(
            f"intertwiner label needs equal charges, got {source.charge} and {target.charge}"
        )
    return subtract(target, source)


def translate(x: FieldVector, a) -> FieldVector:
    """Translate by the spacetime vector a = (a0, a1, a2, a3).

    Only the atoms' offsets move, so the charge is preserved; for a0 != 0
    the zero-momentum limit of the mixed g channel is again g~(0), so the
    analytic charge carries over.  Rounding can make two distinct offsets
    equal, or reorder two atoms whose offsets then tie in an earlier
    component; the terms are then merged and sorted again, so they stay
    canonical.
    """
    a = tuple(map(float, a))
    if len(a) != 4:
        raise UsageError("translation must be a 4-vector (a0, a1, a2, a3)")
    if not all(map(math.isfinite, a)):
        raise UsageError("translation components must be finite")
    if not any(a):
        return x
    a0, a1, a2, a3 = a
    terms = [
        (coeff, Atom(profile, channel, (t + a0, u + a1, v + a2, w + a3)))
        for coeff, (profile, channel, (t, u, v, w)) in x.terms
    ]
    atoms = [atom for _, atom in terms]
    if any(map(operator.ge, atoms, atoms[1:])):
        return _make(terms, x.charge)
    return FieldVector(tuple(terms), x.charge)


def _panel_count(ka: tuple, kb: tuple, delta: float) -> int:
    """Panels of RADIAL_RULE_PANEL_ORDER nodes on (0, R_MAX] for one pair of (profile, channel, t) atom keys."""
    # the kernel times sinc(r delta) oscillates at frequency delta + |t_a - t_b|, symmetric in the pair
    mu = delta + abs(ka[2] - kb[2])
    n = max(RADIAL_RULE_BASE, math.ceil(RADIAL_RULE_OVERSAMPLE * mu * R_MAX / (2.0 * math.pi)))
    if n > RADIAL_RULE_MAX_NODES:
        raise DomainError(f"radial rule of {n} nodes exceeds the cap of {RADIAL_RULE_MAX_NODES} nodes")
    return -(-n // RADIAL_RULE_PANEL_ORDER)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_integral(form: str, ka: tuple, kb: tuple, delta: float) -> float:
    """4 pi int K(r) sinc(r delta) dr of one atom pair, by the route that fits it.

    ka, kb are the atoms' (profile, channel, time offset), delta their spatial
    distance, and K the form's kernel from _KERNEL.  A sin kernel at equal
    time offsets (SIGMA in equal channels, RE in unequal ones) vanishes
    identically, so the value is 0.0.  SIGMA of two "gauss" atoms takes the
    closed form _gauss_sigma when delta >= CLOSED_FORM_MIN_DELTA and
    a R_MAX^2 >= CLOSED_FORM_MIN_TAIL; every other pair takes the panel rule
    on (0, R_MAX], _panel_pair_integral.
    """
    sign, power, trig = _KERNEL[form, ka[1], kb[1]]
    if trig is math.sin and ka[2] == kb[2]:
        return 0.0
    if form == SIGMA and delta >= CLOSED_FORM_MIN_DELTA and ka[0].kind == kb[0].kind == "gauss":
        a = 0.5 * (ka[0].width ** 2 + kb[0].width ** 2)
        if a * R_MAX**2 >= CLOSED_FORM_MIN_TAIL:
            return _gauss_sigma(sign, power, ka[2] - kb[2], delta, a)
    return _panel_pair_integral(form, ka, kb, delta)


def _gauss_sigma(sign: float, power: int, dt: float, delta: float, a: float) -> float:
    """4 pi int_0^inf K(r) sinc(r delta) dr of two "gauss" atoms, in closed form.

    Their profiles multiply to e^{-a r^2}, so with _KERNEL's (sign, power)
    of the SIGMA channel pair and dt = t_x - t_y the kernel is sign e^{-a r^2}
    times cos(r dt) (power 0), r sin(r dt) (power 1) or sin(r dt) / r
    (power -1).  Product to sum turns each into erf and exp terms (DLMF
    7.7).  The value is computed at |dt| and then signed, so swapping the
    atoms negates it exactly; the cancelling erf sum is an erfc difference,
    and the cancelling exp and u erf(u) differences are rewritten without
    cancellation.
    """
    sign *= math.copysign(1.0, dt) if power else 1.0
    dt = abs(dt)
    s = 2.0 * math.sqrt(a)
    x, y = (delta + dt) / s, (delta - dt) / s
    if not power:
        # (pi^2 / delta) [erf(x) + erf(y)]
        bracket = math.erf(x) + math.erf(y) if y >= 0.0 else math.erfc(-y) - math.erfc(x)
        return sign * math.pi**2 / delta * bracket
    if power == 1:
        # (pi / delta) sqrt(pi / a) [e^{-y^2} - e^{-x^2}], and x^2 - y^2 = delta dt / a
        diff = -math.exp(-y * y) * math.expm1(-delta * dt / a)
        return sign * math.pi / delta * math.sqrt(math.pi / a) * diff
    # (2 pi / delta) [J(x) - J(|y|)] with J(u) = (pi s / 2) [u erf(u) + e^{-u^2} / sqrt(pi)];
    # u erf(u) = u - u erfc(u), and x - |y| = 2 min(delta, dt) / s
    def tail(u: float) -> float:
        return math.exp(-u * u) / math.sqrt(math.pi) - u * math.erfc(u)

    jump = math.pi * min(delta, dt) + 0.5 * math.pi * s * (tail(x) - tail(abs(y)))
    return sign * 2.0 * math.pi / delta * jump


def _panel_pair_integral(form: str, ka: tuple, kb: tuple, delta: float) -> float:
    """4 pi int_0^R_MAX K(r) sinc(r delta) dr on composite panels for this one atom pair.

    K is _KERNEL's kernel of the form and channel pair, evaluated node by
    node as (sign phi_a) phi_b, times or divided by r for power 1 or -1,
    times trig(r dt) with dt = t_a - t_b unless that is cos(0).  (0, R_MAX]
    is cut into _panel_count equal panels, and panel k of P reads the one
    cached RADIAL_RULE_PANEL_ORDER-node unit rule (u, w) in place: with
    h = 1/P, nodes r = R_MAX (h k + h u) and weights R_MAX (h w).  Each node's sinc
    is sin(delta r) / (delta r), and the terms stream into one math.fsum,
    so the sum is correctly rounded and only a panel of values is held at
    once.  Swapping ka and kb negates dt and flips sign for SIGMA, so it
    negates the SIGMA value and keeps the RE value, both bit for bit.
    """
    from .quadrature import gauss_legendre_unit

    count = _panel_count(ka, kb, delta)
    u, w = gauss_legendre_unit(RADIAL_RULE_PANEL_ORDER)
    h = 1.0 / count
    offsets = [h * x for x in u]
    weights = [R_MAX * (h * x) for x in w]
    sign, power, trig = _KERNEL[form, ka[1], kb[1]]
    dt = ka[2] - kb[2]

    def panels():
        for panel in range(count):
            start = h * panel
            r = [R_MAX * (start + x) for x in offsets]
            kernel = [sign * a * b for a, b in zip(ka[0].values(r), kb[0].values(r))]
            if power == 1:
                kernel = [k * x for k, x in zip(kernel, r)]
            elif power == -1:
                kernel = [k / x for k, x in zip(kernel, r)]
            if dt or trig is math.sin:  # cos(r 0) = 1 is the one factor skipped
                kernel = [k * trig(x * dt) for k, x in zip(kernel, r)]
            if delta == 0.0:
                yield [a * k for a, k in zip(weights, kernel)]
            else:
                yield [a * k * math.sin(delta * x) / (delta * x) for a, k, x in zip(weights, kernel, r)]

    return 4.0 * math.pi * math.fsum(chain.from_iterable(panels()))


def _form(form: str, x: FieldVector, y: FieldVector) -> float:
    """Correctly rounded sum of c_x c_y k(a_x, a_y, |d_x - d_y|) over term pairs.

    Each k comes from the one memo entry of the unordered atom pair, keyed
    by the atoms' (profile, channel, t) and read in that key's order: a
    swapped SIGMA value is negated, and equal pair keys keep their order.
    """
    antisymmetric, dist, values = form == SIGMA, math.dist, []
    ys = [(c, (profile, channel, offset[0]), offset[1:]) for c, (profile, channel, offset) in y.terms]
    for cx, (profile, channel, offset) in x.terms:
        kx, dx = (profile, channel, offset[0]), offset[1:]
        for cy, ky, dy in ys:
            if ky < kx:
                value = _pair_integral(form, ky, kx, dist(dx, dy))
                if antisymmetric:
                    value = -value
            else:
                value = _pair_integral(form, kx, ky, dist(dx, dy))
            values.append(cx * cy * value)
    return math.fsum(values)


def symplectic(x: FieldVector, y: FieldVector) -> float:
    """sigma(x, y) by the exact-angular radial route.

    Bilinear over atom pairs and antisymmetric, both exactly (see the module
    docstring); equals -Im scalar_product on test vectors.  Defined for every
    charge (the omega^{-2} kernel is integrable in three dimensions).
    """
    return _form(SIGMA, x, y)


def scalar_product(x: FieldVector, y: FieldVector) -> complex:
    """(x, y) by the exact-angular radial route; test vectors (charge 0.0) only.

    The imaginary part is -sigma(x, y) from the same pair integrals, so
    (x, x) is exactly real.
    """
    for v, side in ((x, "left"), (y, "right")):
        if v.charge != 0.0:
            raise DomainError(f"scalar product undefined for a charged {side} operand")
    return complex(_form(RE, x, y), -_form(SIGMA, x, y))


def vacuum_exponent(x: FieldVector) -> float:
    """(x, x)/4, the vacuum damping exponent of the Weyl operator at x."""
    val = scalar_product(x, x)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise DomainError(f"(x, x) should be real, got imaginary part {val.imag}")
    if val.real < 0:
        raise DomainError(f"(x, x) should be nonnegative, got {val.real}")
    return 0.25 * val.real
