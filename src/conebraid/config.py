"""Run configuration: a single JSON file with every physical parameter explicit.

A config carries only what a workload varies: the charges, the cone, the
radii and the seed.  The output directory is the CLI's --out, so it never
enters the config digest.  The check policy is fixed in
``suites`` and the momentum cutoff in ``field`` (R_MAX), so no config can
move a threshold or the model.  ``validate`` checks the cone by building it
(``cone_spec``, the cone a run uses) and transporting it to every radius.

The dialect is plain JSON with a fixed key tree; serialization is canonical
(sorted keys, two-space indent, trailing newline), so parse -> dump is
idempotent and the config digest is reproducible.  Defaults reproduce the
reference experiment: the unit Gaussian charge pair, a 30 degree cone along
z and radii 10..40.  Unknown keys, check-policy and grid keys among them,
are rejected rather than ignored, and every value is checked against
its field's type: numbers must be finite and are never booleans, and
fixed-length tuples such as the cone axis must have that length.
"""

from __future__ import annotations

import json
import math
import typing
from pathlib import Path
from typing import NamedTuple

# The builtin SHA-256 first, as CPython's random.py does for SHA-512:
# importing hashlib loads OpenSSL, a few MB of every run's peak RSS.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .category import ConeSpec
from .errors import ConfigError
from .field import BUMP_SHAPES, CLOSED_FORM_MIN_TAIL, R_MAX

_PROFILE_KINDS = ("gaussian-momentum", "bump-position")
# The charge keys each profile never reads: they must keep their defaults, so
# that a value no number reads cannot move the config digest.
_UNREAD_KEYS = {"gaussian-momentum": ("support_radius", "shape"), "bump-position": ("s",)}
# Bounds for s, support_radius and |q|: past them float powers overflow
# (s ** 2, support_radius ** 3), or every sigma and charge underflows to zero
# and the braiding rows pass trivially.  q = 0 on a g-channel Gaussian is the
# chargeless r^2-damped variant, which couples.  A Gaussian charge also needs
# s >= sqrt(CLOSED_FORM_MIN_TAIL) / R_MAX: at equal widths that is the
# closed-form sigma route's own tail condition a * R_MAX^2 >= CLOSED_FORM_MIN_TAIL.
SCALE_MIN, SCALE_MAX = 1e-3, 1e3
# Past RADIUS_MAX the separations the suites form (about 2R plus the shifts)
# near the float limit: at R = 1e308 math.dist overflows to inf and a
# sigma becomes inf * erfc(inf) = nan.
RADIUS_MAX = 1e300
GAUSS_S_MIN = math.sqrt(CLOSED_FORM_MIN_TAIL) / R_MAX


class ChargeCfg(NamedTuple):
    name: str
    profile: str = "gaussian-momentum"
    channel: str = "g"
    q: float = 1.0
    s: float = 1.0
    support_radius: float = 1.0
    shape: str = "indicator"


class ConeCfg(NamedTuple):
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    half_angle_deg: float = 30.0
    time_slope: float = 0.0
    time_exponent: float = 0.0


class RunConfig(NamedTuple):
    charges: tuple[ChargeCfg, ...] = (
        ChargeCfg(name="gamma", profile="gaussian-momentum", channel="g", q=1.0, s=1.0),
        ChargeCfg(name="delta", profile="gaussian-momentum", channel="h", q=1.0, s=1.0),
    )
    cone: ConeCfg = ConeCfg()
    radii: tuple[float, ...] = (10.0, 20.0, 30.0, 40.0)
    seed: int = 0

    def validate(self) -> "RunConfig":
        names = [c.name for c in self.charges]
        if len(names) != len(set(names)):
            raise ConfigError(f"charge names must be unique, got {names}")
        if len(self.charges) < 2:
            raise ConfigError("at least two charges are required")
        for c in self.charges:
            if c.profile not in _PROFILE_KINDS:
                raise ConfigError(f"charge {c.name!r}: unknown profile {c.profile!r}")
            if c.channel not in ("g", "h"):
                raise ConfigError(f"charge {c.name!r}: channel must be 'g' or 'h'")
            for key in _UNREAD_KEYS[c.profile]:
                if getattr(c, key) != ChargeCfg._field_defaults[key]:
                    raise ConfigError(f"charge {c.name!r}: {key} is not read by a {c.profile} charge")
            for name, value in (("s", c.s), ("support_radius", c.support_radius)):
                _check_scale(f"charge {c.name!r}: {name}", value)
            if c.q != 0.0 or (c.profile, c.channel) != ("gaussian-momentum", "g"):
                _check_scale(f"charge {c.name!r}: |q|", abs(c.q))
            if c.profile == "gaussian-momentum" and c.s < GAUSS_S_MIN:
                raise ConfigError(
                    f"charge {c.name!r}: s must be at least sqrt({CLOSED_FORM_MIN_TAIL:g}) / R_MAX = {GAUSS_S_MIN:.4g}, got {c.s:g}"
                )
            if c.shape not in BUMP_SHAPES:
                raise ConfigError(f"charge {c.name!r}: unknown bump shape {c.shape!r}")
            if not c.name:
                raise ConfigError("charge names must be nonempty")
        if len(self.radii) < 3 or any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ConfigError("radii must be strictly increasing with at least 3 entries")
        if self.radii[0] <= 0:
            raise ConfigError("radii must be positive")
        if self.radii[-1] > RADIUS_MAX:
            raise ConfigError(f"radii must be at most {RADIUS_MAX:g}, got {self.radii[-1]:g}")
        cone = self.cone_spec()
        for radius in self.radii:
            cone.translation(radius)
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        return self

    def cone_spec(self) -> ConeSpec:
        cone = self.cone
        return ConeSpec(cone.axis, math.radians(cone.half_angle_deg), cone.time_slope, cone.time_exponent)

    def to_dict(self) -> dict:
        out = self._asdict()
        out["charges"] = [c._asdict() for c in self.charges]
        out["cone"] = self.cone._asdict()
        return out

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def digest(self) -> str:
        return sha256(self.to_canonical_json().encode()).hexdigest()[:16]


def _check_scale(what: str, value: float) -> None:
    if not SCALE_MIN <= value <= SCALE_MAX:
        raise ConfigError(f"{what} must lie in [{SCALE_MIN:g}, {SCALE_MAX:g}], got {value:g}")


def _typed(value, hint, where: str):
    """Check a value against its field annotation and return it typed.

    The annotation is a config section, a tuple, float (any finite number,
    returned as float), int or str; a boolean is not a number.
    """
    if hint in (ChargeCfg, ConeCfg):
        return _build(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        args = typing.get_args(hint)
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(_typed(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{where}: must be finite, got {number}")
        return number
    if hint in (int, str) and isinstance(value, hint) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")


def _build(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(hints) - set(data) - set(cls._field_defaults)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    return cls(**{key: _typed(value, hints[key], f"{where}.{key}") for key, value in data.items()})


def config_from_dict(data: dict) -> RunConfig:
    """Parse a config tree, checking every value against its field's type."""
    return _build(RunConfig, data, "config").validate()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # ValueError: bad syntax, bytes not UTF-8 or an integer past the digit limit; RecursionError: deep nesting
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
