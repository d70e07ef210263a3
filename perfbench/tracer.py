"""Run one `conebraid` command with every layer function wrapped in a span.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py COUNTERS.json verify --config CFG --suite S ...

The wrappers live here, not in the package: each public module-level
function of the conebraid modules below (plus the few private helpers and
methods listed in ``EXTRA``) is replaced by a wrapper that counts calls and
accumulates inclusive and self time.  Every binding of an original is
replaced, wherever it sits (the defining module, modules that imported it
by name, class dictionaries, registries); a binding that cannot be patched
(a closure cell, a default argument) aborts the run with exit code 3, so a
layer is never silently undercounted.  After the command returns, the
counters are written as JSON and the command's exit code is passed through.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import math
import sys
import types
from time import perf_counter

import numpy as np

MODULES = (
    "_angular",
    "quadrature",
    "field",
    "weyl",
    "category",
    "seqalg",
    "config",
    "suites",
    "report",
)
# Non-public callables that carry a per-layer counter: the radial rule
# chooser (nodes per form evaluation) and sequence evaluation.
EXTRA = {"field": ("_radial_rule_for",), "seqalg": ("SequenceElement.at",)}
CACHED_RULES = ("quadrature.gauss_legendre_unit", "quadrature.composite_legendre_unit")
BINDING_ERROR = 3


class BindingError(RuntimeError):
    pass


class Tracer:
    """Span stack plus per-function counters for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, incl_s, self_s]
        self.stack: list[list] = []  # [key, child_s]
        self.extra = {
            "field.symplectic.term_pairs": 0,
            "field.symplectic.pair_keys": set(),
            "field.nodes": {},
            "quadrature.rule_misses": {key: 0 for key in CACHED_RULES},
            "quadrature.rule_build_s": 0.0,
            "quadrature.rule_nodes_max": 0,
            "quadrature.radial_fourier.momenta": 0,
            "report.bytes": 0,
        }
        self.cache_start: dict[str, tuple[int, int]] = {}
        self.originals: dict[str, object] = {}

    def wrap(self, key: str, orig):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        hook = _HOOKS.get(key)
        cached = hasattr(orig, "cache_info")
        tracer = self

        def wrapper(*args, **kwargs):
            misses = orig.cache_info().misses if cached else 0
            stack.append([key, 0.0])
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()[1]
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            # Counter bookkeeping is charged to nobody: it is added to the
            # parent's child time together with the call itself.
            h0 = perf_counter()
            if cached and orig.cache_info().misses != misses:
                tracer.extra["quadrature.rule_misses"][key] += 1
                tracer.extra["quadrature.rule_build_s"] += dt - child
            if hook is not None:
                hook(tracer, args, result)
            if stack:
                stack[-1][1] += dt + (perf_counter() - h0)
            return result

        wrapper.__name__ = getattr(orig, "__name__", key)
        wrapper.__qualname__ = getattr(orig, "__qualname__", key)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def counters(self) -> dict:
        for key, (hits, misses) in self.cache_start.items():
            info = self.originals[key].cache_info()
            delta = (info.hits - hits) + (info.misses - misses)
            if delta != self.stats[key][0]:
                raise BindingError(
                    f"{key}: cache saw {delta} calls but the wrapper saw {self.stats[key][0]}"
                )
            if info.misses - misses != self.extra["quadrature.rule_misses"][key]:
                raise BindingError(f"{key}: rule misses disagree with cache_info()")
        extra = dict(self.extra)
        extra["field.symplectic.pair_keys"] = len(extra["field.symplectic.pair_keys"])
        return {
            "functions": {
                key: {"calls": c, "incl_s": i, "self_s": s} for key, (c, i, s) in sorted(self.stats.items())
            },
            "extra": extra,
        }


def _hook_symplectic(tracer, args, result):
    x, y = args[0], args[1]
    tracer.extra["field.symplectic.term_pairs"] += len(x.terms) * len(y.terms)
    keys = tracer.extra["field.symplectic.pair_keys"]
    for _, ax in x.terms:
        for _, ay in y.terms:
            keys.add(
                (
                    ax.profile,
                    ax.channel,
                    ax.offset[0],
                    ay.profile,
                    ay.channel,
                    ay.offset[0],
                    math.dist(ax.offset[1:], ay.offset[1:]),
                )
            )


def _hook_radial_rule(tracer, args, result):
    parent = tracer.stack[-1][0] if tracer.stack else "<root>"
    nodes = tracer.extra["field.nodes"]
    nodes[parent] = nodes.get(parent, 0) + len(result[0])


def _hook_rule(tracer, args, result):
    size = len(result[0])
    if size > tracer.extra["quadrature.rule_nodes_max"]:
        tracer.extra["quadrature.rule_nodes_max"] = size


def _hook_radial_fourier(tracer, args, result):
    tracer.extra["quadrature.radial_fourier.momenta"] += int(np.size(result))


def _hook_emit(tracer, args, result):
    tracer.extra["report.bytes"] += sum(path.stat().st_size for path in result)


_HOOKS = {
    "field.symplectic": _hook_symplectic,
    "field._radial_rule_for": _hook_radial_rule,
    "quadrature.gauss_legendre_unit": _hook_rule,
    "quadrature.composite_legendre_unit": _hook_rule,
    "quadrature.radial_fourier": _hook_radial_fourier,
    "report.emit_report": _hook_emit,
}


def _targets(modules: dict) -> list[tuple[str, object, str]]:
    """(key, owner, attribute name) for every callable to wrap.

    Holds no reference to the callables themselves, so that the only
    referrers of an original are the bindings to replace.
    """
    out = []
    for short, mod in modules.items():
        for name in sorted(vars(mod)):
            obj = vars(mod)[name]
            callable_kind = isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
            if name.startswith("_") or not callable_kind or obj.__module__ != mod.__name__:
                continue
            out.append((f"{short}.{name}", mod, name))
        for dotted in EXTRA.get(short, ()):
            owner = mod
            *path, name = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is not None and hasattr(owner, name):
                out.append((f"{short}.{dotted}", owner, name))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every target and replace each binding of each original."""
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"conebraid.{short}")
        except ModuleNotFoundError:
            continue
    class_dicts = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("conebraid"):
            for obj in vars(mod).values():
                if isinstance(obj, type):
                    class_dicts[id(gc.get_referents(obj.__dict__)[0])] = obj
    for key, owner, name in _targets(modules):
        orig = getattr(owner, name)
        if hasattr(orig, "cache_info"):
            info = orig.cache_info()
            tracer.cache_start[key] = (info.hits, info.misses)
        wrapper = tracer.wrap(key, orig)
        _rebind(orig, wrapper, class_dicts, key)
        tracer.originals[key] = orig


def _rebind(orig, wrapper, class_dicts: dict, key: str) -> None:
    """Point every dictionary binding of ``orig`` at ``wrapper``.

    Module and class dictionaries are patched; any other holder (a closure
    cell of another function, a default-argument tuple, a list) cannot be
    patched and raises BindingError.
    """
    own_cells = {id(cell) for cell in wrapper.__closure__}
    for ref in gc.get_referrers(orig):
        if isinstance(ref, types.FrameType) or id(ref) in own_cells:
            continue
        if not isinstance(ref, dict):
            raise BindingError(f"{key}: cannot rebind a reference held by a {type(ref).__name__}")
        # A plain loop: a comprehension would capture ``orig`` in a cell.
        names = []
        for name, value in ref.items():
            if value is orig:
                names.append(name)
        for name in names:
            if id(ref) in class_dicts:
                setattr(class_dicts[id(ref)], name, wrapper)
            else:
                ref[name] = wrapper


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py COUNTERS.json <conebraid arguments>", file=sys.stderr)
        return 2
    counters_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        install(tracer)
    except BindingError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return BINDING_ERROR
    from conebraid import cli

    code = cli.main(cli_args)
    try:
        counters = tracer.counters()
    except BindingError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return BINDING_ERROR
    with open(counters_path, "w") as fh:
        json.dump(counters, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
