"""Benchmark workloads: generated configs, the processes per sample, and
the seed-independent verdicts each process must reproduce.

Each workload starts from the shipped ``configs/default.json`` and changes
only what makes it the workload; the benchmark seed goes only into the
generated config's ``seed``.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Process:
    """One `conebraid verify --suite SUITE` call and what it must report."""

    suite: str
    rows: int
    exit_code: int
    # check_id -> radii (or cone ids) whose rows fail by design; all other
    # rows must pass.
    failing: dict = field(default_factory=dict)

    def expected_pass(self, row: dict) -> bool:
        where = row["cone_id"] or row["radius"]
        return where not in self.failing.get(row["check_id"], ())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    processes: tuple[Process, ...]
    overrides: dict
    # Wrapped functions whose call count is > 0 on this workload, out of
    # the layer entry points in PATTERN_KEYS; all others must be 0.
    active: frozenset
    # Cached rule functions that must build at least one rule here.
    builds: tuple = ("quadrature.gauss_legendre_unit",)

    def config(self, base: dict, seed: int) -> dict:
        cfg = copy.deepcopy(base)
        for key, value in self.overrides.items():
            if key == "charge0":
                cfg["charges"][0].update(value)
            elif isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        cfg["seed"] = random.Random(seed).randrange(1 << 30)
        return cfg


# Layer entry points whose zero/non-zero call pattern is asserted per
# workload.  A missed binding shows up here as a zero where calls are due.
PATTERN_KEYS = (
    "quadrature.gauss_legendre_unit",
    "quadrature.radial_fourier",
    "field.symplectic",
    "field.scalar_product",
    "weyl.weyl_mul",
    "weyl.label_id",
    "weyl.gram_matrix",
    "category.compose",
    "category.tensor_mor",
    "category.braiding_asymptotic",
    "seqalg.limsup_norm",
    "seqalg.SequenceElement.at",
    "config.load_config",
    "_angular.angular_rule",
    "report.emit_report",
    "suites.run_laws",
    "suites.run_braiding",
    "suites.run_homotopy",
    "suites.run_decay",
    "suites.run_seqalg",
)
_EVERYWHERE = frozenset(
    {
        "quadrature.gauss_legendre_unit",
        "field.symplectic",
        "weyl.label_id",
        "category.compose",
        "category.tensor_mor",
        "category.braiding_asymptotic",
        "config.load_config",
        "_angular.angular_rule",
        "report.emit_report",
        "suites.run_braiding",
        "suites.run_decay",
    }
)

_CONE_IDS = tuple(f"cone{k:02d}" for k in range(7))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default",
            why="the shipped config, verify --suite all: many small symplectic calls, "
            "label bookkeeping, cold O(n^3) Gauss-Legendre rule builds and seqalg tail sampling",
            processes=(
                Process(
                    suite="all",
                    rows=62,
                    exit_code=1,
                    failing={
                        "braiding/limit_vs_exact": (10.0, 20.0, 30.0, 40.0),
                        "decay/extension": (10.0, 20.0),
                        "decay/implementation": (10.0, 20.0, 30.0, 40.0),
                        "decay/implementation_transported": (10.0,),
                        "decay/tensor_ordering": (10.0,),
                        "homotopy/limit_vs_exact": _CONE_IDS,
                    },
                ),
            ),
            overrides={},
            active=_EVERYWHERE
            | {
                "field.scalar_product",
                "weyl.weyl_mul",
                "weyl.gram_matrix",
                "seqalg.limsup_norm",
                "seqalg.SequenceElement.at",
                "suites.run_laws",
                "suites.run_homotopy",
                "suites.run_seqalg",
            },
        ),
        Workload(
            name="bump-sloped",
            why="smooth bump-position charge on a time-sloped spacelike cone (a0 = sqrt(R) < R): "
            "the radial Fourier transform recomputed per atom evaluation dominates",
            processes=(
                Process(
                    suite="braiding",
                    rows=9,
                    exit_code=1,
                    failing={"braiding/limit_vs_exact": (10.0, 15.0, 20.0)},
                ),
                Process(
                    suite="decay",
                    rows=15,
                    exit_code=1,
                    failing={
                        "decay/extension": (10.0, 15.0, 20.0),
                        "decay/implementation": (10.0, 15.0, 20.0),
                        "decay/implementation_transported": (10.0,),
                    },
                ),
            ),
            overrides={
                "charge0": {"profile": "bump-position", "shape": "smooth", "support_radius": 1.0},
                "cone": {"time_slope": 1.0, "time_exponent": 0.5},
                "radii": [10.0, 15.0, 20.0],
            },
            active=_EVERYWHERE | {"quadrature.radial_fourier"},
        ),
        Workload(
            name="far-cone",
            why="Gaussian pair at radii 1e4..4e4: few symplectic calls on composite panels of "
            "up to ~1e6 nodes, so cost is per node, not per call",
            processes=(
                Process(suite="braiding", rows=9, exit_code=0),
                Process(suite="decay", rows=15, exit_code=0),
            ),
            overrides={"radii": [1.0e4, 2.0e4, 4.0e4]},
            active=_EVERYWHERE,
            builds=("quadrature.gauss_legendre_unit", "quadrature.composite_legendre_unit"),
        ),
    )
}


def load_base(root: Path) -> dict:
    return json.loads((root / "configs" / "default.json").read_text())
