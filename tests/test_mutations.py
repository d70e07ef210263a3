"""Committed mutations: each patch of a package function must fail the rows that judge it.

Every entry replaces one function with a plausibly broken version of it and
runs one suite in process on the default config.  It names either the check
ids whose rows pass on the unmutated code and fail under the mutation (every
row of such an id must fail, and no other row may flip), or the error the
mutated run raises before it reports.
"""

from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

from conebraid import category as C
from conebraid import field as F
from conebraid import seqalg as sa
from conebraid.config import load_config
from conebraid.errors import DomainError
from conebraid.suites import run_suite

CONFIG = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.json")


class Mutation(NamedTuple):
    name: str
    module: object
    attribute: str
    mutant: object  # original -> mutated replacement
    suite: str
    fails: frozenset | type  # check ids that flip to failing, or the error raised


def _polar_star(polar):
    def mutant(x):
        u, smallest = polar(x)
        return sa.star(u), smallest

    return mutant


def _adjoint_without_star(adjoint_morphism):
    def mutant(u, value):
        return sa.SequenceElement(lambda n: sa.mul(sa.mul(u.at(n), value), u.at(n)), sa.norm(value))

    return mutant


def _seq_mul_adds(seq_mul):
    def mutant(s, t):
        return sa.SequenceElement(lambda n: sa.add(s.at(n), t.at(n)), s.bound + t.bound)

    return mutant


def _star_mor_unconjugated(star_mor):
    def mutant(r):
        return C.Intertwiner(r.target, r.source, r.coeff, F.negate(r.label))

    return mutant


MUTATIONS = [
    Mutation(
        "polar-returns-star",
        sa,
        "polar",
        _polar_star,
        "seqalg",
        frozenset({"seqalg/adjoint_constant", "seqalg/polar_null_distance"}),
    ),
    Mutation(
        "adjoint-without-star",
        sa,
        "adjoint_morphism",
        _adjoint_without_star,
        "seqalg",
        frozenset({"seqalg/adjoint_constant", "seqalg/adjoint_center"}),
    ),
    Mutation(
        "subsequence-ignores-map",
        sa,
        "subsequence",
        lambda subsequence: lambda s, index_map: subsequence(s, lambda n: n),
        "seqalg",
        frozenset({"seqalg/subsequence_converse", "seqalg/adjoint_alternating"}),
    ),
    Mutation(
        "mul-swapped",
        sa,
        "mul",
        lambda mul: lambda x, y: mul(y, x),
        "seqalg",
        frozenset({"seqalg/polar_unitarity"}),
    ),
    Mutation(
        "stability-probe-negated",
        sa,
        "stability_probe",
        lambda stability_probe: lambda *args: not stability_probe(*args),
        "seqalg",
        frozenset({"seqalg/subsequence_stability"}),
    ),
    # polar_unitarize's almost-unitary precondition multiplies sequences
    # before any row is written, so a broken product raises there
    Mutation("seq-mul-adds", sa, "seq_mul", _seq_mul_adds, "seqalg", DomainError),
    # with the coefficient unconjugated, the categorical exchange no longer
    # matches the closed form, and a rephased exchange keeps (z_u z_v)^2
    # instead of |z_u z_v|^2 = 1, so every rephase row fails unless the
    # stream is degenerate (every angle 0 or pi)
    Mutation(
        "star-mor-unconjugated",
        C,
        "star_mor",
        _star_mor_unconjugated,
        "braiding",
        frozenset({"braiding/categorical_vs_closed_form", "braiding/rephase_invariance"}),
    ),
]

@cache
def _unmutated(suite: str) -> list:
    return run_suite(CONFIG, suite).rows


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
def test_mutation_fails_its_rows(mutation, monkeypatch):
    before = _unmutated(mutation.suite)
    original = getattr(mutation.module, mutation.attribute)
    monkeypatch.setattr(mutation.module, mutation.attribute, mutation.mutant(original))
    if isinstance(mutation.fails, type):
        with pytest.raises(mutation.fails):
            run_suite(CONFIG, mutation.suite)
        return
    after = run_suite(CONFIG, mutation.suite).rows
    assert [row.sort_key() for row in after] == [row.sort_key() for row in before]
    flipped = {b.check_id for b, a in zip(before, after) if b.passed != a.passed}
    assert flipped == mutation.fails
    named = [(b, a) for b, a in zip(before, after) if b.check_id in mutation.fails]
    assert all(b.passed and not a.passed for b, a in named)
