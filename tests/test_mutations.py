"""Committed mutations: each patch of a package function must fail the rows that judge it.

Every entry replaces one function or constant with a plausibly broken
version of it and runs one suite in process on the default config.  It
names either the check ids whose rows pass on the unmutated code and fail
under the mutation (every row of such an id must fail, and no other row may
flip), the error the mutated run raises before it reports, or, wrapped in
Oracle, the check ids whose rows move off the independent oracle of
tests/oracle_report.py (every row of the suite matches it unmutated, and
the mutated rows that differ from it, verdict flip or not, are of exactly
those ids).
"""

import cmath
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

from conebraid import category as C
from conebraid import field as F
from conebraid import seqalg as sa
from conebraid import suites
from conebraid import weyl as W
from conebraid.config import load_config
from conebraid.errors import DomainError, InternalError, UsageError
from conebraid.suites import run_suite
from oracle_report import mismatches, oracle_rows

CONFIG = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.json")


class Mutation(NamedTuple):
    name: str
    module: object
    attribute: str
    mutant: object  # original -> mutated replacement
    suite: str
    fails: frozenset | type  # check ids that flip to failing (or move off the Oracle), or the error raised


class Oracle(frozenset):
    """Check ids whose rows the mutation moves off the oracle."""


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


def _star_mor_keeps_label(star_mor):
    def mutant(r):
        return C.Intertwiner(r.target, r.source, r.coeff.conjugate(), r.label)

    return mutant


def _cocycle_flipped(product):
    # e^{-i sigma(x, y)/2} in place of e^{+i sigma(x, y)/2}
    def mutant(a, b):
        return a.coeff * b.coeff * cmath.exp(-0.5j * F.symplectic(a.label, b.label)), F.add(a.label, b.label)

    return mutant


def _tensor_mor_unrotated(tensor_mor):
    # r's source automorphism no longer acts on s: the factor e^{i sigma(r.source, s.label)} is gone
    def mutant(r, s):
        coeff = r.coeff * s.coeff * cmath.exp(0.5j * F.symplectic(r.label, s.label))
        return C.Intertwiner(F.add(r.source, s.source), F.add(r.target, s.target), coeff, F.add(r.label, s.label))

    return mutant


def _star_unconjugated(star):
    def mutant(a):
        return W.WeylElement(a.coeff, F.negate(a.label))

    return mutant


def _auto_action_flipped(auto_action):
    def mutant(obj, a):
        return W.WeylElement(a.coeff * cmath.exp(-1j * F.symplectic(obj, a.label)), a.label)

    return mutant


def _braiding_exact_flipped(braiding_exact):
    def mutant(a, b):
        return C.Intertwiner(F.add(a, b), F.add(b, a), cmath.exp(1j * F.symplectic(a, b)), F.zero_vector())

    return mutant


def _gram_unconjugated(gram_matrix):
    # the lower triangle copies the upper one instead of conjugating it
    def mutant(labels):
        gram = gram_matrix(labels)
        return [[gram[min(k, l)][max(k, l)] for l in range(len(gram))] for k in range(len(gram))]

    return mutant


def _commutator_half_phase(commutator_norm):
    def mutant(x, y):
        return abs(cmath.exp(0.5j * F.symplectic(x, y)) - 1.0)

    return mutant


def _gauss_sigma_negated(gauss_sigma):
    def mutant(*args):
        return -gauss_sigma(*args)

    return mutant


def _panel_sigma_negated(panel_pair_integral):
    def mutant(form, *args):
        value = panel_pair_integral(form, *args)
        return -value if form == F.SIGMA else value

    return mutant


def _cross_channel_negated(kernel):
    # both (g, h) and (h, g) sigma signs flipped; the closed form and the panel rule read the one table
    flipped = {
        key: (-sign, power, trig)
        for key, (sign, power, trig) in kernel.items()
        if key[0] == F.SIGMA and key[1] != key[2]
    }
    return {**kernel, **flipped}


def _vacuum_exponent_sign(vacuum_exponent):
    # gram_matrix then takes e^{+(x, x)/4}
    def mutant(x):
        return -vacuum_exponent(x)

    return mutant


def _transport_short(translation):
    # every cone transport stops at 0.9 R
    def mutant(cone, radius):
        return translation(cone, 0.9 * radius)

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
    # without the cutoff the polar factor of the fallback row's entries, whose
    # smallest singular value is 1e-12, has norm about 1.00002 and breaks the
    # certified bound 1.0 of polar_unitarize's output
    Mutation("polar-cutoff-removed", sa, "POLAR_SINGULAR_CUTOFF", lambda cutoff: -1.0, "seqalg", UsageError),
    # weyl_mul's cocycle; compose keeps its own binding of _product
    Mutation(
        "weyl-cocycle-flipped",
        W,
        "_product",
        _cocycle_flipped,
        "laws",
        frozenset({"laws/intertwiner_relation", "laws/weyl_exchange"}),
    ),
    # compose's cocycle; the braiding composes labels x and -x, whose
    # cocycle is 1 at either sign, so only the interchange law sees it
    Mutation(
        "compose-cocycle-flipped",
        C,
        "_product",
        _cocycle_flipped,
        "laws",
        frozenset({"laws/interchange"}),
    ),
    Mutation(
        "tensor-mor-unrotated-laws",
        C,
        "tensor_mor",
        _tensor_mor_unrotated,
        "laws",
        frozenset({"laws/interchange", "laws/naturality"}),
    ),
    Mutation(
        "tensor-mor-unrotated-braiding",
        C,
        "tensor_mor",
        _tensor_mor_unrotated,
        "braiding",
        frozenset({"braiding/categorical_vs_closed_form"}),
    ),
    Mutation(
        "star-unconjugated-laws",
        C,
        "star",
        _star_unconjugated,
        "laws",
        frozenset({"laws/star_isometry"}),
    ),
    Mutation(
        "star-unconjugated-braiding",
        C,
        "star",
        _star_unconjugated,
        "braiding",
        frozenset({"braiding/categorical_vs_closed_form", "braiding/rephase_invariance"}),
    ),
    Mutation(
        "auto-action-flipped",
        C,
        "auto_action",
        _auto_action_flipped,
        "laws",
        frozenset({"laws/intertwiner_relation"}),
    ),
    Mutation(
        "braiding-exact-flipped",
        C,
        "braiding_exact",
        _braiding_exact_flipped,
        "laws",
        frozenset({"laws/naturality"}),
    ),
    # the exchange (v x u)* (u x v) then keeps a nonzero label
    Mutation("star-mor-keeps-label", C, "star_mor", _star_mor_keeps_label, "braiding", InternalError),
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
    # min_eigenvalue reads only the lower triangle, so its value is the
    # unmutated one; the row's Hermitian defect reads about 0.54
    Mutation(
        "gram-unconjugated",
        suites,
        "gram_matrix",
        _gram_unconjugated,
        "laws",
        frozenset({"laws/gram_psd"}),
    ),
    # the eigenvalue side of the same row: off-diagonal entries far above 1
    # make the Gram matrix indefinite, its smallest eigenvalue about -3e6
    Mutation(
        "gram-vacuum-exponent-sign",
        W,
        "vacuum_exponent",
        _vacuum_exponent_sign,
        "laws",
        frozenset({"laws/gram_psd"}),
    ),
    # halving the phase only shrinks the commutator-norm residuals, so no
    # verdict flips
    Mutation(
        "commutator-half-phase",
        C,
        "commutator_norm",
        _commutator_half_phase,
        "decay",
        Oracle({
            "decay/implementation",
            "decay/implementation_transported",
            "decay/abelianness",
            "decay/extension",
        }),
    ),
    # either sigma route negated: the closed form carries the exchange's far
    # pairs, the panel rule its pair at d = 0.  Both sides of the categorical
    # row read the same sigma, and every decay residual is |e^{+-i theta} - 1|
    # or |e^{-i theta_1} - e^{-i theta_2}|, blind to a global sign of sigma
    Mutation(
        "gauss-sigma-negated",
        F,
        "_gauss_sigma",
        _gauss_sigma_negated,
        "braiding",
        Oracle({"braiding/limit_vs_exact"}),
    ),
    Mutation(
        "panel-sigma-negated",
        F,
        "_panel_pair_integral",
        _panel_sigma_negated,
        "braiding",
        Oracle({"braiding/limit_vs_exact"}),
    ),
    # one table entry pair reaches both routes
    Mutation(
        "kernel-cross-channel-negated",
        F,
        "_KERNEL",
        _cross_channel_negated,
        "braiding",
        Oracle({"braiding/limit_vs_exact"}),
    ),
    # no verdict flips: the limit rows already fail at radii 10..40, and the
    # others stay far from their thresholds
    Mutation(
        "transport-short-braiding",
        C.ConeSpec,
        "translation",
        _transport_short,
        "braiding",
        Oracle({"braiding/limit_vs_exact"}),
    ),
    Mutation(
        "transport-short-homotopy",
        C.ConeSpec,
        "translation",
        _transport_short,
        "homotopy",
        Oracle({"homotopy/limit_vs_exact"}),
    ),
    Mutation(
        "transport-short-decay",
        C.ConeSpec,
        "translation",
        _transport_short,
        "decay",
        Oracle({
            "decay/implementation",
            "decay/implementation_transported",
            "decay/abelianness",
            "decay/tensor_ordering",
            "decay/extension",
        }),
    ),
]


@cache
def _unmutated(suite: str) -> list:
    return run_suite(CONFIG, suite).rows


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
def test_mutation_fails_its_rows(mutation, monkeypatch, request):
    before = _unmutated(mutation.suite)
    original = getattr(mutation.module, mutation.attribute)
    monkeypatch.setattr(mutation.module, mutation.attribute, mutation.mutant(original))
    # a memoized pair integral would hide a patched sigma route, and keep it past the test
    F._pair_integral.cache_clear()
    request.addfinalizer(F._pair_integral.cache_clear)
    if isinstance(mutation.fails, type):
        with pytest.raises(mutation.fails):
            run_suite(CONFIG, mutation.suite)
        return
    after = run_suite(CONFIG, mutation.suite).rows
    if isinstance(mutation.fails, Oracle):
        oracle = {key: row for key, row in oracle_rows(CONFIG.to_dict()).items() if key[0].startswith(mutation.suite)}
        assert mismatches([row.record() for row in before], oracle) == {}
        moved = mismatches([row.record() for row in after], oracle)
        assert {key[0] for key in moved} == mutation.fails
        return
    assert [row.sort_key() for row in after] == [row.sort_key() for row in before]
    flipped = {b.check_id for b, a in zip(before, after) if b.passed != a.passed}
    assert flipped == mutation.fails
    named = [(b, a) for b, a in zip(before, after) if b.check_id in mutation.fails]
    assert all(b.passed and not a.passed for b, a in named)
