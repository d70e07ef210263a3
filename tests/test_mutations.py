"""Committed mutations: each patch of a package function must fail the rows that judge it.

Every entry replaces one function or constant with a plausibly broken
version of it and runs one suite in process on the default config, whose
unmutated rows are those of configs/expected/default.csv.  It names either
the check ids whose rows pass on the unmutated code and fail under the
mutation (every row of such an id must fail, and no other row may flip),
the error the mutated run raises before it reports and a pattern its
message matches, which names the guard that raised it, or, wrapped in
Oracle, the check ids whose rows move off the independent oracle of
tests/oracle_report.py (every row of the suite matches it unmutated, and
the mutated rows that differ from it, verdict flip or not, are of exactly
those ids).
"""

import cmath
import math
from pathlib import Path
from typing import NamedTuple

import pytest

from conebraid import category as C
from conebraid import field as F
from conebraid import seqalg as sa
from conebraid import suites
from conebraid import weyl as W
from conebraid.config import ConeSpec, load_config
from conebraid.errors import RunError
from conebraid.suites import run_suite
from expected_reports import expected_rows
from oracle_report import mismatches, oracle_rows

CONFIG = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.json")


class Mutation(NamedTuple):
    name: str
    module: object
    attribute: str
    mutant: object  # original -> mutated replacement
    suite: str
    # check ids that flip to failing (or move off the Oracle), or the error raised and its message
    fails: frozenset | tuple[type, str]


class Oracle(frozenset):
    """Check ids whose rows the mutation moves off the oracle."""


def _polar_star(polar_unitarize):
    def mutant(s):
        u = polar_unitarize(s)
        return sa.SequenceElement(lambda n: W.star(u.at(n)), 1.0)

    return mutant


def _adjoint_without_star(adjoint_morphism):
    def mutant(u, value):
        return sa.SequenceElement(lambda n: W.weyl_mul(W.weyl_mul(u.at(n), value), u.at(n)), abs(value.coeff))

    return mutant


def _seq_mul_adds(seq_mul):
    # the coefficients add instead of multiplying
    def mutant(s, t):
        def gen(n):
            a, b = s.at(n), t.at(n)
            return W.WeylElement(a.coeff + b.coeff, F.add(a.label, b.label))

        return sa.SequenceElement(gen, s.bound + t.bound)

    return mutant


def _limsup_takes_min(limsup_norm):
    # the smallest tail sample in place of the largest: a liminf
    def mutant(s, t=None):
        if t is None:
            return min(abs(s.at(n).coeff) for n in sa.SAMPLES)
        return min(W.distance(s.at(n), t.at(n)) for n in sa.SAMPLES)

    return mutant


def _exchange_tilted(braiding_asymptotic):
    # the exchange converges to e^{0.01 i} times the exact braiding phase
    def mutant(a, b, ta, tb, rng=None):
        phase, closed, rephased = braiding_asymptotic(a, b, ta, tb, rng)
        return phase * cmath.exp(0.01j), closed, rephased

    return mutant


def _exchange_log_tail(braiding_asymptotic):
    # the exchange approaches its limit like 1/log R, not like 1/R
    def mutant(a, b, ta, tb, rng=None):
        phase, closed, rephased = braiding_asymptotic(a, b, ta, tb, rng)
        return phase * cmath.exp(1j / math.log(math.hypot(*ta[1:]))), closed, rephased

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


def _product_keeps_left_label(product):
    # the original coefficient, on the left factor's label instead of the sum
    def mutant(a, b):
        return product(a, b)[0], a.label

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


def _second_charge_follows(braiding_asymptotic):
    # the second charge moves with the first (tb = ta), so the separation stops growing
    def mutant(a, b, ta, tb, rng=None):
        return braiding_asymptotic(a, b, ta, ta, rng)

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
        "polar_unitarize",
        _polar_star,
        "seqalg",
        frozenset({"seqalg/adjoint_constant", "seqalg/polar_null_distance", "seqalg/subsequence_stability"}),
    ),
    Mutation(
        "adjoint-without-star",
        sa,
        "adjoint_morphism",
        _adjoint_without_star,
        "seqalg",
        frozenset({
            "seqalg/adjoint_constant",
            "seqalg/adjoint_center",
            "seqalg/subsequence_converse",
            "seqalg/subsequence_stability",
        }),
    ),
    Mutation(
        "subsequence-ignores-map",
        sa,
        "subsequence",
        lambda subsequence: lambda s, images: subsequence(s, {n: n for n in images}),
        "seqalg",
        frozenset({"seqalg/subsequence_converse", "seqalg/adjoint_alternating"}),
    ),
    # Ad U_n then reads U_n W(f) U_n*, the inverse action.  No product of a
    # generator with its own star sees the order, so the unitarity row does not
    Mutation(
        "mul-swapped",
        sa,
        "weyl_mul",
        lambda mul: lambda x, y: mul(y, x),
        "seqalg",
        frozenset({"seqalg/adjoint_constant", "seqalg/subsequence_converse", "seqalg/subsequence_stability"}),
    ),
    Mutation(
        "stability-probe-negated",
        sa,
        "stability_probe",
        lambda stability_probe: lambda *args: not stability_probe(*args),
        "seqalg",
        frozenset({"seqalg/subsequence_stability"}),
    ),
    # a probe that keeps every sequence also keeps the alternating one
    Mutation(
        "probe-accepts-everything",
        sa,
        "stability_probe",
        lambda stability_probe: lambda *args: True,
        "seqalg",
        frozenset({"seqalg/subsequence_stability"}),
    ),
    # a zero step repeats an image, which the subsequence refuses when it is
    # built: on the suite's own path, not only in the unit tests
    Mutation(
        "probe-steps-can-be-zero",
        sa,
        "_STEPS",
        lambda steps: bytes(b % sa.MAX_INDEX_STEP for b in range(256)),
        "seqalg",
        (RunError, "strictly increasing"),
    ),
    # the null sequence times a transporter then has norm about 1
    Mutation("seq-mul-adds", sa, "seq_mul", _seq_mul_adds, "seqalg", frozenset({"seqalg/null_ideal"})),
    # without the cutoff an entry of modulus 1e-12 keeps its own label
    # instead of falling back to W(0), at distance 2 from it
    Mutation(
        "polar-cutoff-removed",
        sa,
        "POLAR_SINGULAR_CUTOFF",
        lambda cutoff: -1.0,
        "seqalg",
        frozenset({"seqalg/polar_singular_fallback"}),
    ),
    # a liminf: the alternating adjoint sequence then reads as converging
    # to rho's action, since its even entries do, and so does every
    # subsequence the probe draws of it
    Mutation(
        "limsup-takes-min",
        sa,
        "limsup_norm",
        _limsup_takes_min,
        "seqalg",
        frozenset({"seqalg/subsequence_converse", "seqalg/subsequence_stability"}),
    ),
    # a halved norm flips no verdict, since every null row sits far below
    # 1e-6 and every separation far above it, but each row it reads moves
    Mutation(
        "limsup-halved",
        sa,
        "limsup_norm",
        lambda limsup_norm: lambda s, t=None: 0.5 * limsup_norm(s, t),
        "seqalg",
        Oracle({
            "seqalg/polar_null_distance",
            "seqalg/subsequence_converse",
            "seqalg/null_ideal",
            "seqalg/adjoint_constant",
            "seqalg/adjoint_alternating",
        }),
    ),
    # an exchange converging to the wrong phase, or too slowly, leaves
    # (eps_R - eps_exact) W(delta) off the null ideal
    Mutation(
        "exchange-tilted",
        C,
        "braiding_asymptotic",
        _exchange_tilted,
        "seqalg",
        frozenset({"seqalg/null_ideal"}),
    ),
    Mutation(
        "exchange-log-tail",
        C,
        "braiding_asymptotic",
        _exchange_log_tail,
        "seqalg",
        frozenset({"seqalg/null_ideal"}),
    ),
    # weyl_mul's cocycle in the seqalg suite: Ad U_n(W(delta)) then
    # converges to e^{-i sigma(rho, delta)} W(delta), the inverse of rho's action
    Mutation(
        "weyl-cocycle-flipped-seqalg",
        W,
        "_product",
        _cocycle_flipped,
        "seqalg",
        frozenset({"seqalg/adjoint_constant", "seqalg/subsequence_converse", "seqalg/subsequence_stability"}),
    ),
    # u* u lands on the label -y of u*, so the unitarity row reads 2, and
    # every adjoint lands off the observable's label
    Mutation(
        "weyl-product-keeps-left-label-seqalg",
        W,
        "_product",
        _product_keeps_left_label,
        "seqalg",
        frozenset({
            "seqalg/polar_unitarity",
            "seqalg/adjoint_constant",
            "seqalg/adjoint_center",
            "seqalg/subsequence_converse",
            "seqalg/subsequence_stability",
        }),
    ),
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
    # every weyl_mul product lands on the wrong label, which weyl.distance
    # counts as |c_a| + |c_b| = 2 for unit coefficients
    Mutation(
        "weyl-product-keeps-left-label",
        W,
        "_product",
        _product_keeps_left_label,
        "laws",
        frozenset({
            "laws/weyl_exchange",
            "laws/weyl_associativity",
            "laws/intertwiner_relation",
            "laws/auto_action_homomorphism",
        }),
    ),
    # the same for compose; the hexagon and braiding-symmetry rows compose
    # only zero labels, which the left label keeps
    Mutation(
        "compose-keeps-left-label",
        C,
        "_product",
        _product_keeps_left_label,
        "laws",
        frozenset({
            "laws/naturality",
            "laws/interchange",
            "laws/compose_associativity",
            "laws/compose_units",
            "laws/star_isometry",
        }),
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
    Mutation("star-mor-keeps-label", C, "star_mor", _star_mor_keeps_label, "braiding", (RunError, "zero label")),
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
    # make the Gram matrix indefinite, its smallest eigenvalue about -3e6.
    # weyl reads the exponent as a method, so the class binding is patched
    Mutation(
        "gram-vacuum-exponent-sign",
        F.FieldVector,
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
        ConeSpec,
        "translation",
        _transport_short,
        "braiding",
        Oracle({"braiding/limit_vs_exact"}),
    ),
    Mutation(
        "transport-short-homotopy",
        ConeSpec,
        "translation",
        _transport_short,
        "homotopy",
        Oracle({"homotopy/limit_vs_exact"}),
    ),
    # the antipode is the suites' decision: without it the exchange reads 1,
    # the trivial braiding, at every radius and on every cone.  The other
    # rows compare two sides of the same transports, and no verdict flips
    Mutation(
        "second-charge-follows-braiding",
        C,
        "braiding_asymptotic",
        _second_charge_follows,
        "braiding",
        Oracle({"braiding/limit_vs_exact"}),
    ),
    Mutation(
        "second-charge-follows-homotopy",
        C,
        "braiding_asymptotic",
        _second_charge_follows,
        "homotopy",
        Oracle({"homotopy/limit_vs_exact"}),
    ),
    Mutation(
        "transport-short-decay",
        ConeSpec,
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


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
def test_mutation_fails_its_rows(mutation, monkeypatch, request):
    before = expected_rows("default", mutation.suite)
    original = getattr(mutation.module, mutation.attribute)
    monkeypatch.setattr(mutation.module, mutation.attribute, mutation.mutant(original))
    # a memoized pair integral would hide a patched sigma route, and keep it past the test
    F._pair_integral.cache_clear()
    request.addfinalizer(F._pair_integral.cache_clear)
    if isinstance(mutation.fails, tuple):
        error, message = mutation.fails
        with pytest.raises(error, match=message):
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
