"""Difference-reflection operator algebra: relations, words, shift identity."""

import hashlib
import random
import re
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from diffalg import daha
from diffalg.daha import (
    DiffReflOp,
    NotPolynomialPreserving,
    delta_poly,
    e_lambda,
    evaluate_word,
    fundamental_coweight,
    op_pi,
    op_plain_symmetrizer,
    op_sigma,
    op_symmetrizer,
    op_to_text,
    parse_word,
    phi_image_op,
    phi_shift_check,
    phi_word,
    verify_relations,
    word_to_text,
    x_omega_word,
)
from diffalg.poly import (
    LaurentPoly,
    LinearForm,
    ParseError,
    RationalFunction,
    VarContext,
    shift_y,
)
from diffalg.weyl import RootData, identity_perm
from diffalg.zalg import commutative_limit

CTX2 = VarContext(2)
CTX3 = VarContext(3)

RELATION_LABELS_N2 = [
    "s1^2 = id",
    "s1 y1 cross relation",
    "s1 y2 cross relation",
    "pi y1 = y2 pi",
    "pi y2 = (y1 + h) pi",
    "pi^n = u^[1,..,1]",
]


def test_defining_relations_hold_rank_two():
    checks = verify_relations(2)
    assert [label for label, _, _ in checks] == RELATION_LABELS_N2
    for label, ok, witness in checks:
        assert ok, f"{label}: {witness}"


def test_defining_relations_hold_rank_three():
    for label, ok, witness in verify_relations(3):
        assert ok, f"{label}: {witness}"


def test_corrupted_generator_breaks_cross_relations_only(monkeypatch):
    real = daha.op_sigma

    def flipped(ctx, i):
        # the sign of the identity coefficient -c / (y_i - y_{i+1}) flipped
        op = real(ctx, i)
        key = (identity_perm(ctx.n), (0,) * ctx.n)
        return DiffReflOp(ctx, {**op.terms, key: -op.terms[key]})

    monkeypatch.setattr(daha, "op_sigma", flipped)
    results = verify_relations(2)
    bad = [label for label, ok, _ in results if not ok]
    assert bad == ["s1 y1 cross relation", "s1 y2 cross relation"]
    assert all(witness for _, ok, witness in results if not ok)


def test_word_parse_and_text_round_trip():
    word = parse_word("s1 pi y2 (c + h)", CTX3)
    assert word_to_text(word) == "s1 pi y2 (c + h)"
    assert parse_word(word_to_text(word), CTX3) == word
    back = parse_word("pi^-1 s2 y3", CTX3)
    assert parse_word(word_to_text(back), CTX3) == back


def test_word_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_word("s2 y1", CTX2)  # only s1 exists at rank two
    with pytest.raises(ParseError):
        parse_word("q1", CTX2)


def test_word_parse_counts_only_ascii_digits():
    with pytest.raises(ParseError) as info:
        parse_word("s\u0661", CTX2)
    assert info.value.position == 1


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("s1 (y1 + q)", "expected a number, variable, or '('", 10),
        ("s1 (y1 y2)", "expected ')'", 8),
        ("s1 (y1 + ", "expected a number, variable, or '('", 10),
    ],
)
def test_word_scalar_errors_have_absolute_positions(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_word(text, CTX2)
    assert info.value.position == position
    assert str(info.value) == f"{message} (position {position})"


def test_involution_word_evaluates_to_identity():
    op = evaluate_word(CTX2, parse_word("s1 s1", CTX2))
    assert op == DiffReflOp.identity(CTX2)


def test_word_scalars_multiply_through():
    op = evaluate_word(CTX2, parse_word("(y1 + y2) y1", CTX2))
    f = LaurentPoly.y(CTX2, 0)
    applied = op.apply(LaurentPoly.one(CTX2))
    assert applied == (f + LaurentPoly.y(CTX2, 1)) * f


def test_sigma_squares_to_identity():
    sig = op_sigma(CTX2, 0)
    assert sig.compose(sig) == DiffReflOp.identity(CTX2)
    assert not (sig @ sig - DiffReflOp.identity(CTX2)).terms


def test_sigma_preserves_the_polynomial_module():
    sig = op_sigma(CTX3, 1)
    for f in (
        LaurentPoly.y(CTX3, 0),
        LaurentPoly.y(CTX3, 2, 2),
        LaurentPoly.y(CTX3, 1) * LaurentPoly.y(CTX3, 2),
        LaurentPoly.x(CTX3, 0),  # fixed by the reflection
        LaurentPoly.x(CTX3, 1) * LaurentPoly.x(CTX3, 2),
    ):
        sig.apply(f)  # must not raise
    with pytest.raises(NotPolynomialPreserving):
        sig.apply(LaurentPoly.x(CTX3, 1))  # moved by the reflection


def test_non_polynomial_application_is_reported():
    form = LinearForm(0, 1, 0, 0)
    coeff = RationalFunction(LaurentPoly.one(CTX2), [form])
    op = DiffReflOp(CTX2, {(identity_perm(2), (0, 0)): coeff})
    with pytest.raises(NotPolynomialPreserving):
        op.apply(LaurentPoly.one(CTX2))


def test_pi_translates_last_variable():
    f = LaurentPoly.y(CTX2, 1)
    assert op_pi(CTX2).apply(f) == LaurentPoly.y(CTX2, 0) + LaurentPoly.h(CTX2)
    assert DiffReflOp.zero(CTX2).apply(f) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pi_composed_with_its_inverse_is_the_identity(n):
    ctx = VarContext(n)
    assert op_pi(ctx).compose(op_pi(ctx, -1)) == DiffReflOp.identity(ctx)
    assert op_pi(ctx, -1).compose(op_pi(ctx)) == DiffReflOp.identity(ctx)


def test_pi_rejects_powers_other_than_one_and_minus_one():
    for power in (0, 2, -2):
        with pytest.raises(ValueError):
            op_pi(CTX2, power)


def test_translation_must_have_one_entry_per_variable():
    # a short translation used to build a key of the wrong rank
    for lam in ((1,), (0, 1, 5)):
        with pytest.raises(ValueError):
            daha.op_u(CTX2, lam)


def test_phi_word_maps_y_tokens_and_scalars():
    scalar = LaurentPoly.c(CTX3) + 2 * LaurentPoly.h(CTX3)
    sign, word = phi_word((("y", 0), ("scalar", scalar), ("y", 2), ("y", 1)), 3)
    assert sign == 1
    assert word == (
        ("y", 1),
        ("y", 0),
        ("scalar", LaurentPoly.c(CTX3) - 2 * LaurentPoly.h(CTX3)),
        ("y", 2),
    )


def test_phi_word_is_an_involution():
    word = parse_word("s1 y1 pi (c + h) s2 pi^-1 y3 (h^2 - y2)", CTX3)
    sign, image = phi_word(word, 3)
    assert sign == 1 and image != word
    back_sign, back = phi_word(image, 3)
    assert sign * back_sign == 1
    assert back == word


@pytest.mark.parametrize("apply", [word_to_text, lambda w: evaluate_word(CTX2, w), lambda w: phi_word(w, 2)])
def test_unknown_word_tokens_are_rejected(apply):
    with pytest.raises(ValueError, match=re.escape("unknown token ('x', 0)")):
        apply((("s", 0), ("x", 0)))


def test_delta_poly_matches_root_system_alternant():
    # at c = 0 the deformed product is the Vandermonde of the root system
    limit = commutative_limit(RationalFunction(delta_poly(CTX3)))
    assert limit.num == RootData.type_a(3).vandermonde(CTX3)
    deformed = delta_poly(CTX2)
    assert deformed == (
        LaurentPoly.y(CTX2, 0) - LaurentPoly.y(CTX2, 1) + LaurentPoly.c(CTX2)
    )


def test_shift_element_modes_agree_rank_two():
    for m in range(3):
        lam = (1,) * m + (0,) * (2 - m)
        closed = e_lambda(CTX2, lam, "closed")
        generators = e_lambda(CTX2, lam, "generators")
        assert (closed - generators).is_zero(), f"m={m}"


def _bubble_word(w):
    """A reduced word of w as sigma tokens, read off a bubble sort of w."""
    w, indices = list(w), []
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                indices.append(i)
                changed = True
    return tuple(("s", i) for i in reversed(indices))


def _word_average(ctx, signed_words):
    scale = Fraction(1, factorial(ctx.n))
    return DiffReflOp.sum(ctx, [evaluate_word(ctx, word) * (sign * scale) for sign, word in signed_words])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetrizer_is_the_average_of_the_sigma_words(n):
    ctx = VarContext(n)
    words = [(1, _bubble_word(w)) for w in permutations(range(n))]
    assert op_symmetrizer(ctx) == _word_average(ctx, words)


@pytest.mark.parametrize("n", [2, 3])
def test_phi_image_is_the_average_of_the_phi_words(n):
    ctx = VarContext(n)
    words = [phi_word(_bubble_word(w), n) for w in permutations(range(n))]
    assert phi_image_op(ctx, 0) == _word_average(ctx, words)


def test_symmetrizer_is_built_once_per_context():
    assert op_symmetrizer(VarContext(3)) is op_symmetrizer(CTX3)
    assert op_symmetrizer(CTX2) is not op_symmetrizer(CTX3)


def test_phi_image_builds_the_tau_average_once(monkeypatch):
    daha._phi_symmetrizer.cache_clear()
    built = []
    real = daha._average

    def counting(ctx, gens):
        built.append(ctx)
        return real(ctx, gens)

    monkeypatch.setattr(daha, "_average", counting)
    first = phi_image_op(CTX3, 1)
    assert phi_image_op(CTX3, 1) == first
    assert built == [CTX3]


# Each sandwich against its other grouping, built in the test as the
# reference: composition is associative, so the two must be equal.
@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
def test_generator_shift_element_equals_the_left_grouping(ctx):
    n = ctx.n
    e = op_symmetrizer(ctx)
    for m in range(n + 1):
        middle = evaluate_word(ctx, x_omega_word(n, m))
        reference = e.compose(middle).compose(e)
        lam = (1,) * m + (0,) * (n - m)
        assert e_lambda(ctx, lam, "generators") == reference, f"m={m}"


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
def test_phi_image_equals_the_right_grouping(ctx):
    n = ctx.n
    phi_e = phi_image_op(ctx, 0)
    for m in range(1, n + 1):
        sign, word = phi_word(x_omega_word(n, m), n)
        middle = evaluate_word(ctx, word)
        reference = phi_e.compose(middle.compose(phi_e)) * sign
        assert phi_image_op(ctx, m) == reference, f"m={m}"


# The last two compositions of each sandwich, as (terms of self, terms of
# other).  X^omega_1 = pi s2 s1 has 4 terms and e has 6 at rank 3, so
# e o (X o e) makes 24 + 36 = 60 coefficient products, where (e o X) o e,
# whose inner product has 18 terms, makes 24 + 18 * 6.  For phi_image_op the
# cheap side is the left; X^omega_3 = u^(1,1,1) has one term, a tie, which
# keeps the left grouping.
SANDWICH_SIZES = {
    "e_lambda-m1": (lambda: e_lambda(CTX3, (1, 0, 0), "generators"), [(4, 6), (6, 6)]),
    "e_lambda-m3": (lambda: e_lambda(CTX3, (1, 1, 1), "generators"), [(6, 1), (6, 6)]),
    "phi_image_op-m1": (lambda: phi_image_op(CTX3, 1), [(6, 4), (6, 6)]),
}


@pytest.mark.parametrize("case", sorted(SANDWICH_SIZES))
def test_sandwich_composes_on_the_small_support_side(case, monkeypatch):
    build, expected = SANDWICH_SIZES[case]
    op_symmetrizer(CTX3)  # built before compose is counted
    sizes = []
    real = DiffReflOp.compose

    def counting(self, other):
        sizes.append((len(self.terms), len(other.terms)))
        return real(self, other)

    monkeypatch.setattr(DiffReflOp, "compose", counting)
    build()
    assert sizes[-2:] == expected


def test_composition_is_associative():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def words(n):
        tokens = [f"s{i}" for i in range(1, n)] + [f"y{i}" for i in range(1, n + 1)]
        tokens += ["pi", "pi^-1", "(c + h)", "(y1 - 2*c)"]
        return st.lists(st.sampled_from(tokens), max_size=3).map(" ".join)

    def word_triples(n):
        return st.tuples(st.just(VarContext(n)), words(n), words(n), words(n))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from([2, 3]).flatmap(word_triples))
    def check(case):
        ctx, *texts = case
        a, b, c = (evaluate_word(ctx, parse_word(text, ctx)) for text in texts)
        assert a.compose(b).compose(c) == a.compose(b.compose(c)), texts

    check()


def test_shift_element_rejects_bad_arguments():
    with pytest.raises(ValueError):
        e_lambda(CTX2, (2, 0))
    with pytest.raises(ValueError):
        e_lambda(CTX2, (0, 1))
    with pytest.raises(ValueError):
        e_lambda(CTX2, (1, 0), mode="mystery")


@pytest.mark.parametrize(
    "call",
    [
        lambda: fundamental_coweight(3, -1),
        lambda: fundamental_coweight(3, 4),
        lambda: e_lambda(CTX3, (1, 0), "generators"),
        lambda: e_lambda(CTX3, (1, 0), "closed"),
        lambda: e_lambda(CTX2, (1, 0, 0), "closed"),
        lambda: phi_shift_check(3, -1),
        lambda: phi_shift_check(3, 4),
    ],
    ids=["index-1", "index4", "short-generators", "short-closed", "long", "shift-1", "shift4"],
)
def test_coweight_arguments_out_of_range_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_spherical_collapse_reproduces_symmetric_action():
    op = e_lambda(CTX2, (1, 0), "generators")
    f = LaurentPoly.y(CTX2, 0) + LaurentPoly.y(CTX2, 1)
    collapsed = op.spherical_collapse()
    total = RationalFunction.zero(CTX2)
    for lam, coeff in collapsed.items():
        total = total + coeff * shift_y(f, lam)
    assert total.is_polynomial()
    assert total.num == op.apply(f)


# On symmetric inputs an operator acts through its collapse: the (w, lam)
# coefficient of D o P, P the plain symmetrizer, is collapse[lam] / n!.
# D o (sigma_i - 1) has an empty collapse, since sigma_i fixes symmetric
# polynomials.
@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
def test_composite_with_the_plain_symmetrizer_is_the_collapse(ctx):
    rng = random.Random(20261020)
    n = ctx.n
    tokens = [f"s{i}" for i in range(1, n)] + [f"y{i}" for i in range(1, n + 1)]
    tokens += ["pi", "pi^-1", "(c + h)", "(y1 - 2*c)"]
    plain = op_plain_symmetrizer(ctx)
    scale = Fraction(1, factorial(n))
    empty = 0
    for _ in range(12):
        word = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 3)))
        op = evaluate_word(ctx, parse_word(word, ctx))
        i = rng.randrange(n - 1)
        for d in (op, op.compose(op_sigma(ctx, i) - DiffReflOp.identity(ctx))):
            collapse = d.spherical_collapse()
            expected = {
                (w, lam): coeff * scale for w in permutations(range(n)) for lam, coeff in collapse.items()
            }
            assert d.compose(plain).terms == expected, word
            empty += not collapse
    assert 0 < empty < 24


def test_shift_check_composes_no_symmetrizer_and_no_difference(monkeypatch):
    phi_shift_check(3, 1)  # the cached symmetrizer is built before compose is counted
    calls = []
    real = DiffReflOp.compose

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    def refuse(*args):
        raise AssertionError("the shift check builds an operator difference or composite")

    monkeypatch.setattr(DiffReflOp, "compose", counting)
    monkeypatch.setattr(DiffReflOp, "__sub__", refuse)
    monkeypatch.setattr(daha, "op_plain_symmetrizer", refuse)
    assert phi_shift_check(3, 1) == (True, None)
    assert phi_shift_check(3, 2) == (True, None)
    assert len(calls) <= 32


# With the plain Vandermonde in place of the deformed product D_c the
# identity is false; the witness is the collapsed difference, one term per
# translation of the S_n orbit of the coweight.
@pytest.mark.parametrize("n, m", [(2, 1), (3, 1)])
def test_shift_check_fails_with_the_plain_vandermonde(n, m, monkeypatch):
    monkeypatch.setattr(daha, "delta_poly", lambda ctx: RootData.type_a(ctx.n).vandermonde(ctx))
    ok, witness = phi_shift_check(n, m)
    assert not ok
    translations = re.findall(r"u\^\[([-\d,]+)\]", witness)
    orbit = {",".join(map(str, lam)) for lam in permutations(fundamental_coweight(n, m))}
    assert sorted(translations) == sorted(orbit)


@pytest.mark.parametrize(
    "ctx, left, right",
    [
        (CTX2, "pi s1 (c + y1)", "pi s1 (c^2 - h) y2"),
        (CTX3, "s1 pi s2 (c*y2 + h)", "pi^-1 s2 (c) y3 s1"),
    ],
)
def test_parameter_shift_is_an_algebra_automorphism(ctx, left, right):
    a = evaluate_word(ctx, parse_word(left, ctx))
    b = evaluate_word(ctx, parse_word(right, ctx))
    for m in range(-2, 3):
        assert a.compose(b).subst_c(m) == a.subst_c(m).compose(b.subst_c(m)), f"m={m}"


# sha256 of op_to_text of the rank-3 shift element built with c replaced by
# c - h in every generator from the start.
SHIFTED_TEXT_SHA256 = {
    (1, 0, 0): "080352d49758b4bf16aa7b3096121b84bdb7a2dfd67a2e86b451836edb553968",
    (1, 1, 0): "70039567892518c7e6b27e645fe1daf4f95b1dd7c241819a28c9ca4fadeeba50",
}


@pytest.mark.parametrize("mode", ["closed", "generators"])
@pytest.mark.parametrize("lam", sorted(SHIFTED_TEXT_SHA256))
def test_shifted_shift_element_text_is_pinned(lam, mode):
    op = e_lambda(CTX3, lam, mode).subst_c(c_to_h=-1)
    digest = hashlib.sha256(op_to_text(op).encode()).hexdigest()
    assert digest == SHIFTED_TEXT_SHA256[lam]


def test_parameter_shift_identity_rank_two():
    ok, witness = phi_shift_check(2, 1)
    assert ok and witness is None


def test_operator_text_is_printable():
    text = op_to_text(op_sigma(CTX2, 0))
    assert isinstance(text, str) and text
    assert op_to_text(DiffReflOp.zero(CTX2)) == "0"


def test_scalar_multiplication_distributes():
    sig = op_sigma(CTX2, 0)
    doubled = sig * 2
    assert doubled - sig == sig
    assert (sig * Fraction(1, 2)) * 2 == sig
