"""Shift-operator algebras: abelian closed form, localized classes, splitting."""

import random
from fractions import Fraction

import pytest

from diffalg import zalg

from diffalg.daha import DiffReflOp, op_sigma, op_y
from diffalg.poly import (
    LaurentPoly,
    RationalFunction,
    VarContext,
    parse_poly,
    poly_to_text,
)
from diffalg.weyl import RootData
from diffalg.zalg import (
    AbelianMatter,
    CoweightSplit,
    SphericalClass,
    NoDictionary,
    TagMismatch,
    abelian_embed,
    abelian_product,
    class_commutative,
    class_localized,
    class_to_poly,
    commutative_compose,
    commutative_limit,
    embed_compose,
    epsilon,
    epsilon_pair_total,
    match_conventions,
    r_generator,
    spherical_compose,
    split_coweight,
    verify_factorization,
)

MATTER1 = AbelianMatter(1, [[1]])
MATTER2 = AbelianMatter(2, [[1, 0], [0, 1]])
CTX2 = VarContext(2)


def test_matter_validation():
    with pytest.raises(ValueError):
        AbelianMatter(2, [[1]])
    for rank, characters in ((1.5, [[1]]), (1, [[1.5]]), (2, [[1, Fraction(1, 2)]])):
        with pytest.raises(ValueError, match="must be an integer"):
            AbelianMatter(rank, characters)
    assert AbelianMatter.from_config({"rank": 1, "characters": [[1]]}) == MATTER1


def test_pinned_generator_product():
    a = r_generator(MATTER1, 0, 1, (0,))
    b = r_generator(MATTER1, 1, 0, (0,))
    assert (a * b).text() == "(y1 + c + h) * r0_0^[0]"


# Per term-sum class: a nonzero sum, a sum with other tags that neither adds
# to nor composes with it, and the class's product.
TERM_SUMS = {
    "DiffReflOp": lambda: (op_sigma(CTX2, 0), op_y(VarContext(3), 0), DiffReflOp.compose),
    "AbelianZElt": lambda: (
        r_generator(MATTER1, 0, 1, (0,)),
        r_generator(MATTER1, 0, 0, (0,)),
        abelian_product,
    ),
    "SphericalClass": lambda: (
        class_localized((1, 0), 1, 0, 1),
        class_localized((1, 0), 1, 0, 0),
        spherical_compose,
    ),
}


@pytest.mark.parametrize("name", TERM_SUMS)
def test_tag_bookkeeping_is_enforced(name):
    a, other, product = TERM_SUMS[name]()
    assert not a.is_zero() and (a - a).is_zero()
    assert -(-a) == a
    rebuilt = a + a - a
    assert rebuilt == a and hash(rebuilt) == hash(a) and len({a, rebuilt}) == 1
    assert a != other
    with pytest.raises(TagMismatch):
        a + other
    with pytest.raises(TagMismatch):
        a - other
    with pytest.raises(TagMismatch):
        product(a, other)


def test_operators_over_different_contexts_do_not_mix():
    rank2, rank3 = op_y(CTX2, 0), op_y(VarContext(3), 0)
    with pytest.raises(TagMismatch, match=r"cannot add DiffReflOp with tags \(VarContext\(n=2\),\)"):
        rank2 + rank3
    with pytest.raises(TagMismatch, match="cannot compose DiffReflOp"):
        rank2.compose(rank3)
    with pytest.raises(TagMismatch):
        rank3 @ rank2
    with pytest.raises(TagMismatch, match=r"AbelianMatter\(2, \[\[1, 0\], \[0, 1\]\]\)"):
        r_generator(MATTER1, 0, 0, (0,)) + r_generator(MATTER2, 0, 0, (0, 0))


def test_spherical_class_tags_include_context_and_exactness():
    exact = class_localized((1, 0), 1, 0, 0)
    assert exact.text() == (
        "((y1 - y2 + c - h) / (y1 - y2)) * u^[0,1] + ((y1 - y2 - c + h) / (y1 - y2)) * u^[1,0]"
    )
    inexact = SphericalClass(CTX2, 0, 0, exact.terms, exact=False)
    assert inexact.text() == exact.text() and inexact != exact
    with pytest.raises(TagMismatch):
        exact + inexact
    zero2, zero3 = SphericalClass(CTX2, 0, 0, {}), SphericalClass(VarContext(3), 0, 0, {})
    assert zero2.text() == "0" and zero2 != zero3


def test_degree_is_additive_on_generators():
    a = r_generator(MATTER1, 0, 1, (0,))
    b = r_generator(MATTER1, 1, 0, (0,))
    assert a.degree() == 1 and b.degree() == 1
    assert (a * b).degree() == 2
    mixed = r_generator(MATTER1, 0, 0, (0,)) + r_generator(
        MATTER1, 0, 0, (0,), coeff=LaurentPoly.y(MATTER1.ctx, 0)
    )
    with pytest.raises(ValueError):
        mixed.degree()


def _random_elt(rng, i, j):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        lam = (rng.randint(-2, 2), rng.randint(-2, 2))
        coeff = LaurentPoly.monomial(
            MATTER2.ctx,
            ye=(rng.randint(0, 1), rng.randint(0, 1)),
            ce=rng.randint(0, 1),
            coeff=Fraction(rng.randint(1, 3), rng.randint(1, 2)),
        )
        terms[lam] = terms.get(lam, LaurentPoly.zero(MATTER2.ctx)) + coeff
    return _sum_generators(i, j, terms)


def _sum_generators(i, j, terms):
    out = None
    for lam, coeff in terms.items():
        piece = r_generator(MATTER2, i, j, lam, coeff)
        out = piece if out is None else out + piece
    return out


def test_product_is_associative_random():
    rng = random.Random(1871)
    for _ in range(30):
        tags = [rng.randint(0, 2) for _ in range(4)]
        a = _random_elt(rng, tags[0], tags[1])
        b = _random_elt(rng, tags[1], tags[2])
        c = _random_elt(rng, tags[2], tags[3])
        assert (a * b) * c == a * (b * c)


def test_embed_is_multiplicative():
    rng = random.Random(404)
    a = r_generator(MATTER1, 0, 1, (0,))
    assert {k: poly_to_text(v) for k, v in abelian_embed(a).items()} == {
        (0,): "y1 + c + h"
    }
    for _ in range(20):
        tags = [rng.randint(0, 2) for _ in range(3)]
        f = _random_elt(rng, tags[0], tags[1])
        g = _random_elt(rng, tags[1], tags[2])
        assert abelian_embed(f * g) == embed_compose(abelian_embed(f), abelian_embed(g))


def test_localized_class_pinned_coefficients():
    cls = class_localized((1, 0), LaurentPoly.one(CTX2), 0, 0)
    assert cls.exact
    assert cls.is_equivariant()
    assert {lam: repr(coeff) for lam, coeff in sorted(cls.terms.items())} == {
        (0, 1): "RatFn((y1 - y2 + c - h) / (y1 - y2))",
        (1, 0): "RatFn((y1 - y2 - c + h) / (y1 - y2))",
    }


def test_localized_class_flags_non_minuscule_as_inexact():
    assert class_localized((1, 1, 0), LaurentPoly.one(VarContext(3)), 0, 0).exact
    assert not class_localized((2, 0), LaurentPoly.one(CTX2), 0, 0).exact


def test_localized_class_rejects_unstable_dressing():
    with pytest.raises(ValueError):
        class_localized((1, 1), LaurentPoly.y(CTX2, 0), 0, 0)
    # a symmetric dressing is fine
    sym = LaurentPoly.y(CTX2, 0) + LaurentPoly.y(CTX2, 1)
    assert class_localized((1, 1), sym, 0, 0).is_equivariant()
    # equal entries that are not adjacent: the stabilizer is generated by (1 3)
    ctx3 = VarContext(3)
    with pytest.raises(ValueError, match="dressing is not stabilizer-invariant"):
        class_localized((1, 0, 1), LaurentPoly.y(ctx3, 0), 0, 0)
    sym13 = LaurentPoly.y(ctx3, 0) + LaurentPoly.y(ctx3, 2)
    assert class_localized((1, 0, 1), sym13, 0, 0).is_equivariant()


def test_equivariance_rejects_a_negated_coefficient():
    cls = class_localized((1, 1, 0), LaurentPoly.one(VarContext(3)), 0, 0)
    assert cls.is_equivariant()
    lam, coeff = next(iter(cls.terms.items()))
    assert not SphericalClass(cls.ctx, 0, 0, {**cls.terms, lam: -coeff}).is_equivariant()


def test_spherical_composition_chains_tags():
    a = class_localized((1, 0), LaurentPoly.one(CTX2), 0, 1)
    b = class_localized((1, 0), LaurentPoly.one(CTX2), 1, 2)
    ab = spherical_compose(a, b)
    assert (ab.i, ab.j) == (0, 2)
    assert ab == a * b
    with pytest.raises(TagMismatch):
        spherical_compose(b, b)


def test_commutative_class_pinned_values():
    roots = RootData.type_a(2)
    one = LaurentPoly.one(CTX2)
    raw = class_commutative((0, 0), one, 1, roots, normalization="raw")
    reduced = class_commutative((0, 0), one, 1, roots)
    assert {k: poly_to_text(v) for k, v in raw.items()} == {
        (0, 0): "y1^2 - 2*y1*y2 + y2^2"
    }
    assert {k: poly_to_text(v) for k, v in reduced.items()} == {(0, 0): "y1 - y2"}
    step = class_commutative((1, 0), one, 1, roots)
    assert {k: poly_to_text(v) for k, v in sorted(step.items())} == {
        (0, 1): "-1/2",
        (1, 0): "1/2",
    }


def test_class_to_poly_sums_coefficients_times_x_powers():
    ctx = VarContext(3)
    roots = RootData.type_a(3)
    dressing = LaurentPoly.x(ctx, 0) * LaurentPoly.y(ctx, 1) + LaurentPoly.x(ctx, 2, -1)

    def x(*xe):
        return LaurentPoly.monomial(ctx, xe=xe)

    cancelling = {(1, 0, 0): x(0, 1, 0), (0, 1, 0): x(1, 0, 0) * -1, (0, 0, 1): x(0, 0, 0)}
    for cls in (class_commutative((2, 1, 0), dressing, 2, roots, "raw"), cancelling):
        expected = LaurentPoly.zero(ctx)
        for lam, coeff in cls.items():
            expected = expected + coeff * x(*lam)
        assert class_to_poly(ctx, cls) == expected
    assert class_to_poly(ctx, cancelling) == x(0, 0, 1)


def test_commutative_limit_matches_localized_leading_term():
    roots = RootData.type_a(2)
    one = LaurentPoly.one(CTX2)
    cls = class_localized((1, 0), one, 0, 1)
    raw = class_commutative((1, 0), one, 1, roots, normalization="raw")
    scale = Fraction(roots.order(), roots.stabilizer_size((1, 0)))
    assert scale == 2
    for lam, coeff in cls.terms.items():
        want = raw.get(lam, LaurentPoly.zero(CTX2)) * (-scale)
        assert commutative_limit(coeff) == RationalFunction(want)


def test_split_coweight_balanced_pieces():
    split = split_coweight((3, 1, 0), 2)
    assert split.parts == ((2, 1, 0), (1, 0, 0))
    assert split.check() == []
    assert split_coweight((1, 0), 1).parts == ((1, 0),)
    with pytest.raises(ValueError):
        split_coweight((1, 0), 0)


def test_split_checker_reports_violations():
    bad = CoweightSplit((1, 1), 2, [(1, 0), (0, 1)])
    problems = bad.check()
    assert problems
    assert any("pair (0,1)" in msg for msg in problems)
    off = CoweightSplit((1, 1), 2, [(1, 0), (1, 0)])
    assert any("sum" in msg for msg in off.check())


def test_split_random_examples_validate():
    rng = random.Random(99)
    for _ in range(200):
        length = rng.randint(1, 5)
        lam = tuple(rng.randint(-6, 6) for _ in range(length))
        d = rng.randint(1, 4)
        split = split_coweight(lam, d)
        assert split.check() == []
        assert tuple(sum(col) for col in zip(*split.parts)) == lam


def test_factorization_scales_pinned():
    cases = {
        ((0, 0), 2): (1, Fraction(1)),
        ((1, 0), 1): (1, Fraction(1)),
        ((2, 0), 2): (1, Fraction(2)),
        ((3, 1, 0), 2): (1, Fraction(3)),
    }
    for (lam, d), (sign, scale) in cases.items():
        out = verify_factorization(lam, d)
        assert out["ok"], (lam, d, out)
        assert (out["sign"], out["scale"]) == (sign, scale), (lam, d, out)


def test_compose_of_raw_classes_matches_factorization_internals():
    roots = RootData.type_a(2)
    one = LaurentPoly.one(CTX2)
    a = class_commutative((1, 0), one, 1, roots, normalization="raw")
    prod = commutative_compose(a, a)
    assert (2, 0) in prod and (1, 1) in prod


def test_epsilon_exponent_identity_exhaustive():
    for x in range(-10, 11):
        for i in range(6):
            for j in range(6):
                if abs(j - i) > 5:
                    continue
                assert epsilon(x, i, j) + epsilon(-x, i, j) == epsilon_pair_total(
                    x, i, j
                )


def test_epsilon_pinned_samples():
    assert epsilon(2, 0, 0) == -2
    assert epsilon(-2, 0, 0) == 2
    assert epsilon(0, 1, 0) == 0
    assert epsilon_pair_total(0, 1, 0) == 0


def test_convention_dictionary_rank_two():
    assert match_conventions(2) == {"c_sign": 1, "h_shift": 1, "pair_sign": 1}


def test_convention_search_without_the_shift_finds_no_dictionary(monkeypatch):
    # the only matching substitution at rank 2 has h_shift 1
    monkeypatch.setattr(zalg, "SHIFT_RANGE", 0)
    with pytest.raises(NoDictionary, match="no substitution in the search box matches"):
        match_conventions(2)


def test_commutative_class_rejects_non_integer_coweights():
    # a float entry used to come back as a float coweight key
    f = LaurentPoly.one(CTX2)
    for lam in ((1.5, 0), (Fraction(1, 2), 0), (1.0, 0)):
        with pytest.raises(ValueError):
            class_commutative(lam, f, 1, RootData.type_a(2))
