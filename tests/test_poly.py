"""Exact polynomial layer: arithmetic, text round trips, linear-form division."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod
from operator import mul

import pytest

from diffalg import poly
from diffalg.poly import (
    LaurentPoly,
    LinearForm,
    ParseError,
    RationalFunction,
    VarContext,
    act,
    act_perm,
    exact_divide,
    monomial_key,
    parse_poly,
    poly_to_text,
    shift_y,
    subst_params,
    taylor_pair,
    term_degree,
)
from diffalg.daha import DiffReflOp
from diffalg.ideals import GradedSlice, IdealSpec, PlaneSubset, Window, membership, rref, span_dimension
from diffalg.springer import ChainModel, EquivaluedModule
from diffalg.weyl import RootData
from diffalg.zalg import AbelianMatter, class_localized, r_generator, split_coweight

CTX2 = VarContext(2)
CTX3 = VarContext(3)


def x(i, power=1):
    return LaurentPoly.x(CTX2, i, power)


def y(i, power=1):
    return LaurentPoly.y(CTX2, i, power)


def test_context_rejects_empty_variable_set():
    with pytest.raises(ValueError):
        VarContext(0)


def test_context_and_variable_index_must_be_integers():
    # VarContext(2.5) used to construct, and LaurentPoly.one of it raised TypeError;
    # index 1.0 passed the range check and raised TypeError at a list index
    for make in (
        lambda: VarContext(2.5),
        lambda: VarContext(Fraction(2)),
        lambda: LaurentPoly.y(CTX2, 1.0),
        lambda: LaurentPoly.x(CTX2, Fraction(0)),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            make()


def test_coefficients_stay_exact():
    f = LaurentPoly.const(CTX2, Fraction(1, 3)) + LaurentPoly.const(CTX2, Fraction(1, 6))
    assert f.constant_value() == Fraction(1, 2)
    g = f * 2
    assert g.constant_value() == 1
    assert (g - 1).is_constant()
    assert not (g - 1)


def test_float_coefficients_are_rejected():
    p = x(0) + y(1)
    key = monomial_key((0, 0), (0, 0))
    rf = RationalFunction(p, [LinearForm(0, 1)])
    for make in (
        lambda: LaurentPoly.const(CTX2, 0.5),
        lambda: LaurentPoly(CTX2, {key: 0.5}),
        lambda: LaurentPoly.monomial(CTX2, ye=(1, 0), coeff=0.5),
        lambda: p * 0.5,
        lambda: p + 0.5,
        lambda: rf * 0.5,
        lambda: DiffReflOp.identity(CTX2) * 0.5,
        lambda: poly.scalar_div(0.5, 2),
        lambda: poly.scalar_div(1, 2.0),
    ):
        with pytest.raises(TypeError):
            make()


def test_substitutions_reject_non_integer_arguments():
    # each of these used to store a float or non-integral shift in a coefficient or form
    f = x(0) * y(0) * LaurentPoly.c(CTX2) - y(1) + 3
    rf = RationalFunction(f, [LinearForm(0, 1)])
    for make in (
        lambda: shift_y(f, (0.5, 0)),
        lambda: shift_y(f, (Fraction(1, 2), 0)),
        lambda: act(((1, 0), (0.25, 0)), f),
        lambda: subst_params(f, c_to_h=0.5),
        lambda: subst_params(f, c_sign=1.0),
        lambda: subst_params(f, h_sign=Fraction(-1)),
        lambda: rf.act(((0, 1), (0.5, 0))),
        lambda: rf.subst_c(c_to_h=Fraction(1, 2)),
        lambda: LinearForm(0, 1, 0.5),
        lambda: LinearForm(0, 1, 0, Fraction(1, 2)),
        lambda: LinearForm(0.0, 1),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            make()


def test_shifts_need_one_entry_per_variable():
    # a short shift used to move only the first variables, a long one dropped its tail
    f = y(0) + y(1)
    for lam in ((1,), (0, 1, 5), ()):
        with pytest.raises(ValueError):
            shift_y(f, lam)
        with pytest.raises(ValueError):
            act(((0, 1), lam), f)
    assert shift_y(f, (0, 0)) == f


def test_monomial_validation():
    with pytest.raises(ValueError):
        LaurentPoly.monomial(CTX2, ye=(-1, 0))
    with pytest.raises(ValueError):
        LaurentPoly.monomial(CTX2, xe=(1, 0, 0))


def test_monomial_rejects_negative_parameter_exponents():
    # c^-1*h^-2 would print as text that parse_poly refuses
    for ce, he in ((-1, -2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            LaurentPoly.monomial(CTX2, ce=ce, he=he)
    f = LaurentPoly.monomial(CTX2, xe=(-1, 0), ce=1, he=2)
    assert parse_poly(poly_to_text(f), CTX2) == f


def test_monomial_rejects_non_integer_exponents():
    # each would print as text that parse_poly refuses, e.g. x1^1.5 or c^0.5
    for make in (
        lambda: LaurentPoly.monomial(VarContext(1), xe=(1.5,)),
        lambda: LaurentPoly.x(CTX2, 0, Fraction(1, 2)),
        lambda: LaurentPoly.monomial(CTX2, ce=0.5),
        lambda: LaurentPoly.monomial(CTX2, ye=(0, 1.0)),
        lambda: LaurentPoly.monomial(CTX2, he=Fraction(2)),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            make()


def test_exponents_outside_their_packed_field_raise():
    ctx1 = VarContext(1)
    # the extreme exponents still fit and round-trip through the text form
    edge = LaurentPoly.monomial(CTX2, xe=(-16384, 16383), ye=(32767, 0), ce=32767, he=32767)
    assert parse_poly(poly_to_text(edge), CTX2) == edge
    for make in (
        lambda: LaurentPoly.monomial(CTX2, xe=(-16385, 0)),
        lambda: LaurentPoly.monomial(CTX2, xe=(0, 16384)),
        lambda: LaurentPoly.monomial(CTX2, ye=(0, 32768)),
        lambda: LaurentPoly.monomial(CTX2, he=32768),
        # products that push a field over the top or, for x, below the bottom
        lambda: y(0, 20000) * y(0, 20000),
        lambda: LaurentPoly.x(ctx1, 0, -10000) * LaurentPoly.x(ctx1, 0, -10000),
        lambda: LaurentPoly.monomial(CTX2, ce=20000) * LaurentPoly.monomial(CTX2, ce=20000),
        lambda: x(1, 9000) ** 2,
        lambda: LaurentPoly.x(ctx1, 0, -9000) ** 2,
        lambda: shift_y(LaurentPoly.monomial(CTX2, ye=(1, 0), he=32767), (1, 0)),
        # h reaches 32767 after the y1 expansion and leaves its field only in the y2 one
        lambda: shift_y(LaurentPoly.monomial(CTX2, ye=(1, 1), he=32766), (1, 1)),
        # clearing x1^-16384 moves x2^16383 to x2^32767 along the pair (0, 1)
        lambda: taylor_pair(x(0, -16384) + x(1, 16383), (0, 1), 1),
    ):
        with pytest.raises(ValueError, match="outside its packed field"):
            make()


def test_generators_reject_out_of_range_index():
    for i in (-1, 2):
        with pytest.raises(ValueError):
            LaurentPoly.x(CTX2, i)
        with pytest.raises(ValueError):
            LaurentPoly.y(CTX2, i)
    assert poly_to_text(LaurentPoly.x(CTX2, 1, -2)) == "x2^-2"


def test_linear_poly_is_the_sum_of_its_monomials():
    c = LaurentPoly.c(CTX3)
    h = LaurentPoly.h(CTX3)
    ys = [LaurentPoly.y(CTX3, i) for i in range(3)]
    cases = [
        ((2, 0, -3), 0, 0),
        ((0, 0, 0), -1, 1),
        ((1, -1, 0), 4, -2),
        ((0, Fraction(1, 2), 0), Fraction(-3, 4), 0),
        ((0, 0, 0), 0, 0),
    ]
    for coeffs, a, b in cases:
        want = sum((y_i * k for y_i, k in zip(ys, coeffs)), h * a + c * b)
        assert poly.linear_poly(CTX3, coeffs, h=a, c=b) == want
    assert not poly.linear_poly(CTX3, (0, 0, 0))
    with pytest.raises(ValueError):
        poly.linear_poly(CTX3, (1, -1))


def test_zero_test_is_truthiness():
    f = x(0) - x(0)
    assert not f
    assert f == LaurentPoly.zero(CTX2)
    assert x(0) - x(1)


def test_laurent_exponents_multiply_out():
    f = LaurentPoly.x(CTX2, 0, -2) * x(0, 5)
    assert f == x(0, 3)
    assert (LaurentPoly.x(CTX2, 0, -1) * x(0)).is_constant()


def test_mixed_contexts_are_rejected():
    a = LaurentPoly.x(VarContext(2), 0)
    b = LaurentPoly.x(VarContext(3), 2)
    for combine in (lambda: a * b, lambda: b * a, lambda: a + b, lambda: a - b):
        with pytest.raises(ValueError, match="context mismatch"):
            combine()
    # equal contexts built separately still combine
    assert a * LaurentPoly.x(VarContext(2), 1) == x(0) * x(1)


def test_sum_adds_a_family_in_one_pass():
    family = [x(0), 2 * y(1), -x(0), LaurentPoly.c(CTX2), x(0)]
    assert LaurentPoly.sum(CTX2, family) == x(0) + 2 * y(1) + LaurentPoly.c(CTX2)
    assert LaurentPoly.sum(CTX2, []) == LaurentPoly.zero(CTX2)
    assert RationalFunction.sum(CTX2, []) == RationalFunction.zero(CTX2)
    with pytest.raises(ValueError, match="context mismatch"):
        LaurentPoly.sum(CTX2, [x(0), LaurentPoly.x(VarContext(3), 2)])
    with pytest.raises(ValueError, match="context mismatch"):
        RationalFunction.sum(CTX2, [RationalFunction.one(CTX3)])


def test_sum_by_key_sums_each_group_once_by_its_class():
    f = RationalFunction(x(0), [LinearForm(0, 1)])
    p = y(0)
    out = poly.sum_by_key([("a", p), ("b", f), ("a", -p), ("c", p), ("b", f)])
    assert list(out) == ["b", "c"]
    assert out["b"] == f * 2
    assert out["c"] is p  # a group of one comes back unchanged
    pairs = [("k", (1, 2)), ("k", (3, 4))]
    assert poly.sum_by_key(pairs, lambda a, b: a * x(0) + b) == {"k": 4 * x(0) + 6}


def test_binomial_power():
    f = (x(0) - x(1)) ** 2
    assert f == x(0, 2) - 2 * x(0) * x(1) + x(1, 2)
    assert (x(0) ** 0) == LaurentPoly.one(CTX2)


def test_text_form_is_stable():
    f = y(0) * x(1) - LaurentPoly.c(CTX2) * 3 + LaurentPoly.h(CTX2)
    assert poly_to_text(f) == "y1*x2 - 3*c + h"
    assert poly_to_text(LaurentPoly.zero(CTX2)) == "0"


def test_parse_round_trip_random():
    rng = random.Random(20240814)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = monomial_key(
                (rng.randint(-2, 3), rng.randint(-2, 3)),
                (rng.randint(0, 3), rng.randint(0, 3)),
                rng.randint(0, 2),
                rng.randint(0, 2),
            )
            terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = LaurentPoly(CTX2, terms)
        assert parse_poly(poly_to_text(f), CTX2) == f


@pytest.mark.parametrize("text, position", [("y\u0661", 2), ("y1^\u00b2", 4)], ids=["arabic-indic", "superscript"])
def test_parse_counts_only_ascii_digits(text, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, CTX2)
    assert info.value.position == position


def test_parse_reports_error_position():
    with pytest.raises(ParseError) as info:
        parse_poly("y1 +", CTX2)
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("y9", CTX2)


def test_parse_products_and_fractions():
    assert parse_poly("x1^2 - 2*x1*x2 + x2^2", CTX2) == (x(0) - x(1)) ** 2
    assert parse_poly("1/2*x1 - 1/2*x2", CTX2) * 2 == x(0) - x(1)
    assert parse_poly("(y1 - y2)*x1^-1", CTX2) == (y(0) - y(1)) * LaurentPoly.x(CTX2, 0, -1)


def test_term_keys_build_monomials_and_read_degrees():
    key = monomial_key((1, -2), (2, 0))
    assert LaurentPoly(CTX2, {key: 1}) == LaurentPoly.monomial(CTX2, xe=(1, -2), ye=(2, 0))
    f = parse_poly("x1^-3*y1^2*y2*c*h^2 + x2", CTX2)
    assert sorted(term_degree(CTX2, key) for key in f.terms) == [0, 6]


def test_permutation_action_moves_variables():
    f = y(0, 2) * x(1)
    g = act_perm((1, 0), f)
    assert g == y(1, 2) * x(0)
    assert act_perm((0, 1), f) == f


def test_shift_y_substitutes_h_multiples():
    h = LaurentPoly.h(CTX2)
    assert shift_y(y(0), (1, 0)) == y(0) + h
    assert shift_y(y(0, 2), (2, 0)) == y(0, 2) + 4 * y(0) * h + 4 * h * h
    assert shift_y(x(0), (3, 3)) == x(0)


def test_extended_action_composes():
    f = y(0, 2) * x(1) + y(1) * LaurentPoly.c(CTX2)
    g1 = ((1, 0), (2, -1))
    g2 = ((0, 1), (1, 1))
    w1, l1 = g1
    w2, l2 = g2
    perm_l2 = [0, 0]
    for j in (0, 1):
        perm_l2[w1[j]] = l2[j]
    g12 = (tuple(w1[w2[j]] for j in (0, 1)), tuple(a + b for a, b in zip(l1, perm_l2)))
    assert act(g1, act(g2, f)) == act(g12, f)


def test_parameter_substitutions():
    f = LaurentPoly.c(CTX2) * y(0) + LaurentPoly.h(CTX2)
    g = subst_params(f, c_sign=-1, c_to_h=1)
    c = LaurentPoly.c(CTX2)
    h = LaurentPoly.h(CTX2)
    assert g == (-c + h) * y(0) + h


def test_isotypic_projection():
    project = RootData.type_a(2).project
    f = x(0)
    sym = project(f, 0)
    alt = project(f, 1)
    assert sym == (x(0) + x(1)) * Fraction(1, 2)
    assert alt == (x(0) - x(1)) * Fraction(1, 2)
    assert project(alt, 1) == alt
    assert not project(alt, 0)


def test_linear_form_canonical_order():
    form, sign = LinearForm.make(1, 0, 0, 0)
    assert (form, sign) == (LinearForm(0, 1, 0, 0), -1)
    form2, sign2 = LinearForm.make(0, 1, 2, 1)
    assert sign2 == 1
    c = LaurentPoly.c(CTX2)
    h = LaurentPoly.h(CTX2)
    assert form2.to_poly(CTX2) == y(0) - y(1) + 2 * h + c


def test_exact_divide_by_linear_form():
    form = LinearForm(0, 1, 0, 0)
    g = y(0) * x(1) + LaurentPoly.c(CTX2)
    product = form.to_poly(CTX2) * g
    assert exact_divide(product, form) == g
    assert exact_divide(y(0) * y(1), form) is None
    assert exact_divide(x(0), form) is None


def _random_poly_strategy(st, ctx, max_terms=6):
    """Polynomials with x exponents of either sign and non-integral coefficients."""
    n = ctx.n
    key = st.tuples(
        st.tuples(*[st.integers(-2, 2)] * n),
        st.tuples(*[st.integers(0, 2)] * n),
        st.integers(0, 1),
        st.integers(0, 1),
    )
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.dictionaries(key, coeff, max_size=max_terms).map(
        lambda terms: LaurentPoly(ctx, {monomial_key(*key): c for key, c in terms.items()})
    )


def _form_strategy(st, ctx):
    """Forms y_r - y_s + a*h + b*c with a and b nonzero, drawn with r < s and no filter."""
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
    pair = st.integers(0, ctx.n - 2).flatmap(lambda r: st.tuples(st.just(r), st.integers(r + 1, ctx.n - 1)))
    return st.builds(lambda rs, a, b: LinearForm(rs[0], rs[1], a, b), pair, nonzero, nonzero)


def _exponent_items(f):
    """(exponents, coefficient) pairs of f, the exponents unpacked from each key."""
    return [(poly.key_exponents(f.ctx, key), coeff) for key, coeff in f.terms.items()]


def _hypothesis_settings(hypothesis):
    return hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)


def test_exact_divide_recovers_random_cofactors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(_random_poly_strategy(st, CTX3), _form_strategy(st, CTX3))
    def check(g, form):
        assert exact_divide(form.to_poly(CTX3) * g, form) == g

    check()


def _sympy_ring(sympy, n=3):
    """Symbols x1..xn, y1..yn, c, h and a converter from LaurentPoly on VarContext(n)."""
    xs = sympy.symbols(f"x1:{n + 1}")
    ys = sympy.symbols(f"y1:{n + 1}")
    c, h = sympy.symbols("c h")

    def to_sympy(f):
        return sympy.Add(
            *[
                sympy.Rational(coeff.numerator, coeff.denominator)
                * sympy.Mul(*[v**e for v, e in zip(xs + ys, xe + ye)])
                * c**ce
                * h**he
                for (xe, ye, ce, he), coeff in _exponent_items(f)
            ]
        )

    return xs, ys, c, h, to_sympy


def test_exact_divide_agrees_with_sympy_remainder():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    xs, ys, c, h, to_sympy = _sympy_ring(sympy)

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(
        _random_poly_strategy(st, CTX3),
        _random_poly_strategy(st, CTX3, max_terms=2),
        _form_strategy(st, CTX3),
    )
    def check(g, noise, form):
        # form * g is a hit; adding a small noise term usually makes a miss
        f = form.to_poly(CTX3) * g + noise
        divisor = ys[form.r] - ys[form.s] + form.a * h + form.b * c
        remainder = sympy.rem(to_sympy(f), divisor, ys[form.r])
        q = exact_divide(f, form)
        if q is None:
            assert remainder != 0
        else:
            assert remainder == 0
            assert q * form.to_poly(CTX3) == f

    check()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_act_and_subst_params_agree_with_sympy(n):
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    ctx = VarContext(n)
    xs, ys, c, h, to_sympy = _sympy_ring(sympy, n)
    signs = st.integers(-1, 1)

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(
        _random_poly_strategy(st, ctx),
        st.permutations(range(n)).map(tuple),
        st.tuples(*[st.integers(-2, 2)] * n),
        st.tuples(signs, st.integers(-2, 2), signs),
    )
    def check(f, w, lam, params):
        f_sym = to_sympy(f)
        images = [xs[j] for j in w] + [ys[j] for j in w]
        moved = f_sym.subs(dict(zip(xs + ys, images)), simultaneous=True)
        shifted = moved.subs({y_i: y_i + step * h for y_i, step in zip(ys, lam)}, simultaneous=True)
        assert sympy.expand(to_sympy(act((w, lam), f)) - shifted) == 0
        c_sign, c_to_h, h_sign = params
        substituted = f_sym.subs({c: c_sign * c + c_to_h * h, h: h_sign * h}, simultaneous=True)
        assert sympy.expand(to_sympy(subst_params(f, c_sign, c_to_h, h_sign)) - substituted) == 0
        identity = tuple(range(n))
        assert act((identity, (0,) * n), f) is f
        assert act_perm(identity, f) is f and shift_y(f, (0,) * n) is f

    check()


def test_product_agrees_with_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    to_sympy = _sympy_ring(sympy)[-1]

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(_random_poly_strategy(st, CTX3), _random_poly_strategy(st, CTX3))
    def check(f, g):
        assert sympy.expand(to_sympy(f * g) - to_sympy(f) * to_sympy(g)) == 0

    check()


# Coefficients at and just past the 16-, 32- and 64-bit lane bounds of _mul_dense.
LANE_EDGES = [1, 2, 2**15 - 1, 2**15, 2**15 + 1, 2**31 - 1, 2**31, 2**31 + 1, 2**63 - 1, 2**63, 2**63 + 1]


def _box_terms(ctx, slots, base, radices, coeffs):
    """The term dict with coefficient coeffs[i] at the i-th point of a box.

    The box moves the exponents at ``slots`` (indices into x1..xn, y1..yn,
    c, h) by 0..radix-1 from ``base``, the first slot fastest.
    """
    n = ctx.n
    terms = {}
    for i, coeff in enumerate(coeffs):
        exps = list(base)
        for slot, radix in zip(slots, radices):
            i, digit = divmod(i, radix)
            exps[slot] += digit
        terms[monomial_key(exps[:n], exps[n : 2 * n], exps[2 * n], exps[2 * n + 1])] = coeff
    return terms


def _lane_bound(a, b):
    """The bound _mul_dense puts on every lane of the product of the int term dicts a and b."""
    return sum(abs(c) for c in a.values()) * max(abs(c) for c in b.values())


def _nonzero(terms):
    return {key: coeff for key, coeff in terms.items() if coeff}


def test_dense_product_agrees_with_the_pair_loop(monkeypatch):
    """Both product routes on term dicts that fill their exponent box at ranks
    1-3: x exponents below 0, coefficients at and just past the lane bounds, a
    twisted square whose odd lanes cancel to 0, and plain squares; and
    __mul__ on them with Fraction contents, through the dense route."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(poly, "_DENSE_PAIRS", 0)  # __mul__ tries the dense route on every product

    @st.composite
    def operands(draw):
        n = draw(st.integers(1, 3))
        ctx = VarContext(n)
        slots = draw(st.lists(st.integers(0, 2 * n + 1), min_size=2, max_size=3, unique=True))

        def box():
            base = [draw(st.integers(-6, 2)) for _ in range(n)] + [draw(st.integers(0, 3)) for _ in range(n + 2)]
            radices = [draw(st.integers(3, 4)) for _ in slots]
            # sizes up to a lane edge, so that every lane width and the decline are reached
            coeff = st.builds(mul, st.integers(1, draw(st.sampled_from(LANE_EDGES))), st.sampled_from([1, -1]))
            coeffs = draw(st.lists(coeff, min_size=prod(radices), max_size=prod(radices)))
            return base, radices, coeffs

        base, radices, coeffs = box()
        a = _box_terms(ctx, slots, base, radices, coeffs)
        kind = draw(st.sampled_from(["other", "square", "twisted square"]))
        if kind == "other":
            b = _box_terms(ctx, slots, *box())
        elif kind == "square":
            b = a
        else:  # a(..., -t, ...) in the first slot's variable t: the product is even in t
            b = _box_terms(ctx, slots, base, radices, [c * (-1) ** (i % radices[0]) for i, c in enumerate(coeffs)])
        contents = st.sampled_from([1, Fraction(1, 6), Fraction(5, 3)])
        return ctx, a, b, kind, draw(contents), draw(contents)

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(operands())
    def check(case):
        ctx, a, b, kind, content_a, content_b = case
        pairs = poly._mul_pairs(ctx.n, a, b)
        dense = poly._mul_dense(ctx.n, a, b)
        # a box of radix 3 or 4 in two or more exponents is dense enough; only the lanes can decline
        assert (dense is None) == (_lane_bound(a, b) >= 2**63)
        if dense is not None:
            assert dense == _nonzero(pairs)
        if kind == "twisted square":
            assert len(_nonzero(pairs)) < len(pairs)
        f, g = LaurentPoly(ctx, a) * content_a, LaurentPoly(ctx, b) * content_b
        product, expected = f * g, LaurentPoly(ctx, pairs) * (content_a * content_b)
        # the dense route returns its terms in slot order; no result may depend on it
        assert product == expected and hash(product) == hash(expected)
        assert poly_to_text(product) == poly_to_text(expected)

    check()


@pytest.mark.parametrize(
    "length, a, b, width",
    [
        (7, 31, 151, 16),  # the middle lane is 2^15 - 1, the largest a 16-bit lane holds
        (8, 2**6, 2**6, 32),  # 2^15
        (4, 2**29, 1, 64),  # 2^31
        (4, 2**61 - 1, 1, 64),  # 2^63 - 4
        (4, 2**61, 1, None),  # 2^63: the pair loop runs
    ],
)
def test_dense_lanes_hold_the_bound_exactly(length, a, b, width, monkeypatch):
    # a (1 + t + ... + t^(length-1)) times b (1 + 1/t + ... + 1/t^(length-1)), t = x1:
    # the middle lane is length * a * b, the bound itself
    ctx = VarContext(1)
    f = {monomial_key((e,), (0,)): a for e in range(length)}
    g = {monomial_key((-e,), (0,)): b for e in range(length)}
    assert _lane_bound(f, g) == length * a * b
    widths = []

    class Spy(dict):  # records the width the dense route reads its lane format for
        def __getitem__(self, width):
            widths.append(width)
            return super().__getitem__(width)

    monkeypatch.setattr(poly, "_LANE_FORMATS", Spy(poly._LANE_FORMATS))
    dense = poly._mul_dense(1, f, g)
    expected = poly._mul_pairs(1, f, g)
    assert max(expected.values()) == length * a * b
    assert widths == ([width] if width else [])
    assert dense is None if width is None else dense == expected


def test_dense_product_past_a_field_raises():
    ctx = VarContext(2)
    box = LaurentPoly(ctx, _box_terms(ctx, [0, 1], [0] * 6, [6, 6], [1] * 36))  # x1^0..5 x2^0..5
    assert poly._mul_dense(2, box._ints, box._ints) is not None  # the box in range is dense
    for shift in (LaurentPoly.y(ctx, 0, 20000), LaurentPoly.x(ctx, 1, -10000), LaurentPoly.h(ctx) ** 20000):
        f = box * shift
        assert len(f) * len(f) >= poly._DENSE_PAIRS
        for make in (lambda: poly._mul_dense(2, f._ints, f._ints), lambda: f * f):
            with pytest.raises(ValueError, match="outside its packed field"):
                make()


def test_len_counts_terms_and_builds_no_view():
    f = (x(0) * Fraction(1, 2) + y(1) * Fraction(3, 2) - 7) * Fraction(2, 5)
    assert f._terms is None
    assert len(f) == 3
    assert f._terms is None
    assert len(LaurentPoly.zero(CTX2)) == 0


def test_taylor_pair_agrees_with_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    xs, ys, c, h, to_sympy = _sympy_ring(sympy)
    u, v = sympy.symbols("u v")
    reversed_pair = LaurentPoly(
        CTX3,
        {
            monomial_key((-2, 1, 0), (2, 1, 0), 1, 0): Fraction(3, 2),
            monomial_key((1, -1, 2), (0, 2, 1)): -1,
            monomial_key((0, 3, -1), (1, 1, 0), 0, 1): 2,
        },
    )

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(
        _random_poly_strategy(st, CTX3),
        st.permutations(range(3)).map(lambda p: tuple(p[:2])),
        st.integers(1, 5),
    )
    @hypothesis.example(reversed_pair, (1, 0), 5)
    def check(f, pair, order):
        i, j = pair
        # taylor_pair first clears negative powers of x_i by a unit
        clear = max([0] + [-xe[i] for (xe, _, _, _), _ in _exponent_items(f)])
        cleared = sympy.expand(to_sympy(f) * xs[i] ** clear)
        moved = sympy.expand(cleared.subs({xs[i]: xs[j] + u, ys[i]: ys[j] + v}, simultaneous=True))
        coeffs = taylor_pair(f, pair, order)
        assert set(coeffs) == {(a, b) for a in range(order) for b in range(order - a)}
        for (a, b), value in coeffs.items():
            assert sympy.expand(to_sympy(value) - moved.coeff(u, a).coeff(v, b)) == 0

    check()


def test_taylor_pair_lanes_hold_large_cancelling_sums():
    """Inputs that fill the packed lanes: large and Fraction coefficients, high
    x_i/y_i exponents, products whose low lanes cancel to exactly 0, and the
    same products with one coefficient moved by +-1."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    xs, ys, c, h, to_sympy = _sympy_ring(sympy, n=2)
    big = st.integers(2**64, 2**100)
    coeff = st.one_of(
        st.builds(lambda m, sign: sign * m, big, st.sampled_from([1, -1])),
        st.builds(Fraction, big, st.integers(2, 2**20)),
    )
    key = st.tuples(
        st.tuples(st.integers(-3, 30), st.integers(-3, 30)),
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        st.integers(0, 1),
        st.integers(0, 1),
    )
    cofactor = st.dictionaries(key, coeff, min_size=1, max_size=3).map(
        lambda terms: LaurentPoly(CTX2, {monomial_key(*key): c for key, c in terms.items()})
    )
    roots = RootData.type_a(2)
    # at order 4, the one term c x1^30 fills lane (3, 0) to exactly the width's bound
    lone = LaurentPoly(CTX2, {monomial_key((30, 0), (0, 0)): 2**100})

    def oracle(f, pair, order):
        # (1 / a! b!) d^a/dx_i^a d^b/dy_i^b of x_i^clear f at x_i = x_j, y_i = y_j,
        # differentiated as a polynomial after x_j^3 clears the x_j exponents
        i, j = pair
        clear = max([0] + [-xe[i] for (xe, _, _, _), _ in _exponent_items(f)])
        cleared = sympy.Poly(to_sympy(f) * xs[i] ** clear * xs[j] ** 3, *xs, *ys, c, h)
        diagonal = {xs[i]: xs[j], ys[i]: ys[j]}
        return {
            (a, b): cleared.diff((xs[i], a), (ys[i], b)).as_expr().xreplace(diagonal)
            / (xs[j] ** 3 * factorial(a) * factorial(b))
            for a in range(order)
            for b in range(order - a)
        }

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(
        cofactor,
        st.sampled_from([(0, 1), (1, 0)]),
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(1, 5),
        st.sampled_from([1, -1]),
    )
    @hypothesis.example(lone, (0, 1), 0, 0, 4, 1)
    @hypothesis.example(lone, (0, 1), 3, 2, 5, -1)
    def check(g, pair, a, b, order, sign):
        i, j = pair
        f = (x(i) - x(j)) ** a * (y(i) - y(j)) ** b * g
        coeffs = taylor_pair(f, pair, order)
        for ab, expected in oracle(f, pair, order).items():
            assert sympy.expand(to_sympy(coeffs[ab]) - expected) == 0, ab
        # (x_i - x_j)^a (y_i - y_j)^b vanishes to order a + b on the diagonal
        assert not any(value for (ka, kb), value in coeffs.items() if ka + kb < a + b)
        verdict = membership(f, IdealSpec(roots, order))[0]
        assert verdict == (not any(coeffs.values()))
        assert verdict or order > a + b
        # a term whose x_i and y_i exponents clear to 0 adds to lane (0, 0) alone
        clear = max([0] + [-xe[i] for (xe, _, _, _), _ in _exponent_items(f)])
        bump = LaurentPoly.x(CTX2, i, -clear) * x(j, 7) * y(j, 5)
        moved = taylor_pair(f + bump * sign, pair, order)
        assert moved[0, 0] - coeffs[0, 0] == x(j, 7) * y(j, 5) * sign
        assert all(moved[ab] == coeffs[ab] for ab in coeffs if ab != (0, 0))
        if a + b:
            ok, witness = membership(f + bump * sign, IdealSpec(roots, order))
            assert not ok and witness["order"] == (0, 0)

    check()


def test_act_matrix_agrees_with_termwise_substitution():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    contexts = [VarContext(1), CTX2, CTX3]
    groups = [[RootData.type_a(1)], [RootData.type_a(2), RootData.b2()], [RootData.type_a(3)]]
    rings = [_sympy_ring(sympy, ctx.n) for ctx in contexts]

    def substituted(m, f, ring):
        # each term on its own: x^e -> x^(m e), y_j -> sum_i m[i][j] y_i
        xs, ys, c, h, _ = ring
        total = 0
        for (xe, ye, ce, he), coeff in _exponent_items(f):
            image = [sum(a * e for a, e in zip(row, xe)) for row in m]
            monomial_key(image, [0] * len(xe))  # an image outside its field raises here
            columns = [sum(row[j] * yi for row, yi in zip(m, ys)) for j in range(len(ye))]
            total += (
                sympy.Rational(coeff.numerator, coeff.denominator)
                * sympy.Mul(*[xi**e for xi, e in zip(xs, image)])
                * sympy.Mul(*[column**e for column, e in zip(columns, ye)])
                * c**ce
                * h**he
            )
        return total

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(st.tuples(*[_random_poly_strategy(st, ctx) for ctx in contexts]))
    def check(polys):
        for f, ring, group in zip(polys, rings, groups):
            for m in (m for roots in group for m in roots.elements):
                assert sympy.expand(ring[-1](poly.act_matrix(m, f)) - substituted(m, f, ring)) == 0

    check()
    # the extreme x exponents: a permutation keeps them, a sign flip may leave the field
    edge = LaurentPoly.monomial(CTX2, xe=(16383, -16384), ye=(1, 0), he=1)
    raised = []
    for m in RootData.type_a(2).elements + RootData.b2().elements:
        try:
            expected = substituted(m, edge, rings[1])
        except ValueError as error:
            raised.append(m)
            with pytest.raises(ValueError, match=re.escape(str(error))):
                poly.act_matrix(m, edge)
        else:
            assert sympy.expand(rings[1][-1](poly.act_matrix(m, edge)) - expected) == 0
    assert raised and not set(raised) & set(RootData.type_a(2).elements)


def test_span_dimension_agrees_with_sympy_rank():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    matrix = st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=6)
    )

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(matrix)
    def check(rows):
        rows = [[Fraction(value) for value in row] for row in rows]
        assert span_dimension([dict(enumerate(row)) for row in rows]) == sympy.Matrix(rows).rank()

    check()


def _dense_rref(rows, width):
    """Plain Gauss-Jordan over Fraction on dense rows: (nonzero rows, pivot column -> row)."""
    rows = [[Fraction(row.get(col, 0)) for col in range(width)] for row in rows]
    pivots, at = {}, 0
    for col in range(width):
        pivot = next((r for r in range(at, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[at], rows[pivot] = rows[pivot], rows[at]
        rows[at] = [value / rows[at][col] for value in rows[at]]
        for r in range(len(rows)):
            if r != at and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[at])]
        pivots[col] = at
        at += 1
    return rows[:at], pivots


def test_sparse_rref_agrees_with_dense_gauss_jordan():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(
        st.just(0),
        st.integers(-5, 5),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    )

    def sparse_rows(width):
        row = st.dictionaries(st.integers(0, width - 1), entry, max_size=6)
        # repeat some rows to get duplicates and dependent rows
        return st.lists(row, max_size=12).flatmap(
            lambda rows: st.lists(st.sampled_from(rows or [{}]), max_size=4).map(lambda extra: rows + extra)
        )

    matrix = st.integers(1, 30).flatmap(lambda width: st.tuples(st.just(width), sparse_rows(width)))

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(matrix)
    def check(case):
        width, rows = case
        before = [dict(row) for row in rows]
        reduced, pivots = rref(rows)
        assert rows == before
        dense, dense_pivots = _dense_rref(rows, width)
        assert pivots == dense_pivots
        assert reduced == [{col: value for col, value in enumerate(row) if value} for row in dense]
        for row in reduced:
            # canonical nonzero scalars: int when integral, else Fraction
            assert all(value and (type(value) is int or value.denominator > 1) for value in row.values())

    check()


def _is_canonical(scalar):
    return type(scalar) is int or (type(scalar) is Fraction and scalar.denominator != 1)


def test_integral_coefficients_are_stored_as_int():
    key = monomial_key((1, -1), (0, 2), he=1)
    a = LaurentPoly(CTX2, {key: Fraction(3)})
    b = LaurentPoly(CTX2, {key: 3})
    assert a == b and hash(a) == hash(b)
    assert type(a.terms[key]) is int
    assert type(LaurentPoly(CTX2, {key: True}).terms[key]) is int
    assert type((LaurentPoly.const(CTX2, Fraction(1, 2)) * 4).constant_value()) is int


def test_operations_keep_coefficients_canonical():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(
        _random_poly_strategy(st, CTX3),
        _random_poly_strategy(st, CTX3),
        _form_strategy(st, CTX3),
        st.tuples(*[st.integers(-2, 2)] * 3),
        st.permutations(range(3)).map(tuple),
    )
    def check(f, g, form, lam, w):
        reparsed = parse_poly(poly_to_text(f), CTX3)
        assert reparsed == f
        results = [
            reparsed,
            f + g,
            f - g,
            f * g,
            f * 12,
            (f + 1) ** 2,
            shift_y(f, lam),
            act_perm(w, f),
            subst_params(f, c_sign=-1, c_to_h=2, h_sign=-1),
            exact_divide(form.to_poly(CTX3) * g, form),
            -f,
            LaurentPoly.sum(CTX3, [f, g, f * Fraction(1, 3)]),
            poly.act_matrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)), f),
            poly.linear_poly(CTX3, (Fraction(1, 2), 2, 0), h=Fraction(4, 2)),
        ]
        results.extend(taylor_pair(f, (0, 1), 3).values())
        for result in results:
            assert all(map(_is_canonical, result.terms.values())), result.terms
            # the stored pair is the normal form: positive content, primitive int part
            rebuilt = LaurentPoly(result.ctx, result.terms)
            assert rebuilt == result and hash(rebuilt) == hash(result)
            assert result._content > 0
            assert gcd(*result._ints.values()) == (1 if result else 0)

    check()


def test_scalar_div_is_exact():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalar = st.one_of(
        st.integers(-30, 30),
        st.booleans(),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    )

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(scalar, scalar)
    def check(a, b):
        if not b:
            with pytest.raises(ZeroDivisionError):
                poly.scalar_div(a, b)
            return
        q = poly.scalar_div(a, b)
        assert _is_canonical(q)
        assert q * b == a

    check()


def test_certificate_proves_a_miss_whose_denominator_is_the_prime():
    # the certificate reads the int part, so no denominator reaches it
    form = LinearForm(0, 1, 2, -1)
    g = LaurentPoly.x(CTX2, 0, -1) * Fraction(1, poly._CERT_PRIME) + y(1)
    f = form.to_poly(CTX2) * g
    assert poly._vanishes_mod_p(f, form)
    assert exact_divide(f, form) == g
    miss = y(0) * g
    assert not poly._vanishes_mod_p(miss, form)
    assert exact_divide(miss, form) is None


def test_zero_at_the_fixed_point_without_divisibility_is_a_miss():
    form = LinearForm(0, 1, 1, 1)
    # x1 takes the residue of _CERT_BASE at the fixed point, so f vanishes there
    x1_value = poly._CERT_BASE % poly._CERT_PRIME
    f = y(0) * (x(0) - x1_value)
    assert poly._vanishes_mod_p(f, form)
    assert exact_divide(f, form) is None


def test_cancellation_is_one_pass_over_the_sorted_forms(monkeypatch):
    big, small = LinearForm(0, 1, 1, 0), LinearForm(0, 1, 0, 0)
    g = x(0) * y(1) + LaurentPoly.c(CTX2)
    calls = []

    def counting(f, form):
        calls.append(form)
        return exact_divide(f, form)

    monkeypatch.setattr(poly, "exact_divide", counting)
    r = RationalFunction(big.to_poly(CTX2) ** 2 * g, [big, small, big, small])
    assert r.num == g
    assert r.den == (small, small)
    # the first copy of small misses and the second is kept untried; both
    # copies of big are hits; nothing is retried after a hit
    assert calls == [small, big, big]


def test_rational_function_cancels_automatically():
    form = LinearForm(0, 1, 0, 0)
    vand = form.to_poly(CTX2)
    r = RationalFunction(vand * x(0), [form])
    assert r.is_polynomial()
    assert r == RationalFunction(x(0))
    assert r.num == x(0)


def test_rational_function_arithmetic():
    form = LinearForm(0, 1, 0, 0)
    vand = form.to_poly(CTX2)
    a = RationalFunction(x(0), [form])
    b = RationalFunction(x(1), [form])
    assert (a + b) * RationalFunction(vand) == RationalFunction(x(0) + x(1))
    assert (a - a).is_zero()
    assert a * b == RationalFunction(x(0) * x(1), [form, form])
    acted = a.act(((1, 0), (0, 0)))
    assert acted == RationalFunction(x(1), [form]) * -1


def test_rational_function_right_subtraction():
    rf = RationalFunction(x(0), [LinearForm(0, 1, 1, 0)])
    assert 1 - rf == -(rf - 1)
    assert y(0) - rf == -(rf - y(0))
    assert (1 - rf) + rf == 1


def _rational_strategy(st, forms):
    """Reduced functions on CTX2 whose construction cancels the extra forms.

    The numerator also carries up to two forms of its own, which a product
    with another function may cancel.
    """

    @st.composite
    def functions(draw):
        num = draw(_random_poly_strategy(st, CTX2, max_terms=4))
        den = draw(st.lists(forms, max_size=2))
        extra = draw(st.lists(forms, max_size=2))
        for form in extra + draw(st.lists(forms, max_size=2)):
            num = num * form.to_poly(CTX2)
        return RationalFunction(num, den + extra)

    return functions()


def _few_forms_strategy(st):
    """Six forms on CTX2, few enough that numerators and denominators share them."""
    return st.sampled_from([LinearForm(0, 1, a, b) for a in (-1, 0, 1) for b in (0, 1)])


def test_rational_function_equality_is_value_equality():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    forms = _form_strategy(st, CTX2)
    functions = _rational_strategy(st, forms)

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(functions, functions, st.lists(forms, max_size=2), st.booleans())
    def check(a, other, cofactors, same):
        b = other
        if same:
            # a presentation of a's value, forms reordered, that must cancel back to it
            num = a.num
            for form in cofactors:
                num = num * form.to_poly(CTX2)
            b = RationalFunction(num, tuple(cofactors) + a.den[::-1])
        assert (a == b) == (not (a - b))
        if a == b:
            assert hash(a) == hash(b)

    check()


def test_negation_and_scalar_products_skip_cancellation(monkeypatch):
    f = RationalFunction(y(0) * y(1) + LaurentPoly.c(CTX2), [LinearForm(0, 1, 1, 0), LinearForm(0, 1, 0, 1)])
    op = DiffReflOp(CTX2, {((0, 1), (0, 0)): f, ((1, 0), (1, 0)): -f})
    calls = []

    def counting(g, form):
        calls.append(form)
        return exact_divide(g, form)

    monkeypatch.setattr(poly, "exact_divide", counting)
    for scaled, factor in ((-f, -1), (f * 3, 3), (Fraction(-2, 5) * f, Fraction(-2, 5))):
        assert (scaled.num, scaled.den) == (f.num * factor, f.den)
    zero = f * 0
    assert (zero.num, zero.den) == (LaurentPoly.zero(CTX2), ())
    assert -op == op * -1 != op
    assert calls == []


def test_fast_paths_agree_with_the_full_constructor():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    functions = _rational_strategy(st, _few_forms_strategy(st))

    @_hypothesis_settings(hypothesis)
    @hypothesis.given(
        st.lists(functions, min_size=1, max_size=4),
        _random_poly_strategy(st, CTX2, max_terms=3),
        st.permutations(range(2)).map(tuple),
        st.tuples(*[st.integers(-1, 1)] * 2),
        st.sampled_from((1, -1)),
        st.integers(-2, 2),
    )
    def check(fs, p, w, lam, c_sign, c_to_h):
        a = fs[0]
        # the second factor's numerator is a multiple of a's denominator
        for b in (fs[-1], RationalFunction(p * a.den_poly(), fs[-1].den)):
            assert a * b == b * a == RationalFunction(a.num * b.num, a.den + b.den)
        for q in (p, p * a.den_poly()):
            assert a * q == q * a == RationalFunction(a.num * q, a.den)
        union = Counter()
        for f in fs:
            union |= Counter(f.den)
        num = LaurentPoly.zero(CTX2)
        for f in fs:
            padding = [form.to_poly(CTX2) for form in (union - Counter(f.den)).elements()]
            num = num + f.num * prod(padding, start=LaurentPoly.one(CTX2))
        assert RationalFunction.sum(CTX2, fs) == RationalFunction(num, list(union.elements()))
        for f in fs:
            num, den = act((w, lam), f.num), []
            for form in f.den:
                image, sign = form.transform(w, lam)
                num, den = num * sign, den + [image]
            assert f.act((w, lam)) == RationalFunction(num, den)
            assert f.subst_c(c_sign, c_to_h) == RationalFunction(
                subst_params(f.num, c_sign=c_sign, c_to_h=c_to_h),
                [form.subst_c(c_sign, c_to_h) for form in f.den],
            )

    check()


def test_certificate_memo_is_bounded_and_changes_no_verdict(monkeypatch):
    form = LinearForm(0, 1, 1, -1)

    def build():
        hit = form.to_poly(CTX2) * parse_poly("x1^-1*y1^2 + 3/2*c*h*y2 - x2", CTX2)
        return hit, hit + x(0)

    hit, miss = build()
    want = [exact_divide(hit, form), exact_divide(miss, form)]
    assert want[0] is not None and want[1] is None
    monkeypatch.setattr(poly, "_CERT_MEMO_CAP", 2)
    # equal polynomials built afresh carry no certificate fold, so they go through the memo
    hit, miss = build()
    assert [exact_divide(hit, form), exact_divide(miss, form)] == want
    # cleared on reaching the cap, the memo then holds at most one call's terms
    assert len(poly._cert_memo(2)) < 2 + len(miss.terms)


def test_fraction_free_product_agrees_with_fraction_pairs():
    # the packed product key k1 + k2 - one against the per-pair product of the
    # unpacked exponents, on Laurent inputs with x exponents of either sign
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def check(f, g):
        want = {}
        for (xe1, ye1, ce1, he1), c1 in _exponent_items(f):
            for (xe2, ye2, ce2, he2), c2 in _exponent_items(g):
                key = monomial_key(
                    tuple(a + b for a, b in zip(xe1, xe2)),
                    tuple(a + b for a, b in zip(ye1, ye2)),
                    ce1 + ce2,
                    he1 + he2,
                )
                want[key] = want.get(key, 0) + Fraction(c1) * Fraction(c2)
        product = f * g
        assert product.terms == {key: c for key, c in want.items() if c}
        assert all(map(_is_canonical, product.terms.values()))

    def check_sum(f, g, k):
        # mixed scales give the summands contents with different denominators
        scales = (Fraction(-2, 3), 1, Fraction(5, 4))
        want = {}
        for p, s in zip((f, g, k), scales):
            for key, c in p.terms.items():
                want[key] = want.get(key, 0) + Fraction(c) * s
        total = LaurentPoly.sum(f.ctx, [p * s for p, s in zip((f, g, k), scales)])
        assert total.terms == {key: c for key, c in want.items() if c}
        assert all(map(_is_canonical, total.terms.values()))

    for ctx in (VarContext(1), CTX2, CTX3):
        polys = _random_poly_strategy(st, ctx)
        _hypothesis_settings(hypothesis)(hypothesis.given(polys, polys)(check))()
        _hypothesis_settings(hypothesis)(hypothesis.given(polys, polys, polys)(check_sum))()


def test_automorphisms_and_unshared_forms_skip_cancellation(monkeypatch):
    shared, f_only, g_only = LinearForm(0, 1, 1, 0), LinearForm(0, 1, 0, 1), LinearForm(0, 1, -1, 0)
    f = RationalFunction(y(0) * y(1) + LaurentPoly.c(CTX2), [shared, f_only])
    g = RationalFunction(x(0), [g_only])
    other = RationalFunction(x(1), [shared])
    calls = []

    def counting(p, form):
        calls.append(form)
        return exact_divide(p, form)

    monkeypatch.setattr(poly, "exact_divide", counting)
    f.act(((1, 0), (1, -1)))
    f.subst_c(c_sign=-1, c_to_h=2)
    RationalFunction.sum(CTX2, [f, g, RationalFunction(y(0))])
    f + g
    assert calls == []
    # only the form that two summands carry at the union's multiplicity is tried
    RationalFunction.sum(CTX2, [f, other, g])
    assert calls == [shared]


def test_subst_c_is_only_an_automorphism_for_a_unit_sign():
    f = RationalFunction(x(0), [LinearForm(0, 1, 0, 1)])
    for c_sign in (0, 2, Fraction(1, 2)):
        with pytest.raises(ValueError, match="c_sign"):
            f.subst_c(c_sign=c_sign)


def test_rational_function_denominator_poly():
    form = LinearForm(0, 1, 1, 0)
    r = RationalFunction(LaurentPoly.one(CTX2), [form, form])
    assert r.den_poly() == form.to_poly(CTX2) ** 2
    assert not r.is_polynomial()


def test_taylor_pair_reads_off_diagonal_orders():
    f = (x(0) - x(1)) ** 2
    coeffs = taylor_pair(f, (0, 1), 3)
    nonzero = {key for key, value in coeffs.items() if value}
    assert nonzero == {(2, 0)}
    assert coeffs[(2, 0)].is_constant()
    assert coeffs[(2, 0)].constant_value() == 1
    g = (y(0) - y(1)) * x(0)
    orders = taylor_pair(g, (0, 1), 2)
    assert not orders[(0, 0)]
    assert orders[(0, 1)] == x(1)
    assert not orders[(1, 0)]


def test_taylor_pair_rejects_indices_outside_the_rank():
    f = x(0) * y(1) + 1
    # (-1, 0) used to read as (1, 0), (0, -2) as x1 against itself, (0, 2) raised IndexError
    for pair in ((-1, 0), (0, -2), (0, 2), (2, 0), (2, 2)):
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            taylor_pair(f, pair, 2)
    with pytest.raises(ValueError, match="distinct"):
        taylor_pair(f, (1, 1), 2)


def test_taylor_pair_clears_laurent_denominators():
    f = LaurentPoly.x(CTX2, 0, -1) * (x(0) - x(1))
    coeffs = taylor_pair(f, (0, 1), 2)
    # x1^(-1)(x1 - x2) is a unit times (x1 - x2) at the diagonal: order 1
    assert not coeffs[(0, 0)]
    assert coeffs[(1, 0)]


IMMUTABLE_VALUES = {
    "LaurentPoly": lambda: LaurentPoly.one(CTX2),
    "RationalFunction": lambda: RationalFunction.one(CTX2),
    "DiffReflOp": lambda: DiffReflOp.identity(CTX2),
    "AbelianZElt": lambda: r_generator(AbelianMatter(1, [[1]]), 0, 0, (1,)),
    "SphericalClass": lambda: class_localized((1, 0), 1, 0, 0),
    "CoweightSplit": lambda: split_coweight((2, 0), 2),
    "PlaneSubset": lambda: PlaneSubset([(0, 0)]),
    "IdealSpec": lambda: IdealSpec(RootData.type_a(2), 1),
    "Window": lambda: Window(0, 1, 1),
    "GradedSlice": lambda: GradedSlice([], []),
    "EquivaluedModule": lambda: EquivaluedModule(RootData.type_a(2), 0),
    "ModuleElt": lambda: EquivaluedModule(RootData.type_a(2), 0).element(0, LaurentPoly.one(CTX2)),
    "ChainModel": lambda: ChainModel(1, 2),
}


@pytest.mark.parametrize("name", IMMUTABLE_VALUES)
def test_value_classes_are_immutable(name):
    value = IMMUTABLE_VALUES[name]()
    assert type(value).__name__ == name
    for attr in (type(value).__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
