"""Graded modules over the sign-isotypic ideal algebra, plus chain counts."""

import random
from fractions import Fraction

import pytest

from diffalg.ideals import IdealSpec, Window, graded_dimension
from diffalg.poly import LaurentPoly, VarContext, monomial_key
from diffalg.springer import (
    ChainModel,
    EquivaluedModule,
    ModuleElt,
    NotInIdeal,
    chain_poincare,
    module_act,
    module_slice_basis,
)
from diffalg.weyl import RootData
from diffalg.zalg import class_to_poly

CTX2 = VarContext(2)
ROOTS2 = RootData.type_a(2)
NARROW = Window(0, 1, 1)


def halved_difference():
    return (LaurentPoly.x(CTX2, 0) - LaurentPoly.x(CTX2, 1)) * Fraction(1, 2)


def test_module_construction_and_equality():
    mod = EquivaluedModule(ROOTS2, 1)
    assert mod == EquivaluedModule(ROOTS2, 1)
    assert mod != EquivaluedModule(ROOTS2, 2)
    assert mod.ideal_spec(0).d == 1
    assert mod.ideal_spec(2).d == 3
    with pytest.raises(ValueError):
        EquivaluedModule(ROOTS2, -1)
    with pytest.raises(ValueError):
        mod.ideal_spec(-1)


def test_elements_are_membership_checked():
    mod = EquivaluedModule(ROOTS2, 1)
    with pytest.raises(NotInIdeal) as info:
        mod.element(0, LaurentPoly.one(CTX2))
    assert info.value.witness == {"pair": (1, 2), "order": (0, 0), "coefficient": "1"}
    # the Vandermonde has a first-order zero, so it is a valid grade-0 vector
    elt = mod.element(0, ROOTS2.vandermonde(CTX2))
    assert elt.grade == 0
    assert not elt.is_zero()


def test_zero_module_admits_constants():
    mod = EquivaluedModule(ROOTS2, 0)
    one = mod.element(0, LaurentPoly.one(CTX2))
    assert one.text()
    assert (one - one).is_zero()


def test_pinned_action_raises_the_grade():
    mod = EquivaluedModule(ROOTS2, 0)
    m = mod.element(0, LaurentPoly.one(CTX2))
    a = halved_difference()
    out = module_act(a, m, 1)
    assert isinstance(out, ModuleElt)
    assert out.grade == 1
    assert out.value == a


def test_action_on_a_flattened_class_mapping():
    mod = EquivaluedModule(ROOTS2, 0)
    m = mod.element(0, LaurentPoly.one(CTX2))
    mapping = {
        (1, 0): LaurentPoly.const(CTX2, Fraction(1, 2)),
        (0, 1): LaurentPoly.const(CTX2, Fraction(-1, 2)),
    }
    out = module_act(class_to_poly(CTX2, mapping), m, 1)
    assert out.value == halved_difference()
    with pytest.raises(TypeError):
        module_act(mapping, m, 1)


def test_action_gatekeeps_membership_and_isotypy():
    mod = EquivaluedModule(ROOTS2, 0)
    m = mod.element(0, LaurentPoly.one(CTX2))
    with pytest.raises(NotInIdeal) as info:
        module_act(LaurentPoly.one(CTX2), m, 1)
    assert info.value.witness is not None
    with pytest.raises(NotInIdeal, match=r"^algebra element is not sign\^1-isotypic$") as info:
        # symmetric but vanishing: in the ideal, wrong isotypic type for d=1
        module_act(ROOTS2.vandermonde(CTX2) ** 2, m, 1)
    assert info.value.witness is None
    with pytest.raises(NotInIdeal, match=r"^algebra element is not in I\^\(2\)$"):
        # y1 - y2 vanishes to first order only; membership is tested before isotypy
        module_act(ROOTS2.vandermonde(CTX2) ** 1, m, 2)
    with pytest.raises(NotInIdeal, match=r"^algebra element is not sign\^2-isotypic$"):
        # (y1 - y2)^3 is in I^(2) but antisymmetric, not sign^2-isotypic
        module_act(ROOTS2.vandermonde(CTX2) ** 3, m, 2)


def test_isotypy_test_agrees_with_projection():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    groups = [RootData.type_a(1), ROOTS2, RootData.type_a(3), RootData.b2(), RootData.g2()]

    def polys(roots):
        n = roots.rank
        key = st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.tuples(*[st.integers(0, 2)] * n))
        coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
        terms = st.dictionaries(key, coeff, max_size=4).map(
            lambda terms: {monomial_key(*key): c for key, c in terms.items()}
        )
        return st.tuples(st.just(roots), terms.map(lambda t: LaurentPoly(VarContext(n), t)))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(groups).flatmap(polys),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(["raw", "projected", "cyclic"]),
        st.integers(0, 11),
    )
    def check(roots_f, d, other_d, kind, index):
        roots, f = roots_f
        if kind == "projected":
            f = roots.project(f, other_d)
            assert roots.is_isotypic(f, other_d)
        elif kind == "cyclic":
            # the sum of f's orbit under one element: fixed by its cyclic group, rarely by all
            w = roots.elements[index % len(roots.elements)]
            orbit = [f]
            while (g := roots.twist(w, orbit[-1], other_d)) != f:
                orbit.append(g)
            f = LaurentPoly.sum(f.ctx, orbit)
        assert roots.is_isotypic(f, d) == (roots.project(f, d) == f)

    check()


def test_action_is_bilinear_and_composes():
    rng = random.Random(5150)
    mod = EquivaluedModule(ROOTS2, 1)
    van = ROOTS2.vandermonde(CTX2)
    base = mod.element(0, van)
    a = halved_difference()
    b = van
    for _ in range(10):
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        m = mod.element(0, van * scale)
        lhs = module_act(a, m, 1) + module_act(a, base, 1)
        rhs = module_act(a, m + base, 1)
        assert lhs == rhs
    twice = module_act(b, module_act(a, base, 1), 1)
    other = module_act(a, module_act(b, base, 1), 1)
    assert twice == other
    assert twice.grade == 2


def test_untwisted_views_divide_out_the_alternant():
    mod = EquivaluedModule(ROOTS2, 1)
    van = ROOTS2.vandermonde(CTX2)
    flat = mod.element(0, van)
    assert repr(flat.untwisted()) == "RatFn(y1 - y2)"
    lifted = module_act(halved_difference(), EquivaluedModule(ROOTS2, 0).element(0, LaurentPoly.one(CTX2)), 1)
    assert repr(lifted.untwisted()) == "RatFn((1/2*x1 - 1/2*x2) / (y1 - y2))"
    non_difference = EquivaluedModule(RootData.b2(), 0).element(0, LaurentPoly.zero(CTX2))
    with pytest.raises(ValueError, match="difference-form roots"):
        non_difference.untwisted()


def test_module_slices_match_ideal_slices():
    mod = EquivaluedModule(ROOTS2, 0)
    for j in range(3):
        slice_a = module_slice_basis(mod, j, NARROW)
        slice_b = graded_dimension(IdealSpec(ROOTS2, j), None, NARROW)
        assert slice_a.dimension == slice_b.dimension
    assert module_slice_basis(EquivaluedModule(ROOTS2, 1), 0, NARROW).dimension == 6
    assert module_slice_basis(mod, 0, NARROW).dimension == 12


def test_chain_model_validation():
    with pytest.raises(ValueError):
        ChainModel(-1, 2)
    with pytest.raises(ValueError):
        ChainModel(1, 0)
    chain = ChainModel(2, 4)
    assert chain.d == 2
    assert chain.length == 4


def test_chain_poincare_pinned_example():
    assert chain_poincare(ChainModel(1, 3)) == [1, 1, 3]


def test_chain_poincare_invariants():
    for d in range(4):
        for length in range(1, 5):
            coeffs = chain_poincare(ChainModel(d, length))
            assert len(coeffs) == d + 2
            assert coeffs[0] == 1
            assert sum(coeffs) == d + 1 + length
            assert all(v >= 1 for v in coeffs)
