"""Symbolic-power ideals: membership, graded slices, determinant bases."""

import itertools
import random
from fractions import Fraction

import pytest

from diffalg import ideals, weyl
from diffalg.ideals import (
    IdealSpec,
    PlaneSubset,
    UnsupportedRootData,
    Window,
    WindowTooLarge,
    delta_S_direct,
    delta_S_schur,
    graded_dimension,
    membership,
    nullspace,
    rref,
    schur_poly,
    span_dimension,
    verify_containment,
    verify_spanning,
    y_exponents,
)
from diffalg.poly import LaurentPoly, VarContext, parse_poly, poly_to_text, taylor_pair
from diffalg.weyl import RootData
from diffalg.zalg import class_commutative

CTX2 = VarContext(2)
ROOTS2 = RootData.type_a(2)

NARROW = Window(0, 1, 1)

NARROW_SIGN_BASIS = [
    "y1 - y2",
    "x1 - x2",
    "-y1*x2 + y2*x1",
    "y1*x1 - y2*x2",
    "y1*x1*x2 - y2*x1*x2",
]


def test_row_reduction_is_exact():
    rows = [
        [Fraction(1, 3), Fraction(2)],
        [Fraction(1), Fraction(6)],
        [Fraction(2, 3), Fraction(4)],
    ]
    rows = [dict(enumerate(row)) for row in rows]
    reduced, pivots = rref(rows)
    assert len(reduced) == 1
    assert pivots == {0: 0}
    assert span_dimension(rows) == 1
    kernel = nullspace([{0: Fraction(1), 1: Fraction(2)}], 2)
    assert len(kernel) == 1
    assert kernel[0][0] + 2 * kernel[0][1] == 0


def test_row_reduction_rejects_floats():
    # a float must raise even where it would cancel to zero or look integral
    with pytest.raises(TypeError):
        rref([{0: 1, 1: 0.5}])
    with pytest.raises(TypeError):
        rref([{0: 1, 1: 2}, {0: 2, 1: 4.0}])


def test_ideal_spec_validation():
    with pytest.raises(ValueError):
        IdealSpec(ROOTS2, -1)
    spec = IdealSpec(ROOTS2, 2)
    assert spec.d == 2


def test_non_integer_bounds_are_rejected():
    for bad in (1.5, 2.0, Fraction(3, 2), "1"):
        with pytest.raises(ValueError):
            IdealSpec(ROOTS2, bad)
        with pytest.raises(ValueError):
            Window(0, bad, 1)
        with pytest.raises(ValueError):
            Window(bad, 3, 1)
        with pytest.raises(ValueError):
            Window(0, 1, bad)


def test_vandermonde_membership_orders():
    van = ROOTS2.vandermonde(CTX2)
    ok, witness = membership(van, IdealSpec(ROOTS2, 1))
    assert ok and witness is None
    ok2, witness2 = membership(van, IdealSpec(ROOTS2, 2))
    assert not ok2
    assert witness2 == {"pair": (1, 2), "order": (0, 1), "coefficient": "1"}
    # the witness coefficient is a parseable polynomial
    assert parse_poly(witness2["coefficient"], CTX2).is_constant()


def test_constant_is_not_in_the_ideal():
    ok, witness = membership(LaurentPoly.one(CTX2), IdealSpec(ROOTS2, 1))
    assert not ok
    assert witness["order"] == (0, 0)


def test_zero_lies_in_every_power():
    ok, witness = membership(LaurentPoly.zero(CTX2), IdealSpec(ROOTS2, 3))
    assert ok and witness is None


def test_character_exponent_must_be_an_integer():
    # d % 2 used to read 1.5 and 0.5 as odd exponents, giving the sign-twisted slice
    f = LaurentPoly.y(CTX2, 0)
    for call in (
        lambda: graded_dimension(IdealSpec(ROOTS2, 1), 1.5, NARROW),
        lambda: ROOTS2.project(f, 0.5),
        lambda: ROOTS2.is_isotypic(f, Fraction(1, 2)),
        lambda: class_commutative((1, 0), f, 1.0, ROOTS2),
    ):
        with pytest.raises(ValueError):
            call()


def test_membership_rejects_non_difference_root_data():
    b2 = RootData.b2()
    f = LaurentPoly.one(VarContext(2))
    with pytest.raises(UnsupportedRootData):
        membership(f, IdealSpec(b2, 1))


def test_membership_checks_rank():
    f = LaurentPoly.one(VarContext(3))
    with pytest.raises(ValueError):
        membership(f, IdealSpec(ROOTS2, 1))


def test_window_validation():
    with pytest.raises(ValueError):
        Window(2, 1, 1)
    with pytest.raises(ValueError):
        Window(0, 1, -1)
    w = Window(0, 2, 3)
    assert (w.x_min, w.x_max, w.y_max) == (0, 2, 3)


def test_window_keys_are_sorted_term_keys():
    keys = Window(-1, 1, 2).monomial_keys(2)
    exponents = sorted(
        (xe, ye) for xe in itertools.product(range(-1, 2), repeat=2) for ye in y_exponents(2, 2)
    )
    assert [LaurentPoly(CTX2, {key: 1}) for key in keys] == [
        LaurentPoly.monomial(CTX2, xe=xe, ye=ye) for xe, ye in exponents
    ]


def test_window_cap_guards_blowup():
    with pytest.raises(WindowTooLarge):
        graded_dimension(IdealSpec(ROOTS2, 1), None, Window(0, 19, 9))


def test_graded_dimensions_on_the_narrow_window():
    assert graded_dimension(IdealSpec(ROOTS2, 0), None, NARROW).dimension == 12
    assert graded_dimension(IdealSpec(ROOTS2, 1), None, NARROW).dimension == 6
    signed = graded_dimension(IdealSpec(ROOTS2, 1), 1, NARROW)
    assert signed.dimension == 5
    assert [poly_to_text(b) for b in signed.basis] == NARROW_SIGN_BASIS


@pytest.mark.parametrize(
    "roots, k, dimension",
    [
        # invariants of degree <= k: monomials in the basic invariants,
        # whose degrees are 2, 4 for B2 and 2, 6 for G2
        (RootData.b2(), 4, 4),
        (RootData.b2(), 6, 6),
        (RootData.g2(), 4, 3),
        (RootData.g2(), 6, 5),
    ],
)
def test_invariant_dimensions_follow_the_basic_degrees(roots, k, dimension):
    window = Window(0, 0, k)
    assert graded_dimension(IdealSpec(roots, 0), 0, window).dimension == dimension


@pytest.mark.parametrize(
    "roots",
    [RootData.type_a(2), RootData.type_a(3), RootData.type_a(4), RootData.b2(), RootData.g2()],
    ids=["A2", "A3", "A4", "B2", "G2"],
)
def test_simple_reflections_generate_the_group(roots):
    one = weyl._identity(roots.rank)
    for s in roots.simple:
        assert weyl._mat_det(s) == -1
        assert weyl._mat_mul(s, s) == one
    assert tuple(weyl._close_group(roots.simple, roots.order())) == roots.elements
    # a polynomial fixed by one simple reflection is isotypic only when that one generates
    ctx = VarContext(roots.rank)
    f = LaurentPoly.monomial(ctx, xe=range(1, roots.rank + 1), ye=(2, 1) + (0,) * (roots.rank - 2))
    for s in roots.simple:
        fixed = f + roots.twist(s, f, 1)
        assert roots.twist(s, fixed, 1) == fixed
        assert roots.is_isotypic(fixed, 1) == (len(roots.simple) == 1)


def test_rank_one_has_no_simple_reflections():
    roots = RootData.type_a(1)
    assert roots.simple == ()
    assert roots.elements == (((1,),),)


@pytest.mark.parametrize("roots", [RootData.type_a(2), RootData.b2(), RootData.g2()])
def test_vandermonde_is_alternating(roots):
    ctx = VarContext(roots.rank)
    van = roots.vandermonde(ctx)
    assert roots.project(van, 1) == van
    assert not roots.project(van, 0)


def test_graded_dimension_wider_y_window():
    assert graded_dimension(IdealSpec(ROOTS2, 1), 1, Window(0, 1, 2)).dimension == 10


def test_taylor_order_is_capped_at_the_window_degree(monkeypatch):
    # a window polynomial, after clearing, has degree at most x_max + clear + y_max
    # in (x_r, y_r), so a higher order could only add zero coefficients
    orders = []

    def spy(f, pair, order):
        orders.append(order)
        return taylor_pair(f, pair, order)

    monkeypatch.setattr(ideals, "taylor_pair", spy)
    for window in (NARROW, Window(-1, 1, 1)):
        cap = window.x_max + max(0, -window.x_min) + window.y_max + 1
        orders.clear()
        deep = graded_dimension(IdealSpec(ROOTS2, 60), 0, window)
        assert orders and max(orders) <= cap
        at_cap = graded_dimension(IdealSpec(ROOTS2, cap), 0, window)
        assert (deep.columns, deep.basis) == (at_cap.columns, at_cap.basis)


def test_slice_members_actually_belong_to_the_ideal():
    signed = graded_dimension(IdealSpec(ROOTS2, 2), 2, Window(0, 2, 2))
    assert signed.dimension > 0
    for f in signed.basis:
        ok, witness = membership(f, IdealSpec(ROOTS2, 2))
        assert ok, witness


def test_plane_subset_validation():
    with pytest.raises(ValueError):
        PlaneSubset([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        PlaneSubset([(-1, 0)])
    with pytest.raises(ValueError, match="must be an integer"):
        PlaneSubset([(1.7, 0), (0, 0)])
    S = PlaneSubset([(3, 1), (5, 0)])
    assert S.n == 2
    assert S.sorted_points() == ((5, 0), (3, 1))


def test_schur_polynomial_base_cases():
    assert schur_poly(CTX2, [0, 1], (0, 0)) == LaurentPoly.one(CTX2)
    assert schur_poly(CTX2, [0, 1], (1, 0)) == LaurentPoly.y(CTX2, 0) + LaurentPoly.y(
        CTX2, 1
    )


def test_determinant_bases_showcase_set():
    S = PlaneSubset([(5, 0), (3, 1), (7, 1), (2, 2)])
    alt, scalar = delta_S_schur(S)
    assert scalar == -2
    assert alt == delta_S_direct(S) * scalar


def test_staircase_set_gives_the_alternant():
    S = PlaneSubset([(0, 0), (1, 0), (2, 0)])
    alt, scalar = delta_S_schur(S)
    assert alt == RootData.type_a(3).vandermonde(VarContext(3))
    assert scalar == -6
    assert alt == delta_S_direct(S) * scalar


def test_determinant_bases_random_proportionality():
    rng = random.Random(3151)
    for _ in range(20):
        n = rng.randint(1, 4)
        points = set()
        while len(points) < n:
            points.add((rng.randint(0, 4), rng.randint(0, 4)))
        S = PlaneSubset(sorted(points))
        alt, scalar = delta_S_schur(S)
        assert scalar != 0
        assert alt == delta_S_direct(S) * scalar


def test_direct_determinant_lies_in_symbolic_powers():
    # each Delta_S is antisymmetric, hence in the first symbolic power
    S = PlaneSubset([(1, 0), (0, 1), (2, 2)])
    f = delta_S_direct(S)
    ok, witness = membership(f, IdealSpec(RootData.type_a(3), 1))
    assert ok, witness


def test_containment_raw_small_box():
    out = verify_containment(2, 1, 1, 1)
    assert out["ok"], out["failures"][:1]
    assert out["checked"] > 0
    out2 = verify_containment(2, 2, 1, 0)
    assert out2["ok"], out2["failures"][:1]


def test_reduced_classes_leave_the_ideal_at_gap_two():
    # the reduced level-2 class of (2, 0) is (x1^2 + x2^2)/2, which has a
    # nonzero value on the diagonal and so cannot lie in I^(1)
    cls = class_commutative((2, 0), LaurentPoly.one(CTX2), 2, ROOTS2)
    poly = LaurentPoly.zero(CTX2)
    for lam, coeff in cls.items():
        poly = poly + coeff * LaurentPoly.monomial(CTX2, xe=lam)
    assert poly * 2 == LaurentPoly.x(CTX2, 0, 2) + LaurentPoly.x(CTX2, 1, 2)
    ok, witness = membership(poly, IdealSpec(ROOTS2, 1))
    assert not ok
    assert witness["order"] == (0, 0)
    # while the raw class of the same data does lie in I^(2)
    raw = class_commutative((2, 0), LaurentPoly.one(CTX2), 2, ROOTS2, "raw")
    poly_raw = LaurentPoly.zero(CTX2)
    for lam, coeff in raw.items():
        poly_raw = poly_raw + coeff * LaurentPoly.monomial(CTX2, xe=lam)
    ok_raw, witness_raw = membership(poly_raw, IdealSpec(ROOTS2, 2))
    assert ok_raw, witness_raw


def test_spanning_narrow_window_dimension_five():
    out = verify_spanning(2, 1, NARROW)
    assert out["ok"], out
    assert out["span_dim"] == 5
    assert out["slice_dim"] == 5
    assert out["generators"] >= 5
    assert out["failures"] == []


def test_window_cap_is_checked_before_the_window_is_built(monkeypatch):
    rank3 = Window(-1, 3, 6)
    rank3_size = len(rank3.monomial_keys(3))

    def refuse(self, n):
        raise AssertionError("an oversized window was enumerated")

    monkeypatch.setattr(Window, "monomial_keys", refuse)
    for roots, window, size in (
        (RootData.type_a(3), rank3, rank3_size),
        (ROOTS2, Window(0, 120, 9), 805255),
    ):
        with pytest.raises(WindowTooLarge, match=rf"^window has {size} monomials \(cap 6000\)$"):
            graded_dimension(IdealSpec(roots, 1), None, window)
