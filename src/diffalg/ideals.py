"""Symbolic powers of the diagonal ideal and their graded slices.

The ring is the Laurent/polynomial ring in x_1..x_n (invertible) and
y_1..y_n.  For a root datum the ideal I^(d) is the d-th symbolic power of
the ideal of the union of the codimension-two loci {alpha^vee = 1, y_alpha = 0};
in type A these are the pairwise diagonals {x_r = x_s, y_r = y_s}.
Membership is decided exactly by Taylor expansion along each diagonal after
clearing x-denominators by a unit, which characterises the power ideal
monomially.

Antisymmetric determinants Delta_S indexed by finite plane subsets S give
explicit elements; ``delta_S_schur`` rebuilds them from Schur polynomials of
the grouped rows (bialternant form) and reports the proportionality scalar.

``graded_dimension`` computes exact bases of windowed slices of e_d I^(d)
(sign-power isotypic part intersected with the symbolic power) by solving
the linear conditions exactly, as sparse rows over the window monomials
that ``rref`` reduces fraction-free, and ``verify_spanning`` compares the
slice with the span of the commutative-limit classes from :mod:`diffalg.zalg`.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .poly import (
    Immutable,
    LaurentPoly,
    LinearForm,
    VarContext,
    _as_scalar,
    exact_divide,
    monomial_key,
    perm_sign,
    poly_to_text,
    require_int,
    scalar_div,
    taylor_pair,
)
from .weyl import RootData
from .zalg import class_commutative, class_to_poly


class UnsupportedRootData(ValueError):
    """Raised when an operation needs root data it does not support."""


class WindowTooLarge(ValueError):
    """Raised when a window has more than WINDOW_CAP monomials."""


# Largest window graded_dimension accepts: it bounds the monomials, which are
# the columns of the constraint rows.
WINDOW_CAP = 6000


# -- exact linear algebra ---------------------------------------------------


def _primitive(row):
    """The int row without its zero entries, divided by the gcd of the rest."""
    row = {col: v for col, v in row.items() if v}
    g = gcd(*row.values())
    return {col: v // g for col, v in row.items()} if g > 1 else row


def _combine(row, pivot, col):
    """The primitive combination of two int rows that clears column col."""
    g = gcd(row[col], pivot[col])
    a, b = pivot[col] // g, row[col] // g
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot.items():
        out[c] = out.get(c, 0) - b * v
    return _primitive(out)


def rref(rows):
    """Row-reduce sparse rows {column: int or Fraction}; returns (rows, pivots).

    Fraction-free: each row is cleared of denominators once into a primitive
    int row (an entry that is not an int or a Fraction raises TypeError) and
    eliminated on its lowest column against the rows kept so far; the kept
    rows are then back-substituted from the highest pivot down, and only the
    final scaling to a leading 1 divides.  The output rows are the nonzero
    rows of the unique reduced row echelon form, without zero entries, and
    pivots maps pivot column -> row index.
    """
    echelon = {}  # pivot column -> primitive int row with that lowest column
    for row in rows:
        row = {col: _as_scalar(v) for col, v in row.items()}
        den = lcm(*[v.denominator for v in row.values()])
        row = _primitive({col: v.numerator * (den // v.denominator) for col, v in row.items()})
        while row:
            col = min(row)
            if col not in echelon:
                echelon[col] = row
                break
            row = _combine(row, echelon[col], col)
    for col in sorted(echelon, reverse=True):
        row = echelon[col]
        for c in [c for c in row if c != col and c in echelon]:
            row = _combine(row, echelon[c], c)
        echelon[col] = row
    order = sorted(echelon)
    reduced = [{c: scalar_div(v, echelon[col][col]) for c, v in echelon[col].items()} for col in order]
    return reduced, {col: t for t, col in enumerate(order)}


def nullspace(rows, width):
    """Kernel basis of sparse exact rows: one {column: value} per free column."""
    reduced, pivots = rref(rows)
    basis = {col: {col: 1} for col in range(width) if col not in pivots}
    for pcol, prow in pivots.items():
        for col, value in reduced[prow].items():
            if col != pcol:
                basis[col][pcol] = -value
    return list(basis.values())


def span_dimension(vectors):
    """Rank of a list of sparse exact vectors {column: value}."""
    reduced, _ = rref(vectors)
    return len(reduced)


# -- plane subsets and determinants ----------------------------------------


class PlaneSubset(Immutable):
    """A list of distinct plane points (a, b): y-exponent a >= 0, x-exponent b.

    The order of the points is kept as given, because the sign of the
    associated determinant depends on it; ``sorted_points`` is the canonical
    descending presentation.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple((require_int(a, "a point"), require_int(b, "a point")) for a, b in points)
        if len(set(pts)) != len(pts):
            raise ValueError("plane points must be pairwise distinct")
        if any(a < 0 for a, _ in pts):
            raise ValueError("y-exponents must be nonnegative")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return len(self.points)

    def sorted_points(self):
        return tuple(sorted(self.points, reverse=True))

    def __eq__(self, other):
        if not isinstance(other, PlaneSubset):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PlaneSubset({list(self.points)})"


def delta_S_direct(S):
    """The antisymmetric determinant (1/n!) det(y_i^{a_j} x_i^{b_j})."""
    ctx = VarContext(S.n)
    terms = (
        LaurentPoly.monomial(
            ctx,
            xe=[S.points[j][1] for j in w],
            ye=[S.points[j][0] for j in w],
            coeff=perm_sign(w),
        )
        for w in itertools.permutations(range(S.n))
    )
    return LaurentPoly.sum(ctx, terms) * Fraction(1, factorial(S.n))


def schur_poly(ctx, var_indices, mu):
    """Schur polynomial s_mu in the listed y-variables, by the bialternant."""
    m = len(var_indices)
    exps = [mu[j] + (m - 1 - j) for j in range(m)]

    def term(w):
        ye = [0] * ctx.n
        for pos in range(m):
            ye[var_indices[pos]] = exps[w[pos]]
        return LaurentPoly.monomial(ctx, ye=ye, coeff=perm_sign(w))

    num = LaurentPoly.sum(ctx, map(term, itertools.permutations(range(m))))
    for r, s in itertools.combinations(var_indices, 2):
        quotient = exact_divide(num, LinearForm(r, s, 0, 0))
        if quotient is None:
            raise ArithmeticError("bialternant numerator not divisible")
        num = quotient
    return num


def delta_S_schur(S):
    """Rebuild Delta_S from Schur polynomials of the grouped rows.

    Groups the points by x-exponent; each group of size m with y-exponents
    a_1 > ... > a_m contributes the Schur polynomial of the partition
    (a_1-(m-1), ..., a_m) in its own block of variables, an in-group
    Vandermonde, and x-exponent b on the block.  The antisymmetrized product
    is proportional to ``delta_S_direct``; returns (polynomial, scalar) with
    polynomial = scalar * delta_S_direct(S).  The scalar depends on the group
    sizes and the chosen order of S.
    """
    n = S.n
    ctx = VarContext(n)
    groups = {}
    for a, b in S.points:
        groups.setdefault(b, []).append(a)
    core = LaurentPoly.one(ctx)
    xe = [0] * n
    next_var = 0
    for b in sorted(groups):
        avals = sorted(groups[b], reverse=True)
        m = len(avals)
        block = list(range(next_var, next_var + m))
        mu = tuple(avals[t] - (m - 1 - t) for t in range(m))
        core = core * schur_poly(ctx, block, mu)
        for r, s in itertools.combinations(block, 2):
            core = core * LinearForm(r, s).to_poly(ctx)
        for t in block:
            xe[t] = b
        next_var += m
    core = core * LaurentPoly.monomial(ctx, xe=tuple(xe))
    alt = RootData.type_a(n).project(core, 1)
    direct = delta_S_direct(S)
    if not alt or not direct:
        raise ArithmeticError("determinant vanished; S is not a valid subset")
    key = next(iter(direct.terms))
    if key not in alt.terms:
        raise ArithmeticError("Schur route is not proportional to the determinant")
    scalar = scalar_div(alt.terms[key], direct.terms[key])
    if alt != direct * scalar:
        raise ArithmeticError("Schur route is not proportional to the determinant")
    return alt, scalar


# -- symbolic powers ---------------------------------------------------------


class IdealSpec(Immutable):
    """The d-th symbolic power of the diagonal ideal for a root datum."""

    __slots__ = ("roots", "d")

    def __init__(self, roots, d):
        d = require_int(d, "the symbolic power")
        if d < 0:
            raise ValueError("the symbolic power must be nonnegative")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "d", d)

    def __repr__(self):
        return f"IdealSpec({self.roots.kind}{self.roots.rank}, d={self.d})"


def membership(f, spec):
    """Exact membership test for I^(d); returns (bool, witness).

    For every pairwise diagonal {x_r = x_s, y_r = y_s} the Taylor
    coefficients of f below total order d must vanish; the witness of a
    failure is the first nonvanishing coefficient.  Only type A root data
    (any rank, including rank 1) are supported.
    """
    if spec.roots.kind != "A":
        raise UnsupportedRootData(
            f"membership supports type A root data, not {spec.roots.kind}"
        )
    if spec.d == 0:
        return True, None
    n = spec.roots.rank
    if f.ctx.n != n:
        raise ValueError("polynomial and root datum rank disagree")
    for r in range(n):
        for s in range(r + 1, n):
            coeffs = taylor_pair(f, (r, s), spec.d)
            for order in sorted(coeffs):
                if coeffs[order]:
                    witness = {
                        "pair": (r + 1, s + 1),
                        "order": order,
                        "coefficient": poly_to_text(coeffs[order]),
                    }
                    return False, witness
    return True, None


# -- windows and graded slices ----------------------------------------------


def dominant_coweights(n, hi, lo):
    """Non-increasing coweights with entries in [lo, hi], descending lexicographic."""
    return [
        lam
        for lam in itertools.product(range(hi, lo - 1, -1), repeat=n)
        if all(lam[t] >= lam[t + 1] for t in range(n - 1))
    ]


def y_exponents(n, degree):
    """Nonnegative exponent vectors of total degree at most ``degree``."""
    return [
        ye
        for ye in itertools.product(range(degree + 1), repeat=n)
        if sum(ye) <= degree
    ]


class Window(Immutable):
    """An x-exponent box [x_min, x_max]^n with total y-degree at most y_max."""

    __slots__ = ("x_min", "x_max", "y_max")

    def __init__(self, x_min, x_max, y_max):
        for name, value in (("x_min", x_min), ("x_max", x_max), ("y_max", y_max)):
            object.__setattr__(self, name, require_int(value, name))
        if self.x_max < self.x_min:
            raise ValueError("empty x-exponent box")
        if self.y_max < 0:
            raise ValueError("negative y-degree bound")

    def check_size(self, n):
        """Raise WindowTooLarge when the window has more than WINDOW_CAP monomials at rank n."""
        size = (self.x_max - self.x_min + 1) ** n * comb(n + self.y_max, n)
        if size > WINDOW_CAP:
            raise WindowTooLarge(f"window has {size} monomials (cap {WINDOW_CAP})")

    def monomial_keys(self, n):
        """Term keys of the window monomials, sorted on (x-exponents, y-exponents)."""
        xs = itertools.product(range(self.x_min, self.x_max + 1), repeat=n)
        ys = y_exponents(n, self.y_max)
        # both products run in lexicographic order, so the keys come out sorted
        return [monomial_key(xe, ye) for xe in xs for ye in ys]

    def __repr__(self):
        return f"Window(x in [{self.x_min},{self.x_max}], y-deg <= {self.y_max})"


class GradedSlice(Immutable):
    """An exact basis of a windowed slice; columns are the window's term keys."""

    __slots__ = ("columns", "basis", "dimension")

    def __init__(self, columns, basis):
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "dimension", len(basis))


def graded_dimension(spec, d_isotypic, window):
    """Exact basis of the windowed slice of e_d I^(d).

    The slice is the set of polynomials supported on the window that are
    isotypic for the sign^d character (when ``d_isotypic`` is not None) and
    lie in the symbolic power I^(spec.d).  Both conditions are linear; the
    kernel is computed exactly over the rationals.  Raises WindowTooLarge
    when the window has more than WINDOW_CAP monomials.
    """
    roots = spec.roots
    window.check_size(roots.rank)
    if spec.d > 0 and roots.kind != "A":
        raise UnsupportedRootData(
            f"symbolic-power slices support type A root data, not {roots.kind}"
        )
    n = roots.rank
    ctx = VarContext(n)
    keys = window.monomial_keys(n)
    monomials = [LaurentPoly(ctx, {key: 1}) for key in keys]
    # one sparse row per condition; the order of the rows cannot change the RREF
    rows = {}

    if d_isotypic is not None:
        # for each simple reflection s, each term key's coefficient in twist(s, f) - f vanishes
        for t, mono in enumerate(monomials):
            for g, s in enumerate(roots.simple):
                for key, value in (roots.twist(s, mono, d_isotypic) - mono).terms.items():
                    rows.setdefault((g, key), {})[t] = value

    if spec.d > 0:
        clear = max(0, -window.x_min)
        # u^a v^b has a nonzero coefficient only when a is at most the cleared
        # x_r exponent and b the y_r exponent, so a + b <= x_max + clear + y_max:
        # a higher order adds only zero coefficients, hence no rows.
        top = min(spec.d, window.x_max + clear + window.y_max + 1)
        for r, s in itertools.combinations(range(n), 2):
            unit = LaurentPoly.x(ctx, r, clear)
            for t, mono in enumerate(monomials):
                if clear:
                    mono = mono * unit
                for order, poly in taylor_pair(mono, (r, s), top).items():
                    for key, value in poly.terms.items():
                        rows.setdefault(((r, s), order, key), {})[t] = value

    basis = [
        LaurentPoly(ctx, {keys[t]: value for t, value in vec.items()})
        for vec in nullspace(list(rows.values()), len(keys))
    ]
    return GradedSlice(keys, basis)


def class_polys(roots, d, coweights, dressings, normalization="reduced"):
    """Yield (lam, ye, poly) for each nonzero commutative class polynomial.

    poly flattens the level-d class of lam dressed by the monomial y^ye, for
    lam over coweights and ye over dressings, in that loop order.
    """
    ctx = VarContext(roots.rank)
    dressings = list(dressings)
    for lam in coweights:
        for ye in dressings:
            f = LaurentPoly.monomial(ctx, ye=ye)
            poly = class_to_poly(ctx, class_commutative(lam, f, d, roots, normalization))
            if poly:
                yield lam, ye, poly


def verify_containment(n, d, lam_bound, f_degree, normalization="raw"):
    """Check that every commutative class of level d lies in e_d I^(d).

    Sweeps dominant coweights with entries bounded by ``lam_bound`` in
    absolute value and monomial dressings of total degree at most
    ``f_degree``; every class polynomial must pass membership for I^(d).
    Returns a dict with counts and the list of failures (empty when ok).

    The default checks the raw normalization, which is the form the level-d
    classes take as actual elements of the graded piece.  The reduced
    normalization divides out the discriminant power and stays inside the
    ideal only when every coweight gap |lam_r - lam_s| is at most 1 (or when
    d = 1, where antisymmetry alone forces the vanishing); callers probing
    that regime should restrict the sweep accordingly.
    """
    roots = RootData.type_a(n)
    spec = IdealSpec(roots, d)
    checked = 0
    failures = []
    coweights = dominant_coweights(n, lam_bound, -lam_bound)
    for lam, ye, poly in class_polys(roots, d, coweights, y_exponents(n, f_degree), normalization):
        checked += 1
        ok, witness = membership(poly, spec)
        if not ok:
            failures.append({"lam": lam, "dressing": ye, "witness": witness})
    return {"ok": not failures, "checked": checked, "failures": failures}


def verify_spanning(n, d, window):
    """Compare the class span with the e_d I^(d) slice on a window.

    Generates reduced commutative classes over coweights inside the window
    box, keeps those supported on the window, verifies containment for each,
    and row-reduces their coordinate vectors against the exact slice basis
    from ``graded_dimension``.  Returns a dict with both dimensions.
    """
    roots = RootData.type_a(n)
    spec = IdealSpec(roots, d)
    slice_ = graded_dimension(spec, d, window)
    index = {key: t for t, key in enumerate(slice_.columns)}
    vectors = []
    generators = 0
    failures = []
    coweights = dominant_coweights(n, window.x_max, window.x_min)
    for lam, ye, poly in class_polys(roots, d, coweights, y_exponents(n, window.y_max)):
        if not poly.terms.keys() <= index.keys():
            continue
        generators += 1
        ok, witness = membership(poly, spec)
        if not ok:
            failures.append({"lam": lam, "dressing": ye, "witness": witness})
            continue
        vectors.append({index[key]: value for key, value in poly.terms.items()})
    span_dim = span_dimension(vectors)
    return {
        "ok": not failures and span_dim == slice_.dimension,
        "span_dim": span_dim,
        "slice_dim": slice_.dimension,
        "generators": generators,
        "failures": failures,
    }
