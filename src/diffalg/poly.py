"""Exact multivariate Laurent polynomial and rational function arithmetic.

The coefficient field is the rationals.  A polynomial lives in variables
x1..xn (Laurent, integer exponents of either sign), y1..yn (ordinary,
nonnegative exponents), and two central parameters c and h.  It is stored
as c * p: its content c, a positive int or stdlib Fraction (never a float),
and its primitive part p, a term dict of ints with gcd 1; zero is c = 1 and
p empty.  As c > 0 the pair is unique, so equality and hashing compare it.
Every kernel runs on p.  ``terms``, the canonical coefficient dict c * p
(int when integral, else Fraction), is a view built on first read and
cached; it must not be mutated.

A term is stored under a key that packs its exponents into one int of 2n+2
fields of 16 bits.  From the top down the fields hold y1..yn, x1..xn, c and
h, so keys compare as ints the way (y-exponents, x-exponents, c-exponent,
h-exponent) compare as tuples, and a product key is ``k1 + k2 - one`` with
``one`` the key of the monomial 1.  A y, c or h exponent is stored as it is
and ranges over 0..32767; an x exponent e is stored as e + 16384 and ranges
over -16384..16383.  The top bit of each field is a guard that no valid key
sets: a sum of two valid fields that leaves its range sets it (one that
drops below 0 borrows from the field above and sets it too), and an
exponent outside its range raises ValueError, be it given to
``monomial_key`` or made by a product, a power or a substitution.  The
layout is private to this module; elsewhere keys are opaque, built by
``monomial_key`` and read by ``key_exponents`` and ``term_degree``.  No
zero coefficient is ever stored, and the canonical term order is
descending on the key.

Dense int parts a and b multiply as one big int (Kronecker substitution).
A field that varies gets radix (its range in a) + (its range in b) + 1, so
slots of the product's exponent box, numbered in mixed radix, add like keys.
With one signed lane of width bits per slot, lane s of the product is the
sum of a_i b_j over the slots adding to s, at most B = sum|a| * max|b| in
absolute value.  Exactness: width (16, 32 or 64) has B < 2^(width-1), so
after adding 2^(width-1) to every lane the lanes are the unique base-2^width
digits of the biased product.  The terms come back in slot order.

Rational functions keep a factored denominator: a multiset of linear forms
y_r - y_s + a*h + b*c with r < s.  Any sign flip needed to normalise a form
to r < s is absorbed into the numerator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain
from math import comb, gcd, lcm, prod
from operator import and_, itemgetter, mul, or_


@dataclass(frozen=True)
class VarContext:
    """Ambient variable set: n pairs (x_i, y_i) plus the parameters c and h."""

    n: int

    def __post_init__(self):
        if require_int(self.n, "n") < 1:
            raise ValueError("need at least one variable pair")


def _as_scalar(value):
    """The canonical exact scalar: int when integral, else Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def require_int(value, name):
    """value as a plain int; ValueError when it is not an integer."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def scalar_div(a, b):
    """The exact quotient a / b; raises ZeroDivisionError when b is 0."""
    if type(a) is int and type(b) is int and b and not a % b:
        return a // b
    return _as_scalar(Fraction(a, b))


def sum_by_key(pairs, term=None):
    """Sum the values of (key, value) pairs per key and drop the zero sums.

    Keys keep the order of their first appearance.  A group of two or more
    values is summed once by the ``sum`` of its values' class; a group of one
    comes back unchanged.  With ``term``, values are argument tuples of term,
    built one key at a time.
    """
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    sums = {}
    for key, values in groups.items():
        if term:
            values = [term(*v) for v in values]
        first = values[0]
        total = first if len(values) == 1 else type(first).sum(first.ctx, values)
        if total:
            sums[key] = total
    return sums


class Immutable:
    """Base of the immutable value classes: assigning any attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class TagMismatch(ValueError):
    """Raised when combining sums whose tags do not line up."""


class TermSum(Immutable):
    """Finite sum of nonzero coefficients keyed by group elements.

    A subclass lists its slots, one of them ``terms`` (key -> coefficient);
    every other slot is a tag (variable context or matter, framing tags,
    exactness), and sums with different tags never add.  A subclass supplies
    ``_like(terms)``, the sum with its own tags and the given terms,
    ``_term_text(key, coeff)`` and ``_order``, the sort key of printing.
    """

    __slots__ = ()
    _order = None

    def _tags(self):
        return tuple(getattr(self, name) for name in self.__slots__ if name != "terms")

    def _check_tags(self, other, verb):
        """Raise TagMismatch unless other carries the same tags as self."""
        mine, theirs = self._tags(), other._tags()
        if mine != theirs:
            raise TagMismatch(f"cannot {verb} {type(self).__name__} with tags {mine} and {theirs}")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_tags(other, "add")
        return self._like(sum_by_key(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._tags() == other._tags() and self.terms == other.terms

    def __hash__(self):
        return hash((self._tags(), frozenset(self.terms.items())))

    def text(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=self._order)
        return " + ".join(self._term_text(key, self.terms[key]) for key in keys)

    def __repr__(self):
        return self.text()


class LaurentPoly(Immutable):
    """Immutable exact polynomial, content times primitive part; see the module docstring."""

    __slots__ = ("ctx", "_content", "_ints", "_terms", "_folds")

    def __init__(self, ctx, terms):
        ints = {}
        for key, coeff in terms.items():
            coeff = coeff if type(coeff) is int else _as_scalar(coeff)
            if coeff:
                ints[key] = coeff
        content = 1
        if Fraction in map(type, ints.values()):
            d = lcm(*[coeff.denominator for coeff in ints.values()])
            ints = {key: coeff.numerator * (d // coeff.denominator) for key, coeff in ints.items()}
            content = Fraction(1, d)
        self._set(ctx, content, ints)

    def _set(self, ctx, content, ints, primitive=False):
        """Store content * ints (no zero value); unless primitive, the gcd of ints joins the content."""
        if not primitive:
            g = gcd(*ints.values())
            if g > 1:
                ints = {key: coeff // g for key, coeff in ints.items()}
                content *= g
        if not ints:
            content = 1
        elif type(content) is not int:
            content = _as_scalar(content)
        setattr = object.__setattr__
        setattr(self, "ctx", ctx)
        setattr(self, "_content", content)
        setattr(self, "_ints", ints)
        setattr(self, "_terms", ints if content == 1 else None)
        setattr(self, "_folds", None)  # per-index folds of the exact_divide certificate

    @property
    def terms(self):
        """The canonical coefficient dict, key -> int or Fraction; a cached view."""
        terms = self._terms
        if terms is None:
            num, den = self._content.as_integer_ratio()
            terms = {key: scalar_div(num * coeff, den) for key, coeff in self._ints.items()}
            object.__setattr__(self, "_terms", terms)
        return terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return _from_ints(ctx, {}, 1)

    @classmethod
    def const(cls, ctx, value):
        value = _as_scalar(value)
        ints = {_layout(ctx.n).one: 1 if value > 0 else -1} if value else {}
        return _from_ints(ctx, ints, abs(value), True)

    @classmethod
    def one(cls, ctx):
        return cls.const(ctx, 1)

    @classmethod
    def sum(cls, ctx, values):
        """The sum of a family over ctx, its int parts added into one dict in one pass.

        Fraction-free: with contents n_i / d_i, D the lcm of the d_i and G the
        gcd of the m_i = n_i * D / d_i, summand i adds its int part times
        m_i / G, and the sum is G / D times that dict after one gcd pass.
        """
        parts = []
        for value in values:
            _check_ctx(ctx, value.ctx)
            if value._ints:
                parts.append(value)
        if len(parts) < 2:
            return parts[0] if parts else cls.zero(ctx)
        contents = [part._content for part in parts]
        d = lcm(*[content.denominator for content in contents])
        nums = [content.numerator * (d // content.denominator) for content in contents]
        g = gcd(*nums)
        out = {}
        get = out.get
        for part, num in zip(parts, nums):
            scale = num // g
            for key, coeff in part._ints.items():
                out[key] = get(key, 0) + coeff * scale
        return _from_ints(ctx, out, Fraction(g, d) if d > 1 else g)

    @classmethod
    def monomial(cls, ctx, xe=None, ye=None, ce=0, he=0, coeff=1):
        zero = (0,) * ctx.n
        xe = zero if xe is None else tuple(xe)
        ye = zero if ye is None else tuple(ye)
        if len(xe) != ctx.n:
            raise ValueError("exponent vector length mismatch")
        return cls(ctx, {monomial_key(xe, ye, ce, he): coeff})

    @classmethod
    def x(cls, ctx, i, power=1):
        return cls.monomial(ctx, xe=_unit_exponents(ctx, i, power))

    @classmethod
    def y(cls, ctx, i, power=1):
        return cls.monomial(ctx, ye=_unit_exponents(ctx, i, power))

    @classmethod
    def c(cls, ctx):
        return cls.monomial(ctx, ce=1)

    @classmethod
    def h(cls, ctx):
        return cls.monomial(ctx, he=1)

    # -- basic queries -------------------------------------------------

    def __bool__(self):
        return bool(self._ints)

    def __len__(self):
        """The number of terms; builds nothing."""
        return len(self._ints)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ctx, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._content == other._content and self._ints == other._ints

    def __hash__(self):
        return hash((self.ctx, self._content, frozenset(self._ints.items())))

    def is_constant(self):
        one = _layout(self.ctx.n).one
        return all(k == one for k in self._ints)

    def constant_value(self):
        return _as_scalar(self._content * self._ints.get(_layout(self.ctx.n).one, 0))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ctx, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly.sum(self.ctx, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return _from_ints(self.ctx, {k: -v for k, v in self._ints.items()}, self._content, True)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_scalar(other)
            if not other:
                return LaurentPoly.zero(self.ctx)
            ints = self._ints if other > 0 else {k: -v for k, v in self._ints.items()}
            return _from_ints(self.ctx, ints, self._content * abs(other), True)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_ctx(self.ctx, other.ctx)
        n, mine, theirs = self.ctx.n, self._ints, other._ints
        dense = len(self) * len(other) >= _DENSE_PAIRS and _mul_dense(n, mine, theirs)
        out = dense or _mul_pairs(n, mine, theirs)
        # Gauss's lemma: the product of the primitive parts is primitive
        return _from_ints(self.ctx, out, self._content * other._content, True)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one(self.ctx)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                # no square past the top bit: it is unused, and may leave the fields
                base = base * base
        return result

    def __repr__(self):
        return f"LaurentPoly({poly_to_text(self)})"


def _check_ctx(ctx, other):
    """Raise on operands from different contexts, whose keys do not line up."""
    if ctx is not other and ctx != other:
        raise ValueError(f"context mismatch: {ctx} vs {other}")


def _from_ints(ctx, out, content, primitive=False):
    """The polynomial content * out of the int-valued terms out; takes over out.

    ``primitive`` (out is primitive up to zero values) skips the gcd pass.
    Raises ValueError when a key of out has an exponent outside its field.
    """
    if reduce(or_, out, 0) & _layout(ctx.n).guard:
        raise ValueError(_RANGE_ERROR)
    if 0 in out.values():
        out = {key: coeff for key, coeff in out.items() if coeff}
    poly = object.__new__(LaurentPoly)
    poly._set(ctx, content, out, primitive)
    return poly


def _unit_exponents(ctx, i, power):
    """The exponent vector with power at index i; raises unless i is an integer in 0..n-1."""
    if not 0 <= require_int(i, "a variable index") < ctx.n:
        raise ValueError(f"variable index {i} out of range 0..{ctx.n - 1}")
    exps = [0] * ctx.n
    exps[i] = power
    return exps


# -- packed term keys ----------------------------------------------------

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)
_X_BIAS = 1 << (_WIDTH - 2)
_C_SHIFT = _WIDTH  # the h field is the lowest, at shift 0
_CH_FIELDS = (1 << (2 * _WIDTH)) - 1
_RANGE_ERROR = (
    f"exponent outside its packed field: x exponents must lie in "
    f"{-_X_BIAS}..{_X_BIAS - 1}, y, c and h exponents in 0..{_GUARD - 1}"
)


class _Layout:
    """Field shifts of the packed keys at rank n, the key of 1 and the guard bits."""

    __slots__ = ("xs", "ys", "one", "guard")

    def __init__(self, n):
        self.xs = tuple(_WIDTH * (n + 1 - i) for i in range(n))
        self.ys = tuple(_WIDTH * (2 * n + 1 - i) for i in range(n))
        self.one = sum(_X_BIAS << shift for shift in self.xs)
        self.guard = sum(_GUARD << (_WIDTH * k) for k in range(2 * n + 2))


_layout = cache(_Layout)  # one layout per rank, built on first use


_DENSE_PAIRS = 1024  # term pairs from which __mul__ tries _mul_dense
_LANE_FORMATS = {16: "H", 32: "I", 64: "Q"}  # unsigned memoryview format per lane width
_BYTEORDER = "little" if memoryview(b"\1\0").cast("H")[0] == 1 else "big"  # native, as casts read


def _mul_pairs(n, a, b):
    """The product of the int term dicts a and b at rank n, pair by pair; may hold zero values."""
    one = _layout(n).one
    right = list(b.items())  # a list iterates faster than dict items
    out = {}
    get = out.get
    for k1, c1 in a.items():
        k1 -= one
        for k2, c2 in right:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return out


def _mul_dense(n, a, b):
    """The product of the nonempty int term dicts a and b by Kronecker substitution, or None.

    Raises ValueError exactly when a pair key would leave its field, as then
    a corner of the box does.  None, for the pair loop, when a lane needs
    more than 64 bits or the box has more than half a slot per term pair,
    where this route measured no faster (README.md).
    """
    layout = _layout(n)
    varying = reduce(or_, a) ^ reduce(and_, a) | reduce(or_, b) ^ reduce(and_, b)  # bits that differ
    fields = [shift for shift in range(0, _WIDTH * (2 * n + 2), _WIDTH) if varying >> shift & _FIELD]
    fixed = ~sum(_FIELD << shift for shift in fields)
    low = high = (next(iter(a)) & fixed) + (next(iter(b)) & fixed) - layout.one  # the box's corners
    index_a, index_b, radices, size = [0] * len(a), [0] * len(b), [], 1  # slots, fields[0] fastest
    for shift in fields:
        col_a, col_b = [k >> shift & _FIELD for k in a], [k >> shift & _FIELD for k in b]
        lo_a, lo_b, hi_a, hi_b = min(col_a), min(col_b), max(col_a), max(col_b)
        low, high = low + (lo_a + lo_b << shift), high + (hi_a + hi_b << shift)
        index_a = [i + (e - lo_a) * size for i, e in zip(index_a, col_a)]
        index_b = [i + (e - lo_b) * size for i, e in zip(index_b, col_b)]
        radices.append(hi_a - lo_a + hi_b - lo_b + 1)
        size *= radices[-1]
    if (low | high) & layout.guard:
        raise ValueError(_RANGE_ERROR)
    bound = sum(map(abs, a.values())) * max(map(abs, b.values()))  # bounds every lane
    width = next((w for w in _LANE_FORMATS if bound >> (w - 1) == 0), None)
    if 2 * size > len(a) * len(b) or width is None:
        return None
    code, half = _LANE_FORMATS[width], 1 << (width - 1)
    zero = half.to_bytes(width // 8, _BYTEORDER)  # a lane holding 0, biased by half
    product = 1
    for ints, index in ((a, index_a), (b, index_b)):
        view = memoryview(bytearray(zero * (max(index) + 1))).cast(code)
        for i, c in zip(index, ints.values()):
            view[i] = half + c
        product *= int.from_bytes(view, _BYTEORDER) - int.from_bytes(zero * len(view), _BYTEORDER)
    lanes = max(index_a) + max(index_b) + 1
    product += int.from_bytes(zero * lanes, _BYTEORDER)  # the bias: lane s now holds half + its sum
    view = memoryview(product.to_bytes(lanes * width // 8, _BYTEORDER)).cast(code)
    rows = [low]  # the key of each row's first slot; a row runs along fields[0]
    for shift, radix in zip(fields[1:], radices[1:]):
        rows = [base + (d << shift) for d in range(radix) for base in rows]
    out = {}
    for start, base in zip(range(0, lanes, radices[0]), rows):
        for j, c in enumerate(view[start : start + radices[0]]):
            if c != half:
                out[base + (j << fields[0])] = c - half
    return out


def monomial_key(xe, ye, ce=0, he=0):
    """The term key of the monomial x^xe y^ye c^ce h^he.

    Raises ValueError on an exponent that is not an integer, on vectors of
    different lengths, on a negative y, c or h exponent, and on an exponent
    outside its packed field.
    """
    for e in (*xe, *ye, ce, he):
        require_int(e, "an exponent")
    if len(xe) != len(ye):
        raise ValueError("exponent vector length mismatch")
    if any(e < 0 for e in ye) or ce < 0 or he < 0:
        raise ValueError("y, c and h exponents must be nonnegative")
    if any(not -_X_BIAS <= e < _X_BIAS for e in xe) or max(*ye, ce, he) >= _GUARD:
        raise ValueError(_RANGE_ERROR)
    layout = _layout(len(xe))
    key = layout.one + (ce << _C_SHIFT) + he
    for shift, e in zip(layout.xs + layout.ys, (*xe, *ye)):
        key += e << shift
    return key


def key_exponents(ctx, key):
    """The exponents (xe, ye, ce, he) of a term key over ctx."""
    layout = _layout(ctx.n)
    return (
        tuple([(key >> shift & _FIELD) - _X_BIAS for shift in layout.xs]),
        tuple([key >> shift & _FIELD for shift in layout.ys]),
        key >> _C_SHIFT & _FIELD,
        key & _FIELD,
    )


def term_degree(ctx, key):
    """Total degree of a term in y, c and h; x, a unit, does not count."""
    _, ye, ce, he = key_exponents(ctx, key)
    return sum(ye) + ce + he


def linear_poly(ctx, ys, h=0, c=0):
    """The linear polynomial sum_i ys[i]*y_i + h*h + c*c."""
    if len(ys) != ctx.n:
        raise ValueError("coefficient vector length mismatch")
    layout = _layout(ctx.n)
    terms = {layout.one + (1 << shift): coeff for shift, coeff in zip(layout.ys, ys)}
    terms[layout.one + 1] = h
    terms[layout.one + (1 << _C_SHIFT)] = c
    return LaurentPoly(ctx, terms)


# -- substitutions and group actions -----------------------------------


def act_perm(w, f):
    """Apply a permutation to variables: x_j -> x_{w(j)}, y_j -> y_{w(j)}.

    w is a tuple of images, 0-indexed: position j maps to w[j].  On exponent
    vectors this transports e to e' with e'_{w(j)} = e_j: act with lam = 0.
    """
    return act((w, (0,) * f.ctx.n), f)


def act_matrix(m, f):
    """Integer matrix as substitution: y_j -> sum_i m[i][j] y_i, x^e -> x^(m e).

    A permutation matrix, whose column j holds a single 1 in row w[j] with w
    a permutation, goes to act_perm(w, f).  The substitution is then
    y_j -> y_{w(j)} and x^e -> x^e' with e'_{w(j)} = e_j: a relabelling of
    the key fields, exact with no arithmetic, and every image stays in its
    field.  Any other matrix expands each term by products of column powers.
    An x image outside its packed field raises ValueError.
    """
    ctx = f.ctx
    columns = list(zip(*m))
    unit = [0] * (ctx.n - 1) + [1]
    if all(sorted(column) == unit for column in columns):
        w = tuple(column.index(1) for column in columns)
        if len(set(w)) == ctx.n:
            return act_perm(w, f)
    layout = _layout(ctx.n)
    powers = {}
    pieces = []
    for key, coeff in f._ints.items():
        xe = [(key >> shift & _FIELD) - _X_BIAS for shift in layout.xs]
        moved = layout.one + (key & _CH_FIELDS)
        for shift, row in zip(layout.xs, m):
            image = sum(map(mul, row, xe))
            if not -_X_BIAS <= image < _X_BIAS:
                raise ValueError(_RANGE_ERROR)
            moved += image << shift
        piece = _from_ints(ctx, {moved: coeff}, f._content)
        for j, shift in enumerate(layout.ys):
            e = key >> shift & _FIELD
            if e:
                if (j, e) not in powers:
                    powers[j, e] = linear_poly(ctx, columns[j]) ** e
                piece = piece * powers[j, e]
        pieces.append(piece)
    return LaurentPoly.sum(ctx, pieces)


def shift_y(f, lam):
    """Substitute y_i -> y_i + h * lam_i (x variables untouched); act with the identity permutation.

    Raises ValueError unless lam has one integer entry per variable.  An
    integer shift is an automorphism of the integer polynomial ring, so it
    keeps the content.
    """
    return act((range(f.ctx.n), lam), f)


def act(g, f):
    """Extended affine action: act((w, lam), f) = shift by lam after w; f itself for the identity.

    The permutation substitutes first (y_j -> y_{w(j)}, same on x), then the
    translation part shifts y_i -> y_i + h * lam_i.  Composition satisfies
    act(g1 * g2, f) = act(g1, act(g2, f)) for the product
    (w1, l1)(w2, l2) = (w1 w2, l1 + w1 l2).  One pass moves the permuted
    key fields, then ``_expand`` shifts each y_i with lam_i != 0.
    """
    w, lam = g
    layout = _layout(f.ctx.n)
    lam = [require_int(step, "a shift entry") for step in lam]
    if len(lam) != f.ctx.n:
        raise ValueError(f"shift must have {f.ctx.n} entries, got {len(lam)}")
    moves = [(s[j], s[image]) for s in (layout.xs, layout.ys) for j, image in enumerate(w) if image != j]
    if not moves and not any(lam):
        return f
    ints = f._ints
    if moves:
        keep = ~sum(_FIELD << src for src, _ in moves)
        ints = {}
        for key, coeff in f._ints.items():
            moved = key & keep
            for src, dst in moves:
                moved |= (key >> src & _FIELD) << dst
            ints[moved] = coeff
    for shift, step in zip(layout.ys, lam):
        if step:
            ints = _expand(ints, shift, 1, step)
    return _from_ints(f.ctx, ints, f._content, True)


def _expand(ints, shift, scale, step):
    """The int term dict ints with v -> scale*v + step*h, v the variable of the field at shift.

    v^k expands to sum_b C(k, b) scale^b step^(k - b) v^b h^(k - b).  The
    result may hold zero values, and is ints itself when v -> v.  Raises
    ValueError when an h exponent leaves its field, so that no later
    expansion carries one into the c field.
    """
    if not step:
        return ints if scale == 1 else {k: c * scale ** (k >> shift & _FIELD) for k, c in ints.items()}
    out = {}
    get = out.get
    for key, coeff in ints.items():
        k = key >> shift & _FIELD
        if not k:
            out[key] = get(key, 0) + coeff
            continue
        base = key - (k << shift) + k  # v^0 h^(he + k)
        if base & _GUARD:
            raise ValueError(_RANGE_ERROR)
        for b in range(k + 1):
            key = base + (b << shift) - b
            out[key] = get(key, 0) + coeff * comb(k, b) * scale**b * step ** (k - b)
    return out


def subst_params(f, c_sign=1, c_to_h=0, h_sign=1):
    """Substitute c -> c_sign*c + c_to_h*h and h -> h_sign*h, h first (``_expand``).

    Raises ValueError unless the arguments are integers.  With unit signs it
    is an automorphism of the integer polynomial ring and keeps the content.
    """
    c_sign, c_to_h, h_sign = map(require_int, (c_sign, c_to_h, h_sign), ("c_sign", "c_to_h", "h_sign"))
    ints = _expand(_expand(f._ints, 0, h_sign, 0), _C_SHIFT, c_sign, c_to_h)
    return _from_ints(f.ctx, ints, f._content, c_sign in (1, -1) and h_sign in (1, -1))


def perm_sign(w):
    inversions = sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )
    return -1 if inversions & 1 else 1


# -- linear forms and factored rational functions ----------------------


@dataclass(frozen=True, order=True)
class LinearForm:
    """The form y_r - y_s + a*h + b*c with r < s (0-indexed)."""

    r: int
    s: int
    a: int = 0
    b: int = 0

    def __post_init__(self):
        for name in ("r", "s", "a", "b"):
            require_int(getattr(self, name), name)
        if not self.r < self.s:
            raise ValueError("stored form requires r < s; use LinearForm.make")

    @staticmethod
    def make(r, s, a=0, b=0):
        """Normalised form plus the sign absorbed by flipping to r < s."""
        if r == s:
            raise ValueError("degenerate form")
        if r < s:
            return LinearForm(r, s, a, b), 1
        return LinearForm(s, r, -a, -b), -1

    def to_poly(self, ctx):
        ys = [0] * ctx.n
        ys[self.r], ys[self.s] = 1, -1
        return linear_poly(ctx, ys, self.a, self.b)

    def transform(self, w, lam):
        """Image under act((w, lam), .) together with the normalising sign."""
        nr, ns = w[self.r], w[self.s]
        na = self.a + lam[nr] - lam[ns]
        return LinearForm.make(nr, ns, na, self.b)

    def subst_c(self, c_sign, c_to_h):
        return LinearForm(self.r, self.s, self.a + self.b * c_to_h, self.b * c_sign)

    def text(self):
        parts = [f"y{self.r + 1} - y{self.s + 1}"]
        for value, name in ((self.a, "h"), (self.b, "c")):
            if value:
                mag = f"{abs(value)}*{name}" if abs(value) != 1 else name
                parts.append(("+ " if value > 0 else "- ") + mag)
        return " ".join(parts)


# Modulus and base point of the non-divisibility certificate in exact_divide.
# Coordinate k of the point (x1..xn, y1..yn, c, h in that order) is
# _CERT_BASE ** (k + 1) mod _CERT_PRIME: fixed residues with no short integer
# relation between them, so the factors y_i - y_j + a*h + b*c that fill the
# numerators here do not vanish at the point, as they would at small
# consecutive integers.
_CERT_PRIME = 2**61 - 1
_CERT_BASE = 0x9E3779B97F4A7C15


# The certificate memo of a rank is cleared when it reaches this many entries.
_CERT_MEMO_CAP = 1 << 14


@cache
def _cert_memo(n):
    """Residues at the certificate's base point of rank n, memoised per monomial.

    A key with its y_r field cleared maps to the residue of its monomial.
    Only y_r moves with the form, so an entry serves every form and call.
    """
    return {}


def _vanishes_mod_p(f, form):
    """False when f is provably nonzero on the hyperplane of form.

    Evaluates the int part of f modulo _CERT_PRIME at the base point with
    y_r moved onto y_r = y_s - a*h - b*c; True means the residue is 0.  The
    coefficients are ints, so no denominator needs inverting.  f is first
    folded, once per index r and kept on f, to the residues of its y_r-degree
    pieces with y_r left free, which each further form with that r reuses.
    A piece sums coeff times the memoised residue of the term's other
    variables: as coordinate k is _CERT_BASE ** (k + 1), a monomial with
    exponents e_k has the residue _CERT_BASE ** sum((k + 1) * e_k).
    """
    p, base, n = _CERT_PRIME, _CERT_BASE, f.ctx.n
    if f._folds is None:
        object.__setattr__(f, "_folds", {})
    fold = f._folds.get(form.r)
    if fold is None:
        memo = _cert_memo(n)
        if len(memo) >= _CERT_MEMO_CAP:
            memo.clear()
        shift_r = _layout(n).ys[form.r]
        others = ~(_FIELD << shift_r)
        fold = {}
        for key, coeff in f._ints.items():
            fixed = key & others
            rv = memo.get(fixed)
            if rv is None:
                xe, ye, ce, he = key_exponents(f.ctx, fixed)
                weight = sum(k * e for k, e in enumerate(xe + ye + (ce, he), 1))
                rv = memo[fixed] = pow(base, weight, p)
            e = key >> shift_r & _FIELD
            fold[e] = fold.get(e, 0) + coeff * rv
        fold = f._folds[form.r] = {e: v % p for e, v in fold.items()}
    c, h = pow(base, 2 * n + 1, p), pow(base, 2 * n + 2, p)
    y_r = (pow(base, n + form.s + 1, p) - form.a * h - form.b * c) % p
    return sum(v * pow(y_r, e, p) for e, v in fold.items()) % p == 0


def exact_divide(f, form):
    """Divide f by a linear form, returning the quotient or None.

    The form divides f exactly when f vanishes on its hyperplane
    y_r = y_s - a*h - b*c.  So the int part of f is first evaluated modulo
    a prime at one fixed point of that hyperplane (``_vanishes_mod_p``).
    If f were divisible, its value there would be 0 and so would the
    residue; a nonzero residue therefore proves non-divisibility, and None
    is returned at once.  A zero residue proves nothing and always falls
    through to the real division, so a quotient is only ever returned after
    an exact check.

    The real division is synthetic division in y_r on the int part: from
    the top y_r-degree down, each term moves into the quotient one degree
    lower and its multiple of (y_r - y_s + a*h + b*c) leaves the remainder.
    The division is exact when nothing of y_r-degree 0 remains.  The form is
    monic in y_r, so the quotient has int coefficients, and by Gauss's
    lemma it is primitive, as the form is and the dividend is; so the
    quotient keeps the content of f.
    """
    if not f:
        return f
    if not _vanishes_mod_p(f, form):
        return None
    layout = _layout(f.ctx.n)
    shift_r = layout.ys[form.r]
    moves = ((1 << layout.ys[form.s], 1), (1, -form.a), (1 << _C_SHIFT, -form.b))
    by_degree = {}
    for key, coeff in f._ints.items():
        by_degree.setdefault(key >> shift_r & _FIELD, {})[key] = coeff
    quotient = {}
    for k in range(max(by_degree), 0, -1):
        lower = by_degree.setdefault(k - 1, {})
        for key, coeff in by_degree.get(k, {}).items():
            if not coeff:
                continue
            key -= 1 << shift_r
            quotient[key] = coeff
            # coeff * y_r^k = coeff * y_r^(k-1) * (form + y_s - a*h - b*c)
            for move, scale in moves:
                if scale:
                    lower[key + move] = lower.get(key + move, 0) + scale * coeff
    if any(by_degree[0].values()):
        return None
    return _from_ints(f.ctx, quotient, f._content, True)


def _times_forms(f, forms):
    return prod((form.to_poly(f.ctx) for form in forms), start=f)


class RationalFunction(Immutable):
    """Numerator polynomial over a multiset of linear forms.

    Construction cancels every denominator factor that divides the numerator
    exactly, so a polynomial-valued function always ends with an empty
    denominator.  One pass over the sorted forms suffices: a form that does
    not divide the numerator divides no quotient of it either, so each copy
    of a form is tried until the first miss and the copies after it are kept.

    The reduced pair (num, sorted den) is unique to the function, so equality
    and hashing compare it.  Forms are irreducible and pairwise
    non-proportional; if n1/D1 = n2/D2 and a form F occurs more often in D1
    than in D2, then F divides n1 * D2 = n2 * D1 more often than D2, so F
    divides n1, which reduction rules out.  So D1 = D2 and n1 = n2 (zero has
    the empty denominator).  Operations try a form only where it can cancel:

    (1) Automorphisms keep a pair reduced: negation, nonzero scalars, ``act``
    and ``subst_c`` send forms to forms and preserve divisibility.  (2) Forms
    are pairwise non-associate irreducibles in a UFD, so primes.  A product
    first cancels num1 against den2 and num2 against den1; a form left in den1
    then divides neither num1 nor the rest of num2, so not their product, and
    likewise for den2.  (3) Over the union denominator U a sum is
    sum_i n_i * (U/D_i).  Let F occur u times in U.  A summand with fewer than
    u copies of F in D_i is a multiple of F.  If exactly one summand reaches
    u, the sum is that summand mod F, nonzero mod F as F divides neither n_i
    nor U/D_i.  So only forms that two summands carry u times are tried.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        kept = []
        if num:
            missed = None
            for form in sorted(den):
                if form != missed:
                    q = exact_divide(num, form)
                    if q is not None:
                        num = q
                        continue
                    missed = form
                kept.append(form)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", tuple(kept))

    @classmethod
    def _reduced(cls, num, den):
        """num / den for a pair known to be reduced unless num is 0."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", tuple(sorted(den)) if num else ())
        return out

    @classmethod
    def zero(cls, ctx):
        return cls(LaurentPoly.zero(ctx), ())

    @classmethod
    def one(cls, ctx):
        return cls(LaurentPoly.one(ctx), ())

    @classmethod
    def sum(cls, ctx, values):
        """The sum of a family over ctx, put over its union denominator once."""
        values = list(values)
        counts = [Counter(value.den) for value in values]
        union = reduce(or_, counts, Counter())
        padded = (_times_forms(v.num, (union - c).elements()) for v, c in zip(values, counts))
        num = LaurentPoly.sum(ctx, padded)
        tops = Counter(f for c in counts for f in c if c[f] == union[f])
        shared = Counter({f: union[f] for f in tops if tops[f] > 1})
        part = cls(num, shared.elements())
        return cls._reduced(part.num, part.den + tuple((union - shared).elements()))

    @property
    def ctx(self):
        return self.num.ctx

    def __bool__(self):
        return bool(self.num)

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return not self.den

    def den_poly(self):
        return _times_forms(LaurentPoly.one(self.ctx), self.den)

    def _coerce(self, other):
        """other as a RationalFunction, or None when it is none of the operand types."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ctx, other)
        if isinstance(other, LaurentPoly):
            other = RationalFunction(other)
        return other if isinstance(other, RationalFunction) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction.sum(self.ctx, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction._reduced(self.num * other, self.den)
        if isinstance(other, LaurentPoly):
            other = RationalFunction._reduced(other, ())
        if not isinstance(other, RationalFunction):
            return NotImplemented
        left = RationalFunction(self.num, other.den)
        right = RationalFunction(other.num, self.den)
        return RationalFunction._reduced(left.num * right.num, left.den + right.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def act(self, g):
        """Extended affine action on both numerator and denominator forms."""
        images = [form.transform(*g) for form in self.den]
        num = act(g, self.num if prod(sign for _, sign in images) > 0 else -self.num)
        return RationalFunction._reduced(num, (form for form, _ in images))

    def subst_c(self, c_sign=1, c_to_h=0):
        """Substitute c -> c_sign*c + c_to_h*h, an automorphism for c_sign = +-1."""
        if c_sign not in (1, -1):
            raise ValueError(f"c_sign must be 1 or -1, got {c_sign!r}")
        return RationalFunction._reduced(
            subst_params(self.num, c_sign=c_sign, c_to_h=c_to_h),
            [form.subst_c(c_sign, c_to_h) for form in self.den],
        )

    def text(self):
        """``num`` alone, or ``(num) / (form) * (form)`` with a denominator."""
        if not self.den:
            return poly_to_text(self.num)
        den_text = " * ".join(f"({form.text()})" for form in self.den)
        return f"({poly_to_text(self.num)}) / {den_text}"

    def __repr__(self):
        return f"RatFn({self.text()})"


# -- local Taylor data ---------------------------------------------------


def taylor_pair(f, pair, order):
    """Expand along the diagonal of a variable pair up to the given order.

    Multiplies by the x_i power needed to clear negative exponents (a unit at
    the diagonal point, so vanishing orders are unchanged), substitutes
    x_i = x_j + u and y_i = y_j + v, and returns the coefficient of u^a v^b
    for every a + b < order as a map (a, b) -> LaurentPoly.  Raises
    ValueError unless pair holds two distinct indices in 0..n-1.

    The expansion sums graded pieces.  A term c x_i^p y_i^q m (p after
    clearing, m free of x_i and y_i) adds c C(p,a) C(q,b) to the coefficient
    of u^a v^b at B / (x_j^a y_j^b), where B = x_j^p y_j^q m is the base key
    of its piece, so every Taylor coefficient is one lane of one piece's sum.
    A piece sums in one big-int multiply-add per term, groups[B] += c *
    V[p, q], where V[p, q] packs C(p,a) C(q,b) for a, b < order into lane
    a*order + b of width bits.  Exactness: since C(p,a) <= C(p_max,a), every
    lane sum, those with a + b >= order included, is at most sum|c| *
    max_a C(p_max,a) * max_b C(q_max,b) in absolute value, which is below
    2^(width-1).  So after adding 2^(width-1) to every lane, the lanes are
    the unique base-2^width digits of the sum, and each reads back exactly.
    """
    n = f.ctx.n
    if not all(0 <= index < n for index in pair):
        raise ValueError(f"pair {pair} has an index outside 0..{n - 1}")
    i, j = pair
    if i == j:
        raise ValueError("pair must be distinct indices")
    buckets = {(a, b): {} for a in range(order) for b in range(order - a)}
    items = f._ints.items()
    if items and order:
        layout = _layout(n)
        xi, xj, yi, yj = layout.xs[i], layout.xs[j], layout.ys[i], layout.ys[j]
        # key & mask holds a term's x_i and y_i fields, which fix its shift and V
        mask = (_FIELD << xi) | (_FIELD << yi)
        fields = set(map(mask.__and__, f._ints))
        xfields = {pq >> xi & _FIELD for pq in fields}
        yfields = {pq >> yi & _FIELD for pq in fields}
        clear = max(0, _X_BIAS - min(xfields))
        p_max, q_max = max(xfields) - _X_BIAS + clear, max(yfields)
        bound = (
            sum(map(abs, map(itemgetter(1), items)))
            * comb(p_max, min(order - 1, p_max // 2))  # the largest C(p_max, a), a < order
            * comb(q_max, min(order - 1, q_max // 2))
        )
        width = bound.bit_length() + 1
        vx = {e: sum(comb(e - _X_BIAS + clear, a) << (a * order * width) for a in range(order))
              for e in xfields}
        vy = {e: sum(comb(e, b) << (b * width) for b in range(order)) for e in yfields}
        table = {}  # key & mask -> (B - key, V[p, q])
        for pq in fields:
            xf, q = pq >> xi & _FIELD, pq >> yi & _FIELD
            shift = (_X_BIAS << xi) + ((xf - _X_BIAS + clear) << xj) + (q << yj) - pq
            table[pq] = shift, vx[xf] * vy[q]
        groups = {}
        for key, c in items:
            shift, v = table[key & mask]
            key += shift
            groups[key] = groups.get(key, 0) + c * v
        if reduce(or_, groups, 0) & layout.guard:
            raise ValueError(_RANGE_ERROR)
        half, lane = 1 << (width - 1), (1 << width) - 1
        bias = half * (((1 << (width * order * order)) - 1) // lane)
        plan = [
            (bucket, (a * order + b) * width, (a << xj) + (b << yj))
            for (a, b), bucket in buckets.items()
        ]
        for base, g in groups.items():
            if g:
                g += bias
                for bucket, at, offset in plan:
                    c = (g >> at & lane) - half
                    if c:
                        bucket[base - offset] = c
    return {ab: _from_ints(f.ctx, bucket, f._content) for ab, bucket in buckets.items()}


# -- text form ------------------------------------------------------------


def poly_to_text(f):
    if not f.terms:
        return "0"
    n = f.ctx.n
    names = [f"y{i + 1}" for i in range(n)] + [f"x{i + 1}" for i in range(n)] + ["c", "h"]
    pieces = []
    for key in sorted(f.terms, reverse=True):
        xe, ye, ce, he = key_exponents(f.ctx, key)
        coeff = f.terms[key]
        factors = [name + (f"^{e}" if e != 1 else "") for name, e in zip(names, (*ye, *xe, ce, he)) if e]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


class ParseError(ValueError):
    """Syntax error with a 1-based character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class _Parser:
    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def take_int(self, allow_sign=False):
        self.skip_ws()
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_factor(self):
        self.skip_ws()
        ch = self.peek()
        if not ch:
            self.error("expected a number, variable, or '('")
        if ch in "0123456789":
            numer = self.take_int()
            if self.peek() == "/":
                self.pos += 1
                denom = self.take_int()
                if denom == 0:
                    self.error("zero denominator")
                return LaurentPoly.const(self.ctx, Fraction(numer, denom))
            return LaurentPoly.const(self.ctx, numer)
        if ch in "xy":
            self.pos += 1
            index = self.take_int()
            if not 1 <= index <= self.ctx.n:
                self.error(f"variable index out of range 1..{self.ctx.n}")
            power = 1
            if self.peek() == "^":
                self.pos += 1
                power = self.take_int(allow_sign=True)
            if ch == "x":
                return LaurentPoly.x(self.ctx, index - 1, power)
            if power < 0:
                self.error("negative power of a y variable")
            return LaurentPoly.y(self.ctx, index - 1) ** power
        if ch in "ch":
            self.pos += 1
            power = 1
            if self.peek() == "^":
                self.pos += 1
                power = self.take_int(allow_sign=True)
            if power < 0:
                self.error(f"negative power of {ch}")
            base = LaurentPoly.c(self.ctx) if ch == "c" else LaurentPoly.h(self.ctx)
            return base ** power
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        self.error("expected a number, variable, or '('")

    def parse_term(self):
        out = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            out = out * self.parse_factor()
        return out

    def parse_expr(self):
        """Terms joined by + and -, the first optionally signed, summed once."""
        terms = []
        while True:
            ch = self.peek()
            if ch in ("+", "-"):
                self.pos += 1
            elif terms:
                return LaurentPoly.sum(self.ctx, terms)
            term = self.parse_term()
            terms.append(-term if ch == "-" else term)

    def parse(self):
        out = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return out


def parse_poly(text, ctx):
    """Parse the canonical text form back into a polynomial."""
    return _Parser(text, ctx).parse()


def parse_factor(text, ctx, start):
    """Parse the factor of text at index start; returns (polynomial, end index).

    A factor is a number, a variable power or a parenthesised expression.
    Error positions count from the start of text.
    """
    parser = _Parser(text, ctx)
    parser.pos = start
    return parser.parse_factor(), parser.pos
