"""Exact multivariate Laurent polynomial and rational function arithmetic.

The coefficient field is the rationals: an integral coefficient is stored as
an int and any other as a stdlib Fraction, never a float, and every division
of coefficients goes through ``scalar_div``.  A polynomial lives in variables
x1..xn (Laurent, integer exponents of either sign), y1..yn (ordinary,
nonnegative exponents), and two central parameters c and h.

A term is stored under a key holding its x-, y-, c- and h-exponents.  The
key layout is private to this module; elsewhere keys are opaque, built by
``monomial_key`` and read by ``term_degree``.  The canonical form never
stores a zero coefficient, and the canonical term order is descending
lexicographic on (y-exponents, x-exponents, c-exponent, h-exponent).

Rational functions keep a factored denominator: a multiset of linear forms
y_r - y_s + a*h + b*c with r < s.  Any sign flip needed to normalise a form
to r < s is absorbed into the numerator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, lcm, prod
from operator import add, or_


@dataclass(frozen=True)
class VarContext:
    """Ambient variable set: n pairs (x_i, y_i) plus the parameters c and h."""

    n: int

    def __post_init__(self):
        if self.n < 1:
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


class LaurentPoly(Immutable):
    """Immutable exact polynomial; do not mutate .terms after construction."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        clean = {}
        for key, coeff in terms.items():
            coeff = _as_scalar(coeff)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx, value):
        zero = (0,) * ctx.n
        return cls(ctx, {(zero, zero, 0, 0): _as_scalar(value)})

    @classmethod
    def one(cls, ctx):
        return cls.const(ctx, 1)

    @classmethod
    def sum(cls, ctx, values):
        """The sum of a family over ctx, its terms added into one dict in one pass."""
        out = {}
        for value in values:
            _check_ctx(ctx, value.ctx)
            for key, coeff in value.terms.items():
                out[key] = out.get(key, 0) + coeff
        return cls(ctx, out)

    @classmethod
    def monomial(cls, ctx, xe=None, ye=None, ce=0, he=0, coeff=1):
        xe = tuple(xe) if xe is not None else (0,) * ctx.n
        ye = tuple(ye) if ye is not None else (0,) * ctx.n
        for e in (*xe, *ye, ce, he):
            require_int(e, "an exponent")
        if len(xe) != ctx.n or len(ye) != ctx.n:
            raise ValueError("exponent vector length mismatch")
        if any(e < 0 for e in ye) or ce < 0 or he < 0:
            raise ValueError("y, c and h exponents must be nonnegative")
        return cls(ctx, {(xe, ye, ce, he): coeff})

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
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ctx, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def is_constant(self):
        zero = (0,) * self.ctx.n
        return all(k == (zero, zero, 0, 0) for k in self.terms)

    def constant_value(self):
        zero = (0,) * self.ctx.n
        return self.terms.get((zero, zero, 0, 0), 0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ctx, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_ctx(self.ctx, other.ctx)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return LaurentPoly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ctx, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ctx, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_scalar(other)
            if not other:
                return LaurentPoly.zero(self.ctx)
            return LaurentPoly(self.ctx, {k: v * other for k, v in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_ctx(self.ctx, other.ctx)
        # Fraction-free: int products of the lcm-scaled operands, one division each.
        d1, left = _integral_terms(self.terms)
        d2, right = _integral_terms(other.terms)
        out = {}
        for (xe1, ye1, ce1, he1), c1 in left:
            for (xe2, ye2, ce2, he2), c2 in right:
                key = (
                    tuple(map(add, xe1, xe2)),
                    tuple(map(add, ye1, ye2)),
                    ce1 + ce2,
                    he1 + he2,
                )
                out[key] = out.get(key, 0) + c1 * c2
        if d1 * d2 != 1:
            out = {key: scalar_div(coeff, d1 * d2) for key, coeff in out.items()}
        return LaurentPoly(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one(self.ctx)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        return f"LaurentPoly({poly_to_text(self)})"


def _check_ctx(ctx, other):
    """Raise on operands from different contexts, whose keys do not line up."""
    if ctx is not other and ctx != other:
        raise ValueError(f"context mismatch: {ctx} vs {other}")


def _integral_terms(terms):
    """(d, items): d the lcm of the coefficient denominators, items the terms * d."""
    if Fraction not in map(type, terms.values()):
        return 1, terms.items()
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


def _unit_exponents(ctx, i, power):
    """The exponent vector with power at index i; raises on i outside 0..n-1."""
    if not 0 <= i < ctx.n:
        raise ValueError(f"variable index {i} out of range 0..{ctx.n - 1}")
    exps = [0] * ctx.n
    exps[i] = power
    return exps


def monomial_key(xe, ye):
    """The term key of the monomial x^xe y^ye, free of c and h."""
    return (tuple(xe), tuple(ye), 0, 0)


def term_degree(key):
    """Total degree of a term in y, c and h; x, a unit, does not count."""
    return sum(key[1]) + key[2] + key[3]


def linear_poly(ctx, ys, h=0, c=0):
    """The linear polynomial sum_i ys[i]*y_i + h*h + c*c."""
    if len(ys) != ctx.n:
        raise ValueError("coefficient vector length mismatch")
    zero = (0,) * ctx.n
    terms = {
        (zero, zero[:i] + (1,) + zero[i + 1 :], 0, 0): coeff
        for i, coeff in enumerate(ys)
    }
    terms[(zero, zero, 0, 1)] = h
    terms[(zero, zero, 1, 0)] = c
    return LaurentPoly(ctx, terms)


# -- substitutions and group actions -----------------------------------


def act_perm(w, f):
    """Apply a permutation to variables: x_j -> x_{w(j)}, y_j -> y_{w(j)}.

    w is a tuple of images, 0-indexed: position j maps to w[j].  On exponent
    vectors this transports e to e' with e'_{w(j)} = e_j.
    """
    n = f.ctx.n
    out = {}
    for (xe, ye, ce, he), coeff in f.terms.items():
        nxe = [0] * n
        nye = [0] * n
        for j in range(n):
            nxe[w[j]] = xe[j]
            nye[w[j]] = ye[j]
        out[(tuple(nxe), tuple(nye), ce, he)] = coeff
    return LaurentPoly(f.ctx, out)


def act_matrix(m, f):
    """Integer matrix as substitution: y_j -> sum_i m[i][j] y_i, x^e -> x^(m e)."""
    ctx = f.ctx
    columns = [linear_poly(ctx, [row[j] for row in m]) for j in range(ctx.n)]
    powers = {}
    pieces = []
    for (xe, ye, ce, he), coeff in f.terms.items():
        mxe = tuple(sum(a * e for a, e in zip(row, xe)) for row in m)
        piece = LaurentPoly(ctx, {(mxe, (0,) * ctx.n, ce, he): coeff})
        for j, e in enumerate(ye):
            if e:
                if (j, e) not in powers:
                    powers[j, e] = columns[j] ** e
                piece = piece * powers[j, e]
        pieces.append(piece)
    return LaurentPoly.sum(ctx, pieces)


def shift_y(f, lam):
    """Substitute y_i -> y_i + h * lam_i (x variables untouched)."""
    if not any(lam):
        return f
    out = {}
    for (xe, ye, ce, he), coeff in f.terms.items():
        expanded = [(coeff, ye, he)]
        for i, step in enumerate(lam):
            if step == 0:
                continue
            nxt = []
            for cur_coeff, cur_ye, cur_he in expanded:
                k = cur_ye[i]
                if k == 0:
                    nxt.append((cur_coeff, cur_ye, cur_he))
                    continue
                for b in range(k + 1):
                    scale = comb(k, b) * step ** (k - b)
                    nye = cur_ye[:i] + (b,) + cur_ye[i + 1 :]
                    nxt.append((cur_coeff * scale, nye, cur_he + (k - b)))
            expanded = nxt
        for cur_coeff, cur_ye, cur_he in expanded:
            key = (xe, cur_ye, ce, cur_he)
            out[key] = out.get(key, 0) + cur_coeff
    return LaurentPoly(f.ctx, out)


def act(g, f):
    """Extended affine action: act((w, lam), f) = shift by lam after w.

    The permutation substitutes first (y_j -> y_{w(j)}, same on x), then the
    translation part shifts y_i -> y_i + h * lam_i.  Composition satisfies
    act(g1 * g2, f) = act(g1, act(g2, f)) for the product
    (w1, l1)(w2, l2) = (w1 w2, l1 + w1 l2).
    """
    w, lam = g
    return shift_y(act_perm(w, f), lam)


def subst_params(f, c_sign=1, c_to_h=0, h_sign=1):
    """Substitute c -> c_sign*c + c_to_h*h and h -> h_sign*h."""
    out = {}
    for (xe, ye, ce, he), coeff in f.terms.items():
        base_coeff = coeff * h_sign**he
        if ce == 0 or c_to_h == 0:
            key = (xe, ye, ce, he)
            out[key] = out.get(key, 0) + base_coeff * c_sign**ce
            continue
        for k in range(ce + 1):
            scale = comb(ce, k) * c_sign**k * c_to_h ** (ce - k)
            key = (xe, ye, k, he + ce - k)
            out[key] = out.get(key, 0) + base_coeff * scale
    return LaurentPoly(f.ctx, out)


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


def _power_product(values, exponents, p):
    out = 1
    for v, e in zip(values, exponents):
        if e:
            out = out * pow(v, e, p) % p
    return out


def _vanishes_mod_p(f, form):
    """False when f is provably nonzero on the hyperplane of form.

    Evaluates f modulo _CERT_PRIME at the base point with y_r moved onto
    y_r = y_s - a*h - b*c.  True means the residue is 0, or that a
    coefficient denominator is divisible by the prime, so there is none.
    Numerators are summed per denominator, so each distinct denominator is
    inverted once, and the x/c/h and y parts of each monomial are computed
    once per distinct exponent vector.
    """
    p = _CERT_PRIME
    n = f.ctx.n
    point = [pow(_CERT_BASE, k, p) for k in range(1, 2 * n + 3)]
    rest, ys = point[:n] + point[2 * n :], point[n : 2 * n]
    ys[form.r] = (ys[form.s] - form.a * point[2 * n + 1] - form.b * point[2 * n]) % p
    rest_part, y_part, by_den = {}, {}, {}
    for (xe, ye, ce, he), coeff in f.terms.items():
        num, den = coeff.as_integer_ratio()
        key = (xe, ce, he)
        rv = rest_part.get(key)
        if rv is None:
            rv = rest_part[key] = _power_product(rest, xe + (ce, he), p)
        yv = y_part.get(ye)
        if yv is None:
            yv = y_part[ye] = _power_product(ys, ye, p)
        by_den[den] = by_den.get(den, 0) + num * rv * yv
    total = 0
    for den, num in by_den.items():
        if not den % p:
            return True
        total += num * pow(den, -1, p)
    return total % p == 0


def exact_divide(f, form):
    """Divide f by a linear form, returning the quotient or None.

    The form divides f exactly when f vanishes on its hyperplane
    y_r = y_s - a*h - b*c.  So f is first evaluated modulo a prime at one
    fixed point of that hyperplane.  If f were divisible, its rational value
    there would be 0 and so would the residue; a nonzero residue therefore
    proves non-divisibility, and None is returned at once.  A zero residue
    (or a coefficient with no residue) proves nothing and always falls
    through to the real division, so a quotient is only ever returned after
    an exact check.

    The real division is synthetic division in y_r on the term dict: from the
    top y_r-degree down, each term moves into the quotient one degree lower
    and its multiple of (y_r - y_s + a*h + b*c) leaves the remainder.  The
    division is exact when nothing of y_r-degree 0 remains.
    """
    if not f:
        return f
    if not _vanishes_mod_p(f, form):
        return None
    r, s, a, b = form.r, form.s, form.a, form.b
    by_degree = {}
    for key, coeff in f.terms.items():
        by_degree.setdefault(key[1][r], {})[key] = coeff
    quotient = {}
    for k in range(max(by_degree), 0, -1):
        lower = by_degree.setdefault(k - 1, {})
        for (xe, ye, ce, he), coeff in by_degree.get(k, {}).items():
            if not coeff:
                continue
            ye = ye[:r] + (k - 1,) + ye[r + 1 :]
            quotient[(xe, ye, ce, he)] = coeff
            # coeff * y_r^k = coeff * y_r^(k-1) * (form + y_s - a*h - b*c)
            for key, step in (
                ((xe, ye[:s] + (ye[s] + 1,) + ye[s + 1 :], ce, he), coeff),
                ((xe, ye, ce, he + 1), -a * coeff),
                ((xe, ye, ce + 1, he), -b * coeff),
            ):
                if step:
                    lower[key] = lower.get(key, 0) + step
    if any(by_degree[0].values()):
        return None
    return LaurentPoly(f.ctx, quotient)


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
    for every a + b < order as a map (a, b) -> LaurentPoly.
    """
    i, j = pair
    if i == j:
        raise ValueError("pair must be distinct indices")
    out = {
        (a, b): LaurentPoly.zero(f.ctx)
        for a in range(order)
        for b in range(order - a)
    }
    if not f.terms:
        return out
    clear = max(0, -min(xe[i] for xe, _, _, _ in f.terms))
    acc = {key: dict() for key in out}
    for (xe, ye, ce, he), coeff in f.terms.items():
        ei = xe[i] + clear
        fi = ye[i]
        for a in range(min(ei, order - 1) + 1):
            ca = comb(ei, a)
            for b in range(min(fi, order - 1 - a) + 1):
                scale = coeff * ca * comb(fi, b)
                nxe = list(xe)
                nxe[i] = 0
                nxe[j] += ei - a
                nye = list(ye)
                nye[i] = 0
                nye[j] += fi - b
                key = (tuple(nxe), tuple(nye), ce, he)
                bucket = acc[(a, b)]
                bucket[key] = bucket.get(key, 0) + scale
    for key, bucket in acc.items():
        out[key] = LaurentPoly(f.ctx, bucket)
    return out


# -- text form ------------------------------------------------------------


def _term_sort_key(key):
    xe, ye, ce, he = key
    return (ye, xe, ce, he)


def poly_to_text(f):
    if not f.terms:
        return "0"
    pieces = []
    for key in sorted(f.terms, key=_term_sort_key, reverse=True):
        xe, ye, ce, he = key
        coeff = f.terms[key]
        factors = []
        for idx, e in enumerate(ye):
            if e == 0:
                continue
            factors.append(f"y{idx + 1}" + (f"^{e}" if e != 1 else ""))
        for idx, e in enumerate(xe):
            if e == 0:
                continue
            factors.append(f"x{idx + 1}" + (f"^{e}" if e != 1 else ""))
        if ce:
            factors.append("c" + (f"^{ce}" if ce != 1 else ""))
        if he:
            factors.append("h" + (f"^{he}" if he != 1 else ""))
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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
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
        if ch.isdigit():
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
