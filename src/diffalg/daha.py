"""Difference-reflection operators in the polynomial representation.

An operator is a finite sum of terms f_(w,lam) * u^lam * w where w is a
permutation, u^lam shifts y_i by h*lam_i, and the coefficient f is a rational
function acting by multiplication on the left.  Composition follows
(f * g1) o (g * g2) = f * act(g1, g) * (g1 g2), i.e. coefficients picked up
from the right factor are transported through the left factor's group part.

The distinguished generators are

    sigma_i = s_i + (c / (y_i - y_{i+1})) (s_i - 1)
    pi      = u^{e_1} w_c,  acting by f(y_1,..,y_n) -> f(y_2,..,y_n,y_1 + h)
    y_k     = multiplication by y_k

which satisfy sigma_i^2 = 1, the braid relations, the cross relations
sigma_i y_k - y_{s_i(k)} sigma_i = c (delta_{k,i+1} - delta_{k,i}), the pi
relations pi y_i = y_{i+1} pi (i < n), pi y_n = (y_1 + h) pi, and
pi^n = u^{(1,..,1)}.

Words in these generators support the degree-reversing anti-involution
phi(sigma_i) = -sigma_{n-i}, phi(y_i) = y_{n+1-i}, phi(pi) = pi, which sends
h to -h on explicit scalar coefficients.

The symmetrizer and its phi-image average g_w over S_n for generators g_i
(sigma_i, or tau_i = -sigma_{n-i}) satisfying the Coxeter relations, built
coset by coset from the g_i (``_average``) rather than word by word.

The parameter shift c -> c + m*h fixes y and h, so it commutes with every
group action act((w, lam), .) and is an algebra automorphism of these
operators (``DiffReflOp.subst_c``).  An operator at the shifted parameter is
therefore built at c and substituted once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import factorial, prod
from operator import add

from .poly import (
    LaurentPoly,
    LinearForm,
    ParseError,
    RationalFunction,
    TermSum,
    VarContext,
    act,
    linear_poly,
    parse_factor,
    poly_to_text,
    subst_params,
    sum_by_key,
)
from .weyl import all_perms, identity_perm, perm_mul, perm_on_vector, transposition


class NotPolynomialPreserving(ValueError):
    """Raised when applying an operator leaves a nonzero denominator."""


class DiffReflOp(TermSum):
    """Finite sum of rational coefficients times extended affine group elements."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", {k: v for k, v in terms.items() if v})

    def _like(self, terms):
        return DiffReflOp(self.ctx, terms)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def identity(cls, ctx):
        key = (identity_perm(ctx.n), (0,) * ctx.n)
        return cls(ctx, {key: RationalFunction.one(ctx)})

    @classmethod
    def sum(cls, ctx, ops):
        return cls(ctx, sum_by_key(chain.from_iterable(op.terms.items() for op in ops)))

    def __mul__(self, scalar):
        """Left multiplication by a scalar, polynomial, or rational function."""
        if isinstance(scalar, (int, Fraction, LaurentPoly, RationalFunction)):
            return self._like({k: v * scalar for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def compose(self, other):
        """Operator product self o other (other acts first)."""
        self._check_tags(other, "compose")
        pairs = (
            (_product_key(g1, g2), (f1, f2, g1))
            for g1, f1 in self.terms.items()
            for g2, f2 in other.terms.items()
        )
        return self._like(sum_by_key(pairs, lambda f1, f2, g1: f1 * f2.act(g1)))

    def __matmul__(self, other):
        return self.compose(other)

    def apply(self, f):
        """Apply to a polynomial; raises NotPolynomialPreserving on failure."""
        total = RationalFunction.sum(
            self.ctx, (coeff * act(g, f) for g, coeff in self.terms.items())
        )
        if not total.is_polynomial():
            raise NotPolynomialPreserving(
                f"result is not polynomial: {total!r}"
            )
        return total.num

    def spherical_collapse(self):
        """Sum coefficients over the permutation part, keyed by translation.

        On symmetric inputs the operator acts through this collapsed family:
        op(f) = sum_lam collapse[lam] * shift_lam(f) whenever f is symmetric.
        """
        return sum_by_key((lam, coeff) for (w, lam), coeff in self.terms.items())

    def subst_c(self, c_to_h):
        """Substitute c -> c + c_to_h*h in every coefficient.

        The substitution fixes y and h, so it commutes with each action
        act((w, lam), .) that composition applies to coefficients; hence it
        is an algebra automorphism: subst_c(a o b) = subst_c(a) o subst_c(b).
        An operator at the shifted parameter is the substitution of the one
        built at c.
        """
        return self._like({k: v.subst_c(c_to_h=c_to_h) for k, v in self.terms.items()})

    # terms print by translation, then by permutation
    _order = staticmethod(lambda key: (key[1], key[0]))

    def _term_text(self, key, coeff):
        w, lam = key
        lam_text = ",".join(str(v) for v in lam)
        w_text = ",".join(str(v + 1) for v in w)
        return f"({coeff.text()}) * u^[{lam_text}] * [{w_text}]"


def _product_key(g1, g2):
    """The group element (w1, l1)(w2, l2) = (w1 w2, l1 + w1 . l2) of a term product."""
    (w1, l1), (w2, l2) = g1, g2
    return perm_mul(w1, w2), tuple(map(add, l1, perm_on_vector(w1, l2)))


def _sandwich(e, middle):
    """e o middle o e, with middle composed first on the side of smaller support.

    Composition is associative, so both groupings give the same operator;
    they differ in the size of the inner product, which the outer compose
    multiplies term by term against e.  The support of a product is read off
    the term keys alone, before any coefficient is computed; a tie keeps the
    left grouping (e o middle) o e.
    """
    def support(a, b):
        return len({_product_key(g1, g2) for g1 in a.terms for g2 in b.terms})

    if support(middle, e) < support(e, middle):
        return e.compose(middle.compose(e))
    return e.compose(middle).compose(e)


def op_to_text(op):
    return op.text()


# -- generators ------------------------------------------------------------


def op_scalar(ctx, value):
    """Multiplication by the polynomial value."""
    key = (identity_perm(ctx.n), (0,) * ctx.n)
    return DiffReflOp(ctx, {key: RationalFunction(value)})


def op_u(ctx, lam):
    lam = tuple(lam)
    if len(lam) != ctx.n:
        raise ValueError(f"translation must have {ctx.n} entries, got {lam}")
    return DiffReflOp(ctx, {(identity_perm(ctx.n), lam): RationalFunction.one(ctx)})


def op_y(ctx, i):
    return op_scalar(ctx, LaurentPoly.y(ctx, i))


def op_sigma(ctx, i):
    """Reflection generator sigma_i for adjacent positions (0-indexed i)."""
    n = ctx.n
    if not 0 <= i < n - 1:
        raise ValueError("reflection index out of range")
    form = LinearForm(i, i + 1)
    zero = (0,) * n
    swap_coeff = RationalFunction(LinearForm(i, i + 1, 0, 1).to_poly(ctx), [form])
    id_coeff = RationalFunction(-LaurentPoly.c(ctx), [form])
    return DiffReflOp(
        ctx,
        {
            (transposition(n, i), zero): swap_coeff,
            (identity_perm(n), zero): id_coeff,
        },
    )


def op_pi(ctx, power=1):
    """pi = u^{e_1} w_c for power 1, its inverse u^{-e_n} w_c^-1 for power -1."""
    if power not in (1, -1):
        raise ValueError(f"pi power must be 1 or -1, got {power!r}")
    n = ctx.n
    w = tuple((j + power) % n for j in range(n))
    lam = (1,) + (0,) * (n - 1) if power == 1 else (0,) * (n - 1) + (-1,)
    return DiffReflOp(ctx, {(w, lam): RationalFunction.one(ctx)})


def _average(ctx, gens):
    """(1/n!) sum_w g_w over S_n, for gens g_1..g_(n-1) satisfying the Coxeter relations.

    Built coset by coset: every w in S_(k+1) is uniquely w' c with w' in S_k
    and c in {1, s_k, s_k s_(k-1), ..., s_k ... s_1}, and the lengths add, so
    g_w = g_w' g_c.
    """
    total = DiffReflOp.identity(ctx)
    for k, g in enumerate(gens):
        reps = [g]
        for earlier in reversed(gens[:k]):
            reps.append(reps[-1].compose(earlier))
        tail = DiffReflOp.sum(ctx, reps)
        total = DiffReflOp.sum(ctx, [total, total.compose(tail) if k else tail])
    return total * Fraction(1, factorial(ctx.n))


@cache
def op_symmetrizer(ctx):
    """Average of sigma_w over the symmetric group (an idempotent), built once per context."""
    return _average(ctx, [op_sigma(ctx, i) for i in range(ctx.n - 1)])


def op_plain_symmetrizer(ctx):
    """Average of the plain permutation operators."""
    n = ctx.n
    scale = RationalFunction(LaurentPoly.const(ctx, Fraction(1, factorial(n))))
    return DiffReflOp(ctx, {(w, (0,) * n): scale for w in all_perms(n)})


def delta_poly(ctx):
    """The c-deformed Vandermonde prod_{r<s}(y_r - y_s + c).

    It generates the image of the sign idempotent inside the polynomial
    representation.
    """
    return prod(
        (LinearForm(r, s, 0, 1).to_poly(ctx) for r, s in combinations(range(ctx.n), 2)),
        start=LaurentPoly.one(ctx),
    )


# -- generator words --------------------------------------------------------


def word_to_text(word):
    pieces = []
    for token in word:
        kind = token[0]
        if kind == "s":
            pieces.append(f"s{token[1] + 1}")
        elif kind == "pi":
            pieces.append("pi" if token[1] == 1 else "pi^-1")
        elif kind == "y":
            pieces.append(f"y{token[1] + 1}")
        elif kind == "scalar":
            pieces.append(f"({poly_to_text(token[1])})")
        else:
            raise ValueError(f"unknown token {token!r}")
    return " ".join(pieces)


def parse_word(text, ctx):
    """Parse a space-separated generator word such as "s1 pi y2 (c + h)"."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos] in " \t":
            pos += 1
            continue
        if text[pos] == "(":
            scalar, pos = parse_factor(text, ctx, pos)
            tokens.append(("scalar", scalar))
            continue
        end = pos
        while end < n and text[end] not in " \t":
            end += 1
        piece = text[pos:end]
        if piece == "pi":
            tokens.append(("pi", 1))
        elif piece == "pi^-1":
            tokens.append(("pi", -1))
        elif piece and piece[0] in "sy" and piece[1:].isascii() and piece[1:].isdigit():
            index = int(piece[1:])
            limit = ctx.n - 1 if piece[0] == "s" else ctx.n
            if not 1 <= index <= limit:
                raise ParseError(f"index out of range 1..{limit}", pos + 2)
            tokens.append((piece[0], index - 1))
        else:
            raise ParseError(f"unknown generator {piece!r}", pos + 1)
        pos = end
    return tuple(tokens)


def evaluate_word(ctx, word):
    """Compose generator operators left to right (rightmost acts first)."""
    builders = {"s": op_sigma, "pi": op_pi, "y": op_y, "scalar": op_scalar}
    out = DiffReflOp.identity(ctx)
    for token in word:
        if token[0] not in builders:
            raise ValueError(f"unknown token {token!r}")
        out = out.compose(builders[token[0]](ctx, token[1]))
    return out


def phi_word(word, n):
    """Anti-involution on a word: reverse, s_i -> -s_{n-i}, y_i -> y_{n+1-i}.

    The accumulated sign is returned as a leading scalar token, and h -> -h
    is applied inside scalar coefficients.
    """
    sign = 1
    out = []
    for token in reversed(word):
        kind = token[0]
        if kind == "s":
            sign = -sign
            out.append(("s", n - 2 - token[1]))
        elif kind == "pi":
            out.append(token)
        elif kind == "y":
            out.append(("y", n - 1 - token[1]))
        elif kind == "scalar":
            out.append(("scalar", subst_params(token[1], h_sign=-1)))
        else:
            raise ValueError(f"unknown token {token!r}")
    return sign, tuple(out)


def x_word(n, i):
    """Word for the commuting difference generator X_i (1-indexed i)."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    left = [("s", k - 1) for k in range(i - 1, 0, -1)]
    right = [("s", k - 1) for k in range(n - 1, i - 1, -1)]
    return tuple(left + [("pi", 1)] + right)


def x_omega_word(n, m):
    """Word for X^{omega_m} = X_1 X_2 ... X_m."""
    out = []
    for i in range(1, m + 1):
        out.extend(x_word(n, i))
    return tuple(out)


# -- idempotent sandwich in closed form -------------------------------------


def fundamental_coweight(n, m):
    """The m-th fundamental coweight (1,..,1,0,..,0) with m leading ones, 0 <= m <= n."""
    if not (isinstance(m, int) and 0 <= m <= n):
        raise ValueError(f"fundamental coweight index must be an integer in 0..{n}, got {m!r}")
    return (1,) * m + (0,) * (n - m)


def e_lambda(ctx, lam, mode="closed"):
    """Spherical shift element for a minuscule dominant coweight.

    generators mode composes symmetrizer o X^{omega_m} o symmetrizer from the
    generator words, grouped by ``_sandwich`` as e o (X^{omega_m} o e): e on
    the left would spread the single translation of X^{omega_m} over its S_n
    orbit, so the inner product has 6 terms at rank 3 (24 at rank 4) where
    e o X^{omega_m} has 18 (96).  At lam = (1,0,0,0) this mode takes 9.3 s
    against 117.5 s for (e o X^{omega_m}) o e (one run each, 2 shared cores,
    Python 3.11).  closed mode builds the equivalent localized expression

        plain-symmetrizer o (h_lam .) o u^lam o symmetrizer

    with h_lam the product of (y_alpha - c)/y_alpha over the positive roots
    pairing to 1 with lam.
    """
    n = ctx.n
    lam = tuple(lam)
    m = lam.count(1)
    if len(lam) != n or lam != fundamental_coweight(n, m):
        raise ValueError(f"coweight must be (1,..,1,0,..,0) with {n} entries, got {lam}")
    if mode == "generators":
        e_op = op_symmetrizer(ctx)
        return _sandwich(e_op, evaluate_word(ctx, x_omega_word(n, m))) if m else e_op
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'generators'")
    weight_factor = RationalFunction.one(ctx)
    for r, s in combinations(range(n), 2):
        if lam[r] - lam[s] == 1:
            weight_factor = weight_factor * RationalFunction(
                LinearForm(r, s, 0, -1).to_poly(ctx), [LinearForm(r, s)]
            )
    out = op_u(ctx, lam).compose(op_symmetrizer(ctx)) * weight_factor
    return op_plain_symmetrizer(ctx).compose(out)


# -- relation checks ---------------------------------------------------------


def verify_relations(n):
    """Check the defining relations; returns (label, ok, witness) triples."""
    ctx = VarContext(n)
    sigmas = [op_sigma(ctx, i) for i in range(n - 1)]
    pi = op_pi(ctx)
    ys = [op_y(ctx, k) for k in range(n)]
    ident = DiffReflOp.identity(ctx)
    c_op = op_scalar(ctx, LaurentPoly.c(ctx))
    results = []

    def record(label, lhs, rhs):
        diff = lhs - rhs
        ok = diff.is_zero()
        results.append((label, ok, None if ok else op_to_text(diff)))

    for i in range(n - 1):
        record(f"s{i+1}^2 = id", sigmas[i].compose(sigmas[i]), ident)
    for i in range(n - 2):
        record(
            f"s{i+1} s{i+2} s{i+1} = s{i+2} s{i+1} s{i+2}",
            sigmas[i].compose(sigmas[i + 1]).compose(sigmas[i]),
            sigmas[i + 1].compose(sigmas[i]).compose(sigmas[i + 1]),
        )
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            record(
                f"s{i+1} s{j+1} = s{j+1} s{i+1}",
                sigmas[i].compose(sigmas[j]),
                sigmas[j].compose(sigmas[i]),
            )
    for i in range(n - 1):
        s_i = transposition(n, i)
        for k in range(n):
            delta = (1 if k == i + 1 else 0) - (1 if k == i else 0)
            lhs = sigmas[i].compose(ys[k]) - ys[s_i[k]].compose(sigmas[i])
            rhs = c_op * delta if delta else DiffReflOp.zero(ctx)
            record(f"s{i+1} y{k+1} cross relation", lhs, rhs)
    for k in range(n):
        if k < n - 1:
            record(
                f"pi y{k+1} = y{k+2} pi",
                pi.compose(ys[k]),
                ys[k + 1].compose(pi),
            )
        else:
            shifted = op_scalar(ctx, linear_poly(ctx, (1,) + (0,) * (n - 1), h=1))
            record(
                f"pi y{n} = (y1 + h) pi",
                pi.compose(ys[k]),
                shifted.compose(pi),
            )
    power = ident
    for _ in range(n):
        power = power.compose(pi)
    record("pi^n = u^[1,..,1]", power, op_u(ctx, (1,) * n))
    return results


def phi_image_op(ctx, m):
    """Evaluate phi of the idempotent sandwich without expanding all words.

    phi reverses words, and the sandwich is a palindrome of sums, so the
    image factors as phi(symmetrizer) o phi(middle) o phi(symmetrizer).
    phi sends sigma_w to tau_(w^-1) with tau_i = -sigma_(n-i), and the tau_i
    satisfy the Coxeter relations, so phi(symmetrizer) is the tau-average.
    """
    n = ctx.n
    phi_e = _phi_symmetrizer(ctx)
    if not m:
        return phi_e
    sign, middle = phi_word(x_omega_word(n, m), n)
    return _sandwich(phi_e, evaluate_word(ctx, middle)) * sign


@cache
def _phi_symmetrizer(ctx):
    """The tau-average phi(e), tau_i = -sigma_(n-i), built once per context."""
    return _average(ctx, [-op_sigma(ctx, ctx.n - 2 - i) for i in range(ctx.n - 1)])


def phi_shift_check(n, m):
    """Check the parameter-shift identity for the m-th fundamental coweight.

    The sign idempotent sends polynomials onto multiples of the deformed
    product D_c = prod_{r<s}(y_r - y_s + c), so D_c (not the plain
    Vandermonde) is how the intertwiner between the symmetric subspaces at
    parameters c and c - h acts in the polynomial representation.  The
    identity checked here, as operators on symmetric polynomials, is

        phi(E_{m,c}) o D_c = (-1)^(m(n-m)) . D_c o E_{m, c-h},

    where the sign comes from phi(X_i) = (-1)^(n-1) X_{n+1-i}.

    On symmetric inputs an operator acts through its spherical collapse:
    the (w, lam) coefficient of A o P, P the plain symmetrizer, is
    collapse[lam] / n! for every w.  So the two sides are compared
    collapsed.  The right side is D_c times the collapse of E_{m,c}, with
    c -> c - h applied to each collapsed coefficient: collapsing commutes
    with subst_c and with left multiplication by the scalar D_c.  This takes
    0.07-0.10 s per m at rank 3 and 19.6 s at rank 4, m = 1, where composing
    the difference with P took 0.11-0.12 s and 55.4 s (2 shared cores,
    Python 3.11).  Returns (ok, witness_text); the witness is the nonzero
    collapsed difference, one term per translation.
    """
    ctx = VarContext(n)
    lam = fundamental_coweight(n, m)
    d_c = delta_poly(ctx)
    sign = -1 if (m * (n - m)) % 2 else 1
    lhs = phi_image_op(ctx, m).compose(op_scalar(ctx, d_c)).spherical_collapse()
    e_collapse = e_lambda(ctx, lam, "generators").spherical_collapse()
    minus_rhs = ((mu, coeff.subst_c(c_to_h=-1) * (d_c * -sign)) for mu, coeff in e_collapse.items())
    diff = sum_by_key(chain(lhs.items(), minus_rhs))
    if not diff:
        return True, None
    return False, " + ".join(
        f"({diff[mu].text()}) * u^[{','.join(map(str, mu))}]" for mu in sorted(diff)
    )
