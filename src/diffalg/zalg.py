"""Difference-operator algebras attached to torus characters and coweights.

Two constructions live here, plus the bridge between them.

The abelian side starts from a rank-r torus with a finite list of integer
characters (``AbelianMatter``).  The algebra is spanned by dressed hopping
generators ``f(xi) . i_r_j^lam``: a Laurent-polynomial dressing in the torus
coordinates times a generator carrying an integer coweight ``lam`` and a pair
of framing tags ``(i, j)``.  Products concatenate tags, add coweights, shift
the dressing, and pick up an explicit polynomial factor for every character;
``abelian_embed`` realises everything as difference operators in the torus
coordinates, where composition is the ordinary (twisted) convolution.

The nonabelian side works with Weyl-group-equivariant families of rational
functions indexed by a coweight orbit (``SphericalClass``).  Those come from
two sources: a localized product formula (``class_localized``), exact exactly
when the coweight is minuscule, and a commutative-limit construction
(``class_commutative``) available for any root datum, where the parameters
are switched off and classes multiply by plain convolution.

``match_conventions`` searches for the parameter dictionary (sign of c,
shift of c by multiples of h, orientation sign per root pair) that makes the
localized family agree with the spherical difference operators built in
:mod:`diffalg.daha`, and raises ``NoDictionary`` when no dictionary in its
search box exists.  ``split_coweight`` and ``verify_factorization`` implement the
leading-coefficient factorization of a commutative-limit class into the
classes of the balanced pieces of its coweight.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod
from operator import add

from .poly import (
    Immutable,
    LaurentPoly,
    LinearForm,
    RationalFunction,
    TagMismatch,
    TermSum,
    VarContext,
    act_perm,
    linear_poly,
    poly_to_text,
    require_int,
    shift_y,
    subst_params,
    sum_by_key,
    term_degree,
)
from .weyl import RootData, all_perms, identity_perm, perm_on_vector, transposition
from . import daha


class NoDictionary(RuntimeError):
    """Raised when no unique convention dictionary matches two constructions."""


# -- abelian side ----------------------------------------------------------


class AbelianMatter:
    """A torus of given rank with a list of integer characters.

    The torus coordinates are the y-variables of the ambient context; the
    characters are integer vectors pairing with coweights.
    """

    def __init__(self, rank, characters):
        self.rank = require_int(rank, "the rank")
        self.characters = tuple(
            tuple(require_int(v, "a character entry") for v in ch) for ch in characters
        )
        for ch in self.characters:
            if len(ch) != rank:
                raise ValueError("character length must match the rank")
        self.ctx = VarContext(rank)

    @classmethod
    def from_config(cls, data):
        """Build from a mapping with keys ``rank`` and ``characters``."""
        try:
            return cls(data["rank"], data["characters"])
        except KeyError as exc:
            raise ValueError(f"matter record is missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed matter record {data!r}: {exc}") from None

    def __eq__(self, other):
        if not isinstance(other, AbelianMatter):
            return NotImplemented
        return self.rank == other.rank and self.characters == other.characters

    def __hash__(self):
        return hash((self.rank, self.characters))

    def __repr__(self):
        return f"AbelianMatter({self.rank}, {[list(ch) for ch in self.characters]})"

    def weight(self, ell, lam):
        """Integer pairing of the ell-th character with a coweight."""
        ch = self.characters[ell]
        return sum(ch[t] * lam[t] for t in range(self.rank))

    def interval_factors(self, ell, lo, hi):
        """The factors xi_ell + c + t h for t = lo+1 .. hi, none if hi <= lo."""
        ch = self.characters[ell]
        return [linear_poly(self.ctx, ch, h=t, c=1) for t in range(lo + 1, hi + 1)]


def _coweight_terms(terms, rank, what):
    """terms keyed by coweight tuples of length rank, zero coefficients dropped."""
    clean = {}
    for lam, coeff in terms.items():
        lam = tuple(lam)
        if len(lam) != rank:
            raise ValueError(f"coweight length must match the {what}")
        if coeff:
            clean[lam] = coeff
    return clean


class AbelianZElt(TermSum):
    """Finite sum of dressed generators f(y) . i_r_j^lam with fixed tags."""

    __slots__ = ("matter", "i", "j", "terms")

    def __init__(self, matter, i, j, terms):
        object.__setattr__(self, "matter", matter)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "terms", _coweight_terms(terms, matter.rank, "rank"))

    def _like(self, terms):
        return AbelianZElt(self.matter, self.i, self.j, terms)

    def __mul__(self, other):
        if isinstance(other, AbelianZElt):
            return abelian_product(self, other)
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self._like({lam: f * other for lam, f in self.terms.items()})
        return NotImplemented

    def degree(self):
        """Total degree: coordinates count 2, a generator counts its weights.

        The degree of ``f . i_r_j^lam`` is twice the (uniform) total degree of
        f plus ``sum_ell |<xi_ell, lam> + i - j|``.  Raises ValueError when the
        element is not homogeneous.
        """
        degrees = set()
        for lam, f in self.terms.items():
            base = sum(
                abs(self.matter.weight(ell, lam) + self.i - self.j)
                for ell in range(len(self.matter.characters))
            )
            for key in f.terms:
                degrees.add(base + 2 * term_degree(f.ctx, key))
        if not degrees:
            return 0
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def _term_text(self, lam, f):
        lam_text = ",".join(str(v) for v in lam)
        return f"({poly_to_text(f)}) * r{self.i}_{self.j}^[{lam_text}]"


def r_generator(matter, i, j, lam, coeff=None):
    """The dressed generator coeff(y) . i_r_j^lam (default dressing 1)."""
    if coeff is None:
        coeff = LaurentPoly.one(matter.ctx)
    return AbelianZElt(matter, i, j, {tuple(lam): coeff})


def abelian_product(a, b):
    """Product of dressed generators with matching inner tags.

    Termwise, with weights L = <xi_ell, lam> and M = <xi_ell, mu>,

        (f . i_r_j^lam) (g . j_r_k^mu)
            = shift_mu(f) g prod_ell A_ell . i_r_k^(lam+mu)

    where, setting p = L + M + i, q = M + j, r = k, the factor A_ell is the
    product of (xi_ell + c + t h) over t in (max(p,r), max(p,q,r)] and over
    t in (min(p,q,r), min(p,r)].  Both intervals are integer ranges, so the
    product always stays polynomial.
    """
    if a.matter != b.matter:
        raise TagMismatch("cannot multiply elements over different matter data")
    if a.j != b.i:
        raise TagMismatch(f"inner tags disagree: {a.j} vs {b.i}")
    matter = a.matter
    count = len(matter.characters)
    pairs = []
    for lam, f in a.terms.items():
        for mu, g in b.terms.items():
            factors = []
            for ell in range(count):
                big_l = matter.weight(ell, lam)
                big_m = matter.weight(ell, mu)
                p = big_l + big_m + a.i
                q = big_m + a.j
                r = b.j
                factors += matter.interval_factors(ell, max(p, r), max(p, q, r))
                factors += matter.interval_factors(ell, min(p, q, r), min(p, r))
            pairs.append((tuple(map(add, lam, mu)), prod(factors, start=shift_y(f, mu) * g)))
    return AbelianZElt(matter, a.i, b.j, sum_by_key(pairs))


def abelian_embed(a):
    """Realise an element as a difference operator in the torus coordinates.

    Returns a map lam -> LaurentPoly; the operator sends a polynomial f(y)
    to sum_lam coeff_lam(y) * f(y + h lam).  Each generator i_r_j^lam embeds
    as prod_ell F_ell u^lam with F_ell = prod_{t = L+i+1 .. j} (xi_ell + c + t h)
    for L = <xi_ell, lam> (empty when j <= L + i).  The embedding reverses
    the order of products: embed(a * b) = embed(b) then embed(a) as
    operators, which is exactly ``embed_compose(embed(a), embed(b))``.
    """
    matter = a.matter
    out = {}
    for lam, f in a.terms.items():
        factors = []
        for ell in range(len(matter.characters)):
            factors += matter.interval_factors(ell, matter.weight(ell, lam) + a.i, a.j)
        out[lam] = prod(factors, start=f)
    return out


def embed_compose(first, second):
    """Compose difference operators, the first argument acting first.

    Both arguments are maps lam -> coeff as produced by ``abelian_embed``;
    the result is (second o first), i.e. out[lam + mu] collects
    second_mu(y) * first_lam(y + h mu).
    """
    return sum_by_key(
        (tuple(map(add, lam, mu)), g * shift_y(f, mu))
        for lam, f in first.items()
        for mu, g in second.items()
    )


# -- nonabelian side -------------------------------------------------------


class SphericalClass(TermSum):
    """Equivariant family of rational coefficients indexed by a coweight orbit.

    Such a family acts on symmetric polynomials by
    f |-> sum_lam coeff_lam * f(y + h lam).  The ``exact`` flag records
    whether the construction that produced the family is exact (rather than a
    leading-term approximation).
    """

    __slots__ = ("ctx", "i", "j", "terms", "exact")

    def __init__(self, ctx, i, j, terms, exact=True):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "terms", _coweight_terms(terms, ctx.n, "variable count"))
        object.__setattr__(self, "exact", exact)

    def _like(self, terms):
        return SphericalClass(self.ctx, self.i, self.j, terms, self.exact)

    def __mul__(self, other):
        if isinstance(other, SphericalClass):
            return spherical_compose(self, other)
        return NotImplemented

    def is_equivariant(self):
        """Check that permuting the coweight permutes the coefficients.

        It is a group action, so checking the adjacent transpositions suffices.
        """
        n = self.ctx.n
        zero = (0,) * n
        for w in (transposition(n, i) for i in range(n - 1)):
            for lam, coeff in self.terms.items():
                expect = self.terms.get(perm_on_vector(w, lam))
                if expect is None or coeff.act((w, zero)) != expect:
                    return False
        return True

    def _term_text(self, lam, coeff):
        lam_text = ",".join(str(v) for v in lam)
        return f"({coeff.text()}) * u^[{lam_text}]"


def spherical_compose(a, b):
    """Composition of two families as difference operators (a acting after b)."""
    if a.ctx != b.ctx:
        raise ValueError("mismatched variable contexts")
    if a.j != b.i:
        raise TagMismatch(f"inner tags disagree: {a.j} vs {b.i}")
    identity = identity_perm(a.ctx.n)
    pairs = (
        (tuple(map(add, lam, mu)), (f, g, lam))
        for lam, f in a.terms.items()
        for mu, g in b.terms.items()
    )
    terms = sum_by_key(pairs, lambda f, g, lam: f * g.act((identity, lam)))
    return SphericalClass(a.ctx, a.i, b.j, terms, a.exact and b.exact)


def class_localized(lam, f, i, j):
    """Localized product formula for the class of a dressed coweight.

    For each coweight lam' = w(lam) in the orbit the coefficient is

        (w f) * N(lam') / D(lam')

    where N runs over ordered pairs r != s with gap = lam'_r - lam'_s + i < j
    and contributes prod_{l=0}^{j-gap-1} (y_r - y_s + (gap + l) h + c), and D
    runs over ordered pairs with lam'_r - lam'_s = m > 0 and contributes
    prod_{l=0}^{m-1} (y_s - y_r + l h).  The formula is exact precisely when
    lam is minuscule (all coordinate gaps at most 1); otherwise the family
    only records the leading behaviour and the class is flagged inexact.

    The dressing f must be invariant under the stabilizer of lam.
    """
    lam = tuple(lam)
    n = len(lam)
    ctx = VarContext(n)
    if isinstance(f, (int, Fraction)):
        f = LaurentPoly.const(ctx, f)
    if f.ctx != ctx:
        raise ValueError("dressing lives in the wrong variable context")
    # the transpositions (r s) with lam_r = lam_s generate the stabilizer
    for r, s in combinations(range(n), 2):
        swap = tuple(s if t == r else r if t == s else t for t in range(n))
        if lam[r] == lam[s] and act_perm(swap, f) != f:
            raise ValueError("dressing is not stabilizer-invariant")
    reps = {}
    for w in all_perms(n):
        reps.setdefault(perm_on_vector(w, lam), w)
    terms = {}
    for lam2, w in reps.items():
        num = act_perm(w, f)
        den = []
        for r, s in permutations(range(n), 2):
            gap = lam2[r] - lam2[s] + i
            for l in range(j - gap):
                form, sign = LinearForm.make(r, s, gap + l, 1)
                num = num * (form.to_poly(ctx) * sign)
            for l in range(lam2[r] - lam2[s]):
                form, sign = LinearForm.make(s, r, l, 0)
                den.append(form)
                if sign < 0:
                    num = -num
        terms[lam2] = RationalFunction(num, den)
    minuscule = max(lam) - min(lam) <= 1
    return SphericalClass(ctx, i, j, terms, exact=minuscule)


def class_commutative(lam, f, d, roots, normalization="reduced"):
    """Commutative-limit class of a dressed coweight for any root datum.

    With the parameters switched off, the class of ``f . u^lam`` at level d
    is the signed average

        (1/|W|) sum_w det(w)^d  w(f * prod_alpha alpha^(d - |<alpha, lam>|)) u^(w lam)

    with the product over positive roots whose pairing with lam is smaller
    than d in absolute value.  ``normalization`` chooses between this
    ``"reduced"`` form and the ``"raw"`` form, which is the reduced form
    multiplied coefficientwise by the d-th power of the product of all
    positive root forms.  ``f`` is a LaurentPoly.  Returns a map coweight ->
    LaurentPoly.
    """
    lam = tuple(require_int(v, "a coweight entry") for v in lam)
    if roots.rank != len(lam):
        raise ValueError("coweight length must match the root datum rank")
    if normalization not in ("reduced", "raw"):
        raise ValueError(f"unknown normalization: {normalization!r}")
    ctx = f.ctx
    base = f
    for root in roots.positive_roots:
        value = abs(roots.root_value(root, lam))
        if value < d:
            base = base * linear_poly(ctx, root) ** (d - value)
    pairs = (
        (tuple(sum(a * b for a, b in zip(row, lam)) for row in m), roots.twist(m, base, d))
        for m in roots.elements
    )
    scale = Fraction(1, roots.order())
    out = {key: g * scale for key, g in sum_by_key(pairs).items()}
    if normalization == "raw":
        bulk = roots.vandermonde(ctx) ** d
        out = {key: g * bulk for key, g in out.items()}
    return out


def class_to_poly(ctx, cls):
    """Flatten a class mapping (coweight -> coefficient) to sum coeff * x^lam."""
    return LaurentPoly.sum(
        ctx, (coeff * LaurentPoly.monomial(ctx, xe=lam) for lam, coeff in cls.items())
    )


def commutative_compose(a, b):
    """Product of commutative-limit classes: plain convolution of terms."""
    return sum_by_key(
        (tuple(map(add, lam, mu)), f * g) for lam, f in a.items() for mu, g in b.items()
    )


def commutative_limit(coeff):
    """Specialise a rational coefficient at c = h = 0.

    Every denominator form degenerates to a plain root form y_r - y_s, which
    never vanishes identically, so the limit always exists.
    """
    return RationalFunction(
        subst_params(coeff.num, c_sign=0, h_sign=0),
        [LinearForm(form.r, form.s) for form in coeff.den],
    )


# -- coweight splitting and factorization ----------------------------------


class CoweightSplit(Immutable):
    """A coweight written as a sum of d balanced pieces."""

    __slots__ = ("lam", "d", "parts")

    def __init__(self, lam, d, parts):
        object.__setattr__(self, "lam", tuple(lam))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "parts", tuple(tuple(p) for p in parts))

    def check(self):
        """Return a list of violated balance conditions (empty when valid)."""
        bad = []
        n = len(self.lam)
        for t in range(n):
            if sum(part[t] for part in self.parts) != self.lam[t]:
                bad.append(f"parts do not sum to the coweight at index {t}")
        for r in range(n):
            for s in range(r + 1, n):
                gap = abs(self.lam[r] - self.lam[s])
                matches = sum(1 for part in self.parts if part[r] == part[s])
                if gap < self.d and self.d - gap != matches:
                    bad.append(
                        f"pair ({r},{s}): expected {self.d - gap} equal parts, got {matches}"
                    )
                if gap > self.d and matches:
                    bad.append(f"pair ({r},{s}): expected no equal parts, got {matches}")
        return bad

    def __repr__(self):
        parts = " + ".join(str(list(p)) for p in self.parts)
        return f"CoweightSplit({list(self.lam)} = {parts})"


def split_coweight(lam, d):
    """Split a coweight into d pieces by balanced division of each entry.

    Entry by entry, lam_t = d q_t + r_t with 0 <= r_t < d, and the k-th piece
    takes q_t + 1 for k < r_t and q_t otherwise.  The result satisfies the
    balance conditions reported by ``CoweightSplit.check``.
    """
    if d <= 0:
        raise ValueError("the number of pieces must be positive")
    lam = tuple(lam)
    pieces = []
    for k in range(d):
        piece = []
        for value in lam:
            q, r = divmod(value, d)
            piece.append(q + 1 if k < r else q)
        pieces.append(tuple(piece))
    split = CoweightSplit(lam, d, pieces)
    bad = split.check()
    if bad:
        raise ValueError("; ".join(bad))
    return split


def verify_factorization(lam, d):
    """Compare leading coefficients of a raw class against its split product.

    Computes the raw commutative-limit class of lam at level d and the
    convolution of the level-1 raw classes of the split pieces, then compares
    the coefficients at the dominant coweight (the sorted tuple).  The two
    agree up to sign after dividing out the predicted stabilizer scale

        |Stab(lam)| * |W|^(d-1) / prod_k |Stab(mu_k)|.

    Returns a dict with keys ok, sign, scale, coweight and, on failure,
    lhs/rhs witness texts.
    """
    lam = tuple(lam)
    n = len(lam)
    roots = RootData.type_a(n)
    ctx = VarContext(n)
    one = LaurentPoly.one(ctx)
    split = split_coweight(lam, d)
    lhs = class_commutative(lam, one, d, roots, "raw")
    rhs = {(0,) * n: one}
    for part in split.parts:
        rhs = commutative_compose(rhs, class_commutative(part, one, 1, roots, "raw"))
    target = tuple(sorted(lam, reverse=True))
    lead_l = lhs.get(target)
    lead_r = rhs.get(target)
    out = {"coweight": target, "split": split.parts}
    if lead_l is None or lead_r is None:
        out.update(ok=False, sign=None, scale=None)
        return out
    denom = 1
    for part in split.parts:
        denom *= roots.stabilizer_size(part)
    scale = Fraction(roots.stabilizer_size(lam) * roots.order() ** (d - 1), denom)
    want = lead_r * scale
    if not lead_l - want:
        sign = 1
    elif not lead_l + want:
        sign = -1
    else:
        sign = None
    out.update(ok=sign is not None, sign=sign, scale=scale)
    if sign is None:
        out["lhs"] = poly_to_text(lead_l)
        out["rhs"] = poly_to_text(want)
    return out


# -- matching the two constructions ----------------------------------------


def epsilon(x, i, j):
    """Vanishing-order exponent of a matter weight under the tag change i -> j."""
    return max(x + i, j) - (x + i) - max(x, 0)


def epsilon_pair_total(x, i, j):
    """Closed form for epsilon(x, i, j) + epsilon(-x, i, j)."""
    gap = abs(j - i)
    if abs(x) >= gap:
        return j - i
    return (j - i) + gap - abs(x)


def _distinct_pairs(lam):
    n = len(lam)
    return sum(
        1 for r in range(n) for s in range(r + 1, n) if lam[r] != lam[s]
    )


# Largest |m| in the c -> c + m*h shifts match_conventions searches.
SHIFT_RANGE = 2


def match_conventions(n):
    """Find the dictionary aligning the localized and spherical conventions.

    Probes with the first fundamental coweight (1, 0, ..., 0) at tags (0, 0).
    The spherical side is the collapsed symmetric action of the closed-form
    operator from :mod:`diffalg.daha`, scaled by orbit size over stabilizer
    size; the localized side is ``class_localized``.  The search box covers a
    sign for c, a shift of c by m*h with |m| <= SHIFT_RANGE, and a global
    orientation sign applied once per pair of distinct coweight entries.

    Returns {"c_sign": +-1, "h_shift": m, "pair_sign": +-1}.  Raises
    ``NoDictionary`` when no substitution in the box matches.
    """
    ctx = VarContext(n)
    lam = (1,) + (0,) * (n - 1)
    collapsed = daha.e_lambda(ctx, lam, "closed").spherical_collapse()
    scale = Fraction(factorial(n), RootData.type_a(n).stabilizer_size(lam))
    target = {
        mu: RationalFunction(coeff.num * scale, coeff.den)
        for mu, coeff in collapsed.items()
    }
    localized = class_localized(lam, 1, 0, 0)
    if set(target) != set(localized.terms):
        raise NoDictionary(
            f"orbit supports differ: {sorted(target)} vs {sorted(localized.terms)}"
        )
    hits = []
    for pair_sign in (1, -1):
        for c_sign in (1, -1):
            for m in range(-SHIFT_RANGE, SHIFT_RANGE + 1):
                transformed = {}
                for mu, coeff in localized.terms.items():
                    image = coeff.subst_c(c_sign=c_sign, c_to_h=m)
                    if pair_sign < 0 and _distinct_pairs(mu) % 2:
                        image = RationalFunction(-image.num, image.den)
                    transformed[mu] = image
                if all(transformed[mu] == target[mu] for mu in target):
                    hits.append({"c_sign": c_sign, "h_shift": m, "pair_sign": pair_sign})
    if not hits:
        raise NoDictionary("no substitution in the search box matches")
    return min(
        hits,
        key=lambda hit: (-hit["pair_sign"], -hit["c_sign"], abs(hit["h_shift"]), hit["h_shift"]),
    )
