"""Permutations and small integer root data.

Permutations are tuples of images, 0-indexed: w[j] is where position j goes.
The extended affine element (w, lam) acts on polynomials by applying w first
and then the translation lam (see poly.act); the group law matching that
action order is (w1, l1) * (w2, l2) = (w1 w2, l1 + w1 l2).

Root data for ranks beyond type A are given by explicit integer matrices for
the Weyl group together with integer coefficient vectors for the positive
roots, enough for symmetrised class constructions and dimension counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
import itertools
from math import prod

from .poly import LaurentPoly, act_matrix, linear_poly, require_int


def identity_perm(n):
    return tuple(range(n))


def perm_mul(w1, w2):
    """Composite doing w2 first: (w1 w2)(j) = w1(w2(j))."""
    return tuple(w1[w2[j]] for j in range(len(w1)))


def transposition(n, i):
    """Adjacent swap s_i exchanging positions i and i+1 (0-indexed)."""
    out = list(range(n))
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def all_perms(n):
    return list(itertools.permutations(range(n)))


def perm_on_vector(w, lam):
    """Transport a vector: (w lam) has entry lam_i at position w(i)."""
    out = [0] * len(lam)
    for i, value in enumerate(lam):
        out[w[i]] = value
    return tuple(out)


# -- integer root data ---------------------------------------------------


def _mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _mat_mul(a, b):
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def _mat_det(m):
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j, top in enumerate(m[0]):
        if not top:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        total += (-1) ** j * top * _mat_det(minor)
    return total


def _identity(size):
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def _close_group(generators, size_limit):
    identity = _identity(len(generators[0]))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = _mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        if len(seen) > size_limit:
            raise RuntimeError("group closure exceeded expected size")
    return sorted(seen)


@dataclass(frozen=True)
class RootData:
    """Integer realisation of a finite reflection group on rank variables.

    kind is "A", "B2", or "G2".  elements holds every group element as an
    integer matrix; simple holds the simple reflections, which generate the
    group, in the same convention; positive_roots holds coefficient vectors
    of the positive root linear forms in the y variables.
    """

    kind: str
    rank: int
    elements: tuple
    positive_roots: tuple
    simple: tuple

    @staticmethod
    @cache
    def type_a(n):
        def matrix(w):
            return tuple(tuple(int(w[j] == i) for j in range(n)) for i in range(n))

        # enumerated directly: closing the generators is far slower at high rank
        mats = tuple(sorted(map(matrix, itertools.permutations(range(n)))))
        simple = tuple(matrix(transposition(n, i)) for i in range(n - 1))
        roots = tuple(
            tuple(int(t == r) - int(t == s) for t in range(n))
            for r, s in itertools.combinations(range(n), 2)
        )
        return RootData("A", n, mats, roots, simple)

    @staticmethod
    @cache
    def b2():
        simple = (((0, 1), (1, 0)), ((1, 0), (0, -1)))  # swap, flip
        roots = ((1, -1), (0, 1), (1, 0), (1, 1))
        return RootData("B2", 2, tuple(_close_group(simple, 8)), roots, simple)

    @staticmethod
    @cache
    def g2():
        # simple reflections on the root lattice basis (short a1, long a2)
        simple = (((-1, 3), (0, 1)), ((1, 0), (1, -1)))
        roots = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
        return RootData("G2", 2, tuple(_close_group(simple, 12)), roots, simple)

    def order(self):
        return len(self.elements)

    def act_matrix(self, m, f):
        """Group element as substitution: y_j -> sum_i m[i][j] y_i, x^e -> x^(m e)."""
        return act_matrix(m, f)

    def twist(self, m, f, d):
        """The translate of f by m, times det(m)^d."""
        g = self.act_matrix(m, f)
        return -g if require_int(d, "the character exponent") % 2 and _mat_det(m) < 0 else g

    def stabilizer_size(self, lam):
        return sum(1 for m in self.elements if _mat_vec(m, lam) == tuple(lam))

    def root_value(self, root, lam):
        return sum(a * b for a, b in zip(root, lam))

    def vandermonde(self, ctx):
        return prod(
            (linear_poly(ctx, root) for root in self.positive_roots),
            start=LaurentPoly.one(ctx),
        )

    def is_isotypic(self, f, d):
        """Whether project(f, d) == f, tested on the simple reflections.

        project is the idempotent onto the sign^d-isotypic part; twisting is a
        group action, sign^d is a character and the simple reflections
        generate the group, so project fixes f exactly when every simple
        reflection's twist fixes f.
        """
        return all(self.twist(s, f, d) == f for s in self.simple)

    def project(self, f, d):
        """Average of sign^d-twisted translates over the whole group."""
        total = LaurentPoly.sum(f.ctx, (self.twist(m, f, d) for m in self.elements))
        return total * Fraction(1, len(self.elements))
