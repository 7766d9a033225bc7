"""Graded modules over the sign-isotypic ideal algebra, plus chain counts.

The module attached to a root datum and a valuation k >= 0 is the direct sum
over grades j >= 0 of the symbolic powers I^(k+j).  The degree-d part of the
acting algebra is the sign^d-isotypic piece of I^(d), and the action is
literal multiplication: I^(d) * I^(k+j) lands in I^(k+j+d) by the product
rule for vanishing orders.  Elements are validated against the ideal at
construction time, so an action can never silently leave the module.

Grades are carried in a twisted normalization where values are honest
polynomials; the untwisted picture divides a grade-j value by the j-th power
of the y-discriminant and is exposed as a read-only rational expression.

`ChainModel` is a separate small utility: Poincare coefficient counts for a
truncated chain of projective spaces P^{d+1} glued pairwise along a P^d,
paved by affine cells (the first component contributes every cell, each
later one loses the glued hyperplane).
"""

from .ideals import IdealSpec, graded_dimension, membership
from .poly import Immutable, LaurentPoly, LinearForm, RationalFunction, poly_to_text


class NotInIdeal(ValueError):
    """A value failed the vanishing-order test for the required power."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EquivaluedModule(Immutable):
    """The graded module oplus_j I^(k+j) for a fixed valuation k >= 0."""

    __slots__ = ("roots", "k")

    def __init__(self, roots, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("valuation k must be a non-negative integer")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "k", k)

    def __eq__(self, other):
        if not isinstance(other, EquivaluedModule):
            return NotImplemented
        return (
            self.roots.kind == other.roots.kind
            and self.roots.rank == other.roots.rank
            and self.k == other.k
        )

    def __repr__(self):
        return f"EquivaluedModule(kind={self.roots.kind}, rank={self.roots.rank}, k={self.k})"

    def ideal_spec(self, j):
        """IdealSpec for the grade-j piece I^(k+j)."""
        if not isinstance(j, int) or j < 0:
            raise ValueError("grade must be a non-negative integer")
        return IdealSpec(self.roots, self.k + j)

    def element(self, j, value):
        return ModuleElt(self, j, value)


class ModuleElt(Immutable):
    """A grade-j element: a polynomial lying in I^(k+j).

    Membership is verified at construction; the first failing Taylor
    coefficient is attached to the raised ``NotInIdeal``.
    """

    __slots__ = ("module", "grade", "value")

    def __init__(self, module, grade, value):
        if not isinstance(module, EquivaluedModule):
            raise TypeError("module must be an EquivaluedModule")
        spec = module.ideal_spec(grade)
        if value:
            ok, witness = membership(value, spec)
            if not ok:
                raise NotInIdeal(
                    f"value is not in I^({spec.d}) at grade {grade}", witness
                )
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "value", value)

    def __add__(self, other):
        if not isinstance(other, ModuleElt):
            return NotImplemented
        if other.module != self.module or other.grade != self.grade:
            raise ValueError("can only add elements of equal module and grade")
        return ModuleElt(self.module, self.grade, self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, ModuleElt):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ModuleElt(self.module, self.grade, -self.value)

    def __eq__(self, other):
        if not isinstance(other, ModuleElt):
            return NotImplemented
        return (
            self.module == other.module
            and self.grade == other.grade
            and self.value == other.value
        )

    def is_zero(self):
        return not self.value

    def untwisted(self):
        """The value divided by the grade-th power of the y-discriminant.

        Returned as a rational expression (denominator held in factored
        linear forms); this is a read-only view, the module arithmetic
        always works with the polynomial value.  The roots must be
        differences y_r - y_s, as in type A; B2 and G2 raise ValueError.
        """
        roots = self.module.roots.positive_roots
        try:
            forms = [LinearForm(root.index(1), root.index(-1)) for root in roots]
        except ValueError:
            raise ValueError("untwisted view needs difference-form roots") from None
        return RationalFunction(self.value, forms * self.grade)

    def text(self):
        return f"[grade {self.grade}] {poly_to_text(self.value)}"

    def __repr__(self):
        return f"ModuleElt(grade={self.grade}, value={self.value!r})"


def module_act(a, m, d):
    """Multiply a degree-d algebra element, a LaurentPoly, into the module.

    The element must pass membership for I^(d) and be sign^d-isotypic; the
    result lives in grade m.grade + d and is membership-verified on
    construction.
    """
    if not isinstance(m, ModuleElt):
        raise TypeError("m must be a ModuleElt")
    if not isinstance(d, int) or d < 0:
        raise ValueError("degree d must be a non-negative integer")
    roots = m.module.roots
    if not isinstance(a, LaurentPoly):
        raise TypeError("a must be a LaurentPoly")
    if a:
        ok, witness = membership(a, IdealSpec(roots, d))
        if not ok:
            raise NotInIdeal(f"algebra element is not in I^({d})", witness)
        if not roots.is_isotypic(a, d):
            raise NotInIdeal(f"algebra element is not sign^{d}-isotypic")
    return ModuleElt(m.module, m.grade + d, a * m.value)


def module_slice_basis(mod, j, window):
    """Windowed basis of the grade-j piece I^(k+j), no isotypic projection."""
    return graded_dimension(mod.ideal_spec(j), None, window)


class ChainModel(Immutable):
    """A chain of L projective spaces P^{d+1}, consecutive ones glued along P^d."""

    __slots__ = ("d", "length")

    def __init__(self, d, length):
        if not isinstance(d, int) or d < 0:
            raise ValueError("d must be a non-negative integer")
        if not isinstance(length, int) or length < 1:
            raise ValueError("length must be a positive integer")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "length", length)

    def __repr__(self):
        return f"ChainModel(d={self.d}, length={self.length})"


def chain_poincare(chain):
    """Poincare coefficients [c_0, ..., c_{d+1}] of the truncated chain.

    The first P^{d+1} is paved by one cell in each dimension 0..d+1; every
    later component minus the glued hyperplane P^d is a single affine cell
    of top dimension, adding 1 to the q^{d+1} coefficient.
    """
    coeffs = [1] * (chain.d + 2)
    coeffs[chain.d + 1] += chain.length - 1
    return coeffs
