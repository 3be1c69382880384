"""Reference implementations that only tests use: a term-by-term expansion
of linear-form powers, point evaluation, the complete-intersection point
ideal of a monomial, and monomial-ideal membership.  They check the package
from the outside and are not part of it."""

from fractions import Fraction

from waring.forms import pure_power
from waring.polynomials import Polynomial, compositions, multinomial


def poly_pow_linear(linear_coeffs, d: int) -> Polynomial:
    """Expand (sum_j c_j x_j)^d exactly via the multinomial theorem."""
    n = len(linear_coeffs)
    if d < 1:
        raise ValueError("exponent d must be positive")
    support = [j for j, c in enumerate(linear_coeffs) if c]
    if not support:
        return Polynomial.zero(n)
    terms = {}
    for alpha in compositions(d, len(support)):
        value = multinomial(d, alpha)
        for j, a in zip(support, alpha):
            if a:
                value = linear_coeffs[j] ** a * value
        exps = [0] * n
        for j, a in zip(support, alpha):
            exps[j] = a
        terms[tuple(exps)] = value
    return Polynomial(n, terms)


def evaluate(poly: Polynomial, point):
    """The polynomial's value at a point given as a sequence of scalars."""
    if len(point) != poly.num_vars:
        raise ValueError("point length mismatch")
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        value = coeff
        for p, e in zip(point, exps):
            if e:
                value = value * p ** e
        total = value + total
    return total


def as_polynomial(monomial, names) -> Polynomial:
    """The monomial as a Polynomial over the variables `names`, in that order."""
    exps = dict(zip(monomial.variables, monomial.exponents))
    return Polynomial.monomial([exps.get(v, 0) for v in names])


def ci_point_ideal(monomial):
    """Binomial generators X_j^(a_j+1) - X_1^(a_j+1) (sorted view, j >= 2) of
    the complete-intersection point ideal inside the perp ideal.

    Returned as Polynomials in the dual variables, aligned to the monomial's
    input variable order.  Empty for a single variable."""
    if monomial.n == 1:
        return []
    order = sorted(range(monomial.n),
                   key=lambda i: (monomial.exponents[i], i))
    n, first = monomial.n, order[0]
    return [Polynomial(n, {pure_power(n, i, monomial.exponents[i] + 1): Fraction(1),
                           pure_power(n, first, monomial.exponents[i] + 1): Fraction(-1)})
            for i in order[1:]]


def contains_monomial(ideal, exps) -> bool:
    """Whether x^exps lies in the monomial ideal: some generator divides it."""
    return any(all(e >= g for e, g in zip(exps, gen)) for gen in ideal.generators)
