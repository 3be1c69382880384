"""Sparse multivariate polynomials and the differentiation action.

Terms are stored as a map from exponent tuples to coefficients.  Coefficients
may be `fractions.Fraction` or `CyclotomicNumber`; arithmetic is always exact.
Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, count
from math import comb, perm


def divisors_of_degree(m, t):
    """The tuples beta <= m (entrywise) with sum(beta) == t, in lexicographic
    order, without recursion: raise the last coordinate of beta[:-2] that can
    grow, refill the rest least, and split what is left between the last two."""
    if len(m) < 2:
        if 0 <= t <= sum(m):
            yield (t,)[:len(m)]
        return
    after = list(accumulate(reversed(m), initial=0))[::-1]    # sum(m[i:])
    k, beta, j, left = len(m) - 2, [0] * (len(m) - 2), 0, t
    while j >= 0 and 0 <= left <= after[j]:
        for j in range(j, k):          # the least fill of beta[j:k]
            beta[j] = b = max(left - after[j + 1], 0)
            left -= b
        head, lo, hi = tuple(beta), left - m[-1], m[k]
        for b in range(lo if lo > 0 else 0, (hi if hi < left else left) + 1):
            yield head + (b, left - b)
        j = k - 1
        while j >= 0 and (beta[j] == m[j] or not left):
            left += beta[j]
            j -= 1
        if j >= 0:
            beta[j], j, left = beta[j] + 1, j + 1, left - 1


def compositions(total: int, parts: int):
    """The tuples of `parts` non-negative integers summing to `total`, in
    lexicographic order."""
    return divisors_of_degree((total,) * parts, total)


def monomial_text(names, exps) -> str:
    """The monomial with exponents `exps` over `names`, as in "x1*x2^3";
    "1" for the constant monomial."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e) or "1"


def signed_sum(pieces) -> str:
    """(negative, text) pieces, each text nonempty, joined as "a - b + c",
    with a leading "-" on a negative first piece; "0" for no pieces."""
    out = ""
    for negative, text in pieces:
        if out:
            out += (" - " if negative else " + ") + text
        else:
            out = ("-" if negative else "") + text
    return out or "0"


def multinomial(d: int, alpha) -> int:
    """d! / prod(a!) for `alpha` summing to d, as a product of binomials."""
    out = 1
    for a in alpha:
        out *= comb(d, a)
        d -= a
    return out


class Polynomial:
    """A sparse polynomial over a fixed number of variables."""

    __slots__ = ("num_vars", "terms", "_supports", "_divided")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 1:
            raise ValueError("num_vars must be positive")
        clean = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {num_vars}")
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[tuple(exps)] = coeff
        self.num_vars = num_vars
        self.terms = clean
        self._supports = None
        self._divided = None

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def monomial(cls, exps, coeff=Fraction(1)) -> "Polynomial":
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    @property
    def supports(self) -> tuple:
        """Per term, in the order of `terms`, the positions of its nonzero
        exponents; found on first use, as the terms never change."""
        if self._supports is None:
            self._supports = tuple(tuple(compress(count(), e)) for e in self.terms)
        return self._supports

    @property
    def divided(self) -> dict:
        """Per term c * x^m, {m: c / multinomial(|m|; m)}: its coefficient
        in the divided-power basis, the value of its catalecticant cells;
        found on first use, as the terms never change."""
        if self._divided is None:
            self._divided = {m: c * Fraction(1, multinomial(sum(m), m))
                             for m, c in self.terms.items()}
        return self._divided

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return Polynomial(self.num_vars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, scalar) -> "Polynomial":
        if not scalar:
            return Polynomial.zero(self.num_vars)
        return Polynomial(self.num_vars, {e: c * scalar for e, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.num_vars == other.num_vars
                and self.terms.keys() == other.terms.keys()
                and all(self.terms[e] == other.terms[e] for e in self.terms))

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        names = [f"x{i + 1}" for i in range(self.num_vars)]
        return "Polynomial(" + " + ".join(
            f"({self.terms[exps]})*{monomial_text(names, exps)}"
            for exps in sorted(self.terms, reverse=True)) + ")"


def apply_differential(operator: Polynomial, target: Polynomial) -> Polynomial:
    """Apply a dual-variable operator to a polynomial, identifying the j-th
    dual variable with d/dx_j.

    A pure power X_j^k acting on x_j^m yields m!/(m-k)! x_j^(m-k) for k <= m
    and 0 otherwise; the action is extended bilinearly.
    """
    if operator.num_vars != target.num_vars:
        raise ValueError("operator and target must share the variable namespace")
    n = target.num_vars
    result = {}
    for beta, cb in operator.terms.items():
        for alpha, ca in target.terms.items():
            if any(a < b for a, b in zip(alpha, beta)):
                continue
            factor = 1
            for a, b in zip(alpha, beta):
                if b:
                    factor *= perm(a, b)
            exps = tuple(a - b for a, b in zip(alpha, beta))
            contrib = ca * cb * factor
            result[exps] = result.get(exps, Fraction(0)) + contrib
    return Polynomial(n, result)
