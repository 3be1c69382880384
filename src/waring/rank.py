"""Closed-form Waring ranks and the generic-rank comparison machinery.

For a monomial x_1^a_1 ... x_n^a_n with 1 <= a_1 <= ... <= a_n the rank is
prod_{i>=2}(a_i + 1) (and 1 when n = 1); for a sum of pairwise coprime
monomials of degree d >= 2 the rank is the sum of the monomial ranks, while
every degree-1 form has rank 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .forms import CoprimeForm, Monomial
from .linalg import matrix_rank


def rank_monomial(monomial: Monomial) -> int:
    exps = monomial.sorted_exponents
    if len(exps) == 1:
        return 1
    return prod(a + 1 for a in exps[1:])


def rank_coprime_sum(form: CoprimeForm) -> int:
    if form.degree == 1:
        return 1
    return sum(rank_monomial(m) for m in form.monomials)


def quadratic_form_rank(form: CoprimeForm) -> int:
    """Rank of the symmetric coefficient matrix of a degree-2 form, by exact
    elimination over Q.  Independent cross-check for the d = 2 case."""
    if form.degree != 2:
        raise ValueError("quadratic_form_rank needs a degree-2 form")
    n = len(form.variables)
    index = {v: i for i, v in enumerate(form.variables)}
    A = [[Fraction(0)] * n for _ in range(n)]
    for coeff, mono in form.terms:
        if mono.n == 1:
            i = index[mono.variables[0]]
            A[i][i] += coeff
        else:
            i, j = (index[v] for v in mono.variables)
            A[i][j] += coeff / 2
            A[j][i] += coeff / 2
    return matrix_rank(A)


# Alexander-Hirschowitz exceptional pairs, where the true generic rank exceeds
# the ceiling formula: all quadrics in >= 2 variables, plus four sporadic cases.
_SPORADIC_EXCEPTIONS = {(3, 4), (4, 4), (5, 4), (5, 3)}


@dataclass(frozen=True)
class GenericRank:
    value: int
    exceptional: bool


def generic_rank(n: int, d: int) -> GenericRank:
    """ceil(C(d+n-1, d) / n), flagged on the documented exceptional pairs."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    value = -(-comb(d + n - 1, d) // n)
    exceptional = (d == 2 and n >= 2) or (n, d) in _SPORADIC_EXCEPTIONS
    return GenericRank(value, exceptional)


def max_monomial_rank_3vars(d: int):
    """Maximum monomial rank in exactly three variables, with a witness:
    ((d+1)/2)^2 for odd d and (d/2)(d/2+1) for even d."""
    if d <= 2:
        raise ValueError(f"degree must exceed 2, got {d}")
    if d % 2:
        value = ((d + 1) // 2) ** 2
        witness = Monomial(["x1", "x2", "x3"], [1, (d - 1) // 2, (d - 1) // 2])
    else:
        value = (d // 2) * (d // 2 + 1)
        witness = Monomial(["x1", "x2", "x3"], [1, d // 2 - 1, d // 2])
    return value, witness


class ResourceLimitError(RuntimeError):
    """The work an input asks for exceeds an admission cap (exit code 3 in
    the CLI)."""


class EnumerationLimitError(ResourceLimitError):
    """The partition enumeration exceeded the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration of {count} exponent vectors exceeds cap {cap}")
        self.count = count
        self.cap = cap


def _partitions_at_most(d: int, parts: int):
    """Nondecreasing positive tuples summing to d with at most `parts` parts."""
    def rec(remaining, slots, minimum):
        if slots == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for first in range(minimum, remaining // slots + 1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    for k in range(1, parts + 1):
        yield from rec(d, k, 1)


def max_monomial_rank(n: int, d: int, max_enum: int = 10 ** 6):
    """Maximum of rank_monomial over the degree-d monomials in at most n
    variables, with a witness, by a scan over the part count k and the least
    part m: with those fixed, prod(a_i + 1) over the other k - 1 parts is
    largest when they are balanced over d - m.  The scan runs in the brute
    force's order (k, then the tuple) and keeps only strict improvements, so
    the witness is `survey_max_monomial_rank`'s first maximiser.

    Raises EnumerationLimitError when the scan's 1 + sum_{2<=k<=min(n,d)} d // k
    candidates exceed max_enum, before any is built."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    parts = min(n, d)
    count = 1 + sum(d // k for k in range(2, parts + 1))
    if count > max_enum:
        raise EnumerationLimitError(count, max_enum)
    best = (1, (d,))
    for k in range(2, parts + 1):
        for m in range(1, d // k + 1):
            q, r = divmod(d - m, k - 1)
            value = (q + 1) ** (k - 1 - r) * (q + 2) ** r
            if value > best[0]:
                best = (value, (m,) + (q,) * (k - 1 - r) + (q + 1,) * r)
    value, exps = best
    return value, Monomial([f"x{i + 1}" for i in range(len(exps))], list(exps))


@dataclass(frozen=True)
class SurveyResult:
    value: int
    witness: Monomial
    table: list  # (exponent tuple, rank), all candidates


def survey_max_monomial_rank(n: int, d: int, max_enum: int = 10 ** 6) -> SurveyResult:
    """Brute-force maximum of rank_monomial over all degree-d monomials in at
    most n variables; independent oracle for `max_monomial_rank` and the
    closed forms."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    table = []
    best = None
    count = 0
    for exps in _partitions_at_most(d, min(n, d)):
        count += 1
        if count > max_enum:
            raise EnumerationLimitError(count, max_enum)
        mono = Monomial([f"x{i + 1}" for i in range(len(exps))], list(exps))
        r = rank_monomial(mono)
        table.append((exps, r))
        if best is None or r > best[0]:
            best = (r, mono)
    return SurveyResult(best[0], best[1], table)


@dataclass(frozen=True)
class RatioRow:
    k: int
    d: int
    monomial_rank: int
    generic_rank: int
    ratio: Fraction


@dataclass(frozen=True)
class RatioReport:
    n: int
    limit: Fraction  # n!/(n-1)^(n-1)
    rows: list


def asymptotic_ratio_report(n: int, k_max: int) -> RatioReport:
    """Convergence table for rk(x_1 x_2^k ... x_n^k) / generic rank at
    d = (n-1)k + 1; the limiting constant is n!/(n-1)^(n-1)."""
    if n < 3:
        raise ValueError("the comparison needs n >= 3")
    rows = []
    for k in range(1, k_max + 1):
        d = (n - 1) * k + 1
        mono_rank = (k + 1) ** (n - 1)
        gen = generic_rank(n, d).value
        rows.append(RatioRow(k, d, mono_rank, gen, Fraction(mono_rank, gen)))
    limit = Fraction(factorial(n), (n - 1) ** (n - 1))
    return RatioReport(n, limit, rows)
