"""Closed-form Waring ranks and the generic-rank comparison machinery.

For a monomial x_1^a_1 ... x_n^a_n with 1 <= a_1 <= ... <= a_n the rank is
prod_{i>=2}(a_i + 1) (and 1 when n = 1); for a sum of pairwise coprime
monomials of degree d >= 2 the rank is the sum of the monomial ranks, while
every degree-1 form has rank 1.

The largest monomial rank in degree d over at most n variables belongs, with
k = min(n, d), to x1 * (x2 ... xk)^b, the b balanced over d - 1 (x1^d if
k = 1), and up to order to no other exponents a_1 <= ... <= a_j:
- if j < k, splitting a part a >= 2 other than a_1 into 1 and a - 1 raises
  the rank by a factor a(a_1 + 1)/(a + 1) >= 2a/(a + 1) > 1 (from 1 to d
  for a lone part d), so all k parts are used;
- a least part of 1 leaves the most, d - 1, to the other parts;
- balanced parts maximise prod(a_i + 1): moving 1 from a part a to a part
  b <= a - 2 turns (a + 1)(b + 1) into a(b + 2), larger by a - b - 1 > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .forms import CoprimeForm, Monomial
from .linalg import sparse_rank


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
    elimination over Q.  Independent cross-check for the d = 2 case.  The
    monomials are coprime, so each row, keyed by variable, holds one entry:
    c on the diagonal for c * x^2, c/2 off it for c * x * y."""
    if form.degree != 2:
        raise ValueError("quadratic_form_rank needs a degree-2 form")
    rows = []
    for coeff, mono in form.terms:
        if mono.n == 1:
            rows.append({mono.variables[0]: coeff})
        else:
            x, y = mono.variables
            rows += [{y: coeff / 2}, {x: coeff / 2}]
    return sparse_rank(rows)


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
    return max_monomial_rank(3, d)


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


def max_monomial_rank(n: int, d: int):
    """Maximum of rank_monomial over the degree-d monomials in at most n
    variables, with its witness, the unique maximiser up to order (proved in
    the module docstring): the same as `survey_max_monomial_rank`'s."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    k = min(n, d)
    q, r = divmod(d - 1, max(k - 1, 1))  # d - 1 balanced over the k - 1 parts after x1
    exps = [1] + [q] * (k - 1 - r) + [q + 1] * r if k > 1 else [d]
    witness = Monomial([f"x{i + 1}" for i in range(k)], exps)
    return rank_monomial(witness), witness


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
    survey_size(n, range(n, (n - 1) * k_max + 2, n - 1), ratio=True)
    rows = []
    for k in range(1, k_max + 1):
        d = (n - 1) * k + 1
        mono_rank = (k + 1) ** (n - 1)
        gen = generic_rank(n, d).value
        rows.append(RatioRow(k, d, mono_rank, gen, Fraction(mono_rank, gen)))
    limit = Fraction(factorial(n), (n - 1) ** (n - 1))
    return RatioReport(n, limit, rows)


# Admission caps for `survey`, checked before the first row.  Every printed
# integer must be below 2^14000 (4,215 digits; Python prints at most 4,300);
# `rank` refuses a larger rank by the same MAX_SURVEY_BITS.
# The size counts 1 per witness variable and b per integer below 2^b.  On a
# 2-vCPU VM, `survey 1 --range 1:50000` (the row cap) and `survey 1200 --range
# 1:1200` (size 4.9 * 10^6) each take 0.7-1.0 s of command wall time: under 2 s.
MAX_SURVEY_BITS = 14_000
MAX_SURVEY_ROWS = 5 * 10 ** 4
MAX_SURVEY_SIZE = 5 * 10 ** 6


def survey_size(n: int, degrees, ratio: bool = False) -> int:
    """Output size of a survey table over `degrees`, refused with
    ResourceLimitError above the caps.  A row prints two ranks and either a
    witness of min(n, d) variables or, in the ratio table, the ratio's two
    integers; the ratio table's limit line prints n! and (n-1)^(n-1), both
    below 2^(n * bit_length(n))."""
    if len(degrees) > MAX_SURVEY_ROWS:
        raise ResourceLimitError(f"the survey would print {len(degrees)} rows, "
                                 f"above the cap {MAX_SURVEY_ROWS}")
    # every rank in degree d is below 2^b: it is at most C(n+d-1, j),
    # j = min(n-1, d), which is below 2^(n+d) and at most (n+d)^j
    bits = [min(n + d, min(n - 1, d) * (n + d).bit_length() + 1) for d in degrees]
    largest = max(bits + [ratio * n * n.bit_length()])
    if largest > MAX_SURVEY_BITS:
        raise ResourceLimitError(f"the survey would print an integer of up to {largest} "
                                 f"bits, above the cap {MAX_SURVEY_BITS}")
    size = sum(2 * b + (2 * b if ratio else min(n, d)) for d, b in zip(degrees, bits))
    if size > MAX_SURVEY_SIZE:
        raise ResourceLimitError(f"the survey would print an estimated output of size "
                                 f"{size}, above the cap {MAX_SURVEY_SIZE}")
    return size
