"""Hilbert functions, catalecticant matrices, and the intersection identity
used by the rank additivity proof.

For one term, or a coprime sum at 1 <= t <= d-1, a catalecticant's rank is
the number of its nonzero cells, counted unbuilt (the flattening bound of
Landsberg and Teitler, FoCM 2010; see `CatalecticantMatrix`), and at t = 0 or
d it is 1; any other is built and ranked by elimination.  The lower bound
ranks only the degrees that can hold the maximum.

Hilbert functions of monomial-ideal quotients come from the numerator of
the Hilbert series, HS(T/I) = N(t) / (1 - t)^n, computed by the pivot
recursion N(I) = N(I + (p)) + t^deg(p) N(I : p) of Bayer and Stillman
("Computation of Hilbert functions", J. Symb. Comp. 1992) and Bigatti
("Computation of Hilbert-Poincare series", JPAA 1997), down to ideals of
pure powers, whose numerator is prod(1 - t^deg g).  Then
HF(t) = sum_k N_k C(t - k + n - 1, n - 1), and a finite quotient has length
N(t) / (1 - t)^n at t = 1.  The cost depends on the generators, not on the
number of standard monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, product
from math import comb, prod
from operator import ge

from .forms import CoprimeForm, MonomialIdeal, as_homogeneous, dual_names, \
    is_coprime_sum, minimalize, pure_power
from .linalg import sparse_rank
from .polynomials import Polynomial, apply_differential, compositions, multinomial
from .rank import ResourceLimitError

# Admission cap for `catalecticant_lower_bound`, in units of work priced
# before any catalecticant is built, upper bounds on the work that runs.
# Counted ranks (one term, or a coprime sum): t_max times the sum over the
# terms of 2^k, k the term's variables, though one degree is counted, each
# term expanding prod(1 - s^(m_i + 1)) at about 1 us per coefficient (2
# vCPUs).  Elimination: the nonzero cells over all degrees, prod(m_i + 1) per
# term c * x^m, though only t <= d/2 is built; x1^66000 + x1^65999*x2 has
# 198,001 and takes 1.0 s.
MAX_BOUND_CELLS = 2 * 10 ** 5

# Admission cap for `hf_table`, in running-sum steps: a table to degree t_max
# in n variables takes (t_max + 1) * n of them, and `hf` prints its t_max + 1
# values of at most about n * log10(t_max) digits each.  At the cap, `hf`
# prints 2 * 10^5 lines in one variable in 0.7 s on a 2-vCPU VM.
MAX_HF_STEPS = 2 * 10 ** 5

# Admission cap for `hf --claim-random COUNT`, checked before the first
# configuration: 1000 of them take about 1 s on a 2-vCPU VM.
MAX_CLAIM_CONFIGS = 1000


@dataclass(frozen=True)
class CatalecticantMatrix:
    """The pairing of degree-t operators against a degree-d form.

    Cell (alpha, beta) is the coefficient of x^alpha (degree d-t) in the
    operator X^beta (degree t) applied to the form, times alpha!/d!: for a
    term c * x^m with m = alpha + beta that is c / multinomial(d; m), the
    divided-power catalecticant.  Scaling each row by a nonzero constant
    leaves the rank, the Hilbert function of the perp-ideal quotient in
    degree t, unchanged.  `entries` is sparse: {row monomial: {col monomial:
    value}} over the nonzero cells only, keyed by exponent tuples, built on
    first access like the full index sets.

    `rank` counts the cells for one term, or a coprime sum at 1 <= t <= d-1.
    Term c * x^m fills the nonzero cells (m - beta, beta), beta <= m, and the
    row m - beta fixes beta; a row shared with term x^m' divides gcd(x^m, x^m')
    and has degree d - t >= 1, so the terms share a variable (columns likewise,
    as t >= 1).  No two cells share a row or column: the rank is their number,
    the sum over the terms of the coefficient of s^t in prod(1 + ... + s^m_i)
    over the term's nonzero exponents (`Polynomial.supports`).  At t = 0 or d
    the matrix is one column or one row of a nonzero form, of rank 1.
    """

    t: int
    degree: int
    num_vars: int
    form: Polynomial

    @cached_property
    def row_monomials(self) -> tuple:
        """Every exponent tuple of degree d - t."""
        return tuple(compositions(self.degree - self.t, self.num_vars))

    @cached_property
    def col_monomials(self) -> tuple:
        """Every exponent tuple of degree t."""
        return tuple(compositions(self.t, self.num_vars))

    @cached_property
    def entries(self) -> dict:
        """Term c * x^m fills every cell (m - beta, beta) with the one value
        c / multinomial(d; m)."""
        entries = {}
        for m, c in self.form.terms.items():
            value = c * Fraction(1, multinomial(self.degree, m))
            for beta in _divisors_of_degree(m, self.t):
                alpha = tuple(a - b for a, b in zip(m, beta))
                entries.setdefault(alpha, {})[beta] = value
        return entries

    def rank(self) -> int:
        if self.t in (0, self.degree):
            return 1        # a single row or column, of a nonzero form
        if not is_coprime_sum(self.form):
            return sparse_rank(self.entries.values())
        return sum(_divisor_count([m[i] for i in support], self.t)
                   for m, support in zip(self.form.terms, self.form.supports))


def _divisors_of_degree(m, t):
    """Exponent tuples beta <= m (entrywise) with sum(beta) == t, in
    lexicographic order.  The other coordinates hold at most sum(m) - m_i,
    so beta_i >= m_i - (sum(m) - t); with that floor, two variables scan
    only divisors."""
    other = sum(m) - t
    *head, last = m
    for beta in product(*(range(max(0, a - other), min(a, t) + 1) for a in head)):
        rest = t - sum(beta)
        if 0 <= rest <= last:
            yield beta + (rest,)


def _divisor_count(exponents, t) -> int:
    """#{beta <= m : |beta| = t} over the nonzero exponents m_i, that is
    HF(t) of T/(X_i^(m_i + 1)), from its numerator prod(1 - s^(m_i + 1))."""
    numerator = {0: 1}
    for a in exponents:
        numerator = _plus_shifted(numerator, numerator, a + 1, -1)
    k = len(exponents)
    return sum(c * comb(t - j + k - 1, k - 1) for j, c in numerator.items() if j <= t)


def catalecticant(form, t: int) -> CatalecticantMatrix:
    form = as_homogeneous(form)
    d = sum(next(iter(form.terms)))     # any term's degree, as the form is homogeneous
    if not 0 <= t <= d:
        raise ValueError(f"differentiation degree {t} outside 0..{d}")
    return CatalecticantMatrix(t, d, form.num_vars, form)


def catalecticant_lower_bound(form, t_max=None) -> int:
    """max_t rank of the catalecticant: a lower bound for the Waring rank,
    because an apolar set of s points forces every catalecticant rank <= s.
    `form` is a CoprimeForm or a nonzero homogeneous Polynomial, such as the
    output of `apply_differential` (see `forms.as_homogeneous`).

    Only t <= d/2 is ranked, as C_(d-t) is the transpose of C_t.  A counted
    form (one term, or a coprime sum) is ranked at min(t_max, d // 2) alone:
    its rank at t sums over the terms the coefficient of s^t in prod(1 + s +
    ... + s^m_i), each symmetric and unimodal about d/2 (Stanley, "Log-concave
    and unimodal sequences in algebra, combinatorics, and geometry", 1989).

    Raises ResourceLimitError, before building any catalecticant, when the
    estimated work (see MAX_BOUND_CELLS) exceeds that cap."""
    form = as_homogeneous(form)
    d = form.degree
    if t_max is None:
        t_max = d
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    if t_max > d:
        raise ValueError(f"t_max {t_max} exceeds degree {d}")
    counted = is_coprime_sum(form)
    if counted:
        cost = t_max * sum(2 ** len(support) for support in form.supports)
        unit = f"counting steps ({t_max} times the sum over terms of 2^k, k its variables)"
    else:
        cost = bound_cells(form)
        unit = "nonzero cells (the sum over terms of prod(m_i + 1))"
    if cost > MAX_BOUND_CELLS:
        raise ResourceLimitError(
            f"the catalecticants of this form take an estimated {cost} {unit}, "
            f"above the cap {MAX_BOUND_CELLS}")
    top = min(t_max, d // 2)     # 0 only for d = 1, whose C_0 has rank 1
    return max(catalecticant(form, t).rank()
               for t in ((top,) if counted else range(1, top + 1)))


def bound_cells(form) -> int:
    """The nonzero cells of all catalecticants of a form, over every degree
    t: sum over its terms c * x^m of prod(m_i + 1), the divisors of x^m."""
    return sum(prod(a + 1 for a in m) for m in as_homogeneous(form).terms)


# -- Hilbert functions of monomial quotients -----------------------------------

def hilbert_numerator(ideal: MonomialIdeal) -> dict:
    """The numerator N(t) of HS(T/I) = N(t) / (1 - t)^n, as {degree:
    coefficient} over the nonzero coefficients."""
    return _numerator(ideal.generators, {})


def _numerator(gens, memo) -> dict:
    """N(t) for a minimal generator list; `memo` holds the numerators of
    the generator sets met so far.  Generators in disjoint variables
    multiply their numerators.  Otherwise the pivot is p = x_i^e, with x_i
    the variable of the most mixed generators and e the median of its
    exponents among them: the mixed generators divisible by p leave
    I + (p), and I : p has lower degrees, so the recursion ends."""
    if len(gens) <= 1:
        return _plus_shifted({0: 1}, {0: 1}, sum(gens[0]), -1) if gens else {0: 1}
    key = tuple(sorted(gens))
    if key in memo:
        return memo[key]
    part, rest = _connected_part(gens)
    if rest:
        numerator = _times(_numerator(part, memo), _numerator(rest, memo))
    else:
        # two minimal generators share a variable, so one of them is mixed
        mixed = [g for g in gens if sum(map(bool, g)) > 1]
        n = len(gens[0])
        i = max(range(n), key=lambda v: sum(1 for g in mixed if g[v]))
        exps = sorted(g[i] for g in mixed if g[i])
        e = exps[len(exps) // 2]
        # minimal as it stands: a power x_i^f with f <= e would divide a
        # mixed generator
        plus = [g for g in gens if g[i] < e] + [pure_power(n, i, e)]
        colon = minimalize([g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens])
        numerator = _plus_shifted(_numerator(plus, memo), _numerator(colon, memo), e)
    memo[key] = numerator
    return numerator


def _connected_part(gens):
    """The generators linked to the first one through shared variables, and
    the rest."""
    support = {v for v, a in enumerate(gens[0]) if a}
    part, rest = [gens[0]], gens[1:]
    while True:
        linked = [g for g in rest if any(g[v] for v in support)]
        if not linked:
            return part, rest
        part += linked
        rest = [g for g in rest if not any(g[v] for v in support)]
        support.update(v for g in linked for v, a in enumerate(g) if a)


def _times(a: dict, b: dict) -> dict:
    out = {}
    for j, y in b.items():
        out = _plus_shifted(out, a, j, y)
    return out


def _plus_shifted(a: dict, b: dict, shift: int, scale: int = 1) -> dict:
    """a(t) + scale * t^shift * b(t), dropping zero coefficients."""
    out = dict(a)
    for k, c in b.items():
        v = out.pop(k + shift, 0) + scale * c
        if v:
            out[k + shift] = v
    return out


def hf_table(ideal: MonomialIdeal, t_max: int):
    """HF(T/J, t) for t = 0..t_max: the coefficients of N(t) up to t_max,
    run through n running sums (one per factor 1/(1 - t)).  Raises
    ResourceLimitError, before the numerator is computed, when those
    (t_max + 1) * n steps exceed MAX_HF_STEPS."""
    n = ideal.num_vars
    steps = (t_max + 1) * max(n, 1)
    if steps > MAX_HF_STEPS:
        raise ResourceLimitError(
            f"a Hilbert function table to degree {t_max} in {n} variables takes "
            f"{steps} running-sum steps ((t_max + 1) * variables), above the cap "
            f"{MAX_HF_STEPS}")
    values = [0] * (t_max + 1)
    for k, c in hilbert_numerator(ideal).items():
        if k <= t_max:
            values[k] = c
    for _ in range(n):
        values = list(accumulate(values))
    return values


def total_multiplicity(ideal: MonomialIdeal) -> int:
    """Sum of all Hilbert function values of a finite quotient (the ideal must
    contain a power of every variable, so the tail is provably zero).  Then
    N(t) = (1 - t)^n Q(t) with Q(1) the length, and differentiating n times
    at t = 1 gives Q(1) = (-1)^n sum_k N_k C(k, n)."""
    if not ideal.contains_power_of_every_variable():
        raise ValueError("quotient is not finite: some variable has no pure "
                         "power among the generators")
    n = ideal.num_vars
    return (-1) ** n * sum(c * comb(k, n) for k, c in hilbert_numerator(ideal).items())


def intersect_monomial_ideals(ideals) -> MonomialIdeal:
    """Intersection, via pairwise LCMs of generators, iterated and minimalized.
    A generator that lies in the other ideal divides every LCM it forms, so
    it is kept as it is, and LCMs are taken only between the generators of
    each ideal that lie outside the other."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    num_vars = ideals[0].num_vars
    if any(j.num_vars != num_vars for j in ideals):
        raise ValueError("ideals must share the ambient ring")
    gens = list(ideals[0].generators)
    for other in ideals[1:]:
        inside, outside = _split_by_membership(gens, other.generators)
        other_inside, other_outside = _split_by_membership(other.generators, gens)
        gens = minimalize(inside + other_inside + [
            tuple(map(max, g, h)) for g in outside for h in other_outside])
    return MonomialIdeal(num_vars, gens, ideals[0].names)


def _split_by_membership(gens, ideal_gens):
    """(the gens that some generator in ideal_gens divides, the others)."""
    inside, outside = [], []
    for g in gens:
        (inside if any(all(map(ge, g, h)) for h in ideal_gens) else outside).append(g)
    return inside, outside


# -- the intersection identity --------------------------------------------------

class ClaimPreconditionError(ValueError):
    """The ideal family does not have the pairwise-maximal-sum shape."""


@dataclass(frozen=True)
class ClaimReport:
    lhs: int              # total multiplicity of the intersection
    per_ideal: tuple      # total multiplicities of the individual quotients
    rhs: int              # sum(per_ideal) - (r - 1)
    passed: bool


def verify_claim_identity(ideals, t_max=None) -> ClaimReport:
    """Check sum_i HF(T/(J_1 cap ... cap J_r), i) =
    sum_j sum_i HF(T/J_j, i) - r + 1 on a family of finite monomial quotients
    whose pairwise sums are the maximal ideal.

    When t_max is given, the Hilbert functions are summed up to t_max and the
    tails are required to vanish there; otherwise summation runs until the
    (finite) quotients are exhausted.
    """
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    num_vars = ideals[0].num_vars
    for j in ideals:
        if not j.contains_power_of_every_variable():
            raise ClaimPreconditionError(
                f"{j!r} lacks a pure power of some variable")
    for a in range(len(ideals)):
        for b in range(a + 1, len(ideals)):
            for v in range(num_vars):
                unit = pure_power(num_vars, v, 1)
                if unit not in ideals[a].generators and unit not in ideals[b].generators:
                    raise ClaimPreconditionError(
                        f"J_{a + 1} + J_{b + 1} misses the variable "
                        f"{ideals[a].names[v]}: the sum is not the maximal ideal")
    intersection = intersect_monomial_ideals(ideals)
    if t_max is None:
        lhs = total_multiplicity(intersection)
        per_ideal = tuple(total_multiplicity(j) for j in ideals)
    else:
        tables = [hf_table(j, t_max) for j in [intersection] + ideals]
        for tab in tables:
            if tab[t_max] != 0:
                raise ValueError(
                    f"t_max={t_max} is too small: Hilbert function tail is "
                    f"{tab[t_max]}, not 0")
        lhs = sum(tables[0])
        per_ideal = tuple(sum(tab) for tab in tables[1:])
    rhs = sum(per_ideal) - (len(ideals) - 1)
    return ClaimReport(lhs, per_ideal, rhs, lhs == rhs)


def claim_ideals(form: CoprimeForm):
    """The proof-shaped family J_1..J_r for a coprime sum: J_i keeps block i's
    least-exponent variable linearly, raises the other block variables to
    a_j+1, and contains every out-of-block variable linearly."""
    num_vars = len(form.variables)
    index = {v: i for i, v in enumerate(form.variables)}
    names = dual_names(form.variables)
    ideals = []
    for _, mono in form.terms:
        items = mono.sorted_items
        block = {v for v, _ in items}
        gens = [pure_power(num_vars, index[v], a + 1) for v, a in items[1:]]
        gens.append(pure_power(num_vars, index[items[0][0]], 1))
        gens += [pure_power(num_vars, index[v], 1)
                 for v in form.variables if v not in block]
        ideals.append(MonomialIdeal(num_vars, gens, names))
    return ideals


def random_claim_configuration(rng, max_r=3, max_block=3, max_exp=4):
    """A random valid ideal family for the intersection identity: r blocks of
    variables, pure-power generators with exponents <= max_exp + 1 inside a
    block, and every out-of-block variable as a linear generator."""
    r = rng.randint(1, max_r)
    sizes = [rng.randint(1, max_block) for _ in range(r)]
    num_vars = sum(sizes)
    starts = [sum(sizes[:i]) for i in range(r)]
    ideals = []
    for i in range(r):
        block = range(starts[i], starts[i] + sizes[i])
        gens = [pure_power(num_vars, v, rng.randint(1, max_exp + 1) if v in block else 1)
                for v in range(num_vars)]
        ideals.append(MonomialIdeal(num_vars, gens))
    return ideals


def annihilator_membership(operator: Polynomial, form) -> bool:
    """True iff the operator kills the form under the differentiation action."""
    return apply_differential(operator, as_homogeneous(form)).is_zero()
