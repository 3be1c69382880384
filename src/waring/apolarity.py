"""Hilbert functions, catalecticant matrices, and the intersection identity
used by the rank additivity proof.

Hilbert functions of monomial-ideal quotients are computed by counting
standard monomials (monomials divisible by no generator).  The standard set
is closed under division, so it is generated level by level from 1, which
keeps the cost proportional to the number of standard monomials rather than
to the number of all monomials of each degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm, prod

from .forms import CoprimeForm, HomogeneousForm, MonomialIdeal, \
    coprime_form_to_homogeneous, minimalize
from .linalg import matrix_rank
from .polynomials import Polynomial, apply_differential, compositions


def _as_homogeneous(form):
    if isinstance(form, CoprimeForm):
        return coprime_form_to_homogeneous(form)
    if isinstance(form, HomogeneousForm):
        return form
    raise TypeError(f"expected a form, got {type(form).__name__}")


@dataclass(frozen=True)
class CatalecticantMatrix:
    """The pairing of degree-t operators against a degree-d form.

    entry(row, col) is the coefficient of the row monomial (degree d-t) in the
    col operator (degree t) applied to the form; its rank is the Hilbert
    function of the perp-ideal quotient in degree t.
    """

    t: int
    row_monomials: tuple  # exponent tuples of degree d - t
    col_monomials: tuple  # exponent tuples of degree t
    entries: tuple        # rows of Fractions

    def rank(self) -> int:
        return matrix_rank(self.entries)


def catalecticant(form, t: int) -> CatalecticantMatrix:
    form = _as_homogeneous(form)
    d = form.degree
    if not 0 <= t <= d:
        raise ValueError(f"differentiation degree {t} outside 0..{d}")
    n = len(form.variables)
    rows = tuple(compositions(d - t, n))
    cols = tuple(compositions(t, n))
    entries = []
    for alpha in rows:
        row = []
        for beta in cols:
            total = tuple(a + b for a, b in zip(alpha, beta))
            c = form.terms.get(total, Fraction(0))
            if c:
                # d/dx^beta applied to x^total leaves x^alpha with a falling
                # factorial per variable
                factor = prod(perm(a + b, b) for a, b in zip(alpha, beta))
                row.append(c * factor)
            else:
                row.append(Fraction(0))
        entries.append(tuple(row))
    return CatalecticantMatrix(t, rows, cols, tuple(entries))


def catalecticant_lower_bound(form, t_max=None) -> int:
    """max_t rank of the catalecticant: a lower bound for the Waring rank,
    because an apolar set of s points forces every catalecticant rank <= s."""
    form = _as_homogeneous(form)
    if t_max is None:
        t_max = form.degree
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    if t_max > form.degree:
        raise ValueError(f"t_max {t_max} exceeds degree {form.degree}")
    return max(catalecticant(form, t).rank() for t in range(1, t_max + 1))


# -- Hilbert functions of monomial quotients -----------------------------------

def standard_monomial_levels(ideal: MonomialIdeal, t_max: int):
    """Standard monomials of each degree 0..t_max, as lists of sets."""
    levels = [{(0,) * ideal.num_vars} if not ideal.contains_monomial(
        (0,) * ideal.num_vars) else set()]
    for _ in range(t_max):
        nxt = set()
        for exps in levels[-1]:
            for i in range(ideal.num_vars):
                cand = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                if cand not in nxt and not ideal.contains_monomial(cand):
                    nxt.add(cand)
        levels.append(nxt)
    return levels


def hf_monomial_quotient(ideal: MonomialIdeal, t: int) -> int:
    """HF(T/J, t): the number of degree-t monomials outside J."""
    if t < 0:
        raise ValueError("degree must be non-negative")
    return len(standard_monomial_levels(ideal, t)[t])


def hf_table(ideal: MonomialIdeal, t_max: int):
    return [len(level) for level in standard_monomial_levels(ideal, t_max)]


def total_multiplicity(ideal: MonomialIdeal) -> int:
    """Sum of all Hilbert function values of a finite quotient (the ideal must
    contain a power of every variable, so the tail is provably zero)."""
    if not ideal.contains_power_of_every_variable():
        raise ValueError("quotient is not finite: some variable has no pure "
                         "power among the generators")
    total = 0
    levels = standard_monomial_levels(ideal, 0)
    level = levels[0]
    t = 0
    while level:
        total += len(level)
        t += 1
        nxt = set()
        for exps in level:
            for i in range(ideal.num_vars):
                cand = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                if cand not in nxt and not ideal.contains_monomial(cand):
                    nxt.add(cand)
        level = nxt
    return total


def hf_sum_complete_intersection(exponents) -> int:
    """Total Hilbert-function sum of T/(X_1^(a_1+1), ..., X_n^(a_n+1)): the
    closed form prod(a_i + 1), cross-checked against direct counting."""
    exponents = [int(a) for a in exponents]
    if any(a < 1 for a in exponents):
        raise ValueError("exponents must be positive")
    closed = prod(a + 1 for a in exponents)
    n = len(exponents)
    gens = []
    for i, a in enumerate(exponents):
        g = [0] * n
        g[i] = a + 1
        gens.append(g)
    counted = total_multiplicity(MonomialIdeal(n, gens))
    if counted != closed:
        raise AssertionError(
            f"complete-intersection count {counted} != closed form {closed}")
    return closed


def intersect_monomial_ideals(ideals) -> MonomialIdeal:
    """Intersection, via pairwise LCMs of generators, iterated and minimalized."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    num_vars = ideals[0].num_vars
    if any(j.num_vars != num_vars for j in ideals):
        raise ValueError("ideals must share the ambient ring")
    gens = list(ideals[0].generators)
    for other in ideals[1:]:
        gens = minimalize([tuple(max(a, b) for a, b in zip(g, h))
                           for g in gens for h in other.generators])
    return MonomialIdeal(num_vars, gens, ideals[0].names)


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
                unit = tuple(1 if i == v else 0 for i in range(num_vars))
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
    names = tuple(f"X{v[1:]}" if v.startswith("x") and v[1:].isdigit() else v.upper()
                  for v in form.variables)
    ideals = []
    for _, mono in form.terms:
        items = mono.sorted_items
        block = {v for v, _ in items}
        gens = []
        for v, a in items[1:]:
            g = [0] * num_vars
            g[index[v]] = a + 1
            gens.append(g)
        g = [0] * num_vars
        g[index[items[0][0]]] = 1
        gens.append(g)
        for v in form.variables:
            if v not in block:
                g = [0] * num_vars
                g[index[v]] = 1
                gens.append(g)
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
        gens = []
        block = range(starts[i], starts[i] + sizes[i])
        for v in range(num_vars):
            g = [0] * num_vars
            g[v] = rng.randint(1, max_exp + 1) if v in block else 1
            gens.append(g)
        ideals.append(MonomialIdeal(num_vars, gens))
    return ideals


def annihilator_membership(operator: Polynomial, form) -> bool:
    """True iff the operator kills the form under the differentiation action."""
    form = _as_homogeneous(form)
    return apply_differential(operator, form.as_polynomial()).is_zero()
