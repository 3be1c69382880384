"""Roots-of-unity power-sum decompositions for coprime-monomial sums.

For a monomial x_0^a_0 x_1^a_1 ... x_n^a_n with a_0 least, the apolar point
set is the grid [1 : e_1 : ... : e_n] with e_i ranging over the (a_i+1)-th
roots of unity.  The scalars gamma come from an exact square solve over
Q(zeta_N), N = lcm of the root orders, with one row per character of
prod mu_(a_i+1): the monomials x^b with b_i <= a_i for i >= 1.  That
determines them, because:

- the kept matrix is diag(multinomials) times the character table of the
  grid, so it is invertible;
- a dropped row beta is mult(beta) / mult(b) times the kept row
  b = beta mod (a_i+1), as e_i^beta_i only depends on beta_i mod (a_i+1);
- every right-hand side is 0 except at b = a, and no dropped row falls in
  a's class: it would need some beta_i >= 2 a_i + 1, hence
  sum_(i>=1) beta_i > sum_(i>=1) a_i + a_0 = d, since a_i >= a_0.

So the unique solution of the square system solves every monomial row.
`waring decompose` still verifies the result in full.  A sum of coprime
monomials is decomposed blockwise and the blocks concatenated.

Verification expands sum gamma_j L_j^d with integer coefficients in
Z[t]/(t^N - 1) over one common denominator, and reduces each monomial's
residual modulo Phi_N once, N the lcm of the orders of the terms that reach
that monomial (so blocks in different fields never meet in one large
field).  That single reduction is exact: t -> zeta_N is a ring map onto
Q(zeta_N), so a residual vanishes in the field iff its reduction is zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclotomic import CyclotomicNumber, cyclic_lift, cyclic_mul, \
    cyclotomic_embed, reduce_mod_phi
from .forms import CoprimeForm, Monomial, decomposition_field_order
from .linalg import LinearSystem, solve_exact, \
    InconsistentSystemError, UnderdeterminedSystemError
from .polynomials import compositions, multinomial
from .rank import rank_coprime_sum, rank_monomial


class DecompositionSolveError(RuntimeError):
    """The gamma system failed to have a unique solution.  The construction
    guarantees solvability, so this signals an implementation bug."""


@dataclass(frozen=True)
class DecompositionTerm:
    gamma: CyclotomicNumber
    linear: tuple          # CyclotomicNumbers, aligned to the namespace
    block: int             # index of the source monomial
    point: tuple           # apolar point coordinates, aligned to the block's variables

    def field_order(self) -> int:
        return self.gamma.order


@dataclass(frozen=True)
class PowerSumDecomposition:
    degree: int
    variables: tuple
    terms: tuple


def _grid(monomial: Monomial):
    """Root exponents (k_i over the sorted non-least variables, k_i < a_i + 1)
    of every apolar grid point, in lexicographic order."""
    return itertools.product(*(range(a + 1) for _, a in monomial.sorted_items[1:]))


def decomposition_points(monomial: Monomial):
    """All apolar grid points for a monomial, in lexicographic root-exponent
    order; coordinates are aligned to the monomial's input variable order,
    with 1 on the least-exponent variable."""
    order = decomposition_field_order(monomial)
    items = monomial.sorted_items
    positions = [monomial.variables.index(v) for v, _ in items]
    points = []
    for root_exps in _grid(monomial):
        coords = [None] * monomial.n
        coords[positions[0]] = CyclotomicNumber.from_rational(1, order)
        for (_, a), pos, k in zip(items[1:], positions[1:], root_exps):
            coords[pos] = cyclotomic_embed(a + 1, k, order)
        points.append(tuple(coords))
    return points


def solve_gammas(monomial: Monomial, coefficient=Fraction(1)) -> PowerSumDecomposition:
    """Decompose coefficient * M as a sum of rank(M) powers of the grid linear
    forms, by an exact solve of the square character system.

    Rows and columns are both indexed by the grid: row b is the monomial
    with exponents b_i <= a_i on the non-least variables (and d - sum b on
    the least one), and its entry at the point with root exponents k is
    multinomial(d; b) * zeta_N^(sum k_i b_i N / (a_i+1)).  The right-hand
    side is the coefficient at b = a and zero elsewhere.  The module
    docstring explains why the remaining monomial rows then hold too.
    """
    coefficient = Fraction(coefficient)
    if coefficient == 0:
        raise ValueError("coefficient must be nonzero")
    d = monomial.degree
    order = decomposition_field_order(monomial)
    rest = monomial.sorted_items[1:]
    steps = [order // (a + 1) for _, a in rest]
    target = tuple(a for _, a in rest)
    grid = list(_grid(monomial))

    matrix = []
    rhs = []
    zero = CyclotomicNumber.from_rational(0, order)
    for b in grid:
        mult = multinomial(d, (d - sum(b),) + b)
        weights = [e * step for e, step in zip(b, steps)]
        matrix.append([
            CyclotomicNumber.zeta(order, sum(k * w for k, w in zip(ks, weights)), mult)
            for ks in grid])
        rhs.append(CyclotomicNumber.from_rational(coefficient, order)
                   if b == target else zero)
    try:
        gammas = solve_exact(LinearSystem(matrix, rhs))
    except (InconsistentSystemError, UnderdeterminedSystemError) as exc:
        raise DecompositionSolveError(
            f"gamma system for {monomial} has no unique solution: {exc}") from exc
    terms = tuple(
        DecompositionTerm(gamma=g, linear=coords, block=0, point=coords)
        for g, coords in zip(gammas, decomposition_points(monomial)))
    return PowerSumDecomposition(d, monomial.variables, terms)


def decompose_form(form: CoprimeForm) -> PowerSumDecomposition:
    """Minimal power-sum decomposition of a validated coprime sum, obtained by
    decomposing each monomial block and concatenating."""
    variables = form.variables
    if form.degree == 1:
        # the form is itself a linear form: one d-th power
        coeffs = [CyclotomicNumber.from_rational(0, 1) for _ in variables]
        for c, m in form.terms:
            coeffs[variables.index(m.variables[0])] = \
                CyclotomicNumber.from_rational(c, 1)
        term = DecompositionTerm(
            gamma=CyclotomicNumber.from_rational(1, 1),
            linear=tuple(coeffs), block=0, point=tuple(coeffs))
        return PowerSumDecomposition(1, variables, (term,))
    terms = []
    for block, (coeff, mono) in enumerate(form.terms):
        part = solve_gammas(mono, coeff)
        positions = [variables.index(v) for v in mono.variables]
        zero = CyclotomicNumber.from_rational(0, part.terms[0].gamma.order
                                              if part.terms else 1)
        for t in part.terms:
            linear = [zero] * len(variables)
            for pos, c in zip(positions, t.linear):
                linear[pos] = c
            terms.append(DecompositionTerm(
                gamma=t.gamma, linear=tuple(linear), block=block, point=t.point))
    return PowerSumDecomposition(form.degree, variables, tuple(terms))


# -- verification ---------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    expansion_matches: bool
    mismatches: tuple      # (monomial text, expected, actual), first few
    blocks_independent: bool
    dependent_pair: tuple | None
    term_count: int
    expected_rank: int

    @property
    def term_count_matches(self) -> bool:
        return self.term_count == self.expected_rank

    @property
    def passed(self) -> bool:
        return self.expansion_matches and self.blocks_independent \
            and self.term_count_matches


def _monomial_text(variables, exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in zip(variables, exps) if e) or "1"


def verify_decomposition(form: CoprimeForm,
                         decomposition: PowerSumDecomposition) -> VerificationReport:
    """Exactly expand the decomposition and diff it against the form; also
    check pairwise linear independence within each block and the term count
    against the closed-form rank.  Failures are report entries, not errors.
    The expansion runs in Z[t]/(t^N - 1), as the module docstring explains."""
    d = decomposition.degree
    variables = decomposition.variables
    if d < 1:
        raise ValueError("exponent d must be positive")
    if any(len(t.linear) != len(variables) for t in decomposition.terms):
        raise ValueError("variable count mismatch")
    index = {v: i for i, v in enumerate(variables)}
    target = {}
    for c, m in form.terms:
        exps = [0] * len(variables)
        for v, e in zip(m.variables, m.exponents):
            if v not in index:
                return VerificationReport(
                    False, ((str(m), str(c), "variable missing"),),
                    True, None, len(decomposition.terms),
                    rank_coprime_sum(form))
            exps[index[v]] = e
        target[tuple(exps)] = c

    scale, lifted = _lift(decomposition, target.values())
    residual = _residual(target, lifted, d, len(variables), scale)
    expansion_matches = True
    mismatches = []
    for exps in sorted(residual):
        if not _vanishes(residual[exps]):
            expansion_matches = False
            actual = _coefficient(decomposition, lifted, scale, exps)
            mismatches.append((_monomial_text(variables, exps),
                               str(target.get(exps, Fraction(0))), str(actual)))
            if len(mismatches) >= 10:
                break

    blocks = {}
    for t, (order, _, powers) in zip(decomposition.terms, lifted):
        blocks.setdefault(t.block, []).append(
            (order, {i: p[1] for i, p in powers.items()}))
    dependent_pair = None
    for block, linear in blocks.items():
        for i in range(len(linear)):
            for j in range(i + 1, len(linear)):
                if _dependent(linear[i], linear[j]):
                    dependent_pair = (block, i, j)
                    break
            if dependent_pair:
                break
        if dependent_pair:
            break

    return VerificationReport(
        expansion_matches=expansion_matches,
        mismatches=tuple(mismatches),
        blocks_independent=dependent_pair is None,
        dependent_pair=dependent_pair,
        term_count=len(decomposition.terms),
        expected_rank=rank_coprime_sum(form))


def _lift(decomposition, target_coeffs):
    """Lift every term gamma * L^d into Z[t]/(t^N - 1) with integer entries,
    N the lcm of the orders of the term's nonzero numbers.

    Returns the common denominator D, the lcm of the target's denominators
    and of den(gamma) * E^d per term, where E is the lcm of the term's
    linear-coefficient denominators; and per term (N, the lift of
    D / E^d * gamma, {i: [(E * c_i)^a for a = 0 .. d]} over its nonzero
    linear coefficients c_i), so each product gamma * prod (E * c_i)^(a_i)
    with sum a_i = d is D times its value.
    """
    d = decomposition.degree
    terms = decomposition.terms
    dens = [lcm(*(c.denominator for c in t.linear)) for t in terms]
    scale = lcm(*(c.denominator for c in target_coeffs),
                *(t.gamma.denominator * e ** d for t, e in zip(terms, dens)))
    lifted = []
    for t, e in zip(terms, dens):
        order = lcm(t.gamma.order, *(c.order for c in t.linear if c))
        powers = {}
        for i, c in enumerate(t.linear):
            if c:
                base = cyclic_lift(c, order, e)
                row = [{0: 1}]
                for _ in range(d):
                    row.append(cyclic_mul(row[-1], base, order))
                powers[i] = row
        lifted.append((order, cyclic_lift(t.gamma, order, scale // e ** d), powers))
    return scale, lifted


def _residual(target, lifted, d, n, scale):
    """D * (expansion - target) per monomial, accumulated one monomial of
    one term at a time, as {N: sparse {exponent: int} map} over the orders
    N of the contributing terms (the target counts as order 1)."""
    residual = {}
    for order, gamma, powers in lifted:
        if not gamma or not powers:
            continue
        support = list(powers)
        for alpha in compositions(d, len(support)):
            acc = gamma
            exps = [0] * n
            for i, a in zip(support, alpha):
                if a:
                    acc = cyclic_mul(acc, powers[i][a], order)
                    exps[i] = a
            bucket = residual.setdefault(tuple(exps), {}).setdefault(order, {})
            m = multinomial(d, alpha)
            for k, v in acc.items():
                bucket[k] = bucket.get(k, 0) + m * v
    for exps, c in target.items():
        bucket = residual.setdefault(exps, {}).setdefault(1, {})
        bucket[0] = bucket.get(0, 0) - int(scale * c)
    return residual


def _stretch(lift, step):
    """The embedding Z[t]/(t^n - 1) -> Z[t]/(t^(n*step) - 1), t -> t^step."""
    return {k * step: v for k, v in lift.items()} if step > 1 else lift


def _vanishes(groups) -> bool:
    """Whether a residual {N: lift} is zero in Q(zeta_M), M the lcm of the
    orders N: one reduction modulo Phi_M, exact because t -> zeta_M is a
    ring map."""
    order = lcm(*groups)
    total = {}
    for n, lift in groups.items():
        for k, v in _stretch(lift, order // n).items():
            total[k] = total.get(k, 0) + v
    return not any(reduce_mod_phi(total.items(), order))


def _coefficient(decomposition, lifted, scale, exps):
    """The coefficient of x^exps in the expansion, added up term by term.

    A term's contribution lies in the field M generated by its gamma and
    the linear coefficients the monomial uses; its lift only has exponents
    divisible by N/M, so it reduces modulo Phi_M directly.  The running sum
    lies in the lcm of the fields added since it was last zero, and the
    printed value keeps that field.
    """
    d = decomposition.degree
    total = Fraction(0)
    if sum(exps) != d:
        return total
    used = [i for i, a in enumerate(exps) if a]
    m = multinomial(d, exps)
    for t, (order, gamma, powers) in zip(decomposition.terms, lifted):
        if not gamma or any(i not in powers for i in used):
            continue
        field = lcm(t.gamma.order, *(t.linear[i].order for i in used))
        step = order // field
        acc = gamma
        for i in used:
            acc = cyclic_mul(acc, powers[i][exps[i]], order)
        coords = reduce_mod_phi(((k // step, v) for k, v in acc.items()), field)
        value = CyclotomicNumber(field, [Fraction(m * v, scale) for v in coords])
        total = total + value if total else value
    return total


def _dependent(u, v) -> bool:
    """Whether two lifted linear forms, (N, {index: lift} over their nonzero
    coefficients), are linearly dependent: every minor u_i v_j - u_j v_i
    vanishes.  With u_i != 0 it suffices to check the minors at i."""
    (nu, u), (nv, v) = u, v
    if not u or not v:
        return True
    if u.keys() != v.keys():
        return False
    order = lcm(nu, nv)
    u = {i: _stretch(c, order // nu) for i, c in u.items()}
    v = {i: _stretch(c, order // nv) for i, c in v.items()}
    i, *rest = u
    for j in rest:
        minor = cyclic_mul(u[i], v[j], order)
        for k, x in cyclic_mul(u[j], v[i], order).items():
            minor[k] = minor.get(k, 0) - x
        if any(reduce_mod_phi(minor.items(), order)):
            return False
    return True


@dataclass(frozen=True)
class LeastVariableReport:
    entries: tuple   # (term index, block, variable, ok)
    passed: bool


def least_variable_check(form: CoprimeForm,
                         decomposition: PowerSumDecomposition) -> LeastVariableReport:
    """Every linear form in block i must involve the least-exponent variable
    of the i-th monomial (for degree 1, the single form must involve every
    block's variable).  A variable outside the decomposition's namespace is
    not involved."""
    if len(decomposition.terms) != rank_coprime_sum(form):
        raise ValueError("decomposition length does not equal the rank")
    index = {v: i for i, v in enumerate(decomposition.variables)}
    entries = []
    if form.degree == 1:
        t = decomposition.terms[0]
        for block, (_, m) in enumerate(form.terms):
            v = m.least_variable
            entries.append((0, block, v, v in index and bool(t.linear[index[v]])))
    else:
        least = {block: m.least_variable
                 for block, (_, m) in enumerate(form.terms)}
        for i, t in enumerate(decomposition.terms):
            if t.block not in least:
                raise ValueError(f"term {i} names block {t.block}, but the "
                                 f"form has {len(least)} blocks")
            v = least[t.block]
            entries.append((i, t.block, v, v in index and bool(t.linear[index[v]])))
    return LeastVariableReport(tuple(entries), all(e[3] for e in entries))
