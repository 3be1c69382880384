"""Roots-of-unity power-sum decompositions for coprime-monomial sums.

For a monomial x_0^a_0 x_1^a_1 ... x_n^a_n with a_0 least, the apolar point
set is the grid [1 : e_1 : ... : e_n] with e_i ranging over the (a_i+1)-th
roots of unity.  The scalars gamma solve the square system with one row per
character of prod mu_(a_i+1): the monomials x^b with b_i <= a_i for
i >= 1.  That determines them, because:

- the kept matrix is diag(multinomials) times the character table of the
  grid, the Kronecker product V_1 x ... x V_n of the tables
  V_i[b][k] = zeta_(a_i+1)^(k b), so it is invertible;
- a dropped row beta is mult(beta) / mult(b) times the kept row
  b = beta mod (a_i+1), as e_i^beta_i only depends on beta_i mod (a_i+1);
- every right-hand side is 0 except at b = a, and no dropped row falls in
  a's class: it would need some beta_i >= 2 a_i + 1, hence
  sum_(i>=1) beta_i > sum_(i>=1) a_i + a_0 = d, since a_i >= a_0.

So the unique solution of the square system solves every monomial row.
Its right-hand side is c * e_a = c * (e_(a_1) x ... x e_(a_n)), so the
solution is c / mult(a) times the Kronecker product of the solutions y_i
of V_i y_i = e_(a_i).  V_i is a character table, so V_i^-1 is its
conjugate transpose over a_i + 1: y_i[k] = zeta_(a_i+1)^(-k a_i) / (a_i+1)
= zeta_N^(k s_i) / (a_i+1), s_i = N / (a_i+1), one weight times a root of
unity, and the term at k = (k_1, ..., k_n) is c / (mult(d; a) prod_i
(a_i+1)) * zeta_N^(sum_i k_i s_i) * (x_0 + sum_i zeta_N^(k_i s_i) x_i)^d.
A sum of coprime monomials is decomposed blockwise.

One walk of the grid (`_closed_form`) lists these terms, each number
rendered by a key, with each axis's factors y_i[k] = w_i zeta_N^(e_i[k])
given as (exponents, weight).  The checks below take the formula's
(`_formula`); the builder takes the solve's (`_factors`): V_i y_i = e_(a_i)
solved exactly in Q(zeta_(a_i+1)), once per process per a_i and N, each
y_i[k] lifted into Z[t]/(t^N - 1) as a single power, a solution of another
shape refused.  So builder and checks share the walk, the nodes (read off
`_roots`, one object per node) and the product of the factors, and differ
only in the factors.

Verification first compares a decomposition with the closed form
(`_is_closed_form`), term for term in `decompose_form`'s order and with
every number in its block's field, building no number.  One that equals
the closed form expands to the form by the argument above, one block's
forms are pairwise independent (their points differ and start with 1), and
its term count is the rank, so it passes without expansion.  The
comparison is declined past the price `decompose_form` admits, read off
the exponents (`_grid_price`).  For `decompose`'s output it compares the
two derivations of every factor in every term: a solved exponent or weight
that differs from the formula's changes a gamma, and the output fails.
`verify` makes the same comparison on a file's parsed JSON first
(`_is_closed_form_json`): two numbers of one field written in `decompose
--json`'s canonical text are equal iff their texts are, so a file that
writes the closed form in that text passes from its JSON, with no number
built, and one that differs from it in a few terms loads those alone.
Any other file is loaded and compared as numbers.

A file that differs from the closed form in fewer than half of its terms,
with an unchanged term left in each block, is checked from those terms and
their closed-form counterparts alone (`_near_closed_check`), with the flat
check's report.  Anything else, a file or an output alike, is expanded as
below, which builds the report.

Verification expands sum gamma_j L_j^d with integer coefficients in
Z[t]/(t^N - 1) over one common denominator, reading one plan (`_lift`):
each term lifted and classified once, the cyclic groups, the blocks and
the price (`_steps`), checked before any expansion (`decompose_form`
reads the same price off the exponents first).  Each monomial's residual
is reduced modulo Phi_N once, N the lcm of the orders of the terms that
reach it: exact, as t -> zeta_N is a ring map onto Q(zeta_N).  The
residual is computed one monomial at a time, in sorted order, by merging
one stream per support (`_residuals`), so the check stops at the tenth
mismatch.

A cyclic term, whose nonzero coordinates lift to single powers q_i t^(e_i)
(every grid term does), adds multinomial(d; b) * prod q_i^(b_i) *
G t^(g + <e, b>) at x^b for each power G t^g of its gamma's lift.  For the
cyclic terms of one order N, support and moduli q, coordinate i has period
p_i = N / gcd(N, its exponents e_i), so their sum at x^b only needs
P_r = sum_j G_j t^(g_j + <e_j, r>), r = b mod p: an exact identity about
the input.  Each P_r is reduced modulo Phi_N once, and each monomial costs
one scaling, or none when P_r is 0 (a grid block has rank(M) classes).
A term with any other coordinate multiplies its gamma's lift by one power
row per coordinate at each monomial, and is priced by those integer
products (`_products`).

A mismatch at x^b prints the coefficient in the field of the terms that
reach x^b, which divides the plan's, from its residual (`_printed`).  Two
cyclic linear forms are dependent iff their polar-form keys are equal
(`_ratio_key`), so only the pairs with a zero or general form are tested
one by one, by their minors.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, log10, prod
from operator import itemgetter, mod

from .cyclotomic import CyclotomicNumber, _normalised, _power_table, _root_pair, cyclic_lift, \
    cyclic_mul, euler_phi, fraction_text, reduce_mod_phi
from .forms import CoprimeForm, Monomial, decomposition_field_order
from .linalg import LinearSystem, solve_exact
from .polynomials import compositions, monomial_text, multinomial
from .rank import ResourceLimitError, rank_coprime_sum, rank_monomial

# Admission cap for `decompose_form`: (a+1)^3 * phi(a+1)^2 per block and
# distinct exponent a but the least, for the solve over Q(zeta_(a+1)) that
# runs when the factor cache is cold; a warm `_factors` entry skips it, but
# the price and the refusal read only the exponents, so they do not depend
# on what ran before.  On a 2-vCPU VM `waring decompose x1*x2^36` (6.6e7)
# takes 1.1-1.2 s of command wall time, and `solve_gammas` of x1*x2^60
# (8.2e8) 15 s.
MAX_SOLVE_COST = 10 ** 8

# Admission cap for verification and `decompose_form`, checked first: the
# largest N for which they build Q(zeta_N) (0.07 s at 1000, 1.4 s at 5000; a
# one-term file over Q(zeta_1000) verifies in 0.15-0.25 s of command wall time).
MAX_FIELD_ORDER = 10 ** 3

# Admission cap for verification and `decompose_form`, in steps of up to
# 12 us (2 vCPUs) counted by `_steps`: the flat check of the closed form of
# x1*...*x9 takes 25,949, of x1*x2^39*x3^39 67,240 (0.5-0.8 s) and of
# x1*x2^76*x3^76 890,762 (7.2-7.7 s); x1*x2^99*x3^99 (2.5e6, 27.6 s) is
# refused.  A general term's composition counts one step more per 50
# integer products it multiplies: the x1*x2^39*x3^39 grid plus a cancelling
# pair of dense general terms is priced 569,404 steps and takes 7.3-9.0 s.
# Past degree 500 a composition counts ceil(d^2 / 500^2) steps: a one-term
# file for x1^5000*x2^5000 (10,001 compositions, 15 s) is refused at 4.0e6.
# Large coordinates count too: one for x1^50*x2^50 whose x1 coordinate has
# 4,000 digits (101 compositions, 2.4-3.5 s) is refused at 2.8e6.  So do
# wide namespaces, a composition ceil(n / 16) times over n variables: a
# one-term degree-2 file over 400 variables (80,200 compositions, 61 s) is
# refused at 2.0e6, and one over 200 (261,301) takes 1-2 s.  A file that
# differs from the closed form in a few terms is priced by the 2k terms it
# expands (`_near_closed_check`).
MAX_VERIFY_STEPS = 10 ** 6


@dataclass(frozen=True)
class DecompositionTerm:
    gamma: CyclotomicNumber
    linear: tuple          # CyclotomicNumbers, aligned to the namespace
    block: int             # index of the source monomial
    point: tuple           # apolar point coordinates, aligned to the block's variables


@dataclass(frozen=True)
class PowerSumDecomposition:
    degree: int
    variables: tuple
    terms: tuple


@lru_cache(maxsize=16)
def _character_table(m: int) -> tuple:
    """The character table V_m[b][k] = zeta_m^(k b), b, k < m, of the m-th
    roots of unity, as a tuple of tuples over Q(zeta_m).  Every gamma solve
    of root order m shares it; `solve_exact` does not change its matrix."""
    return tuple(tuple(CyclotomicNumber.zeta(m, k * b) for k in range(m))
                 for b in range(m))


def _formula(a: int, order: int) -> tuple:
    """The factors y[k] = zeta_N^(k N / (a+1)) / (a+1), k <= a, of an axis
    x_i^a of a grid over Q(zeta_N), N = order, as the closed form gives
    them: (the exponents k N / (a+1), the weight 1 / (a+1))."""
    return tuple(range(0, order, order // (a + 1))), Fraction(1, a + 1)


@lru_cache(maxsize=256)
def _factors(a: int, order: int) -> tuple:
    """`_formula`'s factors derived the other way, once per process: the
    solution y of V y = e_a, V the character table of the (a+1)-th roots of
    unity, solved exactly in Q(zeta_(a+1)), each y[k] lifted into
    Z[t]/(t^order - 1) as a single power w t^(e_k): (the exponents e_k, the
    weight w of y[0]).  Any other y, which cannot occur, raises ValueError."""
    table = _character_table(a + 1)
    # e_a: zeros, then table[0][0] = zeta^0 = 1
    rhs = [CyclotomicNumber.from_rational(0, a + 1)] * a + [table[0][0]]
    lifts = [(cyclic_lift(y, order, y.denominator), y.denominator)
             for y in solve_exact(LinearSystem(table, rhs))]
    weights = {Fraction(q, den) for lift, den in lifts for q in lift.values()}
    if len(weights) != 1 or any(len(lift) != 1 for lift, _ in lifts):
        raise ValueError(f"internal error: the gamma solve for the exponent {a} gave "
                         f"factors that are not one weight times roots of unity")
    return tuple(e for lift, _ in lifts for e in lift), weights.pop()


def _grid(monomial, key):
    """The grid of x^a over Q(zeta_N), each number rendered by key(N,
    power, q): (N, the position of its least variable, that variable's
    coordinate 1, axes), an axis (position, a_i, its a_i + 1 nodes
    zeta_N^(k s_i), s_i = N / (a_i + 1)) per other variable in sorted
    order, every number read off `_roots`."""
    exps, order = monomial.exponents, decomposition_field_order(monomial)
    roots = _roots(key, order)
    least, *rest = sorted(range(monomial.n), key=exps.__getitem__)     # stable: ties by position
    return order, least, roots[0], [(i, exps[i], roots[::order // (exps[i] + 1)]) for i in rest]


def decomposition_points(monomial: Monomial):
    """All apolar grid points for a monomial, in lexicographic order of the
    root exponents k_i < a_i + 1 over the sorted non-least variables;
    coordinates are aligned to the monomial's input variable order, with 1
    on the least-exponent variable.  The points share one 1 and one list of
    the a_i + 1 roots per non-least variable."""
    return [tuple(linear) for *_, linear in _closed_form(
        CoprimeForm([(1, monomial)]), monomial.variables, _number)]


def solve_gammas(monomial: Monomial, coefficient=Fraction(1)) -> PowerSumDecomposition:
    """Decompose coefficient * M as a sum of rank(M) powers of the grid linear
    forms (`_terms` over the monomial's own variables)."""
    return PowerSumDecomposition(monomial.degree, monomial.variables, _terms(
        CoprimeForm([(coefficient, monomial)]), monomial.variables))


def _terms(form, variables) -> tuple:
    """The terms of `_closed_form` over `variables` as numbers, each axis's
    factors taken from the solve (`_factors`)."""
    return tuple(DecompositionTerm(gamma, tuple(linear), block, tuple([linear[i] for i in places]))
                 for block, places, gamma, linear in _closed_form(form, variables, _number,
                                                                  _factors))


def decompose_form(form: CoprimeForm) -> PowerSumDecomposition:
    """Minimal power-sum decomposition of a validated coprime sum, obtained by
    decomposing each monomial block and concatenating.  Raises
    ResourceLimitError before it builds anything when the price of verifying
    its output, read off the exponents, or of the solves is above its cap."""
    variables = form.variables
    if form.degree == 1:
        # the form is itself a linear form: one d-th power
        coeffs = {m.variables[0]: c for c, m in form.terms}
        linear = tuple(CyclotomicNumber.from_rational(coeffs.get(v, 0), 1) for v in variables)
        return PowerSumDecomposition(1, variables, (DecompositionTerm(
            gamma=CyclotomicNumber.from_rational(1, 1), linear=linear, block=0, point=linear),))
    _admit("verifying the output", *_grid_price(form, len(variables)))
    # after the field check: phi(a + 1) builds Phi_(a+1), and a + 1 divides N
    cost = sum((a + 1) ** 3 * euler_phi(a + 1) ** 2
               for m in form.monomials for a in set(m.sorted_exponents[1:]))
    if cost > MAX_SOLVE_COST:
        raise ResourceLimitError(
            f"decomposing {form} needs gamma solves of estimated cost {cost:.1e} "
            f"((a+1)^3 * phi(a+1)^2 per distinct a_i), above the cap {MAX_SOLVE_COST:.0e}")
    return PowerSumDecomposition(form.degree, variables, _terms(form, variables))


def _grid_price(form, num_vars):
    """The field and steps of verifying the closed form of `form` over
    `num_vars` variables, read off the exponents and cached
    (`_blocks_price`): a decompose job asks for it in `decompose_form` and
    again in `_is_closed_form`, and computes it once."""
    return _blocks_price(tuple(form.monomials), num_vars)


@lru_cache(maxsize=256)
def _blocks_price(monomials, num_vars):
    """`_grid_price` of a form with these blocks: one cyclic group per block
    of rank r, with r members in r classes, and no general form."""
    ranks = map(rank_monomial, monomials)
    return (max(map(decomposition_field_order, monomials)),
            _steps(monomials[0].degree, [(m.n, r, r) for m, r in zip(monomials, ranks)], [],
                   [], num_vars))


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


def verify_decomposition(form: CoprimeForm, decomposition: PowerSumDecomposition,
                         changed=None) -> VerificationReport:
    """Exactly expand the decomposition and diff it against the form; also
    check pairwise linear independence within each block and the term count
    against the closed-form rank.  Failures are report entries, not errors.
    A decomposition that is the paper's closed form of the form
    (`_is_closed_form`) passes without expansion, as its report would be a
    PASS; one that differs from it in a few terms is checked from those
    terms and their counterparts alone (`_near_closed_check`), with the
    same report; any other runs in Z[t]/(t^N - 1), as the module docstring
    explains.  `verify` passes a file's differing terms as `changed`, found
    from its JSON (`_is_closed_form_json`), with a decomposition that has
    loaded only those terms (`serialize.decomposition_from_json`), so that
    neither `_is_closed_form` nor the term-length check reads the rest; the
    flat check, if the near-closed one is over the step cap, loads it."""
    d = decomposition.degree
    variables = decomposition.variables
    if d < 1:
        raise ValueError("exponent d must be positive")
    if changed is None and any(len(t.linear) != len(variables) for t in decomposition.terms):
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

    rank = rank_coprime_sum(form)
    if changed is None:
        changed = _is_closed_form(form, decomposition, rank)
    if changed == ():
        return VerificationReport(True, (), True, None, rank, rank)
    # a falsy `changed` other than () declines the comparison
    near = changed and _near_closed_check(form, decomposition, target, changed)
    if near:
        mismatches, dependent_pair = near
    else:
        plan = _lift(decomposition, target.values())
        _admit("verifying", plan.field, plan.steps)
        mismatches = _mismatches(plan, _residuals(target, plan, len(variables)), target,
                                 variables)
        dependent_pair = next(((block, *pair) for block, terms in plan.blocks.items()
                               if (pair := _first_dependent_pair(plan, terms))), None)

    return VerificationReport(
        expansion_matches=not mismatches,
        mismatches=mismatches,
        blocks_independent=dependent_pair is None,
        dependent_pair=dependent_pair,
        term_count=len(decomposition.terms),
        expected_rank=rank)


def _mismatches(plan, residuals, target, variables, fields=None) -> tuple:
    """The first ten monomials of `residuals`, (exps, residual) pairs in
    sorted order, whose residual does not vanish, as (text, expected,
    printed actual); `fields` as in `_printed`.  The rest is not computed."""
    bad = itertools.islice(((exps, value, reduced) for exps, value in residuals
                            if any((reduced := _reduced(value))[1])), 10)
    return tuple((monomial_text(variables, exps), str(target.get(exps, Fraction(0))),
                  _bounded_text(_printed(plan, {exps: value}, target, exps, fields, reduced)))
                 for exps, value, reduced in bad)


def _near_closed_check(form, decomposition, target, changed):
    """The mismatches and the first dependent pair of a decomposition that
    differs from the closed form in its `changed` terms, the (position,
    closed-form term) pairs of `_is_closed_form`, read off those terms
    alone.  The closed form sums to the form, so the expansion less the
    form is sum_changed (gamma_j L_j^d - gamma*_j L*_j^d): `_lift` and
    `_residuals` run on the 2k terms, the counterparts with negated gammas,
    against an empty target.  A mismatch prints in the field the flat check
    would use, where a block's unchanged terms bring its N, and the field
    cap reads the flat plan's field the same way.  A block's unchanged
    terms are pairwise independent, so a dependent pair holds a changed
    form: a zero one, one of two changed forms, or a multiple of an
    unchanged term's point (`_grid_position`).  None when the 2k-term plan
    is over the step cap, so that the flat check prices the file."""
    n, k = len(decomposition.variables), len(changed)
    pairs = replace(decomposition, terms=(
        *(decomposition.terms[j] for j, _ in changed),
        *(replace(t, gamma=-t.gamma) for _, t in changed)))
    plan = _lift(pairs, target.values())
    index = {v: i for i, v in enumerate(decomposition.variables)}
    fields, starts, start = {}, [], 0       # variable -> (block, N); block offsets
    for block, (_, m) in enumerate(form.terms):
        field = decomposition_field_order(m)
        fields.update((index[v], (block, field)) for v in m.variables)
        starts.append(start)
        start += rank_monomial(m)
    # the flat plan's field: per variable, the lcm of the orders of the
    # terms on it, and each term's order
    worst = {i: field for i, (_, field) in fields.items()}
    for order, _, bases in plan.lifted[:k]:
        for i in bases:
            worst[i] = lcm(worst.get(i, 1), order)
    _admit("verifying", max(1, *worst.values(), *(order for order, _, _ in plan.lifted[:k])), 0)
    if plan.steps > MAX_VERIFY_STEPS:
        return None
    mismatches = _mismatches(plan, _residuals({}, plan, n), target,
                             decomposition.variables, fields)

    found = []      # dependent pairs (block, i, j), block-relative i < j
    positions = {j for j, _ in changed}
    for (j, t), (order, _, bases) in zip(changed, plan.lifted):
        i = j - starts[t.block]
        if not bases:       # a zero form is dependent on every other
            found.append((t.block, 0, i or 1))
            continue
        p = _grid_position(form.terms[t.block][1], index, order, bases)
        if p is not None and p != i and starts[t.block] + p not in positions:
            found.append((t.block, *sorted((i, p))))
    for ((a, t), u), ((b, s), v) in itertools.combinations(zip(changed, plan.lifted), 2):
        if t.block == s.block and _dependent(u[::2], v[::2]):
            found.append((t.block, a - starts[t.block], b - starts[t.block]))
    return mismatches, min(found, default=None)


def _grid_position(monomial, index, order, bases):
    """The position in its block's grid order of the closed-form point that
    the lifted form (order, bases) is a multiple of, or None: the form
    must have the monomial's support, and each axis coordinate must be the
    least variable's times zeta_N^(k s), k < a + 1, s = N / (a + 1), which
    is looked up by trying each k in Z[t]/(t^L - 1), L = lcm(order, N)."""
    (least, _), *items = monomial.sorted_items
    if bases.keys() != {index[v] for v in monomial.variables}:
        return None
    # a coordinate lifts to a single power iff it is a rational times a
    # root of unity, which a root-of-unity multiple of it is too
    single = len(bases[index[least]]) == 1
    if any((len(bases[index[v]]) == 1) != single for v, _ in items):
        return None
    field = decomposition_field_order(monomial)
    size = lcm(order, field)
    u = _stretch(bases[index[least]], size // order)
    position = 0
    for v, a in items:
        w = reduce_mod_phi(_stretch(bases[index[v]], size // order).items(), size)
        step = size // (a + 1)
        k = next((k for k in range(a + 1) if reduce_mod_phi(
            (((e + k * step) % size, c) for e, c in u.items()), size) == w), None)
        if k is None:
            return None
        position = position * (a + 1) + k
    return position


def _pair(order, power, q):
    """q * zeta_order^power as (order, its stored pair), read off the power
    table (`_root_pair`): the key a number is compared by."""
    return order, _root_pair(order, power, q)


class _Text(dict):
    """The JSON object `decompose --json` writes for a number, which also
    holds the number's (order, power, q): its `_pair` key, from which
    `_counterpart` builds it, is read off them when asked for."""
    __slots__ = ("key",)

    @property
    def pair(self):
        return _pair(*self.key)


def _text(order, power, q):
    """q * zeta_order^power as the JSON object `decompose --json` writes for
    it, read off the power table: the key a number of a file is compared
    by.  Most coordinates of a root are 0, written "0" whatever q is."""
    n, d = q.numerator, q.denominator
    text = _Text(coeffs=[fraction_text(n * r, d) if r else "0"
                         for r in _power_table(order)[power % order]], order=order)
    text.key = order, power, q
    return text


@lru_cache(maxsize=128)
def _roots(key, order):
    """The keys of the numbers zeta_order^j, j < order, built once per key
    and field order; no caller changes them."""
    return tuple(key(order, j, 1) for j in range(order))


def _number(order, power, q):
    """q * zeta_order^power as the number `decompose` builds for it."""
    return _normalised(order, *_root_pair(order, power, q))


def _closed_form(form, variables, key, factors=_formula):
    """Yield (block, places, gamma, linear) per term of the paper's closed
    form of `form` over `variables`, in `decompose_form`'s order: per block
    of c * x^a, over k in range(a_1 + 1) x ... x range(a_n + 1)
    lexicographically, linear = x_least + sum_i zeta_N^(k_i s_i) x_i (the
    nodes of `_grid`) and gamma = c / mult(d; a) * prod_i w_i, once per
    block, times zeta_N^(sum_i e_i[k_i]), (e_i, w_i) = factors(a_i, N).
    Each number is its key(N, power, q), a gamma made the first time its
    power is met; `linear` is one list, changed in place from term to term,
    and `places` the positions of the block's variables."""
    index = {v: i for i, v in enumerate(variables)}
    for block, (c, m) in enumerate(form.terms):
        order, least, one, axes = _grid(m, key)
        places = [index[v] for v in m.variables]
        shapes = [factors(a, order) for _, a, _ in axes]
        # c / mult(d; a) * prod_i w_i, built from integers as one Fraction
        scale = Fraction(c.numerator * prod(w.numerator for _, w in shapes),
                         c.denominator * prod(w.denominator for _, w in shapes)
                         * multinomial(form.degree, m.sorted_exponents))
        rows = [[(places[i], x, e) for x, e in zip(nodes, exps)]
                for (i, _, nodes), (exps, _) in zip(axes, shapes)]
        gammas = {}
        linear = [key(order, 0, 0)] * len(variables)
        linear[places[least]] = one
        for point in itertools.product(*rows):
            for i, x, _ in point:
                linear[i] = x
            k = sum(map(itemgetter(2), point)) % order
            if k not in gammas:
                gammas[k] = key(order, k, scale)
            yield block, places, gammas[k], linear


def _comparable(form, degree, num_vars, count, rank) -> bool:
    """Whether a decomposition of this degree, with `count` terms over
    `num_vars` variables, is compared with the closed form: of the form's
    degree, at least 2, with `rank` terms, and within the price
    `decompose_form` admits (`_grid_price`), checked before anything is
    built."""
    if degree < 2 or degree != form.degree or count != rank:
        return False
    field, steps = _grid_price(form, num_vars)
    return field <= MAX_FIELD_ORDER and steps <= MAX_VERIFY_STEPS


def _is_closed_form(form, decomposition, rank):
    """The terms that differ from the paper's closed form of `form`
    (`_closed_form`), as (position, closed-form term) pairs, or None.  Each
    number's order and stored pair (D, ints), which is in lowest terms, are
    compared with the pairs `_root_pair` reads off the power table, so no
    number is built but a differing term's counterpart.  The module
    docstring proves that the closed form expands to the form, so () means
    a PASS.  None when the comparison is declined (`_comparable`); when a
    term names another block; when half of the terms or more differ; or
    when every term of a block differs.  It serves decompositions handed
    over as numbers, `decompose`'s output and the library's callers: for a
    file, `verify` reads the same from its JSON (`_is_closed_form_json`)."""
    if not _comparable(form, decomposition.degree, len(decomposition.variables),
                       len(decomposition.terms), rank):
        return None
    changed = []
    for (j, t), (block, places, gamma, linear) in zip(
            enumerate(decomposition.terms), _closed_form(form, decomposition.variables, _pair)):
        if t.block != block:
            return None
        if (t.gamma.order, t.gamma._ints) != gamma \
                or [(x.order, x._ints) for x in t.linear] != linear:
            if 2 * (len(changed) + 1) >= rank:
                return None
            changed.append((j, gamma, list(linear), block, places))
    return _differences(form, changed)


def _is_closed_form_json(form, obj, rank):
    """`_is_closed_form` of the parsed JSON `obj`, read in `decompose
    --json`'s canonical text: the terms that differ from the closed form of
    `form`, as (position, closed-form term) pairs, or None.  A term is
    unchanged when it is, in `_is_closed_form`'s order and with no other
    key, the JSON object `decompose` writes for it (`_text`), its "point"
    its linear entries on its block's variables, and its "block" and every
    "order" are ints, not `true` or `1.0`, which equal 1 in Python, or the
    comparison is declined.  Such a term loads to its closed-form term,
    which holds its block's least variable, so () passes `verify`, and a
    file that differs is loaded at its differing terms alone; an equal
    number written otherwise makes its term differ, and it is checked
    against its equal counterpart.  None, when declined as `_is_closed_form`
    declines or when the namespace misses a variable of the form, leaves
    the whole file to the loader and the number path."""
    if type(obj) is not dict:
        return None
    degree, variables, terms = obj.get("degree"), obj.get("variables"), obj.get("terms")
    if type(degree) is not int or type(variables) is not list or type(terms) is not list \
            or not all(type(v) is str for v in variables) \
            or len(set(variables)) != len(variables) or not set(form.variables) <= set(variables) \
            or not _comparable(form, degree, len(variables), len(terms), rank):
        return None
    changed = []
    for j, t, (block, places, gamma, linear) in zip(itertools.count(), terms,
                                                     _closed_form(form, variables, _text)):
        if t != {"block": block, "gamma": gamma, "linear": linear,
                 "point": [linear[i] for i in places]}:
            if type(t) is not dict or t.get("block") != block or 2 * (len(changed) + 1) >= rank:
                return None
            changed.append((j, gamma.pair, [x.pair for x in linear], block, places))
    positions = {j for j, *_ in changed}
    same = [t for j, t in enumerate(terms) if j not in positions] if changed else terms
    # equal, but `true` and `1.0` equal 1 in Python: each block and each
    # unchanged term's orders must be ints (the loader checks a changed term's)
    if {type(t["block"]) for t in terms} == {int} == {
            type(x["order"]) for t in same for x in (t["gamma"], *t["linear"], *t["point"])}:
        return _differences(form, changed)
    return None


def _differences(form, changed):
    """The (position, closed-form term) pairs of the differing terms
    `changed`, each (position, gamma key, linear keys, block, places) of
    `_closed_form` with `_pair`'s keys, or None when every term of a block
    differs."""
    blocks = [block for *_, block, _ in changed]
    if any(blocks.count(b) == rank_monomial(m) for b, (_, m) in enumerate(form.terms)
           if b in blocks):
        return None
    return tuple((j, _counterpart(*term)) for j, *term in changed)


def _counterpart(gamma, linear, block, point) -> DecompositionTerm:
    """The closed-form term of block `block` whose gamma and linear
    coordinates are the numbers with these (order, stored pair)s, its point
    read off the positions `point`."""
    coords = tuple(_normalised(order, *pair) for order, pair in linear)
    return DecompositionTerm(_normalised(gamma[0], *gamma[1]), coords, block,
                             tuple(coords[i] for i in point))


def _bounded_text(x) -> str:
    """str(x), or the size of x when its integers are too long for str()."""
    try:
        return str(x)
    except ValueError:      # past sys.get_int_max_str_digits()
        den, ints = x._integer_coords()
        digits = int(max(den, *map(abs, ints)).bit_length() * log10(2)) + 1
        return f"<a number of Q(zeta_{x.order}) with integers of about {digits} digits>"


def _steps(d, groups, general, blocks, num_vars, width=0, gamma=0) -> int:
    """The verification price: the compositions of d per cyclic group (s, m,
    p: support size, members, product of the periods) and general term (s,
    P: support size, integer products per composition), each ceil(b^2 /
    8000^2) * ceil(num_vars / 16) steps, as a composition multiplies
    integers of b = max(d * max(width, 16), gamma) bits, the products cost
    up to its square (one step up to d = 500 with coordinates of at most 16
    bits), and its monomial is a key over all the variables; `width` and
    `gamma` are the bit lengths of the largest lifted coordinate and gamma;
    a general one 1 + P // 50 times that (`_products`, 0.24 us a product).
    Then m * min(compositions, p) class sums per group, 40 to a step (about
    0.28 us each); min(n k, n (n - 1) / 2) pairs per block of n forms, k of
    them zero or general."""
    paths = [comb(d + s - 1, d) for s, _, _ in groups]
    sums = sum(m * min(c, p) for c, (_, m, p) in zip(paths, groups))
    bits = max(d * max(width, 16), gamma)
    size = -(-bits * bits // 8000 ** 2) * -(-num_vars // 16)
    return size * (sum(paths) + sum(comb(d + s - 1, d) * (1 + p // 50) for s, p in general)) \
        + -(-sums // 40) + sum(min(n * k, n * (n - 1) // 2) for n, k in blocks)


def _products(order, gamma, bases) -> int:
    """The integer products a composition of a general term multiplies at
    most in `_residuals`: its gamma's lift times one power row per
    coordinate, a row of one power for a single-power coordinate and of at
    most N = order powers for another, the product having at most N."""
    size, products = len(gamma), 0
    for base in bases.values():
        row = 1 if len(base) == 1 else order
        products += size * row
        size = min(order, size * row)
    return products


def _admit(what, field, steps) -> None:
    """Refuse a price over MAX_FIELD_ORDER, then one over MAX_VERIFY_STEPS."""
    if field > MAX_FIELD_ORDER:
        raise ResourceLimitError(f"{what} needs the field Q(zeta_{field}), above "
                                 f"the field order cap {MAX_FIELD_ORDER}")
    if steps > MAX_VERIFY_STEPS:
        size = f"{steps:.1e}" if steps < 1e300 else f"about 2^{steps.bit_length()}"
        raise ResourceLimitError(f"{what} takes {size} steps (compositions, class sums "
                                 f"and pairs), above the step cap {MAX_VERIFY_STEPS:.0e}")


_Plan = namedtuple("_Plan", "degree scale field steps lifted powers groups general blocks")


def _lift(decomposition, target_coeffs) -> _Plan:
    """The verification plan.  Per term, `lifted` holds (N, lift of D / E^d *
    gamma, {i: lift of E * c_i} over the nonzero c_i) in Z[t]/(t^N - 1),
    N the lcm of the orders, E the lcm of the c_i's denominators and D
    (`scale`) that of the target's and of den(gamma) * E^d over the terms;
    `powers` holds its single powers (ks, qs) if it is cyclic, else None.
    `groups` holds (N, support, qs, members (g, G, ks) per power G t^g of a
    gamma lift, periods) per group of cyclic terms with a nonzero gamma;
    `general` the other terms with a gamma and a form; `blocks` the term
    indices per block.  Each distinct (number, N, scale) is lifted once."""
    d = decomposition.degree
    # the largest fields a residual, a mismatch or a dependence test meets:
    # each term's, and the lcm over the terms that share a variable
    worst = [1] * len(decomposition.variables)
    shapes = []             # per term: (gamma, N, E, its nonzero (i, c))
    for t in decomposition.terms:
        order, den, used = t.gamma.order, 1, []
        for i, c in enumerate(t.linear):
            c_den, ints = c._ints
            if any(ints):
                used.append((i, c))
                order, den = lcm(order, c.order), lcm(den, c_den)
        for i, _ in used:
            worst[i] = lcm(worst[i], order)
        shapes.append((t.gamma, order, den, used))
    scale = lcm(*(c.denominator for c in target_coeffs),
                *(gamma.denominator * e ** d for gamma, _, e, _ in shapes))
    table = {}

    def lift(x, order, factor):
        key = (x.order, x._ints, order, factor)
        value = table.get(key)
        if value is None:
            value = table[key] = cyclic_lift(x, order, factor)
        return value

    lifted, powers, groups, general, blocks = [], [], {}, [], {}
    for t, (gamma, order, e, used) in zip(decomposition.terms, shapes):
        g = lift(gamma, order, scale // e ** d)
        bases = {i: lift(c, order, e) for i, c in used}
        cyclic = bases and max(map(len, bases.values())) == 1
        kq = tuple(zip(*[p for b in bases.values() for p in b.items()])) if cyclic else None
        if g and kq:
            groups.setdefault((order, tuple(bases), kq[1]), []).extend(
                (k, v, kq[0]) for k, v in g.items())
        elif g and bases:
            general.append((order, g, bases))
        blocks.setdefault(t.block, []).append(len(lifted))
        lifted.append((order, g, bases))
        powers.append(kq)
    groups = [(order, support, qs, members,
               [order // gcd(order, *col) for col in zip(*(ks for *_, ks in members))])
              for (order, support, qs), members in groups.items()]
    # the coordinates a composition raises to powers, and every gamma
    width = _bits([*(q for _, _, qs, _, _ in groups for q in qs),
                   *(v for *_, bases in general for b in bases.values() for v in b.values())])
    steps = _steps(d, [(len(support), len(members), prod(periods))
                       for _, support, _, members, periods in groups],
                   [(len(bases), _products(*term)) for term in general],
                   [(len(js), sum(powers[j] is None for j in js)) for js in blocks.values()],
                   len(decomposition.variables), width,
                   _bits(v for _, g, _ in lifted for v in g.values()))
    return _Plan(d, scale, max([1, *worst, *(order for _, order, _, _ in shapes)]), steps,
                 lifted, powers, groups, general, blocks)


def _bits(ints) -> int:
    return max((abs(v).bit_length() for v in ints), default=0)


def _power(base, a, order):
    """base^a in Z[t]/(t^order - 1), by repeated squaring; the a-th power of
    a single-exponent q * t^k is the index shift q^a * t^(k a)."""
    if len(base) == 1:
        (k, q), = base.items()
        return {k * a % order: q ** a}
    acc = {0: 1}
    while a:
        if a & 1:
            acc = cyclic_mul(acc, base, order)
        a >>= 1
        if a:
            base = cyclic_mul(base, base, order)
    return acc


def _powers(base, d, order):
    """[base^a for a = 0 .. d] in Z[t]/(t^order - 1)."""
    if len(base) == 1:
        return [_power(base, a, order) for a in range(d + 1)]
    row = [{0: 1}]
    for _ in range(d):
        row.append(cyclic_mul(row[-1], base, order))
    return row


def _residual(target, plan, n):
    """{exps: residual} over every monomial of `_residuals`."""
    return dict(_residuals(target, plan, n))


def _residuals(target, plan, n):
    """Yield (exps, D * (expansion - target) at x^exps), in sorted order,
    for each monomial that a term of the plan or the target reaches, one
    monomial at a time, so a caller that stops early computes no more.  The
    value is {N: sparse {exponent: int} map} over the orders N of the
    contributing terms (the target counts as order 1): each cyclic group
    of the plan adds its class sum, reduced once per class as the module
    docstring explains, and each general term a product.  The terms of one
    support are summed in one sorted stream of monomials, and the streams
    are merged."""
    d, streams = plan.degree, {}
    for order, gamma, bases in plan.general:
        # one coordinate takes only its d-th power
        streams.setdefault(tuple(bases), ([], []))[0].append((order, gamma, [
            {d: _power(b, d, order)} if len(bases) == 1 else _powers(b, d, order)
            for b in bases.values()]))
    for order, support, qs, members, periods in plan.groups:
        base, values, ks = zip(*members)
        streams.setdefault(support, ([], []))[1].append(
            (order, qs, base, values, list(zip(*ks)), periods, {}))

    def add(value, order, lift, m):
        bucket = value.setdefault(order, {})
        for k, v in lift.items():
            bucket[k] = bucket.get(k, 0) + m * v

    def stream(support, general, groups):
        for alpha in compositions(d, len(support)):
            value = {}
            for order, gamma, powers in general:
                acc = gamma
                for row, a in zip(powers, alpha):
                    if a:
                        acc = cyclic_mul(acc, row[a], order)
                add(value, order, acc, multinomial(d, alpha))
            for order, qs, base, values, columns, periods, classes in groups:
                r = tuple(map(mod, alpha, periods))
                if r not in classes:
                    powers = base      # g + <ks, r> per member, one column at a time
                    for col, a in zip(columns, r):
                        if a:
                            powers = [e + a * x for e, x in zip(powers, col)]
                    total = {}
                    for k, c in zip(powers, values):
                        k %= order
                        total[k] = total.get(k, 0) + c
                    classes[r] = {k: v for k, v in enumerate(
                        reduce_mod_phi(total.items(), order)) if v}
                if classes[r]:
                    add(value, order, classes[r],
                        multinomial(d, alpha) * prod(q ** a for q, a in zip(qs, alpha)))
            if value:
                exps = [0] * n
                for i, a in zip(support, alpha):
                    exps[i] = a
                yield tuple(exps), value

    targets = ((exps, {1: {0: -int(plan.scale * c)}}) for exps, c in sorted(target.items()))
    merged = heapq.merge(*(stream(support, *terms) for support, terms in streams.items()),
                         targets, key=itemgetter(0))
    for exps, parts in itertools.groupby(merged, itemgetter(0)):
        _, value = next(parts)
        for _, part in parts:
            for order, lift in part.items():
                add(value, order, lift, 1)
        yield exps, value


def _stretch(lift, step):
    """The embedding Z[t]/(t^n - 1) -> Z[t]/(t^(n*step) - 1), t -> t^step."""
    return {k * step: v for k, v in lift.items()} if step > 1 else lift


def _gathered(groups, order) -> dict:
    """The sum of a residual's lifts {N: lift}, each N dividing `order`,
    stretched into Z[t]/(t^order - 1)."""
    total = {}
    for n, lift in groups.items():
        for k, v in _stretch(lift, order // n).items():
            total[k] = total.get(k, 0) + v
    return total


def _reduced(groups):
    """(L, a residual {N: lift} reduced modulo Phi_L once), L the lcm of the
    orders N: exact because t -> zeta_L is a ring map."""
    order = lcm(*groups)
    return order, reduce_mod_phi(_gathered(groups, order).items(), order)


def _vanishes(groups) -> bool:
    """Whether a residual {N: lift} is zero (`_reduced`)."""
    return not any(_reduced(groups)[1])


def _printed(plan, residual, target, exps, fields=None, reduced=None):
    """The coefficient of x^exps in the expansion, in Q(zeta_M), M the lcm
    of the lift orders of the terms that reach x^exps (a nonzero gamma, and
    a nonzero coordinate on each variable of x^exps): the residual's lifts
    stretched to M and reduced modulo Phi_M once (`reduced`, if M is its
    field), plus D * target at coordinate 0, over D.  `fields` maps a
    variable to (block, N) for terms the plan does not hold, the unchanged
    closed-form terms of `_near_closed_check`, which reach x^exps when its
    variables are all one block's."""
    need = {i for i, a in enumerate(exps) if a}
    order = lcm(1, *(n for n, gamma, bases in plan.lifted if gamma and bases.keys() >= need))
    owners = {fields.get(i) for i in need} if fields else {None}
    if len(owners) == 1 and None not in owners:
        order = lcm(order, owners.pop()[1])
    if reduced and reduced[0] == order:
        coords = reduced[1]
    else:
        coords = reduce_mod_phi(_gathered(residual[exps], order).items(), order)
    coords[0] += int(plan.scale * target.get(exps, 0))
    return _normalised(order, plan.scale, coords)


def _first_dependent_pair(plan, terms):
    """The first pair (i, j), i < j, in loop order, of linearly dependent
    forms among the plan's `terms` (term indices), or None.  Two cyclic
    forms are dependent iff their `_ratio_key`s are equal, so only pairs
    with another form (a zero or general one) are tested one by one:
    O(n k) tests for k such forms of n."""
    forms = [(order, bases) for order, _, bases in map(plan.lifted.__getitem__, terms)]
    turn = 2 * lcm(*(order for order, _ in forms))
    keys = [_ratio_key(*form, plan.powers[j], turn) for j, form in zip(terms, forms)]
    others = [j for j, key in enumerate(keys) if key is None]
    same, last = {}, {}      # the next form with the same key, by index
    for j in reversed(range(len(forms))):
        if keys[j] is not None:
            same[j], last[keys[j]] = last.get(keys[j]), j
    for i, key in enumerate(keys):
        if key is None:
            j, tested = None, range(i + 1, len(forms))
        else:
            j = same[i]
            tested = (k for k in others if i < k and (j is None or k < j))
        j = next((k for k in tested if _dependent(forms[i], forms[k])), j)
        if j is not None:
            return i, j
    return None


def _ratio_key(order, support, powers, turn):
    """A cyclic form of single powers q_i t^(k_i) over `support`, `powers`
    = (ks, qs), as the complex numbers q_i exp(2 pi i k_i / N) up to a
    complex scalar: per coordinate, |q_i| over the gcd of all |q_i|, and the
    angle k_i / N (plus a half turn if q_i < 0) less the first one's, mod 1,
    as an integer in units of 1/turn; turn is twice a common multiple of the
    orders N compared.  None for another form, whose powers are None."""
    if powers is None:
        return None
    step, (ks, qs) = turn // (2 * order), powers
    angles = [(2 * k + order * (q < 0)) * step for k, q in zip(ks, qs)]
    size = gcd(*qs)
    return tuple((i, abs(q) // size, (a - angles[0]) % turn)
                 for i, a, q in zip(support, angles, qs))


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


def check_blocks(form: CoprimeForm, decomposition: PowerSumDecomposition) -> None:
    """Raise a ValueError naming the first term whose block is not one of
    the form's.  A degree-1 form is one linear form for every block, so its
    terms are not checked."""
    if form.degree > 1:
        blocks = range(len(form.terms))
        for i, t in enumerate(decomposition.terms):
            if t.block not in blocks:
                raise ValueError(f"term {i} names block {t.block}, but the "
                                 f"form has {len(blocks)} blocks")


def least_variable_check(form: CoprimeForm,
                         decomposition: PowerSumDecomposition) -> LeastVariableReport:
    """Every linear form in block i must involve the least-exponent variable
    of the i-th monomial (for degree 1, the single form must involve every
    block's variable).  A variable outside the decomposition's namespace is
    not involved."""
    if len(decomposition.terms) != rank_coprime_sum(form):
        raise ValueError("decomposition length does not equal the rank")
    check_blocks(form, decomposition)
    index = {v: i for i, v in enumerate(decomposition.variables)}
    least = [m.least_variable for _, m in form.terms]
    columns = [index.get(v) for v in least]

    def involved(linear, block):
        column = columns[block]
        return column is not None and bool(linear[column])

    if form.degree == 1:
        linear = decomposition.terms[0].linear
        entries = [(0, block, v, involved(linear, block)) for block, v in enumerate(least)]
    else:
        entries = [(i, t.block, least[t.block], involved(t.linear, t.block))
                   for i, t in enumerate(decomposition.terms)]
    return LeastVariableReport(tuple(entries), all(e[3] for e in entries))
