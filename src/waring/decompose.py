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
of V_i y_i = e_(a_i): one (a_i+1)-square solve in Q(zeta_(a_i+1)) per
distinct exponent, against the character table V_(a_i+1), built once per
root order and shared as a tuple of tuples.  Each y_i[k] is lifted once
into Z[t]/(t^N - 1), N = lcm of the root orders, with its denominator
split off (a root-of-unity multiple lifts to one power, see below), the
Kronecker product is taken of the lifts in grid order (an index shift per
factor), and each gamma is reduced modulo Phi_N once.  The grid points
share one list of roots per variable.  `waring decompose` still verifies
the result in full.  A sum of coprime monomials is decomposed blockwise
and the blocks concatenated.

Verification expands sum gamma_j L_j^d with integer coefficients in
Z[t]/(t^N - 1) over one common denominator, and reduces each monomial's
residual modulo Phi_N once, N the lcm of the orders of the terms that reach
that monomial (so blocks in different fields never meet in one large
field).  That single reduction is exact: t -> zeta_N is a ring map onto
Q(zeta_N), so a residual vanishes in the field iff its reduction is zero.

A cyclic term, whose nonzero coordinates lift to single powers q_i t^(e_i)
(every grid term does), adds multinomial(d; b) * prod q_i^(b_i) *
G t^(g + <e, b>) at x^b for each power G t^g of its gamma's lift.  For the
cyclic terms of one order N, support and moduli q, coordinate i has period
p_i = N / gcd(N, its exponents e_i), so their sum at x^b only needs
P_r = sum_j G_j t^(g_j + <e_j, r>), r = b mod p: an exact identity about
the input.  Each P_r is reduced modulo Phi_N once, and each monomial costs
one scaling, or none when P_r is 0 (a grid block has rank(M) classes).
Terms with any other coordinate add one product per monomial.

A mismatch prints the coefficient in the field of the terms that reach it:
each run of terms in the running field F is summed in Z[t]/(t^F - 1) and
reduced modulo Phi_F once, when a term of another field arrives or at the
end.  Two cyclic linear forms are dependent iff their polar-form keys are
equal, so only the pairs with a zero or general form are tested one by
one, by their minors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, log10, prod

from .cyclotomic import CyclotomicNumber, cyclic_lift, cyclic_mul, \
    cyclotomic_embed, euler_phi, reduce_mod_phi
from .forms import CoprimeForm, Monomial, decomposition_field_order
from .linalg import LinearSystem, solve_exact, \
    InconsistentSystemError, UnderdeterminedSystemError
from .polynomials import compositions, monomial_text, multinomial
from .rank import ResourceLimitError, rank_coprime_sum, rank_monomial

# Admission cap for `decompose_form`, in units of rank(M)^3 * phi(N)^2 summed
# over the blocks M (N the block's field order): the cost of one square solve
# of the full character system in Q(zeta_N).  `solve_gammas` no longer pays
# it (it solves one (a_i+1)-square system per variable), so the cap is a
# conservative estimate: on a 2-vCPU VM x1*x2^4*x3^8 (5.2e7) decomposes in
# 0.03 s and the refused x1^12*x2^12*x3^12 (7.0e8) would take 0.08 s.
MAX_SOLVE_COST = 10 ** 8

# Admission cap for verification: the largest N for which it builds Phi_N
# and the power table of Q(zeta_N), whose cost grows about as N^2 (0.07 s
# at N = 1000, 1.4 s at 5000).  A decompose output under MAX_SOLVE_COST
# has N <= rank < 465 in every block, since rank^3 <= 10^8.
MAX_FIELD_ORDER = 10 ** 3

# Admission cap for verification, in steps counted before any expansion:
# compositions of d per group of cyclic terms and per other term, plus
# min(n k, n (n - 1) / 2) per block of n forms, k of them zero or general,
# an upper bound on the pairs tested one by one (those with such a form).
# A step costs up to 12 us (2 vCPUs); x1*...*x9 takes 24,310.
MAX_VERIFY_STEPS = 10 ** 6


class DecompositionSolveError(RuntimeError):
    """The gamma system failed to have a unique solution.  The construction
    guarantees solvability, so this signals an implementation bug."""


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


def decomposition_points(monomial: Monomial):
    """All apolar grid points for a monomial, in lexicographic order of the
    root exponents k_i < a_i + 1 over the sorted non-least variables;
    coordinates are aligned to the monomial's input variable order, with 1
    on the least-exponent variable.  The points share one 1 and one list of
    the a_i + 1 roots per non-least variable."""
    order = decomposition_field_order(monomial)
    items = monomial.sorted_items
    positions = [monomial.variables.index(v) for v, _ in items]
    where = sorted(range(monomial.n), key=positions.__getitem__)
    roots = [[CyclotomicNumber.from_rational(1, order)],
             *([cyclotomic_embed(a + 1, k, order) for k in range(a + 1)]
               for _, a in items[1:])]
    return [tuple(coords[i] for i in where) for coords in itertools.product(*roots)]


def solve_gammas(monomial: Monomial, coefficient=Fraction(1)) -> PowerSumDecomposition:
    """Decompose coefficient * M as a sum of rank(M) powers of the grid linear
    forms: gamma_k = coefficient / multinomial(d; a) * prod_i y_i[k_i], where
    V_i y_i = e_(a_i) is solved exactly in Q(zeta_(a_i+1)), once per distinct
    a_i, against the cached character table V_i.  Each y_i[k] is lifted once
    into Z[t]/(t^N - 1) over its denominator; a gamma is the product of its
    factors' lifts, over the product of their denominators, reduced modulo
    Phi_N and normalised once.  The module docstring explains why these
    gammas solve the square character system and every other monomial row.
    """
    coefficient = Fraction(coefficient)
    if coefficient == 0:
        raise ValueError("coefficient must be nonzero")
    d = monomial.degree
    order = decomposition_field_order(monomial)
    exps = [a for _, a in monomial.sorted_items]
    factors = {}
    for a in exps[1:]:
        if a not in factors:
            table = _character_table(a + 1)
            # e_a: zeros, then table[0][0] = zeta^0 = 1
            rhs = [CyclotomicNumber.from_rational(0, a + 1)] * a + [table[0][0]]
            try:
                ys = solve_exact(LinearSystem(table, rhs))
            except (InconsistentSystemError, UnderdeterminedSystemError) as exc:
                raise DecompositionSolveError(
                    f"gamma system for {monomial} has no unique solution: {exc}") from exc
            factors[a] = [(cyclic_lift(y, order, y.denominator), y.denominator) for y in ys]
    # the Kronecker product of the lifts, one variable at a time in grid
    # order, each with the product of its denominators
    scale = coefficient / multinomial(d, exps)
    lifts = [({0: scale.numerator}, scale.denominator)]
    for a in exps[1:]:
        lifts = [(cyclic_mul(g, y, order), den * e) for g, den in lifts for y, e in factors[a]]
    terms = tuple(
        DecompositionTerm(
            gamma=CyclotomicNumber._normalised(order, den, reduce_mod_phi(g.items(), order)),
            linear=coords, block=0, point=coords)
        for (g, den), coords in zip(lifts, decomposition_points(monomial)))
    return PowerSumDecomposition(d, monomial.variables, terms)


def decompose_form(form: CoprimeForm) -> PowerSumDecomposition:
    """Minimal power-sum decomposition of a validated coprime sum, obtained by
    decomposing each monomial block and concatenating.  Raises
    ResourceLimitError, before any solve, when the estimated solve cost
    exceeds MAX_SOLVE_COST."""
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
    cost = sum(rank_monomial(m) ** 3 * euler_phi(decomposition_field_order(m)) ** 2
               for m in form.monomials)
    if cost > MAX_SOLVE_COST:
        raise ResourceLimitError(
            f"decomposing {form} needs gamma solves of estimated cost {cost:.1e} "
            f"(rank^3 * phi(N)^2 over the blocks), above the cap {MAX_SOLVE_COST:.0e}")
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
    blocks = {}
    for t, (order, _, bases) in zip(decomposition.terms, lifted):
        blocks.setdefault(t.block, []).append((order, bases))
    pairs = sum(min(len(forms) * sum(not _cyclic(bases) for _, bases in forms),
                    len(forms) * (len(forms) - 1) // 2) for forms in blocks.values())
    residual = _residual(target, lifted, d, len(variables), scale, pairs)
    bad = (exps for exps in sorted(residual) if not _vanishes(residual[exps]))
    mismatches = tuple((monomial_text(variables, exps), str(target.get(exps, Fraction(0))),
                        _bounded_text(_coefficient(decomposition, lifted, scale, exps)))
                       for exps in itertools.islice(bad, 10))

    dependent_pair = next(((block, *pair) for block, forms in blocks.items()
                           if (pair := _first_dependent_pair(forms))), None)

    return VerificationReport(
        expansion_matches=not mismatches,
        mismatches=mismatches,
        blocks_independent=dependent_pair is None,
        dependent_pair=dependent_pair,
        term_count=len(decomposition.terms),
        expected_rank=rank_coprime_sum(form))


def _bounded_text(x) -> str:
    """str(x), or the size of x when its integers are too long for str()."""
    try:
        return str(x)
    except ValueError:      # past sys.get_int_max_str_digits()
        den, ints = x._integer_coords()
        digits = int(max(den, *map(abs, ints)).bit_length() * log10(2)) + 1
        return f"<a number of Q(zeta_{x.order}) with integers of about {digits} digits>"


def _lift(decomposition, target_coeffs):
    """Lift every term gamma * L^d into Z[t]/(t^N - 1) with integer entries,
    N the lcm of the orders of the term's nonzero numbers.

    Returns the common denominator D, the lcm of the target's denominators
    and of den(gamma) * E^d per term, where E is the lcm of the term's
    linear-coefficient denominators; and per term (N, the lift of
    D / E^d * gamma, {i: lift of E * c_i} over its nonzero linear
    coefficients c_i), so each product gamma * prod (E * c_i)^(a_i) with
    sum a_i = d is D times its value.  Each distinct (number, N, scale) is
    lifted once; terms share the lifts, which nothing mutates.
    """
    d = decomposition.degree
    terms = decomposition.terms
    orders = [lcm(t.gamma.order, *(c.order for c in t.linear if c)) for t in terms]
    # the largest fields a residual, a mismatch or a dependence test meets:
    # each term's, and the lcm over the terms that share a variable
    worst = max([1, *orders, *(lcm(*(n for t, n in zip(terms, orders) if t.linear[i]))
                               for i in range(len(decomposition.variables)))])
    if worst > MAX_FIELD_ORDER:
        raise ResourceLimitError(f"verifying needs the field Q(zeta_{worst}), above "
                                 f"the field order cap {MAX_FIELD_ORDER}")
    dens = [lcm(*(c.denominator for c in t.linear)) for t in terms]
    scale = lcm(*(c.denominator for c in target_coeffs),
                *(t.gamma.denominator * e ** d for t, e in zip(terms, dens)))
    table = {}

    def lift(x, order, factor):
        key = (x.order, x._integer_coords(), order, factor)
        if key not in table:
            table[key] = cyclic_lift(x, order, factor)
        return table[key]

    return scale, [
        (order, lift(t.gamma, order, scale // e ** d),
         {i: lift(c, order, e) for i, c in enumerate(t.linear) if c})
        for t, e, order in zip(terms, dens, orders)]


def _power(base, a, order):
    """base^a in Z[t]/(t^order - 1); the a-th power of a single-exponent
    q * t^k is the index shift q^a * t^(k a)."""
    if len(base) == 1:
        (k, q), = base.items()
        return {k * a % order: q ** a}
    acc = {0: 1}
    for _ in range(a):
        acc = cyclic_mul(acc, base, order)
    return acc


def _powers(base, d, order):
    """[base^a for a = 0 .. d] in Z[t]/(t^order - 1)."""
    if len(base) == 1:
        return [_power(base, a, order) for a in range(d + 1)]
    row = [{0: 1}]
    for _ in range(d):
        row.append(cyclic_mul(row[-1], base, order))
    return row


def _cyclic(bases) -> bool:
    """Whether a lifted linear form {index: lift} is nonzero and each of its
    coordinates lifts to a single power q t^k."""
    return bool(bases) and all(len(b) == 1 for b in bases.values())


def _residual(target, lifted, d, n, scale, pairs=0):
    """D * (expansion - target) per monomial, as {N: sparse {exponent: int}
    map} over the orders N of the contributing terms (the target counts as
    order 1).  Cyclic terms add one reduced class sum per monomial, as the
    module docstring explains; the others add one product each.  Raises
    ResourceLimitError, before expanding, when the compositions to expand
    and the `pairs` the caller will test exceed MAX_VERIFY_STEPS."""
    residual = {}

    def add(support, alpha, order, lift, m):
        exps = [0] * n
        for i, a in zip(support, alpha):
            exps[i] = a
        bucket = residual.setdefault(tuple(exps), {}).setdefault(order, {})
        for k, v in lift.items():
            bucket[k] = bucket.get(k, 0) + m * v

    groups, general = {}, []
    for order, gamma, bases in lifted:
        if gamma and _cyclic(bases):
            ks, qs = zip(*(next(iter(b.items())) for b in bases.values()))
            groups.setdefault((order, tuple(bases), qs), []).extend(
                (g, c, ks) for g, c in gamma.items())
        elif gamma and bases:
            general.append((order, gamma, bases))
    steps = pairs + sum(comb(d + len(support) - 1, d) for _, support, _ in groups) \
        + sum(comb(d + len(bases) - 1, d) for *_, bases in general)
    if steps > MAX_VERIFY_STEPS:
        raise ResourceLimitError(f"verifying takes {steps:.1e} steps (compositions and "
                                 f"pairs), above the step cap {MAX_VERIFY_STEPS:.0e}")
    for order, gamma, bases in general:
        support = tuple(bases)
        powers = [_powers(bases[i], d, order) for i in support]
        for alpha in compositions(d, len(support)):
            acc = gamma
            for row, a in zip(powers, alpha):
                if a:
                    acc = cyclic_mul(acc, row[a], order)
            add(support, alpha, order, acc, multinomial(d, alpha))

    for (order, support, qs), members in groups.items():
        base, values, ks = zip(*members)
        columns = list(zip(*ks))
        periods = [order // gcd(order, *col) for col in columns]
        classes = {}
        for alpha in compositions(d, len(support)):
            r = tuple(a % p for a, p in zip(alpha, periods))
            if r not in classes:
                exps = base      # g + <ks, r> per member, one column at a time
                for col, a in zip(columns, r):
                    if a:
                        exps = [e + a * x for e, x in zip(exps, col)]
                total = {}
                for k, c in zip(exps, values):
                    k %= order
                    total[k] = total.get(k, 0) + c
                classes[r] = {k: v for k, v in enumerate(
                    reduce_mod_phi(total.items(), order)) if v}
            if classes[r]:
                add(support, alpha, order, classes[r],
                    multinomial(d, alpha) * prod(q ** a for q, a in zip(qs, alpha)))

    for exps, c in target.items():
        add(range(n), exps, 1, {0: -1}, int(scale * c))
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
    divisible by N/M, so it is a lift into Z[t]/(t^M - 1).  The running sum
    lies in the lcm of the fields added since it was last zero, and the
    printed value keeps that field.  So a run of terms in the running field
    F adds up in Z[t]/(t^F - 1), and the sum is reduced modulo Phi_F once:
    when a term of another field arrives (to tell whether it is zero) and at
    the end.
    """
    d = decomposition.degree
    if sum(exps) != d:
        return Fraction(0)
    used = [i for i, a in enumerate(exps) if a]
    field, run = 1, {}    # scale / multinomial(d; exps) times the running sum, lifted
    for t, (order, gamma, bases) in zip(decomposition.terms, lifted):
        if not gamma or any(i not in bases for i in used):
            continue
        term_field = lcm(t.gamma.order, *(t.linear[i].order for i in used))
        if term_field != field:
            coords = reduce_mod_phi(run.items(), field)
            if any(coords):
                both = lcm(field, term_field)
                run = {k * (both // field): v for k, v in enumerate(coords) if v}
                field = both
            else:
                field, run = term_field, {}
        acc = gamma
        for i in used:
            acc = cyclic_mul(acc, _power(bases[i], exps[i], order), order)
        step, stretch = order // term_field, field // term_field
        for k, v in acc.items():
            k = k // step * stretch
            run[k] = run.get(k, 0) + v
    m = multinomial(d, exps)
    return CyclotomicNumber._normalised(
        field, scale, [m * v for v in reduce_mod_phi(run.items(), field)])


def _first_dependent_pair(forms):
    """The first pair (i, j), i < j, in loop order, of linearly dependent
    lifted forms (N, {index: lift} over their nonzero coefficients), or None.
    Two forms of single-exponent lifts are dependent iff their `_ratio_key`s
    are equal, so only pairs with another form (a zero or general one) are
    tested one by one: O(n k) tests for k such forms of n."""
    keys = [_ratio_key(form) for form in forms]
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


def _ratio_key(form):
    """A nonzero form of single powers q_i t^(k_i), the complex numbers
    q_i exp(2 pi i k_i / N), up to a complex scalar: per coordinate, |q_i|
    over the gcd of all |q_i|, and the angle k_i / N (plus a half turn if
    q_i < 0) less the first one's, mod 1, as a reduced pair (numerator,
    denominator).  None for any other form."""
    order, bases = form
    if not _cyclic(bases):
        return None
    coords = [(i, *next(iter(b.items()))) for i, b in bases.items()]
    size = gcd(*(q for *_, q in coords))
    angles = [2 * k + order * (q < 0) for _, k, q in coords]
    key = []
    for (i, _, q), a in zip(coords, angles):
        a = (a - angles[0]) % (2 * order)
        g = gcd(a, 2 * order)
        key.append((i, abs(q) // size, a // g, 2 * order // g))
    return tuple(key)


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
