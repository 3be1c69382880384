import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference import all_degrees_bound, contains_monomial, pairwise_lcm_intersection
from waring.apolarity import (
    MAX_HF_STEPS,
    ClaimPreconditionError,
    annihilator_membership,
    catalecticant,
    catalecticant_lower_bound,
    claim_ideals,
    hf_table,
    intersect_monomial_ideals,
    random_claim_configuration,
    total_multiplicity,
    verify_claim_identity,
)
from waring.forms import MonomialIdeal, as_homogeneous, parse_form, \
    parse_homogeneous, perp_generators, pure_power
from waring.linalg import sparse_rank
from waring.polynomials import Polynomial, apply_differential
from waring.rank import rank_monomial


def test_catalecticant_bound_three_cycle():
    assert catalecticant_lower_bound(parse_form("x1*x2*x3"), 1) == 3
    # still 3 with the full profile: strictly below the true rank 4
    assert catalecticant_lower_bound(parse_form("x1*x2*x3")) == 3


def test_catalecticant_bound_binary_tight():
    assert catalecticant_lower_bound(parse_form("x1^2*x2^2")) == 3
    assert catalecticant_lower_bound(parse_form("x1^2*x2^2")) == \
        rank_monomial(parse_form("x1^2*x2^2").monomials[0])


def test_catalecticant_bound_pure_power():
    assert catalecticant_lower_bound(parse_form("x1^5")) == 1


def test_catalecticant_accepts_non_coprime_input():
    form = parse_homogeneous("x1^2*x2 + x1*x2^2")
    assert catalecticant_lower_bound(form) >= 2


@pytest.mark.parametrize("parse, text, i, derivative", [
    (parse_form, "x1*x2^2*x3^3", 0, "x2^2*x3^3"),
    (parse_form, "x1*x2^2*x3^3", 2, "3*x1*x2^2*x3^2"),
    (parse_form, "x1^2*x2 + x3^3", 0, "2*x1*x2"),
    (parse_form, "x1^2*x2 + x3^3", 2, "3*x3^2"),
    (parse_form, "2*a^2*b^3 - 1/2*c^5", 2, "-5/2*c^4"),
    (parse_homogeneous, "x1^2*x2 + x1*x2^2", 0, "2*x1*x2 + x2^2"),
    (parse_homogeneous, "x1^2*x2 + x1*x2^2", 1, "x1^2 + 2*x1*x2"),
    (parse_homogeneous, "x1*x2 + x2*x3 + x1*x3", 1, "x1 + x3"),
    (parse_homogeneous, "x1^3 - 3*x1*x2^2", 0, "3*x1^2 - 3*x2^2"),
    (parse_homogeneous, "x1^3 - 3*x1*x2^2", 1, "-6*x1*x2"),
    (parse_homogeneous, "x1^2*x2^2 + x2^2*x3^2", 1, "2*x1^2*x2 + 2*x2*x3^2"),
])
def test_the_bound_of_a_derivative_equals_the_bound_of_its_text(parse, text, i, derivative):
    form = as_homogeneous(parse(text))
    op = Polynomial.monomial(pure_power(form.num_vars, i, 1))
    applied = apply_differential(op, form)
    assert as_homogeneous(applied) is applied
    assert catalecticant_lower_bound(applied) == \
        catalecticant_lower_bound(parse_homogeneous(derivative))


def test_the_bound_rejects_zero_and_non_homogeneous_polynomials():
    form = as_homogeneous(parse_form("x1^2*x2"))
    zero = apply_differential(Polynomial.monomial((3, 0)), form)
    assert zero.is_zero()
    mixed = Polynomial(2, {(1, 0): Fraction(1), (2, 1): Fraction(1)})
    for poly in (zero, mixed):
        with pytest.raises(ValueError):
            catalecticant_lower_bound(poly)
        with pytest.raises(ValueError):
            catalecticant(poly, 1)


def test_catalecticant_symmetry():
    for text in ("x1*x2*x3", "x1^2*x2^2", "x1^2*x2 + x3^3", "x1*x2^3"):
        form = parse_form(text)
        d = form.degree
        for t in range(0, d + 1):
            assert catalecticant(form, t).rank() == catalecticant(form, d - t).rank()


def test_catalecticant_bound_never_exceeds_rank():
    from waring.rank import _partitions_at_most
    from waring.forms import CoprimeForm, Monomial
    for n in (1, 2, 3):
        for exps in _partitions_at_most(9, n):
            if max(exps) > 5 or len(exps) != n:
                continue
            m = Monomial([f"x{i + 1}" for i in range(n)], list(exps))
            bound = catalecticant_lower_bound(CoprimeForm([(1, m)]))
            assert bound <= rank_monomial(m)


def test_catalecticant_bound_binary_profile():
    # For x^a*y^b the perp ideal is (X^(a+1), Y^(b+1)), so the catalecticant
    # rank profile peaks at min(a,b)+1; it reaches the true rank max(a,b)+1
    # only when a = b.
    from waring.forms import CoprimeForm, Monomial
    for a in range(1, 5):
        for b in range(a, 5):
            m = Monomial(["x1", "x2"], [a, b])
            bound = catalecticant_lower_bound(CoprimeForm([(1, m)]))
            assert bound == min(a, b) + 1
            assert (bound == rank_monomial(m)) == (a == b)


# -- sparse catalecticants against dense sympy ranks and closed forms ----------


def _exponents(n, d):
    return [e for e in product(range(d + 1), repeat=n) if sum(e) == d]


@st.composite
def _homogeneous_forms(draw):
    """Forms in at most 4 variables of degree at most 8: up to three powers
    of linear forms (low rank, entries that cancel under elimination) plus
    up to six arbitrary terms sharing variables; terms that cancel to zero
    are dropped, as `parse_homogeneous` drops them.  The draws come from a
    hypothesis-controlled Random, which spreads them evenly over n and d."""
    rng = draw(st.randoms(use_true_random=False))
    n, d = rng.randint(1, 4), rng.randint(1, 8)
    xs = sympy.symbols(f"x1:{n + 1}")
    expr = sympy.Integer(0)
    for _ in range(rng.randint(0, 3)):
        linear = sum(rng.randint(-2, 2) * x for x in xs)
        expr += rng.choice([-2, -1, 1, 2]) * linear ** d
    support = _exponents(n, d)
    for _ in range(rng.randint(0, 6)):
        exps = rng.choice(support)
        expr += sympy.Rational(rng.randint(-3, 3), rng.randint(1, 4)) * \
            prod(x ** e for x, e in zip(xs, exps))
    terms = {exps: Fraction(int(c.p), int(c.q))
             for exps, c in sympy.Poly(expr, *xs).terms() if c}
    if not terms:
        terms = {(d,) + (0,) * (n - 1): Fraction(1)}
    return Polynomial(len(xs), terms)


def _dense_sympy_rank(form, t):
    """Rank of every cell (alpha, beta), |alpha| = d - t, |beta| = t, of the
    catalecticant, built densely and ranked by sympy."""
    n, d = form.num_vars, form.degree
    cells = []
    for alpha in _exponents(n, d - t):
        row = []
        for beta in _exponents(n, t):
            m = tuple(a + b for a, b in zip(alpha, beta))
            c = form.terms.get(m, 0)
            row.append(sympy.Rational(c.numerator, c.denominator) *
                       prod(factorial(e) // factorial(a) for e, a in zip(m, alpha))
                       if c else 0)
        cells.append(row)
    return sympy.Matrix(cells).rank()


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_homogeneous_forms())
def test_sparse_catalecticant_rank_equals_dense_sympy_rank(form):
    for t in range(form.degree + 1):
        cat = catalecticant(form, t)
        assert cat.rank() == _dense_sympy_rank(form, t), (form, t)
        assert all(cat.entries.values()) and all(
            v for row in cat.entries.values() for v in row.values())


def _divisor_counts(exponents):
    """Number of divisors of x^exponents in each degree."""
    return Counter(sum(b) for b in product(*(range(a + 1) for a in exponents)))


def test_catalecticant_ranks_match_the_closed_forms():
    rng = random.Random(5)
    texts = ["x1^5", "x1*x2^2*x3^3", "x1^2*x2^5", "x1^3*x2^3*x3^3*x4^2",
             "x1*x2^2 + x3^3", "2*x1^2*x2^3 - x3*x4^4 + 3/2*x5^5"]
    for _ in range(30):
        d = rng.randint(2, 9)
        blocks, v = [], 1
        for _ in range(rng.randint(1, 3)):
            cuts = sorted(rng.sample(range(1, d), rng.randint(0, min(2, d - 1))))
            exps = [b - a for a, b in zip([0] + cuts, cuts + [d])]
            coeff = rng.choice(["", "3*", "-1/2*"])
            blocks.append(coeff + "*".join(f"x{v + i}^{e}" for i, e in enumerate(exps)))
            v += len(exps)
        texts.append(" + ".join(blocks))
    for text in texts:
        form = parse_form(text)
        d = form.degree
        counts = [_divisor_counts(m.exponents) for m in form.monomials]
        for t in range(d + 1):
            cat = catalecticant(form, t)
            if len(counts) == 1:
                # one nonzero cell per degree-t divisor, one per row and column
                assert sum(map(len, cat.entries.values())) == counts[0][t]
                assert cat.rank() == counts[0][t], (text, t)
            elif 1 <= t <= d - 1:
                assert cat.rank() == sum(c[t] for c in counts), (text, t)
        cat = catalecticant(form, 1)
        n = len(form.variables)
        assert cat.row_monomials == tuple(e for e in product(range(d), repeat=n)
                                          if sum(e) == d - 1)[::-1]
        assert len(cat.col_monomials) == n



@st.composite
def _coprime_sums(draw):
    """One to three blocks of one degree d <= 10, each a monomial in 1-4
    variables of its own with a nonzero rational coefficient of either sign."""
    d = draw(st.integers(1, 10))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.sets(st.integers(1, max(d - 1, 1)), max_size=min(3, d - 1))))
        coeff = draw(st.fractions(-5, 5, max_denominator=7).filter(bool))
        blocks.append(([b - a for a, b in zip([0] + cuts, cuts + [d])], coeff))
    n = sum(len(exps) for exps, _ in blocks)
    terms, start = {}, 0
    for exps, coeff in blocks:
        terms[(0,) * start + tuple(exps) + (0,) * (n - start - len(exps))] = coeff
        start += len(exps)
    return Polynomial(n, terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_coprime_sums())
def test_counted_rank_equals_the_elimination_it_replaces(form):
    d = form.degree
    for t in range(d + 1):
        cat = catalecticant(form, t)
        rank = cat.rank()
        if len(form.terms) == 1 or 0 < t < d:
            # counted: no cell was built
            assert "entries" not in vars(cat), (form, t)
        assert rank == sparse_rank(cat.entries.values()), (form, t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_coprime_sums(), _homogeneous_forms()), st.integers(0, 10))
@example(parse_homogeneous("x1 + 2*x2"), 0)                # d = 1
@example(parse_homogeneous("x1 + 2*x2"), 1)
@example(parse_homogeneous("x1^2 + x1*x2"), 0)             # d = 2, shared x1
@example(parse_homogeneous("x1*x2"), 1)
@example(parse_homogeneous("x1^2*x2 + x1*x2^2"), 0)        # odd d
@example(parse_homogeneous("x1^4*x2^3 + x1*x2^6"), 2)      # t_max below d/2
@example(parse_homogeneous("x1^2*x2^3 + x3^5"), 1)
@example(parse_homogeneous("x1^2*x2^3 + x3^5"), 4)
def test_the_bound_equals_the_maximum_over_every_degree(form, cut):
    """t_max is None for cut 0 and otherwise runs over 1..d."""
    t_max = None if cut == 0 else 1 + (cut - 1) % form.degree
    assert catalecticant_lower_bound(form, t_max) == all_degrees_bound(form, t_max)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_coprime_sums())
def test_counted_ranks_are_symmetric_and_rise_to_the_middle(form):
    d = form.degree
    ranks = [catalecticant(form, t).rank() for t in range(1, d)]     # t = 1..d-1
    assert ranks == ranks[::-1], form
    assert ranks[:d // 2] == sorted(ranks[:d // 2]), form


def test_hf_monomial_quotient_square_gens():
    J = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert hf_table(J, 3) == [1, 2, 1, 0]


def test_hf_maximal_ideal():
    J = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert hf_table(J, 4) == [1, 0, 0, 0, 0]


def test_hf_single_variable_truncation():
    a = 4
    J = MonomialIdeal(1, [(a + 1,)])
    assert hf_table(J, 7) == [1 if t <= a else 0 for t in range(8)]


def test_hf_partial_sums_stabilize_at_multiplicity():
    J = MonomialIdeal(2, [(3, 0), (0, 4)])
    table = hf_table(J, 10)
    assert table[-1] == 0
    assert sum(table) == 12 == total_multiplicity(J)


def _complete_intersection_length(exponents):
    """len(T/(X_1^(a_1+1), ..., X_n^(a_n+1))) from the Hilbert numerator."""
    n = len(exponents)
    return total_multiplicity(
        MonomialIdeal(n, [pure_power(n, i, a + 1) for i, a in enumerate(exponents)]))


def test_hf_sum_complete_intersection():
    assert _complete_intersection_length([1, 1]) == 4
    assert _complete_intersection_length([2, 3]) == 12
    assert _complete_intersection_length([4]) == 5


def test_hf_sum_equals_a1_plus_1_times_rank():
    from waring.forms import Monomial
    rng = random.Random(1)
    for _ in range(15):
        exps = sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        m = Monomial([f"x{i + 1}" for i in range(len(exps))], exps)
        assert _complete_intersection_length(exps) == prod(a + 1 for a in exps) == \
            (exps[0] + 1) * rank_monomial(m)


def test_intersection_of_ideals():
    J1 = MonomialIdeal(2, [(1, 0), (0, 2)])
    J2 = MonomialIdeal(2, [(2, 0), (0, 1)])
    meet = intersect_monomial_ideals([J1, J2])
    assert meet.generators == ((0, 2), (1, 1), (2, 0))


@st.composite
def _ideal_families(draw):
    """1 to 4 monomial ideals in 1 to 4 shared variables, each with 0 to 5
    generators of exponents at most 4: the zero ideal (no generator) and
    the unit ideal (the generator 0) included."""
    n = draw(st.integers(1, 4))
    gens = st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5)
    return [MonomialIdeal(n, g) for g in draw(st.lists(gens, min_size=1, max_size=4))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ideal_families())
@example([MonomialIdeal(2, []), MonomialIdeal(2, [(1, 0), (0, 2)])])       # zero
@example([MonomialIdeal(2, [(1, 0), (0, 2)]), MonomialIdeal(2, [])])
@example([MonomialIdeal(2, [(0, 0)]), MonomialIdeal(2, [(1, 0), (0, 2)])])  # unit
@example([MonomialIdeal(2, [(2, 1), (0, 3)]), MonomialIdeal(2, [(0, 0)])])
@example([MonomialIdeal(3, [(0, 0, 0)]), MonomialIdeal(3, [(0, 0, 0)])])
@example([MonomialIdeal(2, [(1, 1)]), MonomialIdeal(2, [(2, 0), (0, 2), (1, 1)])])
def test_intersection_equals_the_pairwise_lcm_product(ideals):
    assert intersect_monomial_ideals(ideals) == pairwise_lcm_intersection(ideals)


def test_claim_identity_trivial_r1():
    J = MonomialIdeal(2, [(2, 0), (0, 2)])
    report = verify_claim_identity([J])
    assert report.passed and report.lhs == report.rhs == 4


def test_claim_identity_two_blocks():
    J1 = MonomialIdeal(2, [(1, 0), (0, 2)])
    J2 = MonomialIdeal(2, [(2, 0), (0, 1)])
    report = verify_claim_identity([J1, J2])
    assert report.per_ideal == (2, 2)
    assert report.lhs == 3 == report.rhs
    assert report.passed


def test_claim_identity_from_proof_recipe():
    # blocks x1*x2^2 and x3^2, the J_i shape from the additivity proof
    J1 = MonomialIdeal(3, [(1, 0, 0), (0, 3, 0), (0, 0, 1)])
    J2 = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    report = verify_claim_identity([J1, J2], t_max=6)
    assert report.passed
    assert report.per_ideal == (3, 1)


def test_claim_ideals_builder():
    form = parse_form("x1*x2^2 + x3^3")
    J1, J2 = claim_ideals(form)
    assert set(J1.generators) == {(1, 0, 0), (0, 3, 0), (0, 0, 1)}
    # single-variable block gives the maximal ideal
    assert J2.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert verify_claim_identity([J1, J2]).passed


def test_claim_precondition_rejected():
    # pairwise sum misses x2 entirely
    J1 = MonomialIdeal(2, [(1, 0), (0, 2)])
    J2 = MonomialIdeal(2, [(2, 0), (0, 2)])
    with pytest.raises(ClaimPreconditionError):
        verify_claim_identity([J1, J2])


def test_claim_identity_randomized():
    rng = random.Random(2024)
    for _ in range(50):
        ideals = random_claim_configuration(rng)
        assert verify_claim_identity(ideals).passed


def test_claim_tail_check():
    J = MonomialIdeal(1, [(5,)])
    with pytest.raises(ValueError):
        verify_claim_identity([J], t_max=3)


def test_annihilator_membership():
    form = parse_form("x1*x2*x3")
    assert annihilator_membership(Polynomial.monomial((2, 0, 0)), form)
    assert not annihilator_membership(Polynomial.monomial((1, 0, 0)), form)


def test_perp_generators_annihilate_surveyed_monomials():
    for text in ("x1*x2*x3", "x1^2*x2^3", "x1*x2^4", "x1^3"):
        form = parse_form(text)
        mono = form.monomials[0]
        for gen in perp_generators(mono).generators:
            assert annihilator_membership(Polynomial.monomial(gen), form)


def test_bound_cells_count_the_divisors_of_every_term():
    from waring.apolarity import bound_cells
    assert bound_cells(parse_form("x1*x2^2 + x3^3")) == 2 * 3 + 4
    assert bound_cells(parse_homogeneous("x1^2*x2 + x1*x2^2")) == 6 + 6
    form = parse_form("x1^2*x2^3*x3 + 2*x4^6")
    assert bound_cells(form) == sum(
        len(row) for t in range(form.degree + 1)
        for row in catalecticant(form, t).entries.values())


def test_bound_cell_cap_is_checked_before_any_catalecticant(monkeypatch):
    from types import SimpleNamespace
    from waring import apolarity
    from waring.rank import ResourceLimitError
    built = []
    stub = SimpleNamespace(rank=lambda: 0)
    monkeypatch.setattr(apolarity, "catalecticant",
                        lambda form, t: built.append(t) or stub)
    # ranked by elimination: the nonzero cells over all degrees
    at_cap = parse_homogeneous("x1^99*x2^999 + x1^99*x3^999")    # 2 * 100 * 1000
    over = parse_homogeneous("x1^100*x2^100*x3^100 + x1^101*x2^99*x3^100")
    assert apolarity.bound_cells(at_cap) == apolarity.MAX_BOUND_CELLS
    assert apolarity.bound_cells(over) == 101 ** 3 + 102 * 100 * 101 == 2060501
    apolarity.catalecticant_lower_bound(at_cap)
    assert built == list(range(1, at_cap.degree // 2 + 1))
    built.clear()
    with pytest.raises(ResourceLimitError, match="2060501"):
        apolarity.catalecticant_lower_bound(over)
    with pytest.raises(ResourceLimitError):
        apolarity.catalecticant_lower_bound(over, 1)
    # counted: t_max times the sum over terms of 2^k, k the term's variables
    apolarity.catalecticant_lower_bound(parse_form("x1^49999*x2"))    # 50000 * 4
    assert built == [25000]
    built.clear()
    with pytest.raises(ResourceLimitError, match="200004"):
        apolarity.catalecticant_lower_bound(parse_form("x1^50000*x2"))
    with pytest.raises(ResourceLimitError, match="800004"):
        apolarity.catalecticant_lower_bound(parse_homogeneous("x1^200000*x2"))
    coprime = parse_form("x1^33333*x2 + x3^33334")
    with pytest.raises(ResourceLimitError, match="200004"):    # 33334 * (4 + 2)
        apolarity.catalecticant_lower_bound(coprime)
    assert built == []
    apolarity.catalecticant_lower_bound(coprime, 33333)     # 33333 * 6
    assert built == [16667]


# -- Hilbert functions from the Hilbert-series numerator, against enumeration ---

def _standard_monomial_levels(ideal, t_max):
    """The standard monomials of each degree 0..t_max, level by level: the
    one-variable multiples of a level that lie outside the ideal form the
    next (the enumeration the numerator replaced)."""
    one = (0,) * ideal.num_vars
    levels = [set() if contains_monomial(ideal, one) else {one}]
    for _ in range(t_max):
        levels.append({m[:i] + (m[i] + 1,) + m[i + 1:] for m in levels[-1]
                       for i in range(ideal.num_vars)
                       if not contains_monomial(ideal, m[:i] + (m[i] + 1,) + m[i + 1:])})
    return levels


def _enumerated_length(ideal):
    total, t = 0, 0
    while level := _standard_monomial_levels(ideal, t)[t]:
        total += len(level)
        t += 1
    return total


@st.composite
def _monomial_ideals(draw):
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=6))
    if draw(st.booleans()):     # a power of every variable: a finite quotient
        gens += [pure_power(n, i, draw(st.integers(1, 6))) for i in range(n)]
    return MonomialIdeal(n, gens)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monomial_ideals(), st.integers(0, 14))
@example(MonomialIdeal(3, [(0, 0, 0)]), 6)              # the unit ideal
@example(MonomialIdeal(3, []), 6)                       # the whole ring
@example(MonomialIdeal(2, [(1, 1)]), 14)                # infinite quotient
def test_hf_from_the_numerator_equals_the_enumeration(ideal, t_max):
    levels = _standard_monomial_levels(ideal, t_max)
    assert hf_table(ideal, t_max) == [len(level) for level in levels]
    if ideal.contains_power_of_every_variable():
        assert total_multiplicity(ideal) == _enumerated_length(ideal)


def test_hf_of_five_twentieth_powers_to_degree_100():
    ideal = MonomialIdeal(5, [pure_power(5, i, 20) for i in range(5)])
    table = hf_table(ideal, 100)
    assert sum(table) == total_multiplicity(ideal) == 20 ** 5
    assert table[95] == 1 and table[96:] == [0] * 5


def test_hf_table_cap_is_checked_before_the_numerator(monkeypatch):
    from waring import apolarity
    from waring.rank import ResourceLimitError
    calls = []
    monkeypatch.setattr(apolarity, "hilbert_numerator",
                        lambda ideal: calls.append(ideal) or {0: 1})
    ideal = MonomialIdeal(4, [(1, 1, 0, 0)])
    at_cap = MAX_HF_STEPS // 4 - 1          # (t_max + 1) * 4 steps
    assert len(apolarity.hf_table(ideal, at_cap)) == at_cap + 1
    assert len(calls) == 1
    with pytest.raises(ResourceLimitError, match=str(MAX_HF_STEPS + 4)):
        apolarity.hf_table(ideal, at_cap + 1)
    assert len(calls) == 1
