import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from waring.cyclotomic import CyclotomicNumber, cyclotomic_embed
from waring.decompose import (
    DecompositionTerm,
    PowerSumDecomposition,
    decompose_form,
    decomposition_points,
    least_variable_check,
    solve_gammas,
    verify_decomposition,
)
from waring.forms import CoprimeForm, Monomial, decomposition_field_order, parse_form
from waring.linalg import LinearSystem, solve_exact
from waring.polynomials import multinomial
from waring.rank import rank_coprime_sum, rank_monomial


def _mono(text):
    return parse_form(text).monomials[0]


def test_points_binary():
    points = decomposition_points(_mono("x1*x2"))
    assert [tuple(str(c) for c in p) for p in points] == \
        [("1", "1"), ("1", "-1")]


def test_points_three_cycle_sign_vectors():
    points = decomposition_points(_mono("x1*x2*x3"))
    assert [tuple(str(c) for c in p) for p in points] == [
        ("1", "1", "1"), ("1", "1", "-1"), ("1", "-1", "1"), ("1", "-1", "-1")]


def test_points_cube_roots():
    points = decomposition_points(_mono("x1*x2^2"))
    z3 = cyclotomic_embed(3, 1, 3)
    assert [p[1] for p in points] == [z3 ** 0, z3, z3 ** 2]
    assert all(p[0] == 1 for p in points)


def test_points_single_variable():
    points = decomposition_points(_mono("x1^5"))
    assert len(points) == 1 and points[0][0] == 1


def test_points_one_on_least_variable():
    # exponents (3, 1): the least-exponent variable is x2
    points = decomposition_points(_mono("x1^3*x2"))
    for p in points:
        assert p[1] == 1


def test_four_cube_identity():
    dec = solve_gammas(_mono("x0*x1*x2"))
    gammas = [t.gamma.rational_value() for t in dec.terms]
    assert gammas == [Fraction(1, 24), Fraction(-1, 24),
                      Fraction(-1, 24), Fraction(1, 24)]
    assert all(abs(g) == Fraction(1, 24) for g in gammas)


def test_xy2_gammas_are_eps_over_nine():
    dec = solve_gammas(_mono("x1*x2^2"))
    for t in dec.terms:
        eps = t.linear[1]
        assert t.gamma == eps / 9


def test_pure_power_trivial():
    dec = solve_gammas(_mono("x1^6"), Fraction(5, 3))
    assert len(dec.terms) == 1
    assert dec.terms[0].gamma == Fraction(5, 3)
    assert dec.terms[0].linear[0] == 1


def test_decompose_form_lengths():
    form = parse_form("x1^2*x2 + x3^3")
    dec = decompose_form(form)
    assert len(dec.terms) == 4
    assert verify_decomposition(form, dec).passed

    form = parse_form("x1*x2 + x3*x4")
    dec = decompose_form(form)
    assert len(dec.terms) == 4
    assert verify_decomposition(form, dec).passed


def test_decompose_linear_form():
    form = parse_form("x1 + x2")
    dec = decompose_form(form)
    assert len(dec.terms) == 1
    assert verify_decomposition(form, dec).passed


def test_decompose_respects_coefficients():
    form = parse_form("3/2*x1*x2^2 - 2*x3^3")
    dec = decompose_form(form)
    assert len(dec.terms) == rank_coprime_sum(form) == 4
    report = verify_decomposition(form, dec)
    assert report.passed and report.expansion_matches


def test_verify_rejects_sign_flip():
    form = parse_form("x0*x1*x2")
    dec = decompose_form(form)
    broken = PowerSumDecomposition(
        dec.degree, dec.variables,
        (DecompositionTerm(-dec.terms[0].gamma, dec.terms[0].linear,
                           dec.terms[0].block, dec.terms[0].point),)
        + dec.terms[1:])
    report = verify_decomposition(form, broken)
    assert not report.passed
    assert not report.expansion_matches
    assert report.mismatches  # first mismatching monomial is named
    assert report.mismatches[0][0]


def test_verify_reports_dependent_pair():
    form = parse_form("x1*x2")
    dec = decompose_form(form)
    dup = PowerSumDecomposition(
        dec.degree, dec.variables,
        (dec.terms[0], dec.terms[0]))
    report = verify_decomposition(form, dup)
    assert not report.blocks_independent
    assert report.dependent_pair is not None


def test_least_variable_check_positive():
    form = parse_form("x1*x2^3")
    dec = decompose_form(form)
    lv = least_variable_check(form, dec)
    assert lv.passed
    for _, _, var, ok in lv.entries:
        assert var == "x1" and ok

    form = parse_form("x1^2*x2 + x3^3")
    dec = decompose_form(form)
    lv = least_variable_check(form, dec)
    assert lv.passed
    by_block = {e[1]: e[2] for e in lv.entries}
    assert by_block == {0: "x2", 1: "x3"}


def test_least_variable_check_negative_control():
    form = parse_form("x1*x2")
    dec = decompose_form(form)
    zero = CyclotomicNumber.from_rational(0, 2)
    # zero out the least-variable coefficient of one term
    t0 = dec.terms[0]
    broken = PowerSumDecomposition(
        dec.degree, dec.variables,
        (DecompositionTerm(t0.gamma, (zero, t0.linear[1]), t0.block, t0.point),
         dec.terms[1]))
    lv = least_variable_check(form, broken)
    assert not lv.passed


def test_real_structure_for_square_root_orders():
    # all non-minimal exponents 1: every root order is 2, so gammas are rational
    for text in ("x1*x2", "x1*x2*x3", "x1*x2*x3*x4"):
        dec = decompose_form(parse_form(text))
        for t in dec.terms:
            assert t.gamma.is_rational()
            assert all(c.is_rational() for c in t.linear)


def test_round_trip_random_monomials():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 3)
        exps = [rng.randint(1, 4) for _ in range(n)]
        m = Monomial([f"x{i + 1}" for i in range(n)], exps)
        form = CoprimeForm([(Fraction(rng.choice([-3, -1, 1, 2])), m)])
        dec = decompose_form(form)
        assert len(dec.terms) == rank_monomial(m)
        assert verify_decomposition(form, dec).passed
        assert least_variable_check(form, dec).passed


# -- the solve against the Fischer / Buczynska-Buczynski-Teitler closed form ----


@st.composite
def _monomials_and_coefficients(draw):
    """Monomials in at most 4 variables of degree at most 8, with exponents
    in a drawn (shuffled) order, ties included, and a nonzero rational
    coefficient."""
    n = draw(st.integers(1, 4))
    exps, budget = [], 8
    for left in range(n - 1, -1, -1):
        exps.append(draw(st.integers(1, budget - left)))
        budget -= exps[-1]
    exps = draw(st.permutations(exps))
    names = draw(st.permutations([f"x{i}" for i in range(1, n + 1)]))
    coefficient = draw(st.fractions(min_value=-5, max_value=5, max_denominator=50)
                       .filter(bool))
    return Monomial(names, exps), coefficient


def _closed_form_gammas(monomial, coefficient):
    """gamma_eps = c * prod_i eps_i^(-a_i) / (multinomial(d; a) * prod_i (a_i+1)),
    i over the non-least variables, in decomposition_points order."""
    d = monomial.degree
    multinomial = factorial(d) // prod(factorial(a) for a in monomial.exponents)
    least = monomial.variables.index(monomial.least_variable)
    rest = [i for i in range(monomial.n) if i != least]
    scale = Fraction(coefficient) / (multinomial * prod(monomial.exponents[i] + 1
                                                        for i in rest))
    gammas = []
    for point in decomposition_points(monomial):
        gamma = CyclotomicNumber.from_rational(scale, point[least].order)
        for i in rest:
            gamma = gamma * point[i] ** (-monomial.exponents[i])
        gammas.append(gamma)
    return gammas


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monomials_and_coefficients())
def test_solved_gammas_equal_the_closed_form(case):
    monomial, coefficient = case
    dec = solve_gammas(monomial, coefficient)
    assert [t.gamma for t in dec.terms] == _closed_form_gammas(monomial, coefficient)
    form = CoprimeForm([(coefficient, monomial)])
    assert verify_decomposition(form, dec).passed


def test_solve_cost_cap_raises_before_any_solve():
    from waring.rank import EnumerationLimitError, ResourceLimitError
    assert issubclass(EnumerationLimitError, ResourceLimitError)
    # rank 169 over Q(zeta_13): 169^3 * 12^2 = 7.0e8, over the cap
    with pytest.raises(ResourceLimitError, match="cap"):
        decompose_form(parse_form("x1^12*x2^12*x3^12"))


# -- the factored solve against the full square character system ----------------


def _character_system(monomial, coefficient):
    """The square character system over Q(zeta_N), rows and columns indexed by
    the grid: row b has entry multinomial(d; b) * zeta_N^(sum k_i b_i N / (a_i+1))
    at the point with root exponents k, and right-hand side coefficient at
    b = a, zero elsewhere."""
    d = monomial.degree
    order = decomposition_field_order(monomial)
    rest = monomial.sorted_items[1:]
    steps = [order // (a + 1) for _, a in rest]
    target = tuple(a for _, a in rest)
    grid = list(itertools.product(*(range(a + 1) for _, a in rest)))
    matrix, rhs = [], []
    for b in grid:
        mult = multinomial(d, (d - sum(b),) + b)
        weights = [e * step for e, step in zip(b, steps)]
        matrix.append([CyclotomicNumber.zeta(order, sum(k * w for k, w in zip(ks, weights)),
                                             mult) for ks in grid])
        rhs.append(CyclotomicNumber.from_rational(coefficient if b == target else 0, order))
    return LinearSystem(matrix, rhs)


def _small_monomials():
    """Every monomial in at most 3 variables of degree at most 6, exponents
    in every order, with a rational coefficient."""
    out = []
    for n in (1, 2, 3):
        for exps in itertools.product(range(1, 7), repeat=n):
            if sum(exps) <= 6:
                coefficient = Fraction((-1) ** len(out) * (len(out) + 2), 2 * len(out) + 3)
                out.append((Monomial([f"x{i}" for i in range(1, n + 1)], exps), coefficient))
    return out


def test_factored_gammas_equal_the_full_character_solve():
    cases = _small_monomials()
    assert len(cases) == 41
    for monomial, coefficient in cases:
        gammas = [t.gamma for t in solve_gammas(monomial, coefficient).terms]
        assert gammas == solve_exact(_character_system(monomial, coefficient)), monomial


def test_decompose_solves_one_small_system_per_distinct_exponent(monkeypatch):
    from waring import decompose
    systems = []

    def recording(system):
        systems.append(system)
        return solve_exact(system)

    monkeypatch.setattr(decompose, "solve_exact", recording)
    forms = [CoprimeForm([(c, m)]) for m, c in _small_monomials()] + [parse_form(text) for text in (
        "x1*x2^4*x3^8", "x1^2*x2^2*x3^2*x4^2", "3/2*x1*x2^2 - 2/5*x3^3",
        "x1^2*x2^2*x3^2*x4^2 - 7/3*x5*x6*x7^6", "x1 + x2")]
    for form in forms:
        systems.clear()
        decompose_form(form)
        # one system per distinct non-least exponent a_i of each block, in
        # increasing order: a_i + 1 square rows over Q(zeta_(a_i+1))
        expected = [] if form.degree == 1 else [
            a for m in form.monomials for a in sorted(set(e for _, e in m.sorted_items[1:]))]
        assert [len(s.matrix) - 1 for s in systems] == expected, form
        for s, a in zip(systems, expected):
            assert all(len(row) == a + 1 for row in s.matrix)
            assert {x.order for x in [*itertools.chain(*s.matrix), *s.rhs]} == {a + 1}


# -- the gamma build around the solve ------------------------------------------

_BUILD_FORMS = ("x1^3", "x1*x2^2", "x1*x2^4*x3^8", "x3^2*x1^5*x2^2", "x1^2*x2^2*x3^2*x4^2",
                "3/2*x1*x2^2 - 2/5*x3^3", "x1^2*x2^2*x3^2*x4^2 - 7/3*x5*x6*x7^6")


def test_decompose_multiplies_cyclotomic_numbers_only_inside_the_solve(monkeypatch):
    """The gammas are products of lifted factors and the points share their
    roots, so no CyclotomicNumber product runs outside `solve_exact`."""
    from waring import decompose
    counts = {True: 0, False: 0}     # inside a solve -> products
    depth = [0]
    multiply = CyclotomicNumber.__mul__

    def counting(self, other):
        counts[depth[0] > 0] += 1
        return multiply(self, other)

    def solving(system):
        depth[0] += 1
        try:
            return solve_exact(system)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counting)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", counting)
    monkeypatch.setattr(decompose, "solve_exact", solving)
    for text in _BUILD_FORMS:
        counts[True] = counts[False] = 0
        decompose_form(parse_form(text))
        assert counts[False] == 0, text
        assert counts[True] > 0 or text == "x1^3", text


def test_grid_points_share_one_root_per_variable_and_power(monkeypatch):
    from waring import decompose
    built = []

    def recording(root_order, power, field_order):
        built.append((root_order, power))
        return cyclotomic_embed(root_order, power, field_order)

    monkeypatch.setattr(decompose, "cyclotomic_embed", recording)
    for text in _BUILD_FORMS:
        form = parse_form(text)
        built.clear()
        dec = decompose_form(form)
        assert sorted(built) == sorted((a + 1, k) for m in form.monomials
                                       for _, a in m.sorted_items[1:] for k in range(a + 1))
        for block, (_, m) in enumerate(form.terms):
            points = [t.point for t in dec.terms if t.block == block]
            for j, (v, a) in enumerate(m.sorted_items):
                objects = {id(p[m.variables.index(v)]) for p in points}
                assert len(objects) == (a + 1 if j else 1), (text, v)


def test_character_tables_are_shared_tuples_the_solve_leaves_unchanged():
    from waring.decompose import _character_table

    def fresh(m):
        return tuple(tuple(CyclotomicNumber.zeta(m, k * b) for k in range(m))
                     for b in range(m))

    tables = {m: _character_table(m) for m in (2, 3, 5, 7, 9)}
    for m, table in tables.items():
        assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
        assert _character_table(m) is table
    forms = [parse_form(text) for text in _BUILD_FORMS]
    first = [decompose_form(form) for form in forms]
    second = [decompose_form(form) for form in forms]
    assert first == second
    for m, table in tables.items():
        assert _character_table(m) is table
        assert table == fresh(m)
