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
from waring.forms import CoprimeForm, Monomial, parse_form
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
