import dataclasses
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from waring import decompose
from waring.cyclotomic import CyclotomicNumber, cyclotomic_embed, euler_phi
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
from waring.polynomials import compositions, multinomial
from waring.rank import rank_coprime_sum, rank_monomial
from waring.serialize import decomposition_from_json, decomposition_to_json, dumps


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


def test_solve_cost_cap_raises_before_any_solve(monkeypatch):
    from waring import decompose
    from waring.rank import EnumerationLimitError, ResourceLimitError
    assert issubclass(EnumerationLimitError, ResourceLimitError)
    monkeypatch.setattr(decompose, "solve_exact", None)     # any solve would fail
    # one 61-square solve over Q(zeta_61): 61^3 * 60^2 = 8.2e8, over the cap
    with pytest.raises(ResourceLimitError, match=r"8\.2e\+08 .* above the cap 1e\+08"):
        decompose_form(parse_form("x1*x2^60"))


def test_the_solve_is_priced_once_per_distinct_exponent(monkeypatch):
    """x1*x2^4*x3^6 + x4^3*x5^4*x6^4 solves for a = 4 and 6 in its first
    block and for a = 4 in its second: 2 * 5^3 * 4^2 + 7^3 * 6^2 = 16348.
    It runs with the cap at that price and is refused one below, before any
    solve."""
    from waring import decompose
    from waring.rank import ResourceLimitError
    form = parse_form("x1*x2^4*x3^6 + x4^3*x5^4*x6^4")
    monkeypatch.setattr(decompose, "MAX_SOLVE_COST", 16348)
    assert verify_decomposition(form, decompose_form(form)).passed
    monkeypatch.setattr(decompose, "MAX_SOLVE_COST", 16347)
    monkeypatch.setattr(decompose, "solve_exact", None)
    with pytest.raises(ResourceLimitError, match=r"1\.6e\+04"):
        decompose_form(form)


def test_the_field_cap_is_checked_before_any_field_is_built(monkeypatch):
    """x1*x2^6*x3^7*x4^8*x5^9*x6^10 needs Q(zeta_27720), while its solves
    alone would be priced at only about 2e5."""
    from waring import cyclotomic, decompose
    from waring.rank import ResourceLimitError
    real = cyclotomic.cyclotomic_polynomial

    def small_fields_only(n):
        assert n <= decompose.MAX_FIELD_ORDER, f"built Phi_{n}"
        return real(n)

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", small_fields_only)
    with pytest.raises(ResourceLimitError, match=r"Q\(zeta_27720\), above the field order cap"):
        decompose_form(parse_form("x1*x2^6*x3^7*x4^8*x5^9*x6^10"))


@st.composite
def _coprime_sums(draw):
    """One to three blocks of one degree 2 <= d <= 8, each on one to four
    variables of its own, with exponents in drawn order (ties included)
    and nonzero rational coefficients."""
    d = draw(st.integers(2, 8))
    names = iter(draw(st.permutations([f"x{i}" for i in range(1, 13)])))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, min(4, d)))
        cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        exps = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
        coefficient = draw(st.fractions(min_value=-5, max_value=5, max_denominator=50)
                           .filter(bool))
        terms.append((coefficient, Monomial([next(names) for _ in exps], exps)))
    return CoprimeForm(terms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_coprime_sums())
def test_the_price_from_the_exponents_is_the_price_of_the_output(form):
    """`decompose_form` admits its output by the price it reads off the
    exponents; verifying prices the output's plan.  The two agree."""
    from unittest import mock
    from waring import decompose
    with mock.patch.object(decompose, "_admit", wraps=decompose._admit) as admit:
        dec = decompose_form(form)
    (_, field, steps), = [call.args for call in admit.call_args_list]
    plan = decompose._lift(dec, [c for c, _ in form.terms])
    assert (field, steps) == (plan.field, plan.steps)
    assert len(plan.groups) == len(form.terms) and not plan.general


# -- decompose's own output, verified as the closed form ------------------------


def _tampered(form, dec, j):
    """(name, terms) for the six tamperings of term j: a gamma changed within
    its field, a node changed, a zero coordinate made nonzero, the block
    index changed, the term dropped and two terms swapped; the node and the
    zero coordinate only where the term has one, the swap where there are
    two terms."""
    terms, t = list(dec.terms), dec.terms[j]
    least = dec.variables.index(form.terms[t.block][1].least_variable)
    nodes = [i for i, c in enumerate(t.linear) if c and i != least]
    zeros = [i for i, c in enumerate(t.linear) if not c]

    def with_term(**changes):
        return terms[:j] + [dataclasses.replace(t, **changes)] + terms[j + 1:]

    def with_coordinate(i, value):
        return with_term(linear=t.linear[:i] + (value,) + t.linear[i + 1:])

    cases = [("gamma", with_term(gamma=t.gamma + CyclotomicNumber.from_rational(
                  Fraction(1, 7), t.gamma.order))),
             ("block", with_term(block=t.block + 1)),
             ("dropped", terms[:j] + terms[j + 1:])]
    if nodes:
        cases.append(("node", with_coordinate(nodes[0], 2 * t.linear[nodes[0]])))
    if zeros:
        cases.append(("zero", with_coordinate(zeros[0], CyclotomicNumber.from_rational(1, 1))))
    if len(terms) > 1:
        k = (j + 1) % len(terms)
        swapped = list(terms)
        swapped[j], swapped[k] = terms[k], terms[j]
        cases.append(("swapped", swapped))
    return cases


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_coprime_sums(), st.data())
def test_the_grid_check_reports_what_the_flat_check_reports(form, data):
    """`decompose_form`'s output passes as the closed form with the report
    that the flat check gives its terms alone.  Each tampering fails the
    comparison with the closed form, which then hands the terms to the flat
    check, so the report is the flat one: a FAIL for a changed gamma, node
    or zero coordinate and a dropped term.  The flat check sees neither the
    order of the terms nor (for forms on disjoint variables) a block index,
    but the comparison does, as it follows `decompose_form`'s order.  The
    output for the form with one coefficient doubled is the closed form of
    another form, so it fails the comparison too.  The expected reports come
    from the flat check alone, with the comparison turned off."""
    def flat_report(decomposition):
        with mock.patch.object(decompose, "_is_closed_form", return_value=False):
            return verify_decomposition(form, decomposition)

    dec = decompose_form(form)
    report = verify_decomposition(form, dec)
    assert report.passed
    assert report == flat_report(dec)
    block = data.draw(st.integers(0, len(form.terms) - 1))
    doubled = decompose_form(CoprimeForm([(c * (1 + (i == block)), m)
                                          for i, (c, m) in enumerate(form.terms)]))
    with mock.patch.object(decompose, "_lift", wraps=decompose._lift) as flat:
        report = verify_decomposition(form, doubled)
    assert flat.called and not report.passed
    assert report == flat_report(doubled)
    for name, terms in _tampered(form, dec, data.draw(st.integers(0, len(dec.terms) - 1))):
        tampered = dataclasses.replace(dec, terms=tuple(terms))
        with mock.patch.object(decompose, "_lift", wraps=decompose._lift) as flat:
            report = verify_decomposition(form, tampered)
        assert flat.called, name
        assert report == flat_report(tampered), name
        assert not report.passed or name in ("block", "swapped"), name


def _respelled(obj, spell):
    """A decomposition's JSON with spell(c) for every coefficient string c."""
    if isinstance(obj, dict):
        return {k: [spell(c) for c in v] if k == "coeffs" else _respelled(v, spell)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_respelled(v, spell) for v in obj]
    return obj


def _unreduced(c):
    q = Fraction(c)
    return f"{2 * q.numerator}/{2 * q.denominator}"


def test_decompose_output_and_its_json_round_trip_skip_the_flat_check(monkeypatch):
    """The comparison reads stored pairs, which are in lowest terms however
    a file writes its numbers: "p/q" as "2p/2q", an integer as a JSON int,
    or 0 as "-0"."""
    def flat(*args):
        raise AssertionError("the flat check ran")

    monkeypatch.setattr(decompose, "_lift", flat)
    monkeypatch.setattr(decompose, "_residual", flat)
    spellings = (str, _unreduced, lambda c: c if "/" in c else int(c),
                 lambda c: "-0" if c == "0" else c)
    for text in ("x1^5", "x1*x2^4*x3^6", "x3^2*x1^5*x2^2", "x1*x2*x3*x4*x5*x6*x7*x8*x9",
                 "3/2*x1*x2^2 - 2/5*x3^3", "x1^2*x2^5*x3^8 + x4*x5^6*x6^8"):
        form = parse_form(text)
        dec = decompose_form(form)
        assert verify_decomposition(form, dec).passed, text
        for spell in spellings:
            loaded = decomposition_from_json(_respelled(decomposition_to_json(dec), spell))
            assert loaded == dec
            assert verify_decomposition(form, loaded).passed, text


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_coprime_sums(), st.data())
def test_shuffled_or_promoted_output_takes_the_flat_check(form, data):
    """The closed form is compared term for term, in `decompose_form`'s
    order and with every number in its block's field Q(zeta_N).  Shuffled
    terms, or every number promoted to Q(zeta_2N), are the same
    decomposition, so the flat check runs and gives the same report.  Two
    of a term's nonzero coordinates swapped between its axes make another
    decomposition, which also runs the flat check, and its report is the
    flat check's."""
    def promoted(x):
        return x.promote(2 * x.order)

    def flat_report(terms):
        with mock.patch.object(decompose, "_is_closed_form", return_value=False):
            return verify_decomposition(form, dataclasses.replace(dec, terms=tuple(terms)))

    dec = decompose_form(form)
    report = verify_decomposition(form, dec)
    order = data.draw(st.permutations(range(len(dec.terms))))
    cases = [([dataclasses.replace(t, gamma=promoted(t.gamma),
                                   linear=tuple(map(promoted, t.linear)))
               for t in dec.terms], report)]
    if order != sorted(order):
        cases.append(([dec.terms[j] for j in order], report))
    j = data.draw(st.integers(0, len(dec.terms) - 1))
    t = dec.terms[j]
    nodes = [i for i, c in enumerate(t.linear) if c]
    pairs = [(a, b) for a, b in itertools.combinations(nodes, 2) if t.linear[a] != t.linear[b]]
    if pairs:
        a, b = data.draw(st.sampled_from(pairs))
        linear = list(t.linear)
        linear[a], linear[b] = linear[b], linear[a]
        terms = [*dec.terms[:j], dataclasses.replace(t, linear=tuple(linear)), *dec.terms[j + 1:]]
        cases.append((terms, flat_report(terms)))
    for terms, expected in cases:
        with mock.patch.object(decompose, "_lift", wraps=decompose._lift) as flat:
            assert verify_decomposition(form, dataclasses.replace(
                dec, terms=tuple(terms))) == expected
        assert flat.called


def _stored(t):
    """A term as stored: its block and each number's order and pair."""
    return t.block, [(x.order, x._ints) for x in (t.gamma, *t.linear)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_coprime_sums(), st.data())
def test_a_near_closed_file_reports_what_the_flat_check_reports(form, data):
    """A file that differs from the closed form in fewer than half of its
    terms, with an unchanged term left in each block, is checked from its
    changed terms and their closed-form counterparts alone, and its report
    is the flat check's.  The changes: a gamma or a coordinate made
    general, a zero form, a term replaced in place by a root-of-unity or a
    general multiple of another term of its block (a dependent pair), a
    term rescaled by a root of unity with its value kept (a PASS), a term
    promoted to Q(zeta_2N); once, twice in one block, or in two blocks."""
    dec = decompose_form(form)
    d, terms = dec.degree, list(dec.terms)
    blocks = {}
    for j, t in enumerate(terms):
        blocks.setdefault(t.block, []).append(j)

    def general(order):
        x = CyclotomicNumber(order, [data.draw(st.fractions(-3, 3, max_denominator=3))
                                     for _ in range(euler_phi(order))])
        return x or CyclotomicNumber.from_rational(1, order)

    kinds = []

    def changed(j):
        t = terms[j]
        order = t.gamma.order
        kind = data.draw(st.sampled_from(("gamma", "coordinate", "zero", "root multiple",
                                          "general multiple", "rescale", "promote")))
        kinds.append(kind)
        big = order * data.draw(st.sampled_from((1, 2, 3)))
        if kind == "gamma":
            return replace(t, gamma=t.gamma + general(order))
        if kind == "coordinate":
            i = data.draw(st.integers(0, len(t.linear) - 1))
            return replace(t, linear=t.linear[:i] + (general(big),) + t.linear[i + 1:])
        if kind == "zero":
            return replace(t, linear=tuple(c * 0 for c in t.linear))
        if kind in ("root multiple", "general multiple"):
            s = terms[data.draw(st.sampled_from([p for p in blocks[t.block] if p != j]))]
            lam = (CyclotomicNumber.zeta(big, data.draw(st.integers(0, big - 1)))
                   if kind == "root multiple" else general(big))
            return replace(t, gamma=s.gamma, linear=tuple(c * lam for c in s.linear))
        if kind == "rescale":
            k = data.draw(st.integers(0, big - 1))
            return replace(t, gamma=t.gamma * CyclotomicNumber.zeta(big, -k * d),
                           linear=tuple(c * CyclotomicNumber.zeta(big, k) for c in t.linear))
        return replace(t, gamma=t.gamma.promote(2 * order),
                       linear=tuple(c.promote(2 * order) for c in t.linear))

    wide = [js for js in blocks.values() if len(js) >= 2]
    if not wide:
        return
    shape = data.draw(st.sampled_from(("one", "two in one block", "two blocks")))
    if shape == "two in one block" and any(len(js) >= 3 for js in wide):
        js = data.draw(st.sampled_from([js for js in wide if len(js) >= 3]))
        positions = data.draw(st.lists(st.sampled_from(js), min_size=2, max_size=2,
                                       unique=True))
    elif shape == "two blocks" and len(wide) >= 2:
        positions = [data.draw(st.sampled_from(js)) for js in wide[:2]]
    else:
        positions = [data.draw(st.sampled_from(data.draw(st.sampled_from(wide))))]
    for j in positions:
        terms[j] = changed(j)
    tampered = replace(dec, terms=tuple(terms))
    with mock.patch.object(decompose, "_is_closed_form", return_value=False):
        expected = verify_decomposition(form, tampered)
    with mock.patch.object(decompose, "_lift", wraps=decompose._lift) as lift:
        assert verify_decomposition(form, tampered) == expected
    assert expected.passed or set(kinds) != {"rescale"}
    differ = [j for j in positions if _stored(terms[j]) != _stored(dec.terms[j])]
    near = 0 < 2 * len(differ) < len(terms) and all(
        any(_stored(terms[j]) == _stored(dec.terms[j]) for j in js) for js in blocks.values())
    if near:
        assert [len(call.args[0].terms) for call in lift.call_args_list] == [2 * len(differ)]


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
        decompose._factors.cache_clear()    # each form solves from a cold cache
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
        decompose._factors.cache_clear()    # each form solves from a cold cache
        decompose_form(parse_form(text))
        assert counts[False] == 0, text
        assert counts[True] > 0 or text == "x1^3", text


@pytest.mark.parametrize("wrong", ["rotated", "doubled", "general"])
def test_the_self_check_catches_a_wrong_solve(monkeypatch, capsys, wrong):
    """`decompose` builds its terms from the solve's factors and checks them
    against the closed form's.  With the solution rotated (y[k] ->
    y[(k+1) mod (a+1)]) or doubled, the two derivations differ, so the
    command prints the internal-error report and no decomposition; with a
    solution that is not a root-of-unity power, it refuses before building
    any term."""
    from waring.cli import main

    def patched(system):
        y = solve_exact(system)
        if wrong == "rotated":
            return y[1:] + y[:1]
        if wrong == "doubled":
            return [2 * v for v in y]
        return [v + 1 for v in y]       # 1 + zeta_3 / 3 is no rational times a root

    monkeypatch.setattr(decompose, "solve_exact", patched)
    code = main(["decompose", "x1*x2^2*x3^3 - 2/3*x4^2*x5^4", "--json"])
    out, err = capsys.readouterr()
    assert out == ""
    if wrong == "general":
        assert code != 0 and err.startswith("error: internal error:")
    else:
        assert code == 2
        assert err.startswith("internal error: produced decomposition failed verification\n")
        assert "  expansion matches: False\n" in err


def test_grid_points_share_one_root_per_variable_and_power():
    """Every term of a block holds the same number object for its least
    variable, and one object per node zeta_N^(k s) on each other variable,
    read off the one list of roots of Q(zeta_N) that a later form of that
    field reuses."""
    for text in _BUILD_FORMS:
        form = parse_form(text)
        first, second = decompose_form(form), decompose_form(form)
        for block, (_, m) in enumerate(form.terms):
            order = decomposition_field_order(m)
            points = [t.point for t in first.terms if t.block == block]
            for j, (v, a) in enumerate(m.sorted_items):
                column = [p[m.variables.index(v)] for p in points]
                objects = {id(x): x for x in column}
                assert len(objects) == (a + 1 if j else 1), (text, v)
                roots = a + 1 if j else 1
                assert set(objects.values()) == {cyclotomic_embed(roots, k, order)
                                                 for k in range(roots)}
            again = [t.point for t in second.terms if t.block == block]
            assert all(x is y for p, q in zip(points, again) for x, y in zip(p, q)), text


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


# -- the factor cache: one solve per (a, N) per process -------------------------

# a = 4 under N = 35 and N = 5; a = 2 under N = 3 in both blocks; a repeat
# of the first form's pairs under other variables
_CACHE_FORMS = _BUILD_FORMS + ("x1*x2^4*x3^6 + x4^3*x5^4*x6^4", "x1*x2^2 - 3*x3*x4^2",
                               "x7*x9^6*x8^4")


def _solved_pairs(form):
    return {(a, decomposition_field_order(m)) for m in form.monomials
            for a in set(m.sorted_exponents[1:])}


def test_each_exponent_and_field_order_is_solved_once_per_process(monkeypatch):
    solved = []

    def recording(system):
        solved.append(len(system.matrix) - 1)
        return solve_exact(system)

    monkeypatch.setattr(decompose, "solve_exact", recording)
    forms = [parse_form(text) for text in _CACHE_FORMS]
    pairs = set().union(*map(_solved_pairs, forms))
    assert {(4, 35), (4, 5), (2, 3)} <= pairs
    for form in forms:
        decompose_form(form)
    assert sorted(solved) == sorted(a for a, _ in pairs)
    assert decompose._factors.cache_info().currsize == len(pairs)
    solved.clear()
    for form in forms:
        decompose_form(form)
    assert solved == []


def test_warm_output_equals_cold_output():
    """Each form decomposed from a cold cache, then all of them again after
    one pass has warmed it: the same terms and the same JSON bytes."""
    forms = [parse_form(text) for text in _CACHE_FORMS]
    cold = []
    for form in forms:
        decompose._factors.cache_clear()
        cold.append(decompose_form(form))
    for form in forms:
        decompose_form(form)
    warm = [decompose_form(form) for form in forms]
    assert decompose._factors.cache_info().currsize == len(set().union(*map(_solved_pairs, forms)))
    assert warm == cold
    assert [dumps(dec) for dec in warm] == [dumps(dec) for dec in cold]
    assert all(verify_decomposition(form, dec).passed for form, dec in zip(forms, warm))


def test_cached_factors_are_tuples_of_the_closed_form_lifts():
    """A cached factor is the closed form's shape of y[k] = zeta_(a+1)^k /
    (a+1): the exponents k N / (a+1) of its single-power lifts into
    Z[t]/(t^N - 1), a tuple of ints, and the weight 1 / (a+1), so no caller
    can change it; a second call returns the same object."""
    for text in _CACHE_FORMS[-3:-1]:
        decompose_form(parse_form(text))
    misses = decompose._factors.cache_info().misses
    for a, order in ((4, 35), (6, 35), (4, 5), (2, 3)):
        factors = decompose._factors(a, order)
        assert factors == (tuple(k * order // (a + 1) for k in range(a + 1)), Fraction(1, a + 1))
        assert factors == decompose._formula(a, order)
        exponents, weight = factors
        assert type(exponents) is tuple and all(type(e) is int for e in exponents)
        assert type(weight) is Fraction
        assert decompose._factors(a, order) is factors
    assert decompose._factors.cache_info().misses == misses


# -- the least-variable check, one lookup per block -------------------------------

def _least_variable_entries(form, dec):
    """The check term by term: each term looks its block's least variable
    up in the monomial and its column in the namespace."""
    index = {v: i for i, v in enumerate(dec.variables)}
    if form.degree == 1:
        t = dec.terms[0]
        return [(0, block, m.least_variable, m.least_variable in index
                 and bool(t.linear[index[m.least_variable]]))
                for block, (_, m) in enumerate(form.terms)]
    entries = []
    for i, t in enumerate(dec.terms):
        v = form.terms[t.block][1].least_variable
        entries.append((i, t.block, v, v in index and bool(t.linear[index[v]])))
    return entries


@st.composite
def _least_variable_cases(draw):
    """A coprime sum of one to three blocks of degree d <= 4, each over
    shuffled variables with exponents in a drawn order (ties included), and
    rank-many terms with drawn blocks and zero or nonzero coordinates, over
    a shuffled namespace that may lack a block's least variable."""
    d = draw(st.integers(1, 4))
    names = iter(draw(st.permutations([f"x{i}" for i in range(1, 10)])))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.permutations(draw(st.sampled_from(
            [c for k in (1, 2, 3) for c in compositions(d, k) if all(c)]))))
        terms.append((draw(st.sampled_from((1, -2))), Monomial([next(names) for _ in exps], exps)))
    form = CoprimeForm(terms)
    namespace = list(draw(st.permutations(form.variables)))
    if draw(st.booleans()):
        namespace.remove(terms[draw(st.integers(0, len(terms) - 1))][1].least_variable)
    namespace.append("y")
    zero, one = CyclotomicNumber.from_rational(0, 1), CyclotomicNumber.from_rational(1, 1)
    dec_terms = []
    for _ in range(rank_coprime_sum(form)):
        linear = tuple(draw(st.sampled_from((zero, one, one))) for _ in namespace)
        dec_terms.append(DecompositionTerm(one, linear, draw(st.integers(0, len(terms) - 1)),
                                           linear))
    return form, PowerSumDecomposition(d, tuple(namespace), tuple(dec_terms))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_least_variable_cases())
def test_least_variable_check_equals_the_term_by_term_check(case):
    form, dec = case
    report = least_variable_check(form, dec)
    entries = _least_variable_entries(form, dec)
    assert list(report.entries) == entries
    assert report.passed == all(ok for *_, ok in entries)
