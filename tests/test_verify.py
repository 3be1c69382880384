"""The verifier against independent oracles: term-by-term `Polynomial`
expansion, which fixes the exact report content (each printed value in the
field of the terms that reach its monomial), and sympy `expand` modulo
sympy's Phi_N."""

import dataclasses
import json
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from reference import poly_pow_linear
from waring import decompose
from waring.cyclotomic import CyclotomicNumber, euler_phi
from waring.decompose import (
    DecompositionTerm,
    PowerSumDecomposition,
    decompose_form,
    least_variable_check,
    verify_decomposition,
)
from waring.forms import CoprimeForm, Monomial, parse_form
from waring.rank import ResourceLimitError, rank_coprime_sum
from waring.serialize import decomposition_from_json, decomposition_to_json
from waring.polynomials import Polynomial, compositions, multinomial

ORDERS = (1, 2, 3, 4, 6, 12)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _monomial_text(variables, exps):
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in zip(variables, exps) if e) or "1"


def _proportional(u, v):
    return all(u[i] * v[j] == u[j] * v[i]
               for i in range(len(u)) for j in range(i + 1, len(u)))


def printed_field(dec, exps):
    """The field Q(zeta_M) a mismatch at x^exps prints in, read off the
    decomposition: M is the lcm of the fields of the terms with a nonzero
    gamma and a nonzero coordinate on every variable of x^exps."""
    return lcm(1, *(lcm(t.gamma.order, *(c.order for c in t.linear if c))
                    for t in dec.terms
                    if t.gamma and all(t.linear[i] for i, a in enumerate(exps) if a)))


def promoted(value, order):
    """An oracle's value (a CyclotomicNumber, or a Fraction 0) in Q(zeta_order),
    which must contain its field."""
    if not isinstance(value, CyclotomicNumber):
        value = CyclotomicNumber.from_rational(value, 1)
    assert order % value.order == 0, (value.order, order)
    return value.promote(order)


def oracle_report(form, dec):
    """The report computed with `Polynomial` arithmetic: the sum of
    poly_pow_linear(L_j, d).scale(gamma_j), minus the form, each mismatch's
    value promoted to its `printed_field`."""
    n = len(dec.variables)
    expansion = Polynomial.zero(n)
    for t in dec.terms:
        expansion = expansion + poly_pow_linear(t.linear, dec.degree).scale(t.gamma)
    target = Polynomial.zero(n)
    for c, m in form.terms:
        exps = [0] * n
        for v, e in zip(m.variables, m.exponents):
            exps[dec.variables.index(v)] = e
        target = target + Polynomial.monomial(exps, c)
    residual = expansion - target
    mismatches = tuple(
        (_monomial_text(dec.variables, e), str(target.coefficient(e)),
         str(promoted(expansion.coefficient(e), printed_field(dec, e))))
        for e in sorted(residual.terms))[:10]
    blocks = {}
    for t in dec.terms:
        blocks.setdefault(t.block, []).append(t.linear)
    dependent = next(((b, i, j) for b, ls in blocks.items()
                      for i in range(len(ls)) for j in range(i + 1, len(ls))
                      if _proportional(ls[i], ls[j])), None)
    return residual.is_zero(), mismatches, dependent


def assert_matches_oracle(form, dec):
    report = verify_decomposition(form, dec)
    expected = oracle_report(form, dec)
    assert (report.expansion_matches, report.mismatches, report.dependent_pair) == expected
    assert report.blocks_independent == (expected[2] is None)
    return report


# -- strategies ---------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
nonzero = rationals.filter(bool)


@st.composite
def cyclotomic(draw, order=None):
    """A general element (every power-basis coordinate a nonzero rational),
    a sparse one (zero coordinates allowed), a rational multiple of a root
    of unity, or zero."""
    order = order or draw(st.sampled_from(ORDERS))
    phi = euler_phi(order)
    kind = draw(st.sampled_from(("general", "sparse", "root", "root", "zero")))
    if kind == "general":
        return CyclotomicNumber(order, draw(st.lists(nonzero, min_size=phi, max_size=phi)))
    if kind == "sparse":
        return CyclotomicNumber(order, draw(st.lists(rationals, min_size=phi, max_size=phi)))
    if kind == "zero":
        return CyclotomicNumber.from_rational(0, order)
    return CyclotomicNumber.zeta(order, draw(st.integers(0, order - 1))) * draw(nonzero)


@st.composite
def problems(draw, max_vars=3, max_degree=4, mixed=True):
    """A random form and a random decomposition over the same variables."""
    n = draw(st.integers(1, max_vars))
    d = draw(st.integers(1, max_degree))
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    exps = draw(st.sampled_from(list(compositions(d, n))))
    mono = Monomial([v for v, e in zip(variables, exps) if e], [e for e in exps if e])
    form = CoprimeForm([(draw(nonzero), mono)], variables)
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        order = None if mixed else draw(st.sampled_from(ORDERS))
        linear = tuple(draw(cyclotomic(order)) for _ in variables)
        terms.append(DecompositionTerm(gamma=draw(cyclotomic(order)), linear=linear,
                                       block=draw(st.integers(0, 1)), point=linear))
    return form, PowerSumDecomposition(d, variables, tuple(terms))


def _repack(dec, terms):
    return dataclasses.replace(dec, terms=tuple(terms))


# -- property tests -------------------------------------------------------------

@SETTINGS
@given(problems())
def test_random_decompositions_match_the_polynomial_oracle(problem):
    assert_matches_oracle(*problem)


@SETTINGS
@given(problems(mixed=False))
def test_single_field_decompositions_match_the_polynomial_oracle(problem):
    assert_matches_oracle(*problem)


@SETTINGS
@given(st.sampled_from(["x1*x2", "x1*x2^2", "x1^2*x2^2", "x1*x2*x3", "2/3*x1*x2^3",
                        "x1 + x2", "x1^2 + x2^2", "x1*x2 - x3^2", "x1*x2^2 + 5*x3^3",
                        "x1^2*x2^2 + x3*x4^3"]),
       st.data())
def test_rewritten_true_decompositions_still_pass(text, data):
    """Rewrite a true decomposition without changing its value: split a
    gamma into general cyclotomic parts on a repeated linear form (which
    also creates a dependent pair), or re-express a term in a larger field.
    The verdict and the report follow the oracle."""
    form = parse_form(text)
    dec = decompose_form(form)
    terms = list(dec.terms)
    j = data.draw(st.integers(0, len(terms) - 1))
    t = terms[j]
    if data.draw(st.booleans()):
        delta = data.draw(cyclotomic(t.gamma.order * data.draw(st.sampled_from((1, 2, 3, 4)))))
        terms[j] = dataclasses.replace(t, gamma=t.gamma - delta)
        terms.insert(j + 1, dataclasses.replace(t, gamma=delta))
    else:
        big = t.gamma.order * data.draw(st.sampled_from((2, 3, 4)))
        terms[j] = dataclasses.replace(
            t, gamma=t.gamma.promote(big), linear=tuple(c.promote(big) for c in t.linear))
    report = assert_matches_oracle(form, _repack(dec, terms))
    assert report.expansion_matches


@SETTINGS
@given(st.sampled_from(["x1*x2^2", "x1*x2*x3", "x1^2*x2^2 + x3*x4^3", "x1 + 2*x2",
                        "x1*x2^3 - x3^4"]),
       st.data())
def test_tampered_decompositions_match_the_oracle(text, data):
    form = parse_form(text)
    dec = decompose_form(form)
    terms = list(dec.terms)
    j = data.draw(st.integers(0, len(terms) - 1))
    t = terms[j]
    if data.draw(st.booleans()):
        terms[j] = dataclasses.replace(t, gamma=data.draw(cyclotomic(t.gamma.order)))
    else:
        k = data.draw(st.integers(0, len(t.linear) - 1))
        linear = list(t.linear)
        linear[k] = data.draw(cyclotomic())
        terms[j] = dataclasses.replace(t, linear=tuple(linear))
    assert_matches_oracle(form, _repack(dec, terms))


def _sympy_mismatches(form, dec):
    """Monomials where sum gamma_j L_j^d - F is nonzero, by sympy: each
    order-o number sum c_k zeta_o^k becomes sum c_k z^(k N/o), and every
    coefficient of the expanded difference is reduced modulo Phi_N(z)."""
    z = sympy.Symbol("z")
    xs = sympy.symbols(dec.variables)
    order = lcm(*(c.order for t in dec.terms for c in (t.gamma, *t.linear)))

    def embed(x):
        step = order // x.order
        return sum(sympy.Rational(c.numerator, c.denominator) * z ** (k * step)
                   for k, c in enumerate(x.coeffs))

    expr = sum((embed(t.gamma) * sum(embed(c) * x for c, x in zip(t.linear, xs)) ** dec.degree
                for t in dec.terms), sympy.Integer(0))
    for c, m in form.terms:
        expr -= sympy.Rational(c.numerator, c.denominator) * sympy.prod(
            xs[dec.variables.index(v)] ** e for v, e in zip(m.variables, m.exponents))
    phi = sympy.cyclotomic_poly(order, z)
    poly = sympy.Poly(sympy.expand(expr), *xs)
    return sorted(exps for exps, coeff in poly.terms()
                  if sympy.rem(coeff, phi, z) != 0)


@settings(SETTINGS, max_examples=30)
@given(problems(max_vars=3, max_degree=4))
def test_expansion_agrees_with_sympy(problem):
    form, dec = problem
    report = verify_decomposition(form, dec)
    bad = _sympy_mismatches(form, dec)
    assert report.expansion_matches == (not bad)
    assert [m[0] for m in report.mismatches] == \
        [_monomial_text(dec.variables, e) for e in bad[:10]]


def test_true_decompositions_agree_with_sympy():
    for text in ("x1*x2^2", "x1*x2*x3", "x1^2*x2^2", "x1*x2^3"):
        form = parse_form(text)
        dec = decompose_form(form)
        assert verify_decomposition(form, dec).expansion_matches
        assert _sympy_mismatches(form, dec) == []


# -- regressions: the field each printed value lives in ---------------------------

def test_mixed_field_mismatches_keep_each_block_field():
    """Blocks in Q(zeta_3) and Q(zeta_4), one gamma per block tampered: each
    mismatch prints in its block's field, not in Q(zeta_12)."""
    form = parse_form("x1^2*x2^2 + x3*x4^3")
    dec = decompose_form(form)
    terms = list(dec.terms)
    for j in (0, 3):
        g = terms[j].gamma
        terms[j] = dataclasses.replace(terms[j], gamma=g + CyclotomicNumber(g.order, ["1/2", "1"]))
    report = verify_decomposition(form, _repack(dec, terms))
    assert not report.expansion_matches
    assert report.mismatches == (
        ("x4^4", "0", "1/2 + z4"),
        ("x3*x4^3", "1", "3 + 4*z4"),
        ("x3^2*x4^2", "0", "3 + 6*z4"),
        ("x3^3*x4", "0", "2 + 4*z4"),
        ("x3^4", "0", "1/2 + z4"),
        ("x2^4", "0", "1/2 + z3"),
        ("x1*x2^3", "0", "2 + 4*z3"),
        ("x1^2*x2^2", "1", "4 + 6*z3"),
        ("x1^3*x2", "0", "2 + 4*z3"),
        ("x1^4", "0", "1/2 + z3"),
    )


def test_a_cancelled_partial_sum_prints_in_the_lcm_field():
    """1 (in Q(zeta_4)) and -1 (in Q) cancel at x1^2, leaving the third
    term's z3; the value printed there is in Q(zeta_12), the field of the
    three terms that reach x1^2, whatever their order: z3 = z12^4, which is
    -1 + z12^2 modulo Phi_12 = t^4 - t^2 + 1."""
    one4, one1 = CyclotomicNumber(4, [1]), CyclotomicNumber(1, [1])

    def term(gamma, linear):
        return DecompositionTerm(gamma=gamma, linear=linear, block=0, point=linear)

    dec = PowerSumDecomposition(2, ("x1", "x2"), (
        term(CyclotomicNumber(4, [1]), (one4, one4)),
        term(CyclotomicNumber(1, [-1]), (one1, one1)),
        term(CyclotomicNumber(3, [0, 1]),
             (CyclotomicNumber(3, [1]), CyclotomicNumber(3, [0]))),
    ))
    report = assert_matches_oracle(parse_form("x1*x2"), dec)
    assert report.mismatches == (("x1*x2", "1", "0"), ("x1^2", "0", "-1 + z12^2"))
    assert report.dependent_pair == (0, 0, 1)


def test_blocks_in_different_fields_are_reduced_in_their_own_fields(monkeypatch):
    """Four blocks re-expressed over Q(zeta_14), Q(zeta_22), Q(zeta_26) and
    Q(zeta_34): every monomial is checked in its own block's field, never
    in the lcm field Q(zeta_34034)."""
    from waring import cyclotomic
    real_phi = cyclotomic.euler_phi

    def small_fields_only(n):
        assert n <= 34, f"reduced in Q(zeta_{n})"
        return real_phi(n)

    form = parse_form("x1*x2 + x3*x4 + x5*x6 - 3*x7*x8")
    dec = decompose_form(form)
    orders = {0: 14, 1: 22, 2: 26, 3: 34}
    terms = [dataclasses.replace(t, gamma=t.gamma.promote(orders[t.block]),
                                 linear=tuple(c.promote(orders[t.block]) for c in t.linear))
             for t in dec.terms]
    tampered = terms[-1].gamma + CyclotomicNumber(34, [0, 1])
    monkeypatch.setattr(cyclotomic, "euler_phi", small_fields_only)
    assert verify_decomposition(form, _repack(dec, terms)).passed
    terms[-1] = dataclasses.replace(terms[-1], gamma=tampered)
    report = assert_matches_oracle(form, _repack(dec, terms))
    assert [m[0] for m in report.mismatches] == ["x8^2", "x7*x8", "x7^2"]


# -- the residue-class path: cyclic terms ---------------------------------------
#
# A term is cyclic when every nonzero coordinate is a rational times a root
# of unity.  Verification sums those by residue class (one member per power
# of the gamma) and finds dependent pairs by key; the oracle above expands
# term by term and tests every pair of forms by its minors.

moduli = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2),
                          Fraction(1, 3)])


def _root(order, k, q=1):
    """q * zeta_order^k."""
    return CyclotomicNumber.zeta(order, k) * q


def _term(gamma, linear, block=0):
    return DecompositionTerm(gamma=gamma, linear=tuple(linear), block=block,
                             point=tuple(linear))


@st.composite
def cyclic_problems(draw):
    """A random form and a decomposition of mostly cyclic terms.  Terms are
    drawn from one to three shapes (order, support, moduli), so several
    share a residue-class group and groups meet at monomials; moduli other
    than +-1; coordinates negated (a folded root -zeta^k, in odd and even
    orders); zero gammas; later terms that repeat an earlier form times a
    cyclic scalar, possibly in a larger field (dependent pairs, mixed
    orders in a block); and at most one general number."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    exps = draw(st.sampled_from(list(compositions(d, n))))
    mono = Monomial([v for v, e in zip(variables, exps) if e], [e for e in exps if e])
    form = CoprimeForm([(draw(nonzero), mono)], variables)
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.sets(st.integers(0, n - 1), min_size=1))
        shapes.append((draw(st.sampled_from((1, 2, 3, 4, 5, 6))), support,
                       [draw(moduli) for _ in variables]))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        block = draw(st.integers(0, 1))
        if terms and draw(st.integers(0, 3)) == 0:
            old = draw(st.sampled_from(terms))
            order = old.gamma.order * draw(st.sampled_from((1, 2, 3)))
            lam = _root(order, draw(st.integers(0, order - 1)), draw(moduli))
            linear = [c * lam for c in old.linear]
        else:
            order, support, qs = draw(st.sampled_from(shapes))
            linear = [_root(order, draw(st.integers(0, order - 1)),
                            q * draw(st.sampled_from((1, 1, -1))))
                      if i in support else CyclotomicNumber.from_rational(0, order)
                      for i, q in enumerate(qs)]
        gamma = _root(order, draw(st.integers(0, order - 1)), draw(moduli)) \
            if draw(st.integers(0, 4)) else CyclotomicNumber.from_rational(0, order)
        terms.append(_term(gamma, linear, block))
    if draw(st.integers(0, 2)) == 0:
        j = draw(st.integers(0, len(terms) - 1))
        t = terms[j]
        general = draw(cyclotomic(t.gamma.order))
        if draw(st.booleans()):
            terms[j] = dataclasses.replace(t, gamma=general)
        else:
            k = draw(st.integers(0, n - 1))
            terms[j] = dataclasses.replace(
                t, linear=t.linear[:k] + (general,) + t.linear[k + 1:])
    return form, PowerSumDecomposition(d, variables, tuple(terms))


@SETTINGS
@given(cyclic_problems())
def test_cyclic_decompositions_match_the_oracle(problem):
    assert_matches_oracle(*problem)


@SETTINGS
@given(st.sampled_from(["x1*x2^2", "x1^2*x2^2", "x1*x2*x3", "2/3*x1*x2^3", "x1^3",
                        "x1*x2^2 + 5*x3^3", "x1^2*x2^2 + x3*x4^3", "x1*x2^4 - x3^2*x4^3"]),
       st.data())
def test_rescaled_true_decompositions_match_the_oracle(text, data):
    """Rescale terms of a true decomposition by cyclic scalars,
    L -> lam * L and gamma -> gamma / lam^d, which keeps every term cyclic
    and the sum unchanged: moduli other than +-1, folded signs, and orders
    mixed within a block.  Then add a cancelling pair (a dependent pair), a
    zero-gamma term, a zero form, or a general number added to one gamma."""
    form = parse_form(text)
    dec = decompose_form(form)
    d = dec.degree
    terms = list(dec.terms)
    for j, t in enumerate(terms):
        if data.draw(st.booleans()):
            order = t.gamma.order * data.draw(st.sampled_from((1, 2, 3)))
            k = data.draw(st.integers(0, order - 1))
            q = data.draw(moduli)
            terms[j] = dataclasses.replace(
                t, gamma=t.gamma * _root(order, -k * d, 1 / q ** d),
                linear=tuple(c * _root(order, k, q) for c in t.linear))
    extra = data.draw(st.sampled_from(("none", "pair", "zero gamma", "zero form", "general")))
    j = data.draw(st.integers(0, len(terms) - 1))
    t = terms[j]
    if extra == "pair":
        g = _root(t.gamma.order, data.draw(st.integers(0, 5)), data.draw(moduli))
        terms[j + 1:j + 1] = [dataclasses.replace(t, gamma=g), dataclasses.replace(t, gamma=-g)]
    elif extra == "zero gamma":
        terms.insert(j, dataclasses.replace(t, gamma=t.gamma * 0))
    elif extra == "zero form":
        terms.insert(j, dataclasses.replace(t, linear=tuple(c * 0 for c in t.linear)))
    elif extra == "general":
        delta = data.draw(cyclotomic(t.gamma.order).filter(bool))
        terms[j] = dataclasses.replace(t, gamma=t.gamma + delta)
    report = assert_matches_oracle(form, _repack(dec, terms))
    assert report.expansion_matches == (extra != "general")


def test_a_true_grid_block_adds_nothing_off_its_monomial():
    """Each residue class of the grid x1*x2^2*x3^3 but that of the monomial
    itself sums to zero, so the residual holds that one monomial only."""
    form = parse_form("x1*x2^2*x3^3")
    dec = decompose_form(form)
    plan = decompose._lift(dec, [Fraction(1)])
    residual = decompose._residual({(1, 2, 3): Fraction(1)}, plan, 3)
    assert list(residual) == [(1, 2, 3)]
    assert decompose._vanishes(residual[(1, 2, 3)])


def test_the_first_dependent_pair_is_the_first_in_loop_order():
    """Forms A, B, 2B, -A: the pair (0, 3) comes before (1, 2)."""
    a = (_root(6, 0), _root(6, 1, 2))
    b = (_root(6, 0), _root(6, 5, -1))
    dec = PowerSumDecomposition(2, ("x1", "x2"), (
        _term(_root(6, 1), a), _term(_root(6, 2), b),
        _term(_root(6, 3), [c * 2 for c in b]), _term(_root(6, 4), [-c for c in a])))
    report = assert_matches_oracle(parse_form("x1*x2"), dec)
    assert report.dependent_pair == (0, 0, 3)


def test_a_negated_coordinate_is_a_half_turn():
    """x1 + x2 and x1 - x2 are independent, x1 - x2 and -x1 + x2 are not;
    in Q(zeta_3), -zeta_3 is no power of zeta_3 and stays a sign, while
    Q(zeta_6) writes the same form with -1 = zeta_6^3."""
    one, minus = _root(1, 0), _root(1, 0, -1)
    rational = [(one, one), (one, minus), (minus, one)]
    mixed = [(_root(3, 0), _root(3, 1)), (_root(3, 0), _root(3, 1, -1)),
             (_root(6, 3), _root(6, 2))]
    for forms in (rational, mixed):
        dec = PowerSumDecomposition(2, ("x1", "x2"), tuple(_term(one, f) for f in forms))
        assert assert_matches_oracle(parse_form("x1*x2"), dec).dependent_pair == (0, 1, 2)


def test_fields_meeting_above_the_cap_are_refused_before_they_are_built(monkeypatch):
    """Q(zeta_25) and Q(zeta_49) meet at x1^2 in Q(zeta_1225)."""
    from waring import cyclotomic
    real_phi = cyclotomic.euler_phi

    def small_fields_only(n):
        assert n <= decompose.MAX_FIELD_ORDER, f"built Q(zeta_{n})"
        return real_phi(n)

    one25, one49 = _root(25, 0), _root(49, 0)
    monkeypatch.setattr(cyclotomic, "euler_phi", small_fields_only)
    for terms in ([_term(one25, [one25]), _term(one49, [one49])],
                  [_term(one25, [one49])]):
        with pytest.raises(ResourceLimitError, match="1225"):
            verify_decomposition(parse_form("x1^2"),
                                 PowerSumDecomposition(2, ("x1",), tuple(terms)))


# -- rank against the verified decomposition ------------------------------------

@st.composite
def coprime_sums(draw):
    """A sum of one to three pairwise coprime monomials of one degree d <= 5,
    each with positive exponents on one to three variables of its own."""
    d = draw(st.integers(1, 5))
    terms, names = [], iter(f"x{i}" for i in range(1, 10))
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.sampled_from([c for k in (1, 2, 3)
                                     for c in compositions(d, k) if all(c)]))
        terms.append((draw(nonzero), Monomial([next(names) for _ in exps], list(exps))))
    return CoprimeForm(terms)


@settings(SETTINGS, max_examples=40)
@given(coprime_sums())
def test_rank_equals_the_length_of_a_verified_decomposition(form):
    dec = decompose_form(form)
    assert len(dec.terms) == rank_coprime_sum(form)
    for candidate in (dec, decomposition_from_json(decomposition_to_json(dec))):
        assert verify_decomposition(form, candidate).passed
        assert least_variable_check(form, candidate).passed


def _steps_at_cap(monkeypatch, form, dec, steps):
    """Verification runs with the step cap at `steps` and is refused, before
    any expansion, with the cap one lower."""
    monkeypatch.setattr(decompose, "MAX_VERIFY_STEPS", steps)
    report = verify_decomposition(form, dec)
    monkeypatch.setattr(decompose, "MAX_VERIFY_STEPS", steps - 1)
    monkeypatch.setattr(decompose, "_powers", None)    # any expansion would fail
    with pytest.raises(ResourceLimitError, match="step cap"):
        verify_decomposition(form, dec)
    return report


def test_the_largest_decompose_block_is_under_the_verify_step_cap(monkeypatch):
    """x1*...*x9: 256 cyclic terms in one group take C(17, 8) = 24310
    compositions and 256 members times 2^8 classes, 65,536 class sums at 40
    to a step, and its pairs are tested in one pass, not one by one."""
    form = parse_form("*".join(f"x{i}" for i in range(1, 10)))
    dec = decompose_form(form)
    assert 24310 + 65536 // 40 + 1 == 25949 <= decompose.MAX_VERIFY_STEPS
    assert _steps_at_cap(monkeypatch, form, dec, 25949).passed


def test_a_block_with_a_general_form_counts_its_pairs(monkeypatch):
    """x1*x2^2 has three cyclic terms in one group: C(4, 1) = 4 compositions
    and 3 members in 3 classes, one step of class sums.  With one linear form
    made general, the other two still form that group (4 + 1), the general
    term adds its own 4 compositions, and the block its 3 pairs."""
    form = parse_form("x1*x2^2")
    dec = decompose_form(form)
    assert _steps_at_cap(monkeypatch, form, dec, 4 + 1).passed
    monkeypatch.undo()
    terms = list(dec.terms)
    linear = list(terms[0].linear)
    linear[1] = linear[1] + CyclotomicNumber(3, ["1/2", "1"])
    terms[0] = dataclasses.replace(terms[0], linear=tuple(linear))
    tampered = dataclasses.replace(dec, terms=tuple(terms))
    with mock.patch.object(decompose, "_is_closed_form", return_value=False):
        assert not _steps_at_cap(monkeypatch, form, tampered, 4 + 1 + 4 + 3).passed


def test_a_wide_block_with_a_general_form_counts_only_the_pairs_it_tests(monkeypatch):
    """x1*...*x9 with one linear form made general: its other 255 terms still
    form one group (C(17, 8) = 24310 compositions, 255 * 2^8 class sums),
    the general term adds its own 24310 compositions, and the block n k = 256
    pairs for its k = 1 general form of n = 256, not all 32,640."""
    form = parse_form("*".join(f"x{i}" for i in range(1, 10)))
    dec = decompose_form(form)
    terms = list(dec.terms)
    linear = list(terms[0].linear)
    linear[1] = linear[1] + CyclotomicNumber(3, ["1/2", "1"])
    terms[0] = dataclasses.replace(terms[0], linear=tuple(linear))
    tampered = dataclasses.replace(dec, terms=tuple(terms))
    steps = 24310 + 255 * 256 // 40 + 24310 + 256
    with mock.patch.object(decompose, "_is_closed_form", return_value=False):
        assert not _steps_at_cap(monkeypatch, form, tampered, steps).passed


def _one_general_form(text):
    """The form and its decomposition with the x2 coordinate of term 0 made
    general: a near-closed file that differs from the closed form in one
    term."""
    form = parse_form(text)
    dec = decompose_form(form)
    terms = list(dec.terms)
    linear = list(terms[0].linear)
    linear[1] = linear[1] + CyclotomicNumber(3, ["1/2", "1"])
    terms[0] = dataclasses.replace(terms[0], linear=tuple(linear))
    return form, dataclasses.replace(dec, terms=tuple(terms))


def test_a_near_closed_file_is_priced_by_the_terms_it_expands(monkeypatch):
    """The files of the two tests above differ from the closed form in one
    term, so verify expands that term and its closed-form counterpart, 2 of
    the block's n terms: x1*x2^2 at 4 + 1 (the counterpart's group of one
    member in one class) + 4 (the general term) + 1 pair = 10 steps,
    x1*...*x9 at 24310 + 1 + 24310 + 1 = 48,622, where the flat check
    prices 12 and 50,508."""
    for text, steps in (("x1*x2^2", 4 + 1 + 4 + 1),
                        ("*".join(f"x{i}" for i in range(1, 10)), 24310 + 1 + 24310 + 1)):
        form, tampered = _one_general_form(text)
        with mock.patch.object(decompose, "_lift", wraps=decompose._lift) as lift:
            report = _steps_at_cap(monkeypatch, form, tampered, steps)
        assert len(lift.call_args_list[0].args[0].terms) == 2
        assert not report.passed and report.blocks_independent
        monkeypatch.undo()
        with mock.patch.object(decompose, "_is_closed_form", return_value=False):
            assert verify_decomposition(form, tampered) == report


def test_the_check_stops_at_the_tenth_mismatch(monkeypatch):
    """The residual is computed one monomial at a time in sorted order, so
    the flat check of a reversed x1*x2^4*x3^6 file with one gamma changed,
    whose every monomial then mismatches, computes 10 of its 78 monomials,
    the first ten of the full residual in sorted order."""
    form = parse_form("x1*x2^4*x3^6")
    dec = decompose_form(form)
    terms = list(reversed(dec.terms))
    terms[0] = dataclasses.replace(terms[0], gamma=terms[0].gamma + 1)
    tampered = dataclasses.replace(dec, terms=tuple(terms))
    plan = decompose._lift(tampered, [Fraction(1)])
    full = decompose._residual({(1, 4, 6): Fraction(1)}, plan, 3)
    assert len(full) == 78 and not any(map(decompose._vanishes, full.values()))
    computed, residuals = [], decompose._residuals

    def counted(*args):
        for exps, value in residuals(*args):
            computed.append(exps)
            yield exps, value

    monkeypatch.setattr(decompose, "_residuals", counted)
    report = verify_decomposition(form, tampered)
    assert computed == sorted(full)[:10]
    assert [text for text, _, _ in report.mismatches] == [
        _monomial_text(dec.variables, exps) for exps in computed]


def _grid(e):
    """The closed-form grid decomposition of x1*x2^e*x3^e, built without a
    solve: the points (1, z^j, z^k), z = zeta_(e+1), with the gammas
    z^(j+k) / (multinomial(2e+1; 1, e, e) * (e+1)^2)."""
    n = e + 1
    scale = Fraction(1, multinomial(2 * e + 1, (1, e, e)) * n * n)
    return PowerSumDecomposition(2 * e + 1, ("x1", "x2", "x3"), tuple(
        _term(_root(n, j + k, scale), (_root(n, 0), _root(n, j), _root(n, k)))
        for j in range(n) for k in range(n)))


def test_class_sums_are_priced_before_any_expansion():
    """The closed-form file of x1*x2^39*x3^39 (1,600 terms) is priced at
    3,240 compositions and 1,600 * 1,600 class sums, and passes; that of
    x1*x2^99*x3^99 (10,000 terms: 20,100 compositions and 10^8 class sums,
    27.6 s if admitted on a 2-vCPU VM) is refused in well under a second."""
    assert _grid(4).terms == decompose_form(parse_form("x1*x2^4*x3^4")).terms
    small = _grid(39)
    assert decompose._lift(small, [Fraction(1)]).steps == 3240 + 1600 ** 2 // 40
    assert verify_decomposition(parse_form("x1*x2^39*x3^39"), small).passed
    large = _grid(99)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"2\.5e\+06 steps .* step cap 1e\+06"):
        verify_decomposition(parse_form("x1*x2^99*x3^99"), large)
    assert time.perf_counter() - start < 1


def _with_a_cancelling_general_pair(e):
    """The closed-form grid of x1*x2^e*x3^e plus the terms g * (g L_5)^d and
    -g * (g L_5)^d, g a general number of Q(zeta_(e+1)): the expansion still
    matches, and both added terms are general."""
    dec = _grid(e)
    g = CyclotomicNumber(e + 1, [Fraction((-1) ** i * (i % 9 + 1), i % 5 + 1)
                                 for i in range(euler_phi(e + 1))])
    linear = tuple(g * c for c in dec.terms[5].linear)
    return dataclasses.replace(dec, terms=dec.terms + (_term(g, linear), _term(-g, linear)))


def test_a_general_term_is_priced_by_the_products_it_multiplies(monkeypatch):
    """Each composition of a general term multiplies its gamma's lift by one
    power row per coordinate (`decompose._products`).  With x1*x2^39*x3^39
    (d = 79, Q(zeta_40)), a 16-entry gamma lift times three rows of up to
    40 powers is at most 16 * 40 + 2 * 40 * 40 = 3,840 products, so each of
    the pair's 2 * C(81, 2) = 6,480 compositions counts 1 + 3840 // 50 = 77
    steps.  The file is priced 569,404 steps, 6.8 s at the cap's 12 us a
    step, and took 7.3-9.0 s to verify on a 2-vCPU VM: within twice its
    run.  On the smaller x1*x2^12*x3^12, the products the check multiplies
    stay under that bound."""
    form, dec = parse_form("x1*x2^39*x3^39"), _with_a_cancelling_general_pair(39)
    plan = decompose._lift(dec, [Fraction(1)])
    assert [decompose._products(*term) for term in plan.general] == [3840, 3840]
    assert plan.steps == 67240 + 2 * 3240 * 77 + 2 * 1602 == 569404
    assert 7.3 / 2 <= plan.steps * 12e-6 <= 9.0 * 2
    assert plan.steps <= decompose.MAX_VERIFY_STEPS
    form, dec = parse_form("x1*x2^12*x3^12"), _with_a_cancelling_general_pair(12)
    plan = decompose._lift(dec, [Fraction(1)])
    counted, multiply = [0], decompose.cyclic_mul

    def counting(a, b, order):
        counted[0] += len(a) * len(b)
        return multiply(a, b, order)

    monkeypatch.setattr(decompose, "cyclic_mul", counting)
    report = verify_decomposition(form, dec)
    assert report.expansion_matches and not report.term_count_matches
    assert 0 < counted[0] <= sum(decompose._products(*term) for term in plan.general) * 351


def test_the_closed_form_of_a_large_grid_passes_without_expansion(monkeypatch):
    """The closed-form file of x1*x2^76*x3^76 (5,929 terms in Q(zeta_77),
    priced 890,762 steps, under the cap) is the paper's closed form, so it
    passes in well under a second with no expansion, which takes 7-10 s."""
    form, dec = parse_form("x1*x2^76*x3^76"), _grid(76)
    assert decompose._grid_price(form, 3) == (77, 890762)
    monkeypatch.setattr(decompose, "_lift", None)    # any expansion would fail
    start = time.perf_counter()
    assert verify_decomposition(form, dec).passed
    assert time.perf_counter() - start < 1


# -- each exact step once, against the step-by-step oracles ---------------------

@st.composite
def dependence_blocks(draw):
    """Two to eight linear forms in up to three variables: cyclic forms,
    cyclic multiples of earlier ones (possibly in a larger field), general
    multiples lam * v of earlier forms (dependent, but no longer cyclic),
    general forms and zero forms."""
    n = draw(st.integers(1, 3))
    forms = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(("cyclic", "cyclic", "copy", "multiple",
                                     "general", "zero")))
        if kind in ("copy", "multiple") and forms:
            old = draw(st.sampled_from(forms))
            if kind == "copy":
                order = max(c.order for c in old) * draw(st.sampled_from((1, 2, 3)))
                lam = _root(order, draw(st.integers(0, order - 1)), draw(moduli))
            else:
                lam = draw(cyclotomic().filter(bool))
            forms.append([c * lam for c in old])
        elif kind == "general":
            forms.append([draw(cyclotomic()) for _ in range(n)])
        elif kind == "zero":
            forms.append([CyclotomicNumber.from_rational(0, 1)] * n)
        else:
            order = draw(st.sampled_from(ORDERS))
            forms.append([_root(order, draw(st.integers(0, order - 1)), draw(moduli))
                          if draw(st.integers(0, 3)) else CyclotomicNumber.from_rational(0, 1)
                          for _ in range(n)])
    return PowerSumDecomposition(
        1, tuple(f"x{i}" for i in range(1, n + 1)),
        tuple(_term(_root(1, 0), linear) for linear in forms))


@SETTINGS
@given(dependence_blocks())
def test_the_first_dependent_pair_equals_the_all_pairs_scan(dec):
    """Pairs of cyclic forms are matched by key; every pair with a zero or
    general form is tested by its minors.  The first pair in loop order is
    the one that testing every pair by its minors finds."""
    plan = decompose._lift(dec, [Fraction(1)])
    forms = [(order, bases) for order, _, bases in plan.lifted]
    assert decompose._first_dependent_pair(plan, plan.blocks[0]) == \
        reference.first_dependent_pair(forms, decompose._dependent)


def test_a_general_multiple_of_a_cyclic_form_is_found_dependent():
    """(1 + 2 z3) * (x1 + z3 x2) is not cyclic, but dependent on x1 + z3 x2."""
    v = [_root(3, 0), _root(3, 1)]
    lam = CyclotomicNumber(3, [1, 2])
    w = [_root(6, 0), _root(6, 5)]
    dec = PowerSumDecomposition(1, ("x1", "x2"), tuple(
        _term(_root(1, 0), linear) for linear in (w, v, [c * lam for c in v])))
    plan = decompose._lift(dec, [Fraction(1)])
    assert decompose._first_dependent_pair(plan, plan.blocks[0]) == (1, 2)


@st.composite
def mixed_field_decompositions(draw):
    """A true decomposition with its terms re-expressed in larger fields,
    rescaled by roots of unity, tampered with general numbers, and with
    cancelling pairs g L^d, -g L^d inserted whose two gammas lie in
    different fields, so partial sums vanish and restart in other fields."""
    form = parse_form(draw(st.sampled_from(
        ["x1*x2", "x1*x2^2", "x1^2*x2^2", "x1*x2*x3", "x1*x2 + x3^2",
         "x1*x2^2 - 2*x3*x4^2", "x1 + 2*x2"])))
    dec = decompose_form(form)
    d = dec.degree
    terms = []
    for t in dec.terms:
        kind = draw(st.sampled_from(("keep", "promote", "rescale", "tamper", "pair")))
        order = t.gamma.order * draw(st.sampled_from((1, 2, 3, 4)))
        if kind == "promote":
            t = dataclasses.replace(t, gamma=t.gamma.promote(order),
                                    linear=tuple(c.promote(order) if c else c
                                                 for c in t.linear))
        elif kind == "rescale":
            k = draw(st.integers(0, order - 1))
            t = dataclasses.replace(t, gamma=t.gamma * _root(order, -k * d),
                                    linear=tuple(c * _root(order, k) for c in t.linear))
        elif kind == "tamper":
            t = dataclasses.replace(t, gamma=t.gamma + draw(cyclotomic(order)))
        elif kind == "pair":
            g = draw(cyclotomic(draw(st.sampled_from(ORDERS))).filter(bool))
            other = order * draw(st.sampled_from((1, 2, 3)))
            terms.append(dataclasses.replace(t, gamma=g))
            terms.append(dataclasses.replace(t, gamma=-g.promote(lcm(g.order, other))))
        terms.insert(draw(st.integers(0, len(terms))), t)
    return form, _repack(dec, terms)


@SETTINGS
@given(mixed_field_decompositions())
def test_each_field_run_reduced_once_equals_the_term_by_term_sum(problem):
    """The coefficient at every monomial of degree d, read off the residual
    and reduced once in its printed field: the value of reducing and
    promoting term by term, printed in that field."""
    form, dec = problem
    _assert_read_off_the_residual(_target(form, dec), dec, every_monomial=True)


# -- integer angle keys and index shifts ----------------------------------------

@st.composite
def root_multiple_blocks(draw):
    """Two to eight cyclic forms in two or three variables over Q(zeta_3),
    Q(zeta_6) and Q(zeta_12): fresh ones, with moduli of either sign, and
    earlier ones times a root of unity or a negative rational, so equal
    forms up to a scalar meet in different fields."""
    n = draw(st.integers(2, 3))
    forms = []
    for _ in range(draw(st.integers(2, 8))):
        order = draw(st.sampled_from((3, 6, 12)))
        if forms and draw(st.booleans()):
            old = draw(st.sampled_from(forms))
            lam = draw(st.one_of(st.builds(_root, st.just(order), st.integers(0, order - 1)),
                                 st.sampled_from((Fraction(-1), Fraction(-3, 2)))))
            forms.append([c * lam for c in old])
        else:
            coords = [_root(order, draw(st.integers(0, order - 1)), draw(moduli))
                      if draw(st.integers(0, 4)) else CyclotomicNumber.from_rational(0, order)
                      for _ in range(n)]
            forms.append(coords if any(coords) else [_root(order, 0)] + coords[1:])
    return PowerSumDecomposition(
        1, tuple(f"x{i}" for i in range(1, n + 1)),
        tuple(_term(_root(1, 0), linear) for linear in forms))


@SETTINGS
@given(root_multiple_blocks())
def test_angle_keys_find_the_pairs_the_minors_find(dec):
    """Forms of Q(zeta_3), Q(zeta_6) and Q(zeta_12) equal up to a root or a
    negative scalar: two keys are equal iff the minors vanish, and the first
    dependent pair is the all-pairs scan's."""
    plan = decompose._lift(dec, [Fraction(1)])
    forms = [(order, bases) for order, _, bases in plan.lifted]
    turn = 2 * lcm(*(order for order, _ in forms))
    keys = [decompose._ratio_key(*form, powers, turn)
            for form, powers in zip(forms, plan.powers)]
    assert None not in keys
    for i, u in enumerate(forms):
        for j in range(i + 1, len(forms)):
            assert (keys[i] == keys[j]) == decompose._dependent(u, forms[j]), (i, j)
    assert decompose._first_dependent_pair(plan, plan.blocks[0]) == \
        reference.first_dependent_pair(forms, decompose._dependent)


@st.composite
def negative_single_power_decompositions(draw):
    """Terms whose coordinates are q zeta_N^k with q < 0 (or zero), in odd
    orders, where the lift keeps the sign, and even ones, where it becomes a
    half turn; gammas of every kind; and at most one general coordinate."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.sampled_from((3, 5, 4, 6, 12)))
        linear = [_root(order, draw(st.integers(0, order - 1)),
                        -draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(3, 2)))))
                  if draw(st.integers(0, 3)) else CyclotomicNumber.from_rational(0, order)
                  for _ in range(n)]
        terms.append(_term(draw(cyclotomic(order)), linear))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(terms) - 1))
        linear = list(terms[j].linear)
        linear[0] = draw(cyclotomic(terms[j].gamma.order))
        terms[j] = _term(terms[j].gamma, linear)
    return PowerSumDecomposition(d, tuple(f"x{i}" for i in range(1, n + 1)), tuple(terms))


@SETTINGS
@given(negative_single_power_decompositions())
def test_index_shifts_give_the_term_by_term_coefficient(dec):
    """A term of single powers q_i t^(k_i) adds its gamma shifted and scaled:
    the value at every monomial is that of multiplying out, printed in the
    field of the terms that reach it."""
    _assert_read_off_the_residual({}, dec, every_monomial=True)


# -- mismatch values read off the residual ---------------------------------------

def _target(form, dec):
    """The form's coefficients keyed by exponent tuples of dec's namespace."""
    target = {}
    for c, m in form.terms:
        exps = [0] * len(dec.variables)
        for v, e in zip(m.variables, m.exponents):
            exps[dec.variables.index(v)] = e
        target[tuple(exps)] = c
    return target


@st.composite
def tampered_decompositions(draw):
    """A true decomposition with one gamma or one linear coordinate replaced
    by a drawn number, over forms with blocks of order 1 (x3^4, x1 + 2*x2)."""
    form = parse_form(draw(st.sampled_from(
        ["x1*x2^2", "x1*x2*x3", "x1^2*x2^2 + x3*x4^3", "x1 + 2*x2", "x1*x2^3 - x3^4",
         "x1*x2 - 1/2*x3^2"])))
    dec = decompose_form(form)
    terms = list(dec.terms)
    j = draw(st.integers(0, len(terms) - 1))
    t = terms[j]
    if draw(st.booleans()):
        terms[j] = dataclasses.replace(t, gamma=draw(cyclotomic(t.gamma.order)))
    else:
        k = draw(st.integers(0, len(t.linear) - 1))
        linear = list(t.linear)
        linear[k] = draw(cyclotomic())
        terms[j] = dataclasses.replace(t, linear=tuple(linear))
    return form, _repack(dec, terms)


@st.composite
def wrong_degree_problems(draw):
    """A random decomposition against a form of another degree."""
    _, dec = draw(problems())
    e = draw(st.integers(1, 5).filter(lambda e: e != dec.degree))
    exps = draw(st.sampled_from(list(compositions(e, len(dec.variables)))))
    mono = Monomial([v for v, a in zip(dec.variables, exps) if a], [a for a in exps if a])
    return CoprimeForm([(draw(nonzero), mono)], dec.variables), dec


def _assert_read_off_the_residual(target, dec, every_monomial=False):
    """At every monomial of the residual (or of degree d), the value
    `_printed` reads off it is `reference.coefficient`'s term-by-term sum
    promoted to `printed_field`, in exact text and field; a monomial of
    degree d that the residual lacks has coefficient 0."""
    plan = decompose._lift(dec, target.values())
    residual = decompose._residual(target, plan, len(dec.variables))
    monomials = compositions(dec.degree, len(dec.variables)) if every_monomial else residual
    for exps in monomials:
        want = reference.coefficient(dec, plan.lifted, plan.scale, exps)
        if exps not in residual:
            assert not want, exps
            continue
        got = decompose._printed(plan, residual, target, exps)
        want = promoted(want, printed_field(dec, exps))
        assert (got.order, str(got)) == (want.order, str(want)), exps


@SETTINGS
@given(st.one_of(problems(), problems(mixed=False), cyclic_problems(),
                 mixed_field_decompositions(), tampered_decompositions(),
                 wrong_degree_problems()))
def test_residual_reads_give_the_term_by_term_coefficient(problem):
    """At every monomial of the residual, the printed value read off it is
    the terms added up one by one, in the field of the terms that reach it."""
    form, dec = problem
    _assert_read_off_the_residual(_target(form, dec), dec)


@settings(SETTINGS, max_examples=300)
@given(st.one_of(problems(), mixed_field_decompositions()), st.data())
def test_shuffled_terms_print_the_same_mismatches(problem, data):
    """The field a mismatch prints in depends on which terms reach it, not
    on their order."""
    form, dec = problem
    shuffled = _repack(dec, data.draw(st.permutations(dec.terms)))
    assert verify_decomposition(form, shuffled).mismatches == \
        verify_decomposition(form, dec).mismatches


def test_an_order_one_mismatch_adds_the_target_back():
    """x3^2 of x1*x2 - 1/2*x3^2 is one rational term, whose residual also
    holds D/2: its gamma doubled prints -1, not the residual's -1/2."""
    form = parse_form("x1*x2 - 1/2*x3^2")
    dec = decompose_form(form)
    terms = list(dec.terms)
    terms[-1] = dataclasses.replace(terms[-1], gamma=terms[-1].gamma * 2)
    report = assert_matches_oracle(form, _repack(dec, terms))
    assert report.mismatches == (("x3^2", "-1/2", "-1"),)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_reverify_files(tmp_path, seed=1, max_degree=5):
    """(form, decomposition, tampered term index or None) per reverify file
    of the benchmark, up to max_degree."""
    sys.path.insert(0, str(BENCH))
    try:
        import workload
    finally:
        sys.path.remove(str(BENCH))
    for job in workload.reverify_jobs(seed, str(tmp_path)):
        if job.expect["form"].degree <= max_degree:
            dec = decomposition_from_json(json.loads(Path(job.argv[2]).read_text()))
            change = job.expect["tampered"]
            yield parse_form(job.argv[1]), dec, change and int(change.split("[")[1][:-1])


def test_bench_mismatches_print_the_oracle_value_in_either_field(tmp_path):
    """The benchmark's reverify files (closed-form decompositions, a quarter
    with one gamma or linear coordinate made a general number) print what
    the oracle prints.  With the tampered term re-expressed in twice its
    field, the same monomials mismatch, and some of them, reached by terms
    of both fields, print in twice the field, as the oracle does."""
    failed = changed = 0
    for form, dec, j in _bench_reverify_files(tmp_path):
        report = assert_matches_oracle(form, dec)
        assert report.expansion_matches == (j is None)
        if j is None:
            continue
        failed += 1
        t = dec.terms[j]
        big = 2 * t.gamma.order
        terms = list(dec.terms)
        terms[j] = dataclasses.replace(t, gamma=t.gamma.promote(big),
                                       linear=tuple(c.promote(big) for c in t.linear))
        again = assert_matches_oracle(form, _repack(dec, terms))
        assert [m[:2] for m in again.mismatches] == [m[:2] for m in report.mismatches]
        changed += sum(a != b for a, b in zip(again.mismatches, report.mismatches))
    assert failed and changed
