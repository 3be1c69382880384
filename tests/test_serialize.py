import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from waring.cyclotomic import CyclotomicNumber, _normalised, cyclotomic_embed, fraction_text
from waring.decompose import (
    MAX_FIELD_ORDER,
    DecompositionTerm,
    PowerSumDecomposition,
    decompose_form,
    verify_decomposition,
)
from waring.forms import CoprimeForm, Monomial, parse_form
from waring.rank import ResourceLimitError
from waring.serialize import (
    cyclo_from_json,
    cyclo_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dumps,
    fraction_to_str,
    pretty_decomposition,
    pretty_linear,
)


def test_fraction_strings():
    assert fraction_to_str(Fraction(3, 2)) == "3/2"
    assert fraction_to_str(Fraction(-4)) == "-4"
    assert Fraction(fraction_to_str(Fraction(22, 7))) == Fraction(22, 7)


def test_cyclo_round_trip():
    z12 = cyclotomic_embed(12, 5, 12)
    x = z12 / 3 + 2
    assert cyclo_from_json(cyclo_to_json(x)) == x
    obj = cyclo_to_json(x)
    assert obj["order"] == 12
    assert all(isinstance(c, str) for c in obj["coeffs"])


def test_decomposition_round_trip():
    form = parse_form("x1*x2^2 + x3^3")
    dec = decompose_form(form)
    back = decomposition_from_json(decomposition_to_json(dec))
    assert back == dec
    assert verify_decomposition(form, back).passed


def test_json_is_deterministic():
    form = parse_form("x1*x2*x3")
    a = dumps(decomposition_to_json(decompose_form(form)))
    b = dumps(decomposition_to_json(decompose_form(form)))
    assert a == b
    json.loads(a)  # valid JSON


def test_pretty_cyclo():
    assert str(CyclotomicNumber.from_rational(Fraction(1, 24), 2)) == "1/24"
    assert str(cyclotomic_embed(2, 1, 2)) == "-1"
    z3 = cyclotomic_embed(3, 1, 3)
    assert "z3" in str(z3)


def test_pretty_linear():
    one = CyclotomicNumber.from_rational(1, 2)
    minus = cyclotomic_embed(2, 1, 2)
    zero = CyclotomicNumber.from_rational(0, 2)
    assert pretty_linear(("x1", "x2", "x3"), (one, minus, zero)) == "x1 - x2"


def test_pretty_decomposition_mentions_blocks():
    form = parse_form("x1*x2 + x3^2")
    text = pretty_decomposition(decompose_form(form))
    assert "[block 0]" in text and "[block 1]" in text


def test_cyclo_from_json_reads_integer_pairs_in_lowest_terms():
    # entries out of lowest terms, shorter or longer than phi(N), and JSON
    # ints load to the number the Fraction constructor gives, in its one
    # stored form
    for order, coeffs in [(12, ["2/4", "-3/6", "0", "5", 7]), (3, ["4/6", "8/12", 2]),
                          (1, []), (5, ["-10/15"] * 6), (7, ["1/2", 0, "-6/4"])]:
        number = cyclo_from_json({"order": order, "coeffs": coeffs})
        expected = CyclotomicNumber(order, [Fraction(c) for c in coeffs])
        assert number == expected
        assert number._integer_coords() == expected._integer_coords()


@pytest.mark.parametrize("entry", ["1/0", "0/00", 1.5, True, "1e3", "1/-2", "+1", [1]])
def test_cyclo_from_json_refuses_inexact_entries(entry):
    with pytest.raises(ValueError, match="expected rationals"):
        cyclo_from_json({"order": 3, "coeffs": ["1", entry]}, seen={})


# -- the per-file memo: a repeat is looked up before any field check ----------

def _file(*gammas):
    """A one-variable degree-1 decomposition file with the given gammas."""
    one = {"order": 1, "coeffs": ["1"]}
    return {"degree": 1, "variables": ["x1"],
            "terms": [{"gamma": g, "linear": [one], "block": 0, "point": []}
                      for g in gammas]}


def _refusal(obj):
    with pytest.raises((ValueError, ResourceLimitError)) as info:
        decomposition_from_json(obj)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("valid, malformed", [
    ({"order": 1, "coeffs": ["1"]}, {"order": True, "coeffs": ["1"]}),
    ({"order": 1, "coeffs": ["1"]}, {"order": 1.0, "coeffs": ["1"]}),
    ({"order": 3, "coeffs": [1, 0]}, {"order": 3, "coeffs": [1.0, 0]}),
    ({"order": 3, "coeffs": ["1", "0"]}, {"order": 3, "coeffs": [1.0, "0"]}),
    ({"order": 3, "coeffs": [1, 0]}, {"order": 3, "coeffs": [True, 0]}),
    ({"order": 3, "coeffs": ["1000", "0"]}, {"order": 3, "coeffs": ["1e3", "0"]}),
    ({"order": 3, "coeffs": ["1", "0"]}, {"order": 3, "coeffs": [["1"], "0"]}),
    ({"order": 1, "coeffs": ["1"]}, {"order": MAX_FIELD_ORDER + 1, "coeffs": ["1"]}),
])
def test_a_malformed_number_after_a_look_alike_is_refused_as_a_first_one(valid, malformed):
    """A malformed number right after a valid one whose memo key compares
    equal (true == 1 == 1.0) is refused with the message it gets when it
    comes first, or after an unrelated number."""
    first = _refusal(_file(malformed))
    assert first[1].startswith("terms[0].gamma")
    unrelated = {"order": 4, "coeffs": ["0", "2"]}
    for before in (valid, unrelated):
        assert _refusal(_file(before, malformed)) == \
            (first[0], first[1].replace("terms[0]", "terms[1]", 1))
    # the same malformed number twice is refused at its first occurrence
    assert _refusal(_file(valid, malformed, malformed))[1].startswith("terms[1].gamma")


def test_numbers_with_json_int_entries_load_equal_to_their_string_forms():
    """Int entries never share the memo with strings, in either order."""
    ints = {"order": 6, "coeffs": [1, -2]}
    strings = {"order": 6, "coeffs": ["1", "-2"]}
    halves = {"order": 6, "coeffs": ["2/2", "-4/2"]}
    dec = decomposition_from_json(_file(ints, strings, ints, halves, strings))
    gammas = [t.gamma for t in dec.terms]
    expected = CyclotomicNumber(6, [1, -2])
    assert all(g == expected and g._integer_coords() == expected._integer_coords()
               for g in gammas)
    assert dec.terms[1].gamma is dec.terms[4].gamma


# -- the decomposition writer against json.dumps of the schema dict ------------


def _reference_number(x):
    den, ints = x._integer_coords()
    return {"order": x.order, "coeffs": [fraction_text(v, den) for v in ints]}


def _reference(d):
    """The schema as a dict, built field by field (the oracle for `dumps`)."""
    return {
        "degree": d.degree,
        "variables": list(d.variables),
        "terms": [
            {
                "gamma": _reference_number(t.gamma),
                "linear": [_reference_number(c) for c in t.linear],
                "block": t.block,
                "point": [_reference_number(c) for c in t.point],
            }
            for t in d.terms
        ],
    }


@st.composite
def _coprime_sums(draw):
    """1-3 monomials of one degree 1-6 over disjoint variables, each in at
    most 3 variables, with nonzero rational coefficients of either sign."""
    degree = draw(st.integers(1, 6))
    names = iter(draw(st.permutations([f"x{i}" for i in range(1, 10)])))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = draw(st.sets(st.integers(1, max(degree - 1, 1)), max_size=min(2, degree - 1)))
        bounds = [0, *sorted(cuts), degree]
        exps = [b - a for a, b in zip(bounds, bounds[1:])]
        coefficient = draw(st.fractions(min_value=-5, max_value=5, max_denominator=50)
                           .filter(bool))
        terms.append((coefficient, Monomial([next(names) for _ in exps], exps)))
    return CoprimeForm(terms)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_coprime_sums())
def test_dumps_writes_the_schema_bytes_of_json_dumps(form):
    dec = decompose_form(form)
    text = dumps(dec)
    assert text == json.dumps(_reference(dec), indent=2, sort_keys=True)
    assert decomposition_from_json(json.loads(text)) == dec
    assert decomposition_to_json(dec) == _reference(dec)

    # the writer finds a number's text by the object: the bytes must not
    # depend on which terms share an object
    def fresh(x):
        return _normalised(x.order, *x._ints)

    unshared = replace(dec, terms=tuple(
        replace(t, gamma=fresh(t.gamma), linear=tuple(map(fresh, t.linear)),
                point=tuple(map(fresh, t.point)))
        for t in dec.terms))
    loaded = decomposition_from_json(json.loads(text))     # shared across terms
    for d in (unshared, loaded):
        assert dumps(d) == json.dumps(_reference(d), indent=2, sort_keys=True) == text


def test_dumps_escapes_names_and_writes_empty_arrays():
    half = CyclotomicNumber.from_rational(Fraction(-1, 2), 4)
    zeta = cyclotomic_embed(4, 1, 4)
    names = ("é", 'a"b', "tab\there", "☃")
    dec = PowerSumDecomposition(3, names, (
        DecompositionTerm(gamma=half, linear=(zeta, half, zeta, half), block=0,
                          point=(half, zeta)),
        DecompositionTerm(gamma=zeta, linear=(half,) * 4, block=1, point=())))
    for d in (dec, PowerSumDecomposition(1, (), ())):
        text = dumps(d)
        assert text == json.dumps(_reference(d), indent=2, sort_keys=True)
        assert text.isascii()
        assert decomposition_from_json(json.loads(text)) == d
