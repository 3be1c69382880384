import json
from fractions import Fraction

import pytest

from waring.cyclotomic import CyclotomicNumber, cyclotomic_embed
from waring.decompose import decompose_form, verify_decomposition
from waring.forms import parse_form
from waring.serialize import (
    cyclo_from_json,
    cyclo_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dumps,
    fraction_to_str,
    pretty_cyclo,
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
    assert pretty_cyclo(CyclotomicNumber.from_rational(Fraction(1, 24), 2)) == "1/24"
    assert pretty_cyclo(cyclotomic_embed(2, 1, 2)) == "-1"
    z3 = cyclotomic_embed(3, 1, 3)
    assert "z3" in pretty_cyclo(z3)


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
    # entries out of lowest terms, longer than phi(N), and JSON ints load to
    # the number the Fraction constructor gives, in its one stored form
    for order, coeffs in [(12, ["2/4", "-3/6", "0", "5", 7]), (3, ["4/6", "8/12", 2]),
                          (1, []), (5, ["-10/15"] * 6)]:
        number = cyclo_from_json({"order": order, "coeffs": coeffs})
        expected = CyclotomicNumber(order, [Fraction(c) for c in coeffs])
        assert number == expected
        assert number._integer_coords() == expected._integer_coords()


@pytest.mark.parametrize("entry", ["1/0", "0/00", 1.5, True, "1e3", "1/-2", "+1", [1]])
def test_cyclo_from_json_refuses_inexact_entries(entry):
    with pytest.raises(ValueError, match="expected rationals"):
        cyclo_from_json({"order": 3, "coeffs": ["1", entry]}, seen={})
