import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from waring.cyclotomic import (
    CyclotomicNumber,
    DivisibilityError,
    cyclic_lift,
    cyclic_mul,
    cyclotomic_embed,
    cyclotomic_polynomial,
    euler_phi,
    reduce_mod_phi,
)


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)            # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)             # x + 1
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)          # x^2 + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)         # x^2 - x + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degrees_are_euler_phi():
    # phi via direct gcd counting, independent of the division recurrence
    from math import gcd
    for n in range(1, 31):
        phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert euler_phi(n) == phi


def test_embed_square_root_of_unity():
    assert cyclotomic_embed(2, 1, 2) == -1


def test_embed_identity_case():
    assert cyclotomic_embed(3, 0, 3) == 1


def test_embed_cube_root():
    z3 = cyclotomic_embed(3, 1, 3)
    # in Q[z]/(z^2+z+1): z^2 = -1 - z, z^3 = 1
    assert z3.coeffs == (Fraction(0), Fraction(1))
    assert z3 * z3 == CyclotomicNumber(3, [-1, -1])
    assert z3 ** 3 == 1


def test_embed_requires_divisibility():
    with pytest.raises(DivisibilityError):
        cyclotomic_embed(3, 1, 4)


@pytest.mark.parametrize("n", range(1, 25))
def test_roots_of_unity_cycle_and_are_distinct(n):
    values = [cyclotomic_embed(n, k, n) for k in range(n)]
    for v in values:
        assert v ** n == 1
    for i in range(n):
        for j in range(i + 1, n):
            assert values[i] != values[j]


def _random_element(rng, order):
    deg = euler_phi(order)
    return CyclotomicNumber(
        order, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])


def test_field_axioms_random_sampling():
    rng = random.Random(42)
    for order in (1, 3, 4, 5, 6, 8, 12):
        for _ in range(10):
            a, b, c = (_random_element(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a:
                assert a * a.inverse() == 1


def test_mixed_order_arithmetic_promotes():
    z3 = cyclotomic_embed(3, 1, 3)
    z4 = cyclotomic_embed(4, 1, 4)
    prod = z3 * z4
    assert prod.order == 12
    assert prod ** 12 == 1
    assert prod ** 6 != 1


def test_equality_across_fields():
    minus_one_in_2 = cyclotomic_embed(2, 1, 2)
    minus_one_in_6 = cyclotomic_embed(2, 1, 6)
    assert minus_one_in_2 == minus_one_in_6
    assert minus_one_in_6.is_rational()
    assert minus_one_in_6.rational_value() == -1


def test_rational_value_raises_on_irrational():
    with pytest.raises(ValueError):
        cyclotomic_embed(3, 1, 3).rational_value()


def test_division_and_powers():
    z5 = cyclotomic_embed(5, 1, 5)
    assert (1 / z5) == z5 ** 4
    assert z5 ** -2 == z5 ** 3
    assert (z5 + 1) / (z5 + 1) == 1


def test_immutable():
    z = cyclotomic_embed(3, 1, 3)
    with pytest.raises(AttributeError):
        z.order = 5


def _from_lift(lifted, order, scale):
    return CyclotomicNumber(order, [Fraction(v, scale)
                                    for v in reduce_mod_phi(lifted.items(), order)])


def test_cyclic_lift_reduces_back_to_the_promoted_number():
    rng = random.Random(7)
    for order in (1, 2, 3, 4, 5, 6, 8, 12, 15):
        for big in (order, 2 * order, 3 * order):
            for _ in range(5):
                x = _random_element(rng, order)
                y = _random_element(rng, order)
                scale = x.denominator * y.denominator
                lx, ly = cyclic_lift(x, big, scale), cyclic_lift(y, big, scale)
                assert _from_lift(lx, big, scale) == x
                assert all(isinstance(v, int) for v in lx.values())
                assert _from_lift(cyclic_mul(lx, ly, big), big, scale * scale) == x * y


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 12, 15, 35])
def test_roots_of_unity_lift_to_one_exponent(order):
    for k in range(order):
        x = CyclotomicNumber.zeta(order, k) * Fraction(-3, 2)
        lifted = cyclic_lift(x, 2 * order, 2)
        assert len(lifted) == 1
        assert _from_lift(lifted, 2 * order, 2) == x


def test_cyclic_lift_requires_divisibility():
    with pytest.raises(DivisibilityError):
        cyclic_lift(CyclotomicNumber.zeta(3), 4)


# -- the integer product against a Fraction schoolbook product and sympy --------


_COORD = st.one_of(st.just(Fraction(0)), st.fractions(
    min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6))


@st.composite
def _numbers(draw, order):
    """An element of Q(zeta_order): zero, a rational, or general coordinates
    with denominators up to 10^6."""
    kind = draw(st.sampled_from(["zero", "rational", "general"]))
    if kind == "zero":
        return CyclotomicNumber.from_rational(0, order)
    if kind == "rational":
        return CyclotomicNumber.from_rational(draw(_COORD), order)
    return CyclotomicNumber(order, draw(st.lists(
        _COORD, min_size=euler_phi(order), max_size=euler_phi(order))))


@st.composite
def _factor_pairs(draw):
    first = draw(st.integers(1, 30))
    second = draw(st.one_of(st.just(first), st.integers(1, 30)))
    return draw(_numbers(first)), draw(_numbers(second))


def _schoolbook_product(a, b):
    """Coordinates of a * b in Q(zeta_N), N = lcm of the orders: embed both
    as polynomials in zeta_N, multiply with Fractions, reduce modulo sympy's
    cyclotomic_poly(N)."""
    order = lcm(a.order, b.order)
    embedded = [{k * (order // x.order): c for k, c in enumerate(x.coeffs) if c}
                for x in (a, b)]
    product = {}
    for i, x in embedded[0].items():
        for j, y in embedded[1].items():
            product[i + j] = product.get(i + j, Fraction(0)) + x * y
    z = sympy.Symbol("z")
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * z ** k
                          for k, c in product.items()), z, domain=sympy.QQ)
    rem = poly.rem(sympy.Poly(sympy.cyclotomic_poly(order, z), z, domain=sympy.QQ))
    coords = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return coords + [Fraction(0)] * (euler_phi(order) - len(coords))


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_factor_pairs())
def test_integer_product_matches_schoolbook_product_modulo_sympy_phi(pair):
    a, b = pair
    product = a * b
    assert product.order == lcm(a.order, b.order)
    assert list(product.coeffs) == _schoolbook_product(a, b)
    assert product == b * a
