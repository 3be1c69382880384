import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from waring.cyclotomic import (
    CyclotomicNumber,
    DivisibilityError,
    _power_table,
    _root_pair,
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
    for order in (1, 2, 7, 8, 15):
        x = CyclotomicNumber(order, [Fraction(k - 2, k + 1) for k in range(euler_phi(order))])
        assert 1 / x == x.inverse() and x * (1 / x) == 1
        assert Fraction(3, 2) / x == x.inverse() * Fraction(3, 2)


def test_immutable():
    z = cyclotomic_embed(3, 1, 3)
    with pytest.raises(AttributeError):
        z.order = 5


def test_numbers_and_decompositions_copy_and_pickle():
    """copy, deepcopy, pickle and dataclasses.asdict rebuild each number
    with the same order and stored pair, and a decomposition equal to the
    original."""
    from waring.decompose import decompose_form
    from waring.forms import parse_form

    def stored(x):
        return x.order, x._ints

    x = CyclotomicNumber(12, [Fraction(1, 6), Fraction(-3, 4), 0, Fraction(5, 2)])
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is CyclotomicNumber and stored(y) == stored(x)
        with pytest.raises(AttributeError):
            y.order = 5
    dec = decompose_form(parse_form("x1*x2^2 - 2/3*x3^3"))
    for other in (copy.copy(dec), copy.deepcopy(dec), pickle.loads(pickle.dumps(dec))):
        assert other == dec
        assert [stored(t.gamma) for t in other.terms] == [stored(t.gamma) for t in dec.terms]
    fields = dataclasses.asdict(dec)
    assert fields["degree"] == dec.degree and len(fields["terms"]) == len(dec.terms)
    for entry, t in zip(fields["terms"], dec.terms):
        assert stored(entry["gamma"]) == stored(t.gamma)
        assert list(map(stored, entry["linear"])) == list(map(stored, t.linear))
        assert entry["block"] == t.block and tuple(entry["point"]) == t.point


def test_integer_coordinates_are_computed_once_and_stay_read_only():
    x = CyclotomicNumber(12, [Fraction(1, 6), Fraction(-3, 4), 0, Fraction(5, 2)])
    first = x._integer_coords()
    assert first == (12, (2, -9, 0, 30)) and x.denominator == 12
    assert x._integer_coords() is first
    with pytest.raises(AttributeError):
        x._ints = (1, (0, 0, 0, 0))
    assert x._integer_coords() is first
    assert cyclic_lift(x, 24, 12) == {0: 2, 2: -9, 6: 30}


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


def test_cyclotomic_polynomial_matches_sympy_up_to_order_200():
    x = sympy.Symbol("x")
    for n in range(1, 201):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(coeffs)), n


# -- one stored form: integers over one denominator, Galois-norm inverse ------


def test_one_value_has_one_stored_form_however_it_is_built():
    """-3/2 * zeta_12^5 = 3/2 * z - 3/2 * z^3 in Q(zeta_12), where
    Phi_12 = z^4 - z^2 + 1, built every way the class allows."""
    x = CyclotomicNumber.zeta(12, 5, Fraction(-3, 2))
    two = CyclotomicNumber.from_rational(2, 12)
    built = [
        CyclotomicNumber(12, [0, Fraction(3, 2), 0, Fraction(-3, 2)]),
        CyclotomicNumber(12, [Fraction(0, 7), Fraction(6, 4), 0, "-3/2"]),
        CyclotomicNumber(12, [0, 0, 0, 0, 0, Fraction(-3, 2)]),
        CyclotomicNumber.zeta(12, 17, Fraction(-6, 4)),
        CyclotomicNumber.zeta(4, 3, Fraction(-3, 2)).promote(12)
        * CyclotomicNumber.zeta(3, 2).promote(12),
        CyclotomicNumber.zeta(4, 3) * CyclotomicNumber.zeta(3, 2) * Fraction(-3, 2),
        (x + x) / 2, (x * 4 - x) / Fraction(3), -(-x), x - 0, 0 + x, x * two / two,
        x.inverse().inverse(), 1 / (1 / x),
    ]
    assert x._integer_coords() == (2, (0, 3, 0, -3))
    for y in built:
        assert y.order == 12 and y._integer_coords() == x._integer_coords()
    for zero in (x - x, CyclotomicNumber(12, [Fraction(0, 5)]), x * 0):
        assert zero._integer_coords() == (1, (0, 0, 0, 0))


def test_power_table_rows_have_gcd_one_so_root_pairs_are_stored_forms():
    """`_root_pair` gives q * zeta_N^k as (den(q), num(q) * row k of the power
    table) without reducing it, and the closed-form check compares stored
    pairs with it: so every row must have gcd 1, and `zeta` and the
    constructor, which reduces q * x^k modulo Phi_N, must store exactly that
    pair, for zero, negative and non-integer q."""
    for order in (*range(1, 401), 997, 1000):
        # the uncached builder, so the test keeps no 400 tables in memory
        rows = _power_table.__wrapped__(order)
        assert all(gcd(*row) == 1 for row in rows), order
    for order in (1, 2, 3, 12, 30, 97, 210, 997, 1000):
        for k in (0, 1, order // 2, order - 1, 5 * order + 3):
            for q in (0, 1, -1, 7, Fraction(-6, 4), Fraction(5, 3), Fraction(0, 9)):
                pair = _root_pair(order, k, Fraction(q))
                assert CyclotomicNumber.zeta(order, k, q)._ints == pair
                assert CyclotomicNumber(order, [0] * (k % order) + [q])._ints == pair
                den, ints = pair
                assert den > 0 and gcd(den, *ints) == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_factor_pairs())
def test_stored_form_is_lowest_terms_and_canonical(pair):
    a, b = pair
    for x in (a, b, a + b, a - b, a * b, -a, a * Fraction(-7, 3), (a + b) - b):
        den, ints = x._integer_coords()
        assert den > 0 and gcd(den, *ints) == 1
        assert x.denominator == den and x.coeffs == tuple(Fraction(v, den) for v in ints)
    assert ((a + b) - b).promote(lcm(a.order, b.order))._integer_coords() == \
        a.promote(lcm(a.order, b.order))._integer_coords()


@st.composite
def _sparse_nonzero(draw):
    """A nonzero element of Q(zeta_N), N <= 60, with up to four nonzero
    coordinates of small height, so sympy's Euclid stays fast."""
    order = draw(st.one_of(st.sampled_from([37, 41, 59, 60]), st.integers(1, 60)))
    coords = [Fraction(0)] * euler_phi(order)
    for k in draw(st.lists(st.integers(0, len(coords) - 1), min_size=1, max_size=4,
                           unique=True)):
        coords[k] = draw(st.fractions(-9, 9, max_denominator=6).filter(bool))
    return CyclotomicNumber(order, coords)


def _sympy_inverse(x):
    """Coordinates of 1/x from sympy's inverse modulo cyclotomic_poly(N)."""
    z = sympy.Symbol("z")
    f = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(x.coeffs)],
                   z, domain=sympy.QQ)
    inv = f.invert(sympy.Poly(sympy.cyclotomic_poly(x.order, z), z, domain=sympy.QQ))
    coords = [Fraction(int(c.p), int(c.q)) for c in reversed(inv.all_coeffs())]
    return coords + [Fraction(0)] * (euler_phi(x.order) - len(coords))


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sparse_nonzero())
@example(CyclotomicNumber(37, [Fraction(1, 2), 0, 3, 0, 0, -1]))
@example(CyclotomicNumber(41, [0, 1] + [0] * 37 + [Fraction(-5, 3)]))
@example(CyclotomicNumber(59, [2, Fraction(1, 6), 0, 0, 0, 0, 0, -1]))
@example(CyclotomicNumber(60, [1, -1, 0, Fraction(7, 4), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]))
def test_norm_inverse_matches_sympy_invert_modulo_phi(x):
    inv = x.inverse()
    assert list(inv.coeffs) == _sympy_inverse(x)
    assert x * inv == 1


def test_equal_numbers_hash_equal_across_fields():
    pairs = [(cyclotomic_embed(3, 1, 3), cyclotomic_embed(3, 1, 6)),
             (cyclotomic_embed(5, 1, 5), cyclotomic_embed(5, 1, 10)),
             (cyclotomic_embed(4, 3, 4) * Fraction(2, 3),
              cyclotomic_embed(4, 3, 12) * Fraction(2, 3)),
             (CyclotomicNumber.from_rational(Fraction(-3, 4), 1),
              CyclotomicNumber.from_rational(Fraction(-3, 4), 35))]
    rng = random.Random(11)
    for order in range(1, 40):
        x = _random_element(rng, order)
        pairs += [(x, x.promote(k * order)) for k in (2, 3, 5)]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert len({cyclotomic_embed(6, k, 6) for k in range(6)} | {-1, 1}) == 6
    # a rational hashes like its Fraction, so dicts mix the two
    assert hash(CyclotomicNumber.from_rational(Fraction(-3, 4), 12)) == hash(Fraction(-3, 4))
    assert {Fraction(-3, 4): "q"}[CyclotomicNumber.from_rational(Fraction(-3, 4), 12)] == "q"
