import random
from fractions import Fraction
from math import perm

import pytest

from reference import evaluate, poly_pow_linear, recursive_compositions
from waring.polynomials import (
    Polynomial,
    apply_differential,
    compositions,
    multinomial,
)


def test_compositions_count():
    from math import comb
    assert len(list(compositions(5, 3))) == comb(7, 2)
    assert list(compositions(2, 1)) == [(2,)]


def test_the_walk_is_the_recursive_generator_reversed():
    """`compositions` walks without recursion and yields exactly the tuples
    of the recursive generator, in reversed order."""
    for total in range(10):
        for parts in range(1, 7):
            assert list(compositions(total, parts)) == \
                list(recursive_compositions(total, parts))[::-1], (total, parts)


def test_multinomial():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5, 0, 0)) == 1


def test_binomial_square():
    p = poly_pow_linear([Fraction(1), Fraction(1)], 2)
    assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_three_variable_cube():
    p = poly_pow_linear([Fraction(1)] * 3, 3)
    assert len(p.terms) == 10
    assert p.coefficient((1, 1, 1)) == 6
    assert p.is_homogeneous() and p.degree == 3


def test_sign_bookkeeping():
    # fourth summand of the four-cube identity: (x0 - x1 - x2)^3
    p = poly_pow_linear([Fraction(1), Fraction(-1), Fraction(-1)], 3)
    assert p.coefficient((1, 1, 1)) == 6
    assert p.coefficient((2, 1, 0)) == -3


def test_zero_linear_form_gives_zero():
    assert poly_pow_linear([Fraction(0), Fraction(0)], 3).is_zero()


def test_power_evaluation_matches_scalar_first():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        expanded = evaluate(poly_pow_linear(coeffs, d), point)
        scalar = sum(c * p for c, p in zip(coeffs, point)) ** d
        assert expanded == scalar


def test_second_derivative():
    op = Polynomial.monomial((2,))
    target = Polynomial.monomial((3,))
    assert apply_differential(op, target) == Polynomial.monomial((1,), Fraction(6))


def test_perp_power_annihilates():
    # X1^(a1+1) applied to x1^a1 * x2^a2 vanishes
    op = Polynomial.monomial((3, 0))
    target = Polynomial.monomial((2, 5))
    assert apply_differential(op, target).is_zero()


def test_mixed_differential():
    op = Polynomial.monomial((1, 1))
    target = Polynomial.monomial((2, 2))
    assert apply_differential(op, target) == Polynomial.monomial((1, 1), Fraction(4))


def test_contraction_law():
    for m in range(0, 6):
        for k in range(0, 6):
            op = Polynomial.monomial((k,))
            target = Polynomial.monomial((m,))
            out = apply_differential(op, target)
            if k > m:
                assert out.is_zero()
            else:
                assert out == Polynomial.monomial((m - k,), Fraction(perm(m, k)))


def test_differential_is_bilinear():
    op = Polynomial(2, {(1, 0): Fraction(2), (0, 1): Fraction(-1)})
    f = Polynomial(2, {(2, 1): Fraction(1), (0, 3): Fraction(1, 2)})
    g = Polynomial(2, {(1, 2): Fraction(3)})
    lhs = apply_differential(op, f + g)
    rhs = apply_differential(op, f) + apply_differential(op, g)
    assert lhs == rhs


def test_polynomial_rejects_bad_terms():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): Fraction(1)})


def test_zero_coefficients_dropped():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p.degree == 1
