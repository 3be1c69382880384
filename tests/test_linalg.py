import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from waring.cyclotomic import CyclotomicNumber, cyclotomic_embed, euler_phi
from waring.linalg import (
    InconsistentSystemError,
    LinearSystem,
    UnderdeterminedSystemError,
    solve_exact,
    sparse_rank,
)


def matrix_rank(matrix) -> int:
    return sparse_rank({j: x for j, x in enumerate(row) if x} for row in matrix)


def test_identity_system():
    F = Fraction
    matrix = [[F(1), F(0)], [F(0), F(1)]]
    rhs = [F(3, 7), F(-2)]
    assert solve_exact(LinearSystem(matrix, rhs)) == rhs


def test_remark_four_cubes_system():
    # Coefficients of x0^3, x0^2*x1, x0^2*x2, x0*x1*x2 in (x0+e1*x1+e2*x2)^3
    # at the four sign points; the solution must be the 1/24 pattern.
    points = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    matrix = [
        [Fraction(1) for _ in points],
        [Fraction(3 * e1) for e1, e2 in points],
        [Fraction(3 * e2) for e1, e2 in points],
        [Fraction(6 * e1 * e2) for e1, e2 in points],
    ]
    rhs = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    gammas = solve_exact(LinearSystem(matrix, rhs))
    assert gammas == [Fraction(1, 24), Fraction(-1, 24),
                      Fraction(-1, 24), Fraction(1, 24)]


def test_xy2_system_over_zeta3():
    # rows indexed by x^3, x^2 y, x y^2, y^3 for columns (x + e y)^3,
    # e over the cube roots of unity; target x y^2.
    roots = [cyclotomic_embed(3, k, 3) for k in range(3)]
    one = CyclotomicNumber.from_rational(1, 3)
    matrix = [
        [one for _ in roots],
        [3 * e for e in roots],
        [3 * e * e for e in roots],
        [e ** 3 for e in roots],
    ]
    rhs = [one * 0, one * 0, one, one * 0]
    gammas = solve_exact(LinearSystem(matrix, rhs))
    assert gammas == [e / 9 for e in roots]


def test_solution_reproduces_rhs():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        matrix = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(n)] for _ in range(n + 1)]
        solution = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, solution)) for row in matrix]
        try:
            got = solve_exact(LinearSystem(matrix, rhs))
        except UnderdeterminedSystemError:
            continue
        assert [sum(a * x for a, x in zip(row, got)) for row in matrix] == rhs


def test_inconsistent_system_reports_row():
    F = Fraction
    matrix = [[F(1), F(1)], [F(2), F(2)], [F(0), F(1)]]
    rhs = [F(1), F(3), F(0)]
    with pytest.raises(InconsistentSystemError):
        solve_exact(LinearSystem(matrix, rhs))


def test_underdetermined_system():
    F = Fraction
    matrix = [[F(1), F(2)], [F(2), F(4)]]
    rhs = [F(1), F(2)]
    with pytest.raises(UnderdeterminedSystemError) as exc:
        solve_exact(LinearSystem(matrix, rhs))
    assert exc.value.rank == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearSystem([[Fraction(1)]], [Fraction(1), Fraction(2)])


def test_matrix_rank():
    F = Fraction
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(0), F(0)]]) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(2)], [F(0), F(1)], [F(5), F(7)]]) == 2


# -- pivot-once elimination against sympy and by substitution ------------------


@pytest.mark.parametrize("seed", range(30))
def test_rank_of_rank_deficient_matrices_matches_sympy(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    inner = rng.randint(0, min(rows, cols))

    def entry():
        return Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 6))

    left = [[entry() for _ in range(inner)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(inner)]
    matrix = [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
               for j in range(cols)] for i in range(rows)]
    expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in matrix]).rank()
    assert matrix_rank(matrix) == expected <= inner
    # the same matrix as sparse rows, zeros dropped, under shuffled tuple
    # column keys, so the pivot order differs from the dense one
    keys = [(rng.randint(0, 3), j) for j in range(cols)]
    sparse = [{keys[j]: x for j, x in enumerate(row) if x} for row in matrix]
    snapshot = [dict(row) for row in sparse]
    assert sparse_rank(sparse) == expected
    assert sparse == snapshot


@pytest.mark.parametrize("order", [3, 4, 5, 7, 8, 12])
def test_square_cyclotomic_systems_reproduce_the_rhs(order):
    rng = random.Random(order)
    phi = euler_phi(order)

    zero = CyclotomicNumber.from_rational(0, order)

    def number(sparse):
        """A random number; zero with probability about 1/2 when sparse, so
        rows lack pivot columns and pivot rows lack a right-hand side."""
        if sparse and rng.random() < 0.5:
            return zero
        return CyclotomicNumber(order, [Fraction(rng.choice([0, rng.randint(-5, 5)]),
                                                 rng.randint(1, 4)) for _ in range(phi)])

    for n, sparse in itertools.product(range(1, 6), (False, True, True)):
        matrix = [[number(sparse) for _ in range(n)] for _ in range(n)]
        if matrix_rank(matrix) < n:
            continue
        rhs = [number(sparse) for _ in range(n)]
        solution = solve_exact(LinearSystem(matrix, rhs))
        assert [sum((a * x for a, x in zip(row, solution)), zero)
                for row in matrix] == rhs


# -- solve_exact against sympy's ranks -----------------------------------------


def _check_random_system(rng):
    """Solve a random system over Q whose shape (square, over- or
    under-determined) and coefficient rank vary, with a right-hand side in
    the column space or not; check the outcome against sympy's ranks of A
    and [A | b].  Returns (shape, outcome)."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    # half the systems have a chance of full column rank
    inner = min(nrows, ncols) if rng.random() < 0.5 else rng.randint(0, min(nrows, ncols))

    def entry():
        return Fraction(rng.choice([0, rng.randint(-5, 5), rng.randint(-5, 5)]),
                        rng.randint(1, 4))

    left = [[entry() for _ in range(inner)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(inner)]
    matrix = [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
               for j in range(ncols)] for i in range(nrows)]
    if rng.random() < 0.5:
        x = [entry() for _ in range(ncols)]
        rhs = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in matrix]
    else:
        rhs = [entry() for _ in range(nrows)]
    a = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                      for row in matrix])
    b = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in rhs])
    rank_a, rank_ab = a.rank(), a.row_join(b).rank()
    shape = "square" if nrows == ncols else "over" if nrows > ncols else "under"
    system = LinearSystem(matrix, rhs)
    if rank_ab > rank_a:
        with pytest.raises(InconsistentSystemError):
            solve_exact(system)
        return shape, "inconsistent"
    if rank_a < ncols:
        with pytest.raises(UnderdeterminedSystemError) as exc:
            solve_exact(system)
        assert exc.value.rank == rank_a
        return shape, "underdetermined"
    solution = solve_exact(system)
    assert [sum((v * s for v, s in zip(row, solution)), Fraction(0))
            for row in matrix] == rhs
    return shape, "unique"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_solve_exact_outcome_matches_sympy_ranks(rng):
    _check_random_system(rng)


def test_random_systems_cover_every_shape_and_outcome():
    seen = {_check_random_system(random.Random(seed)) for seed in range(400)}
    assert seen >= {(shape, outcome) for shape in ("square", "over", "under")
                    for outcome in ("inconsistent", "underdetermined")}
    assert {("square", "unique"), ("over", "unique")} <= seen
