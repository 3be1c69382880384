"""Exact Gaussian elimination over Q and over cyclotomic fields.

The routines are generic over any exact field scalar supporting +, -, *, /
and truthiness as a zero test (`fractions.Fraction` and `CyclotomicNumber`
both qualify).  No numerical pivoting is needed over an exact field.  Each
pivot is inverted at most once and the reciprocal reused for every row it
reduces (and, in `solve_exact`, for back substitution), since a cyclotomic
inverse is a Euclid run over Q.

Rank is computed on sparse rows {column: nonzero value} by `sparse_rank`;
`matrix_rank` drops the zeros of a dense matrix and calls it.  The dense
forward elimination `_eliminate` serves `solve_exact` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class InconsistentSystemError(ValueError):
    """The system has no solution; `row` is the first failing reduced row."""

    def __init__(self, row: int):
        super().__init__(f"inconsistent linear system (reduced row {row})")
        self.row = row


class UnderdeterminedSystemError(ValueError):
    """The coefficient matrix does not have full column rank."""

    def __init__(self, rank: int, cols: int):
        super().__init__(
            f"underdetermined linear system (rank {rank} < {cols} unknowns)")
        self.rank = rank
        self.cols = cols


@dataclass(frozen=True)
class LinearSystem:
    """A dense linear system A x = b over an exact field."""

    matrix: list = field(default_factory=list)
    rhs: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.matrix) != len(self.rhs):
            raise ValueError(
                f"rhs length {len(self.rhs)} != row count {len(self.matrix)}")
        widths = {len(row) for row in self.matrix}
        if len(widths) > 1:
            raise ValueError(f"ragged matrix rows: widths {sorted(widths)}")


def _eliminate(rows, ncols):
    """In-place forward elimination for `solve_exact`; returns (pivot column,
    1 / pivot) per reduced row, the inverse None when no row below needed
    it.  Each pivot is inverted at most once, and a row update touches only
    the nonzero entries of the pivot row right of the pivot."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        below = [row for row in rows[r + 1:] if row[c]]
        inv = None
        if below:
            inv = 1 / top[c]
            zero = top[c] - top[c]
            support = [j for j in range(c + 1, len(top)) if top[j]]
            for row in below:
                ratio = row[c] * inv
                row[c] = zero
                for j in support:
                    row[j] = row[j] - ratio * top[j]
        pivots.append((c, inv))
        r += 1
    return pivots


def sparse_rank(rows) -> int:
    """Rank of the matrix whose rows are dicts {column: value} holding only
    the nonzero entries; columns may be any mutually comparable keys.

    Each row in turn is reduced against the pivot rows kept so far, by its
    least column, and is kept as a pivot row if anything is left.  A pivot
    row's other columns all exceed its leading one, so every step raises the
    leading column and the reduction ends.  The input rows are not changed.
    """
    pivots = {}   # leading column -> [row, 1 / leading value or None]
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = [row, None]
                break
            top, inv = pivot
            if inv is None:
                inv = pivot[1] = 1 / top[lead]
            ratio = row.pop(lead) * inv
            zero = ratio - ratio
            for col, value in top.items():
                if col != lead:
                    value = row.pop(col, zero) - ratio * value
                    if value:
                        row[col] = value
    return len(pivots)


def matrix_rank(matrix) -> int:
    """Rank of a dense matrix over an exact field."""
    return sparse_rank({j: x for j, x in enumerate(row) if x} for row in matrix)


def solve_exact(system: LinearSystem):
    """Solve A x = b exactly.

    Returns the unique solution vector when A has full column rank and the
    system is consistent.  Raises InconsistentSystemError or
    UnderdeterminedSystemError otherwise.
    """
    nrows = len(system.matrix)
    ncols = len(system.matrix[0]) if nrows else 0
    rows = [list(row) + [b] for row, b in zip(system.matrix, system.rhs)]
    pivots = _eliminate(rows, ncols)
    rank = len(pivots)
    for i in range(rank, nrows):
        if rows[i][ncols]:
            raise InconsistentSystemError(i)
    if rank < ncols:
        raise UnderdeterminedSystemError(rank, ncols)
    # back substitution; reduced row i has its pivot in column pivots[i][0]
    solution = [None] * ncols
    for i in range(rank - 1, -1, -1):
        c, inv = pivots[i]
        acc = rows[i][ncols]
        for j in range(c + 1, ncols):
            if rows[i][j]:
                acc = acc - rows[i][j] * solution[j]
        solution[c] = acc * inv if inv is not None else acc / rows[i][c]
    return solution
