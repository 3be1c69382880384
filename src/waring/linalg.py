"""Exact Gaussian elimination over Q and over cyclotomic fields.

The routines are generic over any exact field scalar supporting +, -, *, /
and truthiness as a zero test (`fractions.Fraction` and `CyclotomicNumber`
both qualify).  No numerical pivoting is needed over an exact field.  Each
pivot is inverted at most once and the reciprocal reused for every row it
reduces (and, in `solve_exact`, for back substitution), since a cyclotomic
inverse in Q(zeta_N) multiplies phi(N) - 1 Galois conjugates.

One elimination, `_reduce`, works on sparse rows {column: nonzero value}
and serves every caller: `sparse_rank` counts its pivot rows, and
`solve_exact` reduces the augmented rows [A | b] and back-substitutes.
Only the arithmetic the answer needs is done: an entry missing from a row
starts as -(ratio * value), not as zero minus it, so the elimination
builds no zeros, and a pivot's reciprocal `1 / pivot` is its inverse
alone, never multiplied by 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class InconsistentSystemError(ValueError):
    """The system has no solution; `row` is the position, in pivot order, of
    the reduced row that reads 0 = nonzero (it equals the rank of A)."""

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


def _reduce(rows) -> dict:
    """Row-reduce sparse rows {column: nonzero value}; columns may be any
    mutually comparable keys.  Returns the pivot rows as {leading column:
    [row, 1 / leading value or None]}, the inverse None when no later row
    needed it.

    Each row in turn is reduced against the pivot rows kept so far, by its
    least column, and is kept as a pivot row if anything is left.  A pivot
    row's other columns all exceed its leading one, so every step raises the
    leading column and the reduction ends.  The input rows are not changed.
    """
    pivots = {}
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
            for col, value in top.items():
                if col != lead:
                    old = row.get(col)
                    if old is None:
                        row[col] = -(ratio * value)
                    else:
                        value = old - ratio * value
                        if value:
                            row[col] = value
                        else:
                            del row[col]
    return pivots


def sparse_rank(rows) -> int:
    """Rank of the matrix whose rows are dicts {column: value} holding only
    the nonzero entries; columns may be any mutually comparable keys.  The
    input rows are not changed."""
    return len(_reduce(rows))


def solve_exact(system: LinearSystem):
    """Solve A x = b exactly.

    Returns the unique solution vector when A has full column rank and the
    system is consistent.  Raises InconsistentSystemError or
    UnderdeterminedSystemError otherwise.  The rows [A | b] are reduced as
    sparse rows, b in column ncols: a pivot there means no solution, fewer
    than ncols pivots left of it mean no unique one, and otherwise the
    pivot rows are back-substituted from the last column down.  Each unknown
    starts from its row's b entry, or else from the negated first product;
    only a row with neither builds a zero.  No step multiplies by 1.
    """
    ncols = len(system.matrix[0]) if system.matrix else 0
    pivots = _reduce({j: a for j, a in enumerate([*row, b]) if a}
                     for row, b in zip(system.matrix, system.rhs))
    if ncols in pivots:
        raise InconsistentSystemError(len(pivots) - 1)
    if len(pivots) < ncols:
        raise UnderdeterminedSystemError(len(pivots), ncols)
    solution = [None] * ncols
    for c in range(ncols - 1, -1, -1):
        row, inv = pivots[c]
        acc = row.get(ncols)
        for j, value in row.items():
            if c < j < ncols:
                acc = -(value * solution[j]) if acc is None else acc - value * solution[j]
        if acc is None:
            acc = row[c] - row[c]
        solution[c] = acc * inv if inv is not None else acc / row[c]
    return solution
