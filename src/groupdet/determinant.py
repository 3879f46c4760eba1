"""Group matrices and exact fraction-free integer determinants.

Entries are Python ints; the elimination is Bareiss (fraction-free), so every
internal division is an exact integer division, and each one is checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from typing import Sequence

from .groups import (
    AbelianGroup,
    enumerate_elements,
    group_inv,
    group_op,
    index_of,
)

DEFAULT_BUDGET = 10_000_000
# The in-process seconds below which a process pool costs more than it saves,
# measured on a 2-vCPU host. boxes.pool_pays decides by it; it lives here, with
# the budget, so that every command's --jobs help names it without loading the
# box engine.
POOL_BREAK_EVEN_S = 0.4


class BudgetExceededError(RuntimeError):
    """The requested box is larger than the evaluation budget."""


def ensure_tables(dim: int, budget: int = DEFAULT_BUDGET) -> None:
    """Raise when dim^2, the size of the matrix and tables built for a group
    of order dim, exceeds the budget."""
    if dim * dim > budget:
        raise BudgetExceededError(
            f"a group of order {dim} needs tables of {dim * dim} entries, over the budget "
            f"of {budget}"
        )


def two_adic_valuation(v: int) -> int:
    """Largest e with 2^e dividing v; undefined for 0."""
    if v == 0:
        raise ValueError("the 2-adic valuation of 0 is undefined (0 is divisible by every 2^e)")
    return (v & -v).bit_length() - 1


@lru_cache(maxsize=None)
def _index_table(orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # entry (i, j) of the group matrix reads the assignment at index_of(g_i * g_j^-1)
    group = AbelianGroup(orders)
    elems = enumerate_elements(group)
    inverses = [group_inv(group, h) for h in elems]
    return tuple(
        tuple(index_of(group, group_op(group, g, hinv)) for hinv in inverses) for g in elems
    )


def check_assignment(group: AbelianGroup, values: Sequence) -> tuple:
    """An assignment has exactly one int entry per group element."""
    vals = tuple(values)
    if len(vals) != group.order:
        raise ValueError(
            f"assignment length {len(vals)} does not match |G| = {group.order} for {group}"
        )
    if not all(isinstance(v, int) for v in vals):
        raise ValueError("assignment entries must all be int")
    return vals


def build_group_matrix(group: AbelianGroup, values: Sequence) -> list[list]:
    """The matrix with entry (i, j) = values[index of g_i * g_j^-1].

    Rows and columns follow enumerate_elements; entry (0, 0) is the identity's
    value, and the first row of a cyclic group reads x_0, x_{n-1}, ..., x_1.
    """
    vals = check_assignment(group, values)
    return [[vals[j] for j in row] for row in _index_table(group.orders)]


def bareiss_det(matrix: Sequence[Sequence]):
    """Exact integer determinant by fraction-free elimination.

    Zero pivots are repaired by row swaps (sign tracked); a pivot column that
    is entirely zero short-circuits to 0. Every entry must be an int; any other
    entry (a CyclotomicInt, say) raises ValueError.
    """
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(r) for r in matrix]
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    if not all(map(isinstance, chain.from_iterable(rows), repeat(int))):
        raise ValueError("matrix entries must all be int")
    return _eliminate_int(rows, n)


def _eliminate_int(rows: list[list[int]], n: int) -> int:
    sign = 1
    prev = 1
    for k in range(n - 1):
        rk = rows[k]
        pivot = rk[k]
        if not pivot:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rk
                    rk = rows[k]
                    pivot = rk[k]
                    sign = -sign
                    break
            else:
                return 0
        if prev == 1:
            for i in range(k + 1, n):
                ri = rows[i]
                a = ri[k]
                if a:
                    for j in range(k + 1, n):
                        ri[j] = ri[j] * pivot - a * rk[j]
                elif pivot != 1:
                    for j in range(k + 1, n):
                        ri[j] *= pivot
        else:
            for i in range(k + 1, n):
                ri = rows[i]
                a = ri[k]
                if a:
                    for j in range(k + 1, n):
                        num = ri[j] * pivot - a * rk[j]
                        q = num // prev
                        if q * prev != num:
                            raise ArithmeticError("fraction-free elimination: inexact division")
                        ri[j] = q
                else:
                    for j in range(k + 1, n):
                        num = ri[j] * pivot
                        q = num // prev
                        if q * prev != num:
                            raise ArithmeticError("fraction-free elimination: inexact division")
                        ri[j] = q
        prev = pivot
    return sign * rows[n - 1][n - 1]


def group_determinant(group: AbelianGroup, values: Sequence):
    """Exact integer determinant of the group matrix of an integer assignment."""
    return bareiss_det(build_group_matrix(group, values))


def circulant_det(n: int, xs: Sequence):
    """Circulant determinant of Z/nZ; xs[i] is the value at residue i.

    In the classical 1-based notation x_1, ..., x_n this means x_(i+1) = xs[i].
    """
    if n < 1:
        raise ValueError(f"circulant size must be positive, got {n}")
    return group_determinant(AbelianGroup((n,)), xs)


def convolve(group: AbelianGroup, x: Sequence, y: Sequence) -> tuple:
    """(x * y)_g = sum_h x_h y_(h^-1 g), the product in the group algebra."""
    xv = check_assignment(group, x)
    yv = check_assignment(group, y)
    elems = enumerate_elements(group)
    out = []
    for g in elems:
        acc = 0
        for hi, h in enumerate(elems):
            acc += xv[hi] * yv[index_of(group, group_op(group, group_inv(group, h), g))]
        out.append(acc)
    return tuple(out)
