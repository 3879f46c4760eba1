"""Group matrices and exact fraction-free integer determinants.

Entries are Python ints; the elimination is Bareiss (fraction-free), so every
internal division is an exact integer division, and each one is checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from math import prod
from operator import add, sub
from typing import Sequence

from .groups import AbelianGroup, cayley_table

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


def box_size(dim: int, box: int) -> int:
    if box < 0:
        raise ValueError(f"the box must be at least 0, got {box}")
    if dim < 1:
        raise ValueError(f"a box needs dimension at least 1, got {dim}")
    return (2 * box + 1) ** dim


def ensure_budget(dim: int, box: int, budget: int, force: bool) -> int:
    """Size of the box, raising when it or dim^3, the steps of the Bareiss
    re-check of one point of a group of order dim (more than its dim^2
    tables), exceeds the budget and force is off; dim^3 goes first, as
    (2*box+1)^dim of a huge group takes long to compute."""
    if not force and dim**3 > budget:
        raise BudgetExceededError(
            f"a group of order {dim} needs {dim**3} steps to re-check one point by Bareiss "
            f"elimination, over the budget of {budget}"
        )
    total = box_size(dim, box)
    if not force and total > budget:
        raise BudgetExceededError(
            f"box [-{box}, {box}]^{dim} needs {total} evaluations, over the budget of {budget}"
        )
    return total


def two_adic_valuation(v: int) -> int:
    """Largest e with 2^e dividing v; undefined for 0."""
    if v == 0:
        raise ValueError("the 2-adic valuation of 0 is undefined (0 is divisible by every 2^e)")
    return (v & -v).bit_length() - 1


@lru_cache(maxsize=None)
def _index_table(orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # entry (i, j) of the group matrix reads the assignment at index_of(g_i * g_j^-1)
    return tuple(map(tuple, cayley_table(orders, -1)))


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


@lru_cache(maxsize=None)
def _split_table(orders: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """(|T|, |K|, cells) for K = G[2], the elements g with 2g = 0, and T the
    least element of each coset of K: the elements whose coordinates lie below
    half of every even factor order. cells[(i |T| + j) |K| + k] is the index of
    t_i - t_j + kappa_k, kappa_k having the bit vector k over the basis of K
    that the even factors give, one bit each. Built one factor at a time from
    coordinates, every entry one of the |G| ints of ids."""
    ids = list(range(prod(orders)))
    rows, m = [[0]], 1
    for n in orders:
        half, shifts = (n // 2, (0, n // 2)) if n % 2 == 0 else (n, (0,))
        grown = []
        for row in rows:
            cells = [row[c:c + m] for c in range(0, len(row), m)]
            for a in range(half):
                grown.append([ids[r * n + (a - b + s) % n]
                              for cell in cells for b in range(half) for r in cell for s in shifts])
        rows, m = grown, m * len(shifts)
    return len(rows), m, tuple(chain.from_iterable(rows))


def group_determinant(group: AbelianGroup, values: Sequence):
    """Exact integer determinant of the group matrix of an integer assignment,
    as the product of the Bareiss determinants of its 2^l blocks along
    K = G[2] = {g : 2g = 0} of rank l (one block, the group matrix, at odd
    order).

    Write each element as t + kappa, t in T (the least element of each coset
    of K) and kappa in K. Entry (t_i + a, t_j + b) of the group matrix M is
    x_{t_i - t_j + a + b}, as -b = b in K. So in the basis t + kappa,
    M = sum_kappa X_kappa (x) R_kappa, where X_kappa[i][j] = x_{t_i - t_j + kappa}
    and R_kappa is the permutation matrix of translation by kappa on K. The
    +-1 Hadamard matrix of K, with rows the sign characters psi of K, takes
    every R_kappa to the diagonal matrix of the psi(kappa), so M is similar,
    by a permutation and I (x) Hadamard, to the block-diagonal matrix of the
    B_psi = sum_kappa psi(kappa) X_kappa, and det M = prod_psi det B_psi
    exactly, over Z.

    The |K| values of each cell of _split_table go through one Walsh-Hadamard
    transform, all cells at once, in l rounds of constant geometry: each
    round puts the sums of the values at positions 2p and 2p + 1 first, then
    their differences. Block psi then fills positions psi |T|^2 onwards, its
    cells in row order. Its rows go to the elimination as they are; a block
    of determinant 0 ends the product."""
    vals = check_assignment(group, values)
    n, m, cells = _split_table(group.orders)
    v = list(map(vals.__getitem__, cells))
    for _ in range(m.bit_length() - 1):
        evens, odds = v[0::2], v[1::2]
        v = list(map(add, evens, odds))
        v += map(sub, evens, odds)
    size = n * n
    det = 1
    for start in range(0, len(v), size):
        d = _eliminate_int([v[r:r + n] for r in range(start, start + size, n)], n)
        if not d:
            return 0
        det *= d
    return det


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
    # row g of the index table holds the index of g - h at column h
    return tuple(sum(a * yv[j] for a, j in zip(xv, row)) for row in _index_table(group.orders))
