"""Group matrices and exact fraction-free integer determinants.

Entries are Python ints; the elimination is Bareiss (fraction-free), so every
internal division is an exact integer division, and each one is checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat
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


def _split_prime(orders: tuple[int, ...]) -> int:
    """The prime p along whose G[p] the determinant splits: the one of least
    elimination steps |T|^3 (1 + (p^l - 1)(p - 1)^2), for G[p] of rank l and
    |T| = |G|/p^l, ties going to the smaller p; 2 for the trivial group."""
    order = prod(orders)

    def steps(p: int) -> int:
        rank = sum(n % p == 0 for n in orders)
        return (order // p**rank) ** 3 * (1 + (p**rank - 1) * (p - 1) ** 2)

    primes = [q for q in range(2, max(orders) + 1)
              if any(n % q == 0 for n in orders) and all(q % r for r in range(2, q))]
    return min(primes, key=steps, default=2)


@lru_cache(maxsize=None)
def _split_table(orders: tuple[int, ...]) -> tuple[int, int, int, tuple[int, ...], tuple]:
    """(p, l, |T|, cells, _lines(p, l, |T|)) for K = G[p], the elements g with
    pg = 0, of rank l (p from _split_prime), and T the least element of each
    coset of K: the elements whose coordinates lie below n/p for every factor
    order n that p divides. cells[(i |T| + j) p^l + k] is the index of
    t_i - t_j + kappa_k, kappa_k having the base-p digits of k over the basis
    of K that those factors give, one digit each, the last factor's lowest.
    Built one factor at a time from coordinates, every entry one of the |G|
    ints of ids."""
    p = _split_prime(orders)
    ids = list(range(prod(orders)))
    rows, m = [[0]], 1
    for n in orders:
        step = n // p if n % p == 0 else n
        shifts = range(0, n, step)
        grown = []
        for row in rows:
            cells = [row[c:c + m] for c in range(0, len(row), m)]
            for a in range(step):
                grown.append([ids[r * n + (a - b + s) % n]
                              for cell in cells for b in range(step) for r in cell for s in shifts])
        rows, m = grown, m * len(shifts)
    l = sum(n % p == 0 for n in orders)
    return p, l, len(rows), tuple(chain.from_iterable(rows)), _lines(p, l, len(rows))


def _lines(p: int, l: int, n: int) -> tuple:
    """How _split_blocks reads the blocks for K = G[p] of rank l and |T| = n:
    (c, gather, width, plus, minus) for c = 0, then for each line c of F_p^l,
    by its point of first nonzero coordinate 1 over the factors of K.

    The transform leaves p^l chunks of n^2 values, one per cell, then a 0.
    Chunk sum_d o_d p^d is the coefficient of the basis element that is the
    sum at each digit d with o_d = 0 and X_d^(o_d - 1) at the others. Line
    c reads the chunks with o_d = 0 exactly where c_d = 0; X_d -> X^(c_d)
    takes each to a power X^b, and z_b is the sum of those taken to X^b.
    gather holds one index tuple per term of those sums (the 0 where a sum
    has fewer terms); summed, they give for each row i of cells that row of
    z_0, ..., z_(p-1), z_0, ..., z_(p-2). Row r' n + i of the block is the
    run of width (p - 1) n at plus[r' n + i] less the run at
    minus[r' n + i]: z_(r+2+k') - z_(1+k') at column k' n + j, indices mod
    p, entry (r, k) of cell (i, j) with r' = p - 2 - r and k' = p - 2 - k,
    rows and columns reversed alike. B_1, and every block at p = 2, where
    z_1 is empty, is one chunk read in place: no gather, and plus holds the
    offsets of its rows."""
    size = n * n
    lines = [((0,) * l, (), n, tuple(range(0, size, n)), ())]
    for mask in range(1, 1 << l):
        support = [d for d in range(l) if mask >> d & 1]
        for rest in product(range(1, p), repeat=len(support) - 1):
            c = dict(zip(support, (*rest, 1)))
            z: list[list[int]] = [[] for _ in range(p)]
            for o in product(range(1, p), repeat=len(support)):
                z[sum(c[d] * (a - 1) for d, a in zip(support, o)) % p].append(
                    sum(a * p**d for d, a in zip(support, o)) * size)
            point = tuple(c.get(d, 0) for d in reversed(range(l)))
            if not any(z[1:]) and len(z[0]) == 1:
                lines.append((point, (), n, tuple(range(z[0][0], z[0][0] + size, n)), ()))
                continue
            gather = tuple(tuple(z[b % p][t] + i + j if t < len(z[b % p]) else size * p**l
                                 for i in range(0, size, n) for b in range(2 * p - 1)
                                 for j in range(n))
                           for t in range(max(map(len, z))))
            run = (2 * p - 1) * n
            plus = tuple(i * run + (r + 2) * n for r in reversed(range(p - 1)) for i in range(n))
            minus = tuple(i * run + n for _ in range(p - 1) for i in range(n))
            lines.append((point, gather, (p - 1) * n, plus, minus))
    return tuple(lines)


def _split_blocks(group: AbelianGroup, values: Sequence):
    """Yield the rows of each block of group_determinant, in the order of
    _lines.

    The p^l values of each cell of _split_table go through one transform,
    all cells at once, in l rounds of constant geometry. Each round takes the
    p values at positions p q to p q + p - 1, one digit of kappa, to their
    sum and then each of the first p - 1 less the last: f -> (sum f, f mod
    Phi_p) in the basis 1, X, ..., X^(p-2). It puts the p results at q,
    q + L, ..., q + (p - 1) L, L the length over p. At p = 2 that is the
    Walsh-Hadamard butterfly, sums first, then differences."""
    vals = check_assignment(group, values)
    p, l, n, cells, lines = _split_table(group.orders)
    v = list(map(vals.__getitem__, cells))
    middle = range(1, p - 1)
    for _ in range(l):
        first, last = v[0::p], v[p - 1::p]
        total = list(map(add, first, last))
        for r in middle:
            total = list(map(add, total, v[r::p]))
        total += map(sub, first, last)
        for r in middle:
            total += map(sub, v[r::p], last)
        v = total
    v.append(0)
    for _, gather, width, plus, minus in lines:
        if not gather:
            yield [v[a:a + width] for a in plus]
            continue
        src = list(map(v.__getitem__, gather[0]))
        for terms in gather[1:]:
            src = list(map(add, src, map(v.__getitem__, terms)))
        yield [list(map(sub, src[a:a + width], src[b:b + width])) for a, b in zip(plus, minus)]


def group_determinant(group: AbelianGroup, values: Sequence):
    """Exact integer determinant of the group matrix of an integer assignment,
    as the product of the Bareiss determinants of its blocks along K = G[p] =
    {g : pg = 0} of rank l, for the prime p of fewest elimination steps
    (_split_prime; one block, the group matrix, for the trivial group).

    Write each element as t + kappa, t in T (the least element of each coset
    of K) and kappa in K. Entry (t_i + a, t_j + b) of the group matrix M is
    x_{t_i - t_j + a - b}. So in the basis t + kappa,
    M = sum_kappa X_kappa (x) R_kappa, where X_kappa[i][j] = x_{t_i - t_j + kappa}
    and R_kappa is the permutation matrix of translation by kappa on K, that
    is, multiplication by kappa on Q[K]. Take kappa in F_p^l by its
    coordinates over the basis of K, and let c run over the (p^l - 1)/(p - 1)
    lines of F_p^l, each by its point of first nonzero coordinate 1. The map

        f -> (sum f, (sum_kappa f(kappa) X^<c, kappa> mod Phi_p)_c),

    Q[K] -> Q + (+)_c Q[X]/Phi_p, Phi_p = 1 + X + ... + X^(p-1), is a ring
    isomorphism: it is multiplicative, X^p = 1 in Q[X]/Phi_p, and it is
    injective because the complex characters kappa -> zeta^<u c, kappa>,
    u = 1, ..., p - 1, with the trivial one are all the characters of K,
    on p^l = 1 + (p^l - 1)/(p - 1) (p - 1) dimensions. In the basis 1, X,
    ..., X^(p-2) it takes multiplication by kappa to 1 (+) (+)_c
    C^<c, kappa>, C the companion matrix of Phi_p. So one rational change of
    basis, I (x) that map, and a permutation take M to the block-diagonal
    matrix of B_1 = sum_kappa X_kappa and B_c = sum_kappa X_kappa (x)
    C^<c, kappa>, and det M = det B_1 prod_c det B_c exactly, over Z. Entry
    (r, k) of cell (i, j) of B_c is z_(r-k) - z_(p-1-k), indices mod p, z_a
    the sum of x_{t_i - t_j + kappa} over <c, kappa> = a. At p = 2, C = [-1]
    and the B_c are the 2^l - 1 sign twists off the trivial character.

    The blocks come from _split_blocks; a block of determinant 0 ends the
    product."""
    det = 1
    for rows in _split_blocks(group, values):
        d = _eliminate_int(rows, len(rows))
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
