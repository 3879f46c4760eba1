"""Group matrices and exact fraction-free integer determinants.

Entries are Python ints; the elimination is Bareiss (fraction-free), so every
internal division is an exact integer division, and each one is checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat
from math import prod
from operator import add, itemgetter, sub
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


def ensure_tables(orders: tuple[int, ...], budget: int = DEFAULT_BUDGET) -> None:
    """Raise when |G|^2, the size of the tables built for a group of these
    factor orders, or the elimination steps of the split re-check of one
    point (_split_along) exceed the budget, |G|^2 first: it bounds the
    primes."""
    dim = prod(orders)
    if dim * dim > budget:
        raise BudgetExceededError(
            f"a group of order {dim} needs tables of {dim * dim} entries, over the budget "
            f"of {budget}"
        )
    steps = _split_along(orders)[0]
    if steps > budget:
        raise BudgetExceededError(
            f"a group of order {dim} needs {steps} steps to re-check one point by Bareiss "
            f"elimination on its split blocks, over the budget of {budget}"
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
    if not all(map(isinstance, vals, repeat(int))):
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
def _split_along(orders: tuple[int, ...]) -> tuple[int, tuple]:
    """(steps, along): K = (+)_p G[p] over every prime p dividing |G|, as
    along = ((p, positions), ...), p ascending and positions the factors
    whose orders p divides, and the elimination steps of its split,
    |T|^3 prod_p (1 + (p^l_p - 1)(p - 1)^2), l_p the length of positions
    and |T| = |G| / |K|; (1, ()) for the trivial group."""
    along = tuple((p, positions) for p in range(2, max(orders) + 1)
                  for positions in [tuple(i for i, n in enumerate(orders) if n % p == 0)]
                  if positions and all(p % r for r in range(2, p)))
    size = prod(orders) // prod(p ** len(positions) for p, positions in along)
    return size**3 * prod(1 + (p ** len(positions) - 1) * (p - 1) ** 2
                           for p, positions in along), along


@lru_cache(maxsize=None)
def _split_table(orders: tuple[int, ...], along: tuple) -> tuple:
    """(cells, rounds, lines) for K = (+)_p K_p, K_p the p-torsion of the
    factors at the positions that along pairs with p (p divides their
    orders), and T the least element of each coset of K, its coordinates
    below n / r in a factor of order n, r the product of its primes in along.

    cells[(i |T| + j) |K| + k] is the index of t_i - t_j + kappa_k, kappa_k
    having the mixed-radix digits of k over the basis of K that those
    factors give: a digit per factor and prime of it, factor by factor,
    primes ascending within one, the last factor's last prime lowest.
    rounds holds the prime of each digit from the lowest up, the order the
    transform of _split_blocks takes them in; lines is _lines of the same
    digits. Built one factor at a time from coordinates, every entry one of
    the |G| ints of ids."""
    ids = list(range(prod(orders)))
    digits = sorted((i, p) for p, positions in along for i in positions)
    rows, m = [[0]], 1
    for i, n in enumerate(orders):
        primes = [p for f, p in digits if f == i]
        step = n // prod(primes)
        shifts = [sum(a * (n // p) for a, p in zip(kappa, primes)) % n
                  for kappa in product(*map(range, primes))]
        grown = []
        for row in rows:
            cells = [row[c:c + m] for c in range(0, len(row), m)]
            for a in range(step):
                grown.append([ids[r * n + (a - b + s) % n]
                              for cell in cells for b in range(step) for r in cell for s in shifts])
        rows, m = grown, m * len(shifts)
    rounds = tuple(p for _, p in reversed(digits))
    return tuple(chain.from_iterable(rows)), rounds, _lines(along, rounds, len(rows))


def _choices(p: int, weights: tuple[int, ...]) -> list:
    """The choices of K_p, of rank l = len(weights), as (point, z): the
    trivial character, then each line c of F_p^l by its point of first
    nonzero coordinate 1 over the factors of K_p.

    The transform of _split_blocks leaves one chunk per digit vector o of
    kappa, at offset sum_d o_d weights[d], d = 0 the lowest digit of K_p.
    Chunk o is the coefficient of the basis element that is the sum at each
    digit d with o_d = 0 and X_d^(o_d - 1) at the others. Line c reads the
    chunks with o_d = 0 exactly where c_d = 0; X_d -> X^(c_d) takes each to
    a power X^b, and z[b] holds the offsets of those taken to X^b, for b
    mod p. The trivial character reads chunk 0, and at p = 2, where z[1] is
    empty, a line reads its one chunk: there z is that one b."""
    l = len(weights)
    choices = [((0,) * l, [[0]])]
    for mask in range(1, 1 << l):
        support = [d for d in range(l) if mask >> d & 1]
        for rest in product(range(1, p), repeat=len(support) - 1):
            c = dict(zip(support, (*rest, 1)))
            z: list[list[int]] = [[] for _ in range(p)]
            for o in product(range(1, p), repeat=len(support)):
                z[sum(c[d] * (a - 1) for d, a in zip(support, o)) % p].append(
                    sum(a * weights[d] for d, a in zip(support, o)))
            point = tuple(c.get(d, 0) for d in reversed(range(l)))
            choices.append((point, z[:1] if p == 2 else z))
    return choices


def _lines(along: tuple, rounds: tuple[int, ...], n: int) -> tuple:
    """How _split_blocks reads the blocks for K = (+)_p K_p and |T| = n: one
    per choice of the trivial character or a line of each K_p (_choices),
    the first prime's choice slowest, as (points, width, starts, stages),
    points the choice's point for each prime.

    Chunk o of the transform is the n^2 values from offset o n^2, one per
    cell, then a 0. z_b, for b the tuple of each prime's b, is the sum of
    the chunks at the sums of one offset from each prime's z[b]. The block
    is sum_b z_b (x)_p C_p^(b_p), C_p^a the 1 x 1 [1] where the choice at p
    is 1 x 1 and otherwise multiplication by X^a in the basis 1, X, ...,
    X^(p-2), with entry (r, k) = [r = a + k] - [a + k = p - 1], indices mod
    p. So it is read one prime at a time: the read at p takes each b_p to
    (r, k) with z_(r-k) - z_(p-1-k) at p. A key holds a pair (row, column)
    per prime, (b_p, 0) until p is read; each stage lays its values out as
    the rows of the keys' rows and i, the first prime slowest, times the
    columns of their columns and j, and base gives where each key's cell
    (0, 0) is, cell (i, j) lying i rows and j columns on. The last stage is
    the block: row r n + i holds cell (i, j) at column k n + j.

    Each stage is a (plus, minus) pair of tuples of itemgetters on the
    values before it, the transform first, whose reads are added and
    subtracted; it leaves its entries and a 0. The stages are the z_b,
    where some have more than one chunk, then one per read. The block is the
    width entries from each of starts. A block of one chunk is read in
    place: no stages, and starts holds the offsets of its rows."""
    size = n * n
    chosen = [_choices(p, tuple(prod(rounds[:r]) for r, q in enumerate(rounds) if q == p))
              for p, _ in along]
    lines = []
    for choice in product(*chosen):
        points = tuple(point for point, _ in choice)
        zs = {(): [0]}
        for _, z in choice:
            zs = {b + ((a, 0),): [o + q for o in zs[b] for q in z[a]]
                  for b in zs for a in range(len(z)) if z[a]}
        stages, pad, step = [], size * prod(rounds), n
        base = {b: chunks[0] * size for b, chunks in zs.items()}
        terms = max(map(len, zs.values()))
        if terms > 1:
            stages.append((tuple(itemgetter(*[chunks[t] * size + c if t < len(chunks) else pad
                                              for chunks in zs.values() for c in range(size)])
                                 for t in range(terms)), ()))
            base, pad = {b: t * size for t, b in enumerate(zs)}, len(zs) * size
        shape = [(len(z), 1) for _, z in choice]
        width = n
        for d, (_, z) in enumerate(choice):
            p = len(z)
            if p == 1:
                continue
            shape[d] = (p - 1, p - 1)
            rows = list(product(*[range(r) for r, _ in shape]))
            columns = list(product(*[range(k) for _, k in shape]))
            width = len(columns) * n
            moved = {tuple(zip(row, column)): (y * width + x) * n
                     for y, row in enumerate(rows) for x, column in enumerate(columns)}
            plus, minus = [], []
            for row in rows:
                for i in range(n):
                    for column in columns:
                        key = tuple(zip(row, column))
                        r, k = key[d]
                        for b, out in (((r - k) % p, plus), ((p - 1 - k) % p, minus)):
                            at = base.get(key[:d] + ((b, 0),) + key[d + 1:])
                            out += [pad] * n if at is None else range(at + i * step,
                                                                      at + i * step + n)
            stages.append(((itemgetter(*plus),), (itemgetter(*minus),)))
            base, pad, step = moved, len(plus), width
        if stages:
            starts = range(0, width * width, width)
        else:
            (start,) = base.values()
            starts = range(start, start + size, n)
        lines.append((points, width, tuple(starts), tuple(stages)))
    return tuple(lines)


def _split_blocks(group: AbelianGroup, values: Sequence, along: tuple):
    """Yield the rows of each block of the split along K = (+)_p K_p, K_p
    the p-torsion of the factors at the positions that along pairs with p
    (_split_table), in the order of _lines: B_1 first. For K of exponent 2
    the blocks are the group matrices of G/K at the sign twists of K's
    characters, in character order.

    The |K| values of each cell of _split_table go through one transform,
    all cells at once, one round per digit of kappa, each of constant
    geometry. A round at p takes the p values at positions p q to
    p q + p - 1, the lowest digit left, to their sum and then each of the
    first p - 1 less the last: f -> (sum f, f mod Phi_p) in the basis 1, X,
    ..., X^(p-2). It puts the p results at q, q + L, ..., q + (p - 1) L, L
    the length over p. At p = 2 that is the Walsh-Hadamard butterfly, sums
    first, then differences."""
    vals = check_assignment(group, values)
    cells, rounds, lines = _split_table(group.orders, along)
    v = list(map(vals.__getitem__, cells))
    for p in rounds:
        first, last = v[0::p], v[p - 1::p]
        total = map(add, first, last)
        for r in range(1, p - 1):
            total = map(add, total, v[r::p])
        total = list(total)
        total += map(sub, first, last)
        for r in range(1, p - 1):
            total += map(sub, v[r::p], last)
        v = total
    v.append(0)
    for _, width, starts, stages in lines:
        src = v
        for plus, minus in stages:
            out = plus[0](src)
            for get in plus[1:]:
                out = map(add, out, get(src))
            for get in minus:
                out = map(sub, out, get(src))
            src = [*out, 0]
        yield [src[a:a + width] for a in starts]


def group_determinant(group: AbelianGroup, values: Sequence):
    """Exact integer determinant of the group matrix of an integer assignment,
    as the product of the Bareiss determinants of its blocks along
    K = (+)_p G[p], G[p] = {g : pg = 0} of rank l_p, over every prime p
    dividing |G| (_split_along; one block, the group matrix, for the
    trivial group).

    Write each element as t + kappa, t in T (the least element of each coset
    of K) and kappa in K. Entry (t_i + a, t_j + b) of the group matrix M is
    x_{t_i - t_j + a - b}. So in the basis t + kappa,
    M = sum_kappa X_kappa (x) R_kappa, where X_kappa[i][j] = x_{t_i - t_j + kappa}
    and R_kappa is the permutation matrix of translation by kappa on K, that
    is, multiplication by kappa on Q[K]. Take each kappa_p, the p-part of
    kappa, in F_p^l_p by its coordinates over the basis of G[p], and let
    c_p run over the (p^l_p - 1)/(p - 1) lines of F_p^l_p, each by its point
    of first nonzero coordinate 1. The map

        f -> (sum f, (sum_kappa f(kappa) X^<c_p, kappa> mod Phi_p)_c_p),

    Q[G[p]] -> Q + (+)_c_p Q[X]/Phi_p, Phi_p = 1 + X + ... + X^(p-1), is a
    ring isomorphism: it is multiplicative, X^p = 1 in Q[X]/Phi_p, and it is
    injective because the complex characters kappa -> zeta^<u c_p, kappa>,
    u = 1, ..., p - 1, with the trivial one are all the characters of G[p],
    on p^l = 1 + (p^l - 1)/(p - 1) (p - 1) dimensions. In the basis 1, X,
    ..., X^(p-2) it takes multiplication by kappa to 1 (+) (+)_c_p
    C_p^<c_p, kappa>, C_p the companion matrix of Phi_p. As K is the
    direct sum of the G[p], Q[K] = (x)_p Q[G[p]], and the tensor product of
    these isomorphisms is one for K: it takes multiplication by kappa to
    the direct sum, over the choices of the trivial character or a line
    c_p for each p, of the Kronecker products (x)_p C_p^<c_p, kappa_p>
    (1 x 1 for the trivial choice). So one rational change of basis,
    I (x) that map, and a permutation take M to the block-diagonal matrix of
    the blocks B_(c) = sum_kappa X_kappa (x) (x)_p C_p^<c_p, kappa_p>, of
    size |T| prod_(p nontrivial) (p - 1), and det M = prod_(c) det B_(c)
    exactly, over Z. B_(c) is read from sums z_b of the
    x_{t_i - t_j + kappa} (_choices, _lines). At p = 2, C_2 = [-1],
    and for K of exponent 2 the blocks are the 2^l sign twists.

    The argument holds for any K of square-free exponent, a direct sum of
    subgroups of prime exponent. The blocks come from _split_blocks; a
    block of determinant 0 ends the product."""
    det = 1
    for rows in _split_blocks(group, values, _split_along(group.orders)[1]):
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
