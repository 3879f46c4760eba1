"""Group matrices and exact fraction-free integer determinants.

Entries are Python ints; the elimination is Bareiss (fraction-free), so every
internal division is an exact integer division, and each one is checked.
"""

from __future__ import annotations

from functools import lru_cache, partial
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


def ensure_budget(orders: tuple[int, ...], box: int, budget: int, force: bool) -> int:
    """Size of the box of a group of these factor orders, raising when its
    tables or the split re-check of one point (ensure_tables) or the box
    exceed the budget and force is off; the tables go first, as
    (2*box+1)^|G| of a huge group takes long to compute."""
    if not force:
        ensure_tables(orders, budget)
    total = box_size(prod(orders), box)
    if not force and total > budget:
        raise BudgetExceededError(
            f"box [-{box}, {box}]^{prod(orders)} needs {total} evaluations, over the budget "
            f"of {budget}"
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
    block of determinant 0 ends the product. Each shape runs its kernel
    (_kernel): straight-line code for these blocks up to KERNEL_SIZE, else
    _split_blocks and _eliminate_int."""
    vals = check_assignment(group, values)
    kernel = _KERNELS.get(group.orders) or _kernel(group)
    return kernel(vals)


# The largest shape that _kernel compiles, counted as the terms of its
# blocks' linear forms, entries times |K|, plus the elimination steps of its
# split (_split_along), which bound its unrolled eliminators. Compiling
# takes about 8 us a step on a 2-vCPU host, so the costliest kernel below
# it, Z/13's (3,614), takes about 20 ms to build, while a call saves a few
# to a few hundred us. (Z/2)^6 (4,160), Z/21 (5,838), Z/30, (Z/2)^11, Z/211
# and Z/390 are above it.
KERNEL_SIZE = 1 << 12
_KERNELS: dict = {}


def _kernel_size(orders: tuple[int, ...]) -> int:
    steps, along = _split_along(orders)
    lines = _split_table(orders, along)[2]
    entries = sum(width * len(starts) for _, width, starts, _ in lines)
    return entries * prod(p ** len(positions) for p, positions in along) + steps


def _kernel(group: AbelianGroup):
    """The determinant of a checked assignment of this shape, cached in
    _KERNELS: compiled from _kernel_source(_block_forms(group)) when
    _kernel_size is at most KERNEL_SIZE, else the product over the blocks
    of _split_blocks of their _eliminate_int determinants."""
    orders = group.orders
    if _kernel_size(orders) <= KERNEL_SIZE:
        kernel = _compile_kernel(_block_forms(group))
    else:
        kernel = partial(_split_determinant, group, _split_along(orders)[1])
    _KERNELS[orders] = kernel
    return kernel


def _split_determinant(group: AbelianGroup, along: tuple, vals: tuple):
    det = 1
    for rows in _split_blocks(group, vals, along):
        d = _eliminate_int(rows, len(rows))
        if not d:
            return 0
        det *= d
    return det


def _block_forms(group: AbelianGroup) -> list:
    """The blocks of _split_blocks, in its order, as rows of linear forms of
    the assignment x, each form the ((k, c), ...) of the nonzero
    coefficients c of x_k, k ascending: read by linearity off the blocks
    of the |G| unit vectors, so that the transform stays the one
    definition of the split."""
    along = _split_along(group.orders)[1]
    dim = group.order
    units = [list(_split_blocks(group, [int(i == k) for i in range(dim)], along))
             for k in range(dim)]
    return [[[tuple((k, rows[i][j]) for k, rows in enumerate(block) if rows[i][j])
              for j in range(len(block[0]))] for i in range(len(block[0]))]
            for block in zip(*units)]


def _compile_kernel(forms: list):
    """kernel(x) of _kernel_source(forms), with the eliminators it calls."""
    sizes = {len(rows) for rows in forms if len(rows) > 2}
    namespace = {"__builtins__": {}, **{f"_E{n}": _eliminator(n) for n in sizes}}
    exec(_kernel_source(forms), namespace)
    return namespace["kernel"]


def _form_source(form: tuple) -> str:
    """x0 + x3 - 2 * x5 for ((0, 1), (3, 1), (5, -2)); 0 for ()."""
    terms = "".join(f" {'-' if c < 0 else '+'} {f'{abs(c):d} * ' if abs(c) != 1 else ''}x{k:d}"
                    for k, c in form)
    return (terms[3:] if terms[1] == "+" else f"-{terms[3:]}") if terms else "0"


def _kernel_source(forms: list) -> str:
    """Straight-line source of kernel(x), the product of the determinants of
    the blocks whose entries are forms (_block_forms), in their order, 0 at
    the first block of determinant 0: a block of size 1 is its form, one of
    size 2 its closed form a d - b c, and a larger one of size n goes to the
    eliminator _En with its entries row by row. Each form is evaluated once,
    into f0, f1, ... where a block first reads it or its negative. x holds
    one value per index the forms read, which is every element: B_1 sums
    them all. The source holds only integer literals and fixed
    identifiers."""
    dim = 1 + max(k for rows in forms for row in rows for form in row for k, _ in form)
    lines = [f"{', '.join(f'x{k:d}' for k in range(dim))}, = x", "det = 1"]
    names: dict[tuple, str] = {}
    for rows in forms:
        entries = []
        for form in chain.from_iterable(rows):
            negative = tuple((k, -c) for k, c in form)
            if negative in names:
                entries.append((-1, names[negative]))
            elif form:
                if form not in names:
                    names[form] = f"f{len(names):d}"
                    lines.append(f"{names[form]} = {_form_source(form)}")
                entries.append((1, names[form]))
            else:
                entries.append((1, "0"))
        n = len(rows)
        if n == 1:
            ((s, a),) = entries
            value = "-" * (s < 0) + a
        elif n == 2:
            (sa, a), (sb, b), (sc, c), (sd, d) = entries
            value = f"{'-' * (sa * sd < 0)}{a} * {d} {'-+'[sb * sc < 0]} {b} * {c}"
        else:
            value = f"_E{n:d}({', '.join('-' * (s < 0) + a for s, a in entries)})"
        lines += [f"d = {value}", "if not d:", "    return 0", "det *= d"]
    return "".join(["def kernel(x):\n", *(f"    {line}\n" for line in lines), "    return det\n"])


@lru_cache(maxsize=None)
def _eliminator(n: int):
    """Bareiss elimination of an n x n int matrix given row by row as
    straight-line code (_eliminator_source), shared by every shape with a
    block of size n."""
    namespace = {"__builtins__": {}, "_eliminate_int": _eliminate_int,
                 "ArithmeticError": ArithmeticError}
    exec(_eliminator_source(n), namespace)
    return namespace["eliminate"]


def _eliminator_source(n: int) -> str:
    """Source of eliminate(a0, a1, ...), the entries of an n x n matrix row
    by row, the steps of _eliminate_int unrolled: step k, under the test
    that its pivot is nonzero, takes entry (i, j), i and j above k, to
    (m_ij m_kk - m_ik m_kj) / p, p the pivot of step k - 1, in place (m is
    a before step 0), the division (from k = 1 on) exact or
    ArithmeticError. A zero pivot falls through to the one call of
    _eliminate_int on the a's, which swaps rows. The n - 1 nested tests stay
    under the parser's 100 indentation levels: n^3 <= KERNEL_SIZE."""
    a = [f"a{i:d}" for i in range(n * n)]
    m = [f"m{i:d}" for i in range(n * n)]
    lines = []
    cur, prev = a, None
    for k in range(n - 1):
        pivot, indent = cur[k * n + k], "    " * k
        lines.append(f"{indent}if {pivot}:")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = f"{cur[i * n + j]} * {pivot} - {cur[i * n + k]} * {cur[k * n + j]}"
                if prev is None:
                    lines.append(f"{indent}    {m[i * n + j]} = {num}")
                else:
                    lines += [f"{indent}    t = {num}", f"{indent}    if t % {prev}:",
                              f"{indent}        raise ArithmeticError("
                              "'fraction-free elimination: inexact division')",
                              f"{indent}    {m[i * n + j]} = t // {prev}"]
        cur, prev = m, pivot
    rows = ", ".join(f"[{', '.join(a[i:i + n])}]" for i in range(0, n * n, n))
    lines += [f"{'    ' * (n - 1)}return {m[-1]}", f"return _eliminate_int([{rows}], {n:d})"]
    return "".join([f"def eliminate({', '.join(a)}):\n", *(f"    {line}\n" for line in lines)])


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
