"""The group determinant as a product of rational norm factors.

The characters chi^u, u a unit mod d, of a character chi of order d form one
Galois orbit, and the product of their character sums is the norm
N_{Q(zeta_d)/Q}(sum_g chi(g) x_g), a rational integer. Grouping the
Frobenius-Dedekind product by orbit therefore writes

    det = prod over orbits of N(sum_g zeta_d^(k(g)) x_g),

one integer factor per orbit. Each orbit's form is stored reduced mod Phi_d
as phi(d) integer coefficient rows over the |G| coordinates, so evaluating an
assignment is a few integer dot products and one small norm per orbit. Each
plan compiles these norms, multiplied together in the groups a caller needs,
into one straight-line kernel per grouping (OrbitPlan.block), and the theorem2
checks on top of the sign grouping into a kernel that returns only aggregates
(OrbitPlan.suite).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import mul
from typing import NamedTuple

from .characters import exponent_table
from .cyclotomic import cyclotomic_polynomial, root_power
from .determinant import _eliminate_int, check_assignment
from .groups import AbelianGroup, element_at, index_of


class Orbit(NamedTuple):
    """One Galois orbit of characters and its form reduced mod Phi_order.

    char is the index, in enumerate_characters order, of the orbit's first
    character, whose form the rows hold: row j gives, per coordinate g, the
    coefficient of zeta_order^j in chi(g).
    """

    char: int
    order: int
    rows: tuple[tuple[int, ...], ...]


class OrbitPlan:
    """The orbit factors of one group shape, in order of their first character.

    columns[g] lists coordinate g's coefficients in every orbit's form, one
    orbit after the other, so an assignment's coefficient vector is the sum
    of x_g * columns[g] and the orbit forms are consecutive slices of it.
    """

    def __init__(self, orbits, order: int) -> None:
        self.orbits = tuple(orbits)
        self._rows = tuple(row for orbit in self.orbits for row in orbit.rows)
        self.columns = tuple(tuple(row[g] for row in self._rows) for g in range(order))
        self._moduli = tuple((len(o.rows), cyclotomic_polynomial(o.order)) for o in self.orbits)
        self._blocks: dict = {}

    def block(self, keys=None):
        """The kernel block(head, tails) of one grouping of the orbits, compiled
        once per plan: for every tail, the products of the orbit norms of the
        coefficient vector head + tail (both laid out like columns) grouped by
        keys, a tuple giving each orbit its output slot. Each tail gives a tuple
        of max(keys) + 1 slot products, or with keys None one integer, the
        product of all norms: the determinant.
        """
        return self._kernel(keys, None)

    def suite(self, keys, exp: int):
        """The theorem2 kernel suite(head, tails, sizes) of the grouping keys
        and the bound exponent exp, compiled once per plan from the same
        per-point code as block(keys): with f0, f1, ... the slot products of a
        tail and d their product, it returns the aggregates (even, least, at,
        flagged) of the whole block. even counts the even d, each with its
        weight in sizes (1 each when sizes is left out); least is the smallest d & -d
        over the nonzero even d (0 when there is none) and at the index of its
        first tail (-1 when there is none); flagged lists, in order, (index,
        slot products) of the even d where some slot product is odd or where
        d != 0 and the 2-adic valuation of d is below exp.
        """
        if type(exp) is not int or exp < 0:
            raise ValueError(f"the bound exponent must be an integer >= 0, got {exp!r}")
        return self._kernel(keys, exp)

    def _kernel(self, keys, exp):
        kernel = self._blocks.get((keys, exp))
        if kernel is None:
            if keys is not None and (
                len(keys) != len(self.orbits) or not all(type(k) is int and k >= 0 for k in keys)
            ):
                raise ValueError(f"need one slot index >= 0 per orbit, got {keys!r}")
            namespace = {
                "__builtins__": {}, "enumerate": enumerate, "zip": zip, "_ones": repeat(1),
                "_norm4": _norm4, "_multiplication_det": _multiplication_det,
            }
            exec(self._block_source(keys, exp), namespace)
            kernel = self._blocks[keys, exp] = namespace["block"]
        return kernel

    def _block_source(self, keys, exp=None) -> str:
        """Straight-line source of block(head, tails), or with exp given of
        suite(head, tails, sizes): a_i = h_i + t_i unrolled, phi(d) = 1 norms as the
        coefficient itself, phi(d) = 2 norms with the constants of Phi_d folded
        in, phi(d) = 4 through _norm4 and larger phi(d) through
        _multiplication_det. It holds only integer literals of the plan and of
        exp and fixed identifiers."""
        dim = len(self.columns)
        lines = []
        slots: dict[int, list[str]] = {}
        at = 0
        for key, (phi, p) in zip(keys or [0] * len(self.orbits), self._moduli):
            if phi == 1:
                norm = f"(h{at} + t{at})"
            else:
                a = [f"a{i}" for i in range(at, at + phi)]
                lines.append("; ".join(f"a{i} = h{i} + t{i}" for i in range(at, at + phi)))
                if phi == 2:
                    norm = _QUADRATIC_NORMS[p].format(*a)
                else:
                    poly = ", ".join(f"{c:d}" for c in p)
                    if phi == 4:
                        norm = f"_norm4(({poly}), {', '.join(a)})"
                    else:
                        norm = f"_multiplication_det(({poly}), [{', '.join(a)}])"
            slots.setdefault(key, []).append(norm)
            at += phi
        width = 1 if keys is None else max(keys) + 1
        products = [_product_source(slots.get(k, [])) for k in range(width)]
        hs = ", ".join(f"h{i}" for i in range(dim))
        ts = ", ".join(f"t{i}" for i in range(dim))
        if exp is None:
            value = products[0] if keys is None else f"({', '.join(products)},)"
            params = "head, tails"
            setup = ["out = []", "append = out.append"]
            loop = f"for {ts}, in tails:"
            lines.append(f"append({value})")
            result = "out"
        else:
            fs = [f"f{k}" for k in range(width)]
            params = "head, tails, sizes=_ones"
            setup = ["even = least = 0", "at = -1", "flagged = []", "flag = flagged.append"]
            loop = f"for j, (({ts},), w) in enumerate(zip(tails, sizes)):"
            lines += [f"{f} = {product}" for f, product in zip(fs, products)]
            lines += [
                f"d = {_product_source(fs)}",
                "if d & 1:",
                "    continue",
                "even += w",
                "low = d & -d",
                # an odd slot product, or d != 0 with 2^exp not dividing it
                f"if ({' | '.join(fs)}) & 1 or low and not low >> {exp:d}:",
                f"    flag((j, ({', '.join(fs)},)))",
                "if low and (low < least or not least):",
                "    least = low",
                "    at = j",
            ]
            result = "even, least, at, flagged"
        return "".join([
            f"def block({params}):\n",
            f"    {hs}, = head\n",
            *(f"    {line}\n" for line in setup),
            f"    {loop}\n",
            *(f"        {line}\n" for line in lines),
            f"    return {result}\n",
        ])

    def coefficients(self, values) -> list[int]:
        """The coefficient vector of an assignment: sum of x_g * columns[g],
        one dot product per row of the orbit forms."""
        return [sum(map(mul, values, row)) for row in self._rows]


# N(a0 + a1 zeta) = a0^2 - p1 a0 a1 + p0 a1^2 for the three quadratic
# Phi_d = x^2 + p1 x + p0, keyed by Phi_d, with the constants folded in
_QUADRATIC_NORMS = {
    (1, 1, 1): "({0} * ({0} - {1}) + {1} * {1})",  # d = 3
    (1, 0, 1): "({0} * {0} + {1} * {1})",  # d = 4
    (1, -1, 1): "({0} * ({0} + {1}) + {1} * {1})",  # d = 6
}


def _product_source(factors: list[str]) -> str:
    """Source of the product of the factors, multiplied as a balanced tree so
    that a group with thousands of orbits does not nest thousands deep."""
    if not factors:
        return "1"
    while len(factors) > 1:
        pairs = zip(factors[0::2], factors[1::2])
        factors = [f"({a} * {b})" for a, b in pairs] + factors[len(factors) - len(factors) % 2:]
    return factors[0]


def _norm4(p: tuple[int, ...], a0: int, a1: int, a2: int, a3: int) -> int:
    """_multiplication_det for phi(d) = 4 (d = 5, 8, 10, 12) in straight-line
    code: the multiplication matrix has the columns a, b = a zeta, c = b zeta
    and d = c zeta, and its determinant is the Laplace expansion along the
    first two columns, six products of complementary 2x2 minors."""
    p0, p1, p2, p3, _ = p
    b0, b1, b2, b3 = -a3 * p0, a0 - a3 * p1, a1 - a3 * p2, a2 - a3 * p3
    c0, c1, c2, c3 = -b3 * p0, b0 - b3 * p1, b1 - b3 * p2, b2 - b3 * p3
    d0, d1, d2, d3 = -c3 * p0, c0 - c3 * p1, c1 - c3 * p2, c2 - c3 * p3
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def _multiplication_det(p: tuple[int, ...], a: list[int]) -> int:
    """Norm of a_0 + a_1 zeta + ... modulo the cyclotomic polynomial p: the
    determinant of multiplication by it on the basis 1, zeta, ..., zeta^(phi-1)."""
    phi = len(a)
    cols = [a]
    for _ in range(phi - 1):
        # multiply the previous column by zeta, reducing zeta^phi by p
        b = cols[-1]
        top = b[-1]
        cols.append([-top * p[0]] + [b[j - 1] - top * p[j] for j in range(1, phi)])
    return _eliminate_int(cols, phi)


@lru_cache(maxsize=None)
def orbit_plan(orders: tuple[int, ...]) -> OrbitPlan:
    """The orbit factors of the group with these factor orders, built once per shape."""
    group = AbelianGroup(orders)
    N = group.exponent
    seen = set()
    orbits = []
    for c, row in enumerate(exponent_table(orders)):
        if c in seen:
            continue
        d = N // gcd(N, *row)
        exps = element_at(group, c)
        for u in range(1, d + 1):
            if gcd(u, d) == 1:
                seen.add(index_of(group, tuple(u * a % n for a, n in zip(exps, orders))))
        powers = [root_power(d, m).coeffs for m in range(d)]
        ks = [k // (N // d) for k in row]
        rows = tuple(tuple(powers[k][j] for k in ks) for j in range(len(powers[0])))
        orbits.append(Orbit(c, d, rows))
    return OrbitPlan(orbits, group.order)


def grouped_norms(group: AbelianGroup, values, keys) -> list[int]:
    """The products of the orbit norms of one assignment, grouped by keys as
    in OrbitPlan.block."""
    vals = check_assignment(group, values)
    plan = orbit_plan(group.orders)
    return list(plan.block(tuple(keys))(plan.coefficients(vals), [(0,) * len(vals)])[0])


def norm_factors(group: AbelianGroup, values) -> list[int]:
    """The rational norm factors of the determinant, one per Galois orbit of
    characters in orbit_plan order; their product is the group determinant."""
    return grouped_norms(group, values, range(len(orbit_plan(group.orders).orbits)))
