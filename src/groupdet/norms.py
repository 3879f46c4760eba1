"""The group determinant as a product of rational norm factors.

The characters chi^u, u a unit mod d, of a character chi of order d form one
Galois orbit, and the product of their character sums is the norm
N_{Q(zeta_d)/Q}(sum_g chi(g) x_g), a rational integer. Grouping the
Frobenius-Dedekind product by orbit therefore writes

    det = prod over orbits of N(sum_g zeta_d^(k(g)) x_g),

one integer factor per orbit. Each orbit's form is stored reduced mod Phi_d
as phi(d) integer coefficient rows over the |G| coordinates, so evaluating an
assignment is a few integer dot products and one small norm per orbit.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import add
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
        flat = [row for orbit in self.orbits for row in orbit.rows]
        self.columns = tuple(tuple(row[g] for row in flat) for g in range(order))
        self._moduli = tuple((len(o.rows), cyclotomic_polynomial(o.order)) for o in self.orbits)

    def norms(self, head, tail) -> list[int]:
        """One norm per orbit of the coefficient vector head + tail, both laid
        out like columns; the box engine passes a prefix and a suffix part.

        phi(d) = 1 means d = 1 or 2 and the norm is the coefficient itself;
        phi(d) = 2 means d = 3, 4 or 6 and Phi_d = x^2 + p1 x + p0, whose norm
        form is a0^2 - p1 a0 a1 + p0 a1^2; phi(d) = 4 (d = 5, 8, 10, 12) goes
        through _norm4, and larger phi(d) through integer Bareiss.
        """
        out = []
        at = 0
        for phi, p in self._moduli:
            if phi == 1:
                out.append(head[at] + tail[at])
            elif phi == 2:
                a0 = head[at] + tail[at]
                a1 = head[at + 1] + tail[at + 1]
                out.append(a0 * a0 - p[1] * a0 * a1 + p[0] * a1 * a1)
            elif phi == 4:
                out.append(_norm4(p, *map(add, head[at:at + 4], tail[at:at + 4])))
            else:
                end = at + phi
                out.append(_multiplication_det(p, list(map(add, head[at:end], tail[at:end]))))
            at += phi
        return out

    def coefficients(self, values) -> list[int]:
        """The coefficient vector of an assignment: sum of x_g * columns[g]."""
        acc = [0] * len(self.columns)
        for x, col in zip(values, self.columns):
            if x:
                acc = list(map(add, acc, (x * c for c in col)))
        return acc


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


def norm_factors(group: AbelianGroup, values) -> list[int]:
    """The rational norm factors of the determinant, one per Galois orbit of
    characters in orbit_plan order; their product is the group determinant."""
    vals = check_assignment(group, values)
    plan = orbit_plan(group.orders)
    return plan.norms(plan.coefficients(vals), [0] * len(vals))
