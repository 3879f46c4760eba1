"""The group determinant as a product of rational norm factors.

The characters chi^u, u a unit mod d, of a character chi of order d form one
Galois orbit, and the product of their character sums is the norm
N_{Q(zeta_d)/Q}(sum_g chi(g) x_g), a rational integer. Grouping the
Frobenius-Dedekind product by orbit therefore writes

    det = prod over orbits of N(sum_g zeta_d^(k(g)) x_g),

one integer factor per orbit. An orbit with phi(d) <= 2 keeps its form as
integer coefficient rows mod Phi_d; a larger one keeps its phi(d) conjugates
mapped by zeta_d -> w into Z/Phi_d(w), whose product gives the norm (Orbit).
Each plan compiles these norms, multiplied together in the groups a caller
needs, into one straight-line kernel per grouping (OrbitPlan.block), and the
theorem2 checks on top of the sign grouping into a kernel that returns only
aggregates (OrbitPlan.suite).

A shape of even order has k of order 2, and det_G(x) = A(u) B(v) with u =
x|_T + x|_(T+k) and v = x|_T - x|_(T+k), T a transversal of <k>, A and B
the products of the orbit norms with chi(k) = +1 and -1 (the order-2 case
of det_G = prod over psi of det_(G/K)(y_psi)). The split plan, built in
boxes, reads both from one table (Lookup, split_lookups). An orbit goes to A
or B by the restriction of its first character to <k>
(characters.restriction), which its conjugates share, as chi^u(k) = chi(k)
= +-1 for odd u.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .characters import exponent_table, restriction
from .cyclotomic import cyclotomic_polynomial, root_power
from .determinant import check_assignment
from .groups import AbelianGroup, element_at, enumerate_elements, index_of


class Orbit(NamedTuple):
    """One Galois orbit of characters chi^u, u a unit mod order, and its form.

    char is the index, in enumerate_characters order, of the orbit's first
    character chi = zeta_order^k. With modulus 0 (phi(order) <= 2) row j
    gives, per coordinate g, the coefficient of zeta_order^j in chi(g) mod
    Phi_order; otherwise modulus is q = Phi_order(w), w the plan's width,
    and row i gives w^(u k(g)) mod q for the i-th unit u: chi^u(g) under the
    ring map zeta_order -> w onto Z/q.
    """

    char: int
    order: int
    rows: tuple[tuple[int, ...], ...]
    modulus: int


class Lookup(NamedTuple):
    """A factor read from its plan's table: the entry at index a + offset,
    where a = sum_g rows[0][g] x_g."""

    rows: tuple[tuple[int, ...]]
    offset: int


class OrbitPlan:
    """The orbit factors of one group shape, in order of their first character,
    at the width w of its phi(d) >= 4 orbits (0 when it has none); or, with
    a table, the Lookup factors of a split plan.

    dim is the order of the group, the length of an assignment. Its
    coefficient vector has one entry per row of every orbit, one orbit after
    the other, so the orbit forms are consecutive slices of it.
    """

    def __init__(self, orbits, order: int, width: int, table=None) -> None:
        self.orbits = tuple(orbits)
        self.dim = order
        self.width = width
        self.table = table
        self._rows = tuple(row for orbit in self.orbits for row in orbit.rows)
        self._blocks: dict = {}

    def block(self, keys=None):
        """The kernel block(head, tails) of one grouping of the orbits, compiled
        once per plan: for every tail, the products of the orbit norms of the
        coefficient vector head + tail (both as coefficients returns them)
        grouped by keys, a tuple giving each orbit its output slot. Each tail
        gives a tuple of max(keys) + 1 slot products, or with keys None one
        integer, the product of all norms: the determinant.
        """
        return self._kernel(keys, None)

    def suite(self, keys, exp: int):
        """The theorem2 kernel suite(head, tails, sizes) of the grouping keys
        and the bound exponent exp, compiled once per plan from the same
        per-point code as block(keys): with f0, f1, ... the slot products of a
        tail and d their product, it returns the aggregates (even, fails,
        least, at, flagged) of the whole block. even counts the even d, each
        with its weight in sizes; least is the smallest d & -d over the nonzero
        even d (0 when there is none) and at (index, slot products) of its
        first tail (None when there is none); flagged lists, in order, (index,
        slot products) of the even d where some slot product is odd or where
        d != 0 and the 2-adic valuation of d is below exp, and fails counts
        their failure records, one for each of the two, each with its weight.
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
            namespace = {"__builtins__": {}, "enumerate": enumerate, "zip": zip, "_T": self.table}
            exec(self._block_source(keys, exp), namespace)
            kernel = self._blocks[keys, exp] = namespace["block"]
        return kernel

    def _block_source(self, keys, exp=None) -> str:
        """Straight-line source of block(head, tails), or with exp given of
        suite(head, tails, sizes): a_i = h_i + t_i unrolled, phi(d) = 1 norms as the
        coefficient itself, phi(d) = 2 norms with the constants of Phi_d folded
        in, larger phi(d) as the product r of the conjugates mod q =
        Phi_d(w), lifted to r - q when r > q >> 1, and a Lookup as the entry
        _T[h_i + t_i] of the plan's table, its offset added to h_i once per
        block. It holds only integer literals of the plan and of exp and
        fixed identifiers.

        The lift is exact for every |x_g| <= B, the bound the width was chosen
        for (orbit_plan, B taken as max(B, 1)): each conjugate sum_g chi^u(g)
        x_g is at most |G| B in absolute value, so their product, the norm N,
        has |N| <= (|G| B)^phi; zeta_d -> w is a ring map onto Z/q, so r = N
        mod q; and w - 1 >= 2 |G| B gives q = Phi_d(w) >= (w - 1)^phi >
        2 (|G| B)^phi >= 2 |N|."""
        dim = len(self._rows)
        lines = []
        shifts = []
        slots: dict[int, list[str]] = {}
        at = 0
        for key, orbit in zip(keys or [0] * len(self.orbits), self.orbits):
            phi = len(orbit.rows)
            if type(orbit) is Lookup:
                shifts.append(f"h{at} += {orbit.offset:d}")
                norm = f"_T[h{at} + t{at}]"
            elif phi == 1:
                norm = f"(h{at} + t{at})"
            elif orbit.modulus:
                q = orbit.modulus
                conjugates = " * ".join(f"(h{i} + t{i})" for i in range(at, at + phi))
                lines.append(f"r{at} = {conjugates} % {q:d}")
                norm = f"(r{at} - {q:d} if r{at} > {q >> 1:d} else r{at})"
            else:
                a = [f"a{i}" for i in range(at, at + phi)]
                lines.append("; ".join(f"a{i} = h{i} + t{i}" for i in range(at, at + phi)))
                norm = _QUADRATIC_NORMS[orbit.order].format(*a)
            slots.setdefault(key, []).append(norm)
            at += phi
        n_slots = 1 if keys is None else max(keys) + 1
        products = [_product_source(slots.get(k, [])) for k in range(n_slots)]
        hs = ", ".join(f"h{i}" for i in range(dim))
        ts = ", ".join(f"t{i}" for i in range(dim))
        if exp is None:
            value = products[0] if keys is None else f"({', '.join(products)},)"
            params = "head, tails"
            setup = [*shifts, "out = []", "append = out.append"]
            loop = f"for {ts}, in tails:"
            lines.append(f"append({value})")
            result = "out"
        else:
            fs = [f"f{k}" for k in range(n_slots)]
            params = "head, tails, sizes"
            setup = [*shifts, "even = fails = least = 0", "at = None", "flagged = []",
                     "flag = flagged.append"]
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
                f"    fails += w * ((({' | '.join(fs)}) & 1) + (low and not low >> {exp:d}))",
                "if low and (low < least or not least):",
                "    least = low",
                f"    at = (j, ({', '.join(fs)},))",
            ]
            result = "even, fails, least, at, flagged"
        return "".join([
            f"def block({params}):\n",
            f"    {hs}, = head\n",
            *(f"    {line}\n" for line in setup),
            f"    {loop}\n",
            *(f"        {line}\n" for line in lines),
            f"    return {result}\n",
        ])

    def coefficients(self, values) -> list[int]:
        """The coefficient vector of an assignment: one dot product per row of
        the orbit forms."""
        return [sum(map(mul, values, row)) for row in self._rows]


# N(a0 + a1 zeta_d) = a0^2 - p1 a0 a1 + p0 a1^2 for the three quadratic
# Phi_d = x^2 + p1 x + p0, keyed by d, with the constants folded in
_QUADRATIC_NORMS = {
    3: "({0} * ({0} - {1}) + {1} * {1})",  # x^2 + x + 1
    4: "({0} * {0} + {1} * {1})",  # x^2 + 1
    6: "({0} * ({0} + {1}) + {1} * {1})",  # x^2 - x + 1
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


def orbit_plan(orders: tuple[int, ...], bound: int) -> OrbitPlan:
    """The orbit factors of the group with these factor orders, exact on the
    assignments with every |x_g| <= bound. A shape whose exponent is 1, 2,
    3, 4 or 6 has only orbits with phi(d) <= 2 and one plan, of width 0; any
    other has one plan per bit length of 2 |G| max(bound, 1), of width w the
    power of two just above it, so that w - 1 >= 2 |G| max(bound, 1)."""
    width = 0
    if lcm(*orders) not in (1, 2, 3, 4, 6):
        width = 1 << (2 * prod(orders) * max(bound, 1)).bit_length()
    return _build_plan(orders, width)


@lru_cache(maxsize=None)
def _build_plan(orders: tuple[int, ...], width: int) -> OrbitPlan:
    """orbit_plan of the shape at this width, built once per shape and width."""
    group = AbelianGroup(orders)
    N = group.exponent
    seen = set()
    orbits = []
    for c, row in enumerate(exponent_table(orders)):
        if c in seen:
            continue
        d = N // gcd(N, *row)
        exps = element_at(group, c)
        units = [u for u in range(1, d + 1) if gcd(u, d) == 1]
        for u in units:
            seen.add(index_of(group, tuple(u * a % n for a, n in zip(exps, orders))))
        ks = [k // (N // d) for k in row]
        if len(units) <= 2:
            powers = [root_power(d, m).coeffs for m in range(d)]
            rows = tuple(tuple(powers[k][j] for k in ks) for j in range(len(units)))
            orbits.append(Orbit(c, d, rows, 0))
        else:
            q = sum(t * width**j for j, t in enumerate(cyclotomic_polynomial(d)))
            # q = Phi_d(w) divides w^d - 1, so w^e mod q depends on e mod d only
            powers = [1]
            for _ in range(d - 1):
                powers.append(powers[-1] * width % q)
            rows = tuple(tuple(powers[u * k % d] for k in ks) for u in units)
            orbits.append(Orbit(c, d, rows, q))
    return OrbitPlan(orbits, group.order, width)


def split_lookups(orders: tuple[int, ...], bound: int) -> tuple[list[OrbitPlan], tuple]:
    """The plans of the split tables and the Lookup factors A(u), B(v) of a
    shape of even order, for |x_g| <= bound.

    k is n_i / 2 in factor i, the first factor 2 mod 4 or else the first even
    one, and T the g with g_i even when k is odd (T is then the subgroup H,
    G = H x <k>, and A = B = det_H) or with g_i < k otherwise. A's plan is
    orbit_plan(orders, bound) with its orbits of chi(k) = +1, restriction 0
    to <k>, cut to the columns of T, and B's those of chi(k) = -1, restriction
    1: exact on [-2 bound, 2 bound]^|T|, as |T| 2 bound = |G| bound.
    x_g adds +-x_g times the place (4 bound + 1)^(|T| - 1 - j) of its element
    j of T (g or g - k; - for v on T + k) to the index in the table, A in box
    order then B unless it is A, at the offset of u = 0.
    """
    evens = [i for i, n in enumerate(orders) if n % 2 == 0]
    i = next((i for i in evens if orders[i] % 4 == 2), evens[0])
    n, k = orders[i], orders[i] // 2
    elements = enumerate_elements(AbelianGroup(orders))
    moved = [g[i] % 2 if k % 2 else g[i] >= k for g in elements]
    columns = [j for j, m in enumerate(moved) if not m]
    radix, size = 4 * bound + 1, len(columns)
    place = {elements[j]: radix ** (size - 1 - p) for p, j in enumerate(columns)}
    u = tuple(place[g[:i] + ((g[i] - k) % n,) + g[i + 1:] if m else g]
              for g, m in zip(elements, moved))
    v = tuple(-a if m else a for a, m in zip(u, moved))
    plan = orbit_plan(orders, bound)
    signs = restriction(orders, (k * prod(orders[i + 1:]),))
    plans = [OrbitPlan([o._replace(rows=tuple(tuple(r[j] for j in columns) for r in o.rows))
                        for o in plan.orbits if signs[o.char] == sign], size, plan.width)
             for sign in range(2 - k % 2)]
    offset = 2 * bound * sum(radix**j for j in range(size))
    return plans, (Lookup((u,), offset), Lookup((v,), offset + (len(plans) - 1) * radix**size))


def grouped_norms(group: AbelianGroup, values, keys) -> list[int]:
    """The products of the orbit norms of one assignment, grouped by keys as
    in OrbitPlan.block."""
    vals = check_assignment(group, values)
    plan = orbit_plan(group.orders, max(map(abs, vals)))
    return list(plan.block(tuple(keys))(plan.coefficients(vals), [(0,) * len(vals)])[0])


def norm_factors(group: AbelianGroup, values) -> list[int]:
    """The rational norm factors of the determinant, one per Galois orbit of
    characters in orbit_plan order; their product is the group determinant."""
    vals = check_assignment(group, values)
    orbits = orbit_plan(group.orders, max(map(abs, vals))).orbits
    return grouped_norms(group, vals, range(len(orbits)))
