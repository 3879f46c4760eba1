"""Finite abelian groups given as explicit direct products of cyclic factors.

Elements are residue tuples. Element tuples, assignment vectors, group
matrices and reports all share one ordering convention: mixed radix over the
factor list with the last coordinate varying fastest.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm, prod
from typing import Iterable

Element = tuple[int, ...]


class AbelianGroup:
    """Z/n1 x ... x Z/nt with the factor list kept exactly as given; immutable."""

    __slots__ = ("orders",)

    def __init__(self, orders: tuple[int, ...]) -> None:
        orders = tuple(orders)
        if not orders:
            raise ValueError("a group needs at least one cyclic factor; the trivial group is (1,)")
        for n in orders:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"invalid cyclic factor order {n!r}")
        object.__setattr__(self, "orders", orders)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return AbelianGroup, (self.orders,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.orders == other.orders
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.orders,))

    def __repr__(self) -> str:
        return f"AbelianGroup(orders={self.orders!r})"

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.orders)

    def __str__(self) -> str:
        return format_group_spec(self)


def make_group(orders: int | Iterable[int]) -> AbelianGroup:
    """Build a group from a single cyclic order or a list of factor orders."""
    if isinstance(orders, int):
        return AbelianGroup((orders,))
    return AbelianGroup(tuple(int(n) for n in orders))


def parse_group_spec(spec: str) -> AbelianGroup:
    """Parse a factor list like "4x2" (meaning Z/4Z x Z/2Z, in that order)."""
    parts = spec.strip().split("x")
    try:
        orders = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"bad group spec {spec!r}; expected cyclic orders joined by 'x', e.g. '4x2'"
        ) from None
    return AbelianGroup(orders)


def format_group_spec(group: AbelianGroup) -> str:
    return "x".join(str(n) for n in group.orders)


def check_element(group: AbelianGroup, g: Element) -> None:
    """Raise unless g is a residue tuple of the group."""
    if len(g) != len(group.orders) or any(
        not 0 <= gi < ni for gi, ni in zip(g, group.orders)
    ):
        raise ValueError(f"element {g!r} is not valid in {group}")


def enumerate_elements(group: AbelianGroup) -> list[Element]:
    """All |G| elements in mixed-radix order, last coordinate fastest."""
    return list(product(*(range(n) for n in group.orders)))


def index_of(group: AbelianGroup, g: Element) -> int:
    """Position of g in enumerate_elements(group)."""
    check_element(group, g)
    i = 0
    for gi, ni in zip(g, group.orders):
        i = i * ni + gi
    return i


def element_at(group: AbelianGroup, index: int) -> Element:
    """Inverse of index_of."""
    if not 0 <= index < group.order:
        raise ValueError(f"element index {index} out of range for {group}")
    digits = []
    for ni in reversed(group.orders):
        index, r = divmod(index, ni)
        digits.append(r)
    return tuple(reversed(digits))


def group_op(group: AbelianGroup, g: Element, h: Element) -> Element:
    check_element(group, g)
    check_element(group, h)
    return tuple((gi + hi) % ni for gi, hi, ni in zip(g, h, group.orders))


def cayley_table(orders: tuple[int, ...], sign: int) -> list[list[int]]:
    """Entry (i, j) is the index of g_i + sign * g_j, g_i the element of index
    i of the group with these factor orders, built one factor at a time from
    mixed-radix digits. Every entry is one of the |G| ints of ids, so the
    table costs a pointer per entry."""
    ids = list(range(prod(orders)))
    rows = [[0]]
    for n in orders:
        steps = [[ids[(a + sign * b) % n] for b in range(n)] for a in range(n)]
        rows = [[ids[r * n + c] for r in row for c in step] for row in rows for step in steps]
    return rows


def addition_table(group: AbelianGroup) -> list[list[int]]:
    """add[i][j] is the index of the sum of the elements of index i and j."""
    return cayley_table(group.orders, 1)


def translation_is_even(group: AbelianGroup, a: Element) -> bool:
    """Whether translation by a is an even permutation of the elements: it
    has |G|/ord(a) cycles of length ord(a), so it is odd exactly when ord(a)
    is even and |G|/ord(a) is odd."""
    order = lcm(*(n // gcd(n, c) for n, c in zip(group.orders, a)))
    return order % 2 == 1 or group.order // order % 2 == 0


def automorphisms(group: AbelianGroup, add: list[list[int]], keep: int = 0):
    """Image tables, by element index, of the automorphisms of the group with
    addition table add, depth first over the images of the generators: a
    partial table (the images of the subgroup the first generators span, in
    element order) is only extended while it is injective.

    keep > 0 gives only those mapping the subgroup K of the last keep factors
    onto itself: its elements are the ones of index below |K|, so the images
    of its generators are drawn from them."""
    first = len(group.orders) - keep
    inside = prod(group.orders[first:])

    def extend(table, i):
        if i == len(group.orders):
            yield table
            return
        n = group.orders[i]
        for h in range(len(add) if i < first else inside):
            multiples = [0]
            for _ in range(n - 1):
                multiples.append(add[multiples[-1]][h])
            if add[multiples[-1]][h]:
                continue  # the order of h does not divide n
            ext = [add[s][m] for s in table for m in multiples]
            if len(set(ext)) == len(ext):
                yield from extend(ext, i + 1)

    return extend([0], 0)


def group_inv(group: AbelianGroup, g: Element) -> Element:
    check_element(group, g)
    return tuple(-gi % ni for gi, ni in zip(g, group.orders))


def split_factors(group: AbelianGroup, cut: int) -> tuple[AbelianGroup, AbelianGroup]:
    """Split the factor list positionally into the first `cut` factors and the rest."""
    t = len(group.orders)
    if not 1 <= cut < t:
        raise ValueError(f"cut {cut} out of range for a group with {t} factors")
    return AbelianGroup(group.orders[:cut]), AbelianGroup(group.orders[cut:])


def direct_product(left: AbelianGroup, right: AbelianGroup) -> AbelianGroup:
    return AbelianGroup(left.orders + right.orders)


def crt_decompose(n: int, r: int, s: int, x: int) -> tuple[int, int]:
    """Write x mod n = r*s (with gcd(r, s) = 1) as a*s + b*r, 0 <= a < r, 0 <= b < s.

    The map x -> (a, b) is the residue isomorphism Z/nZ -> Z/rZ x Z/sZ used to
    carry circulant assignments to the product group.
    """
    if r < 1 or s < 1 or r * s != n or gcd(r, s) != 1:
        raise ValueError(f"invalid coprime split {n} = {r} * {s}")
    x %= n
    a = x * pow(s, -1, r) % r
    b = x * pow(r, -1, s) % s
    return a, b
