"""Characters of finite abelian groups, evaluated exactly as roots of unity."""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .cyclotomic import CyclotomicInt, root_power
from .groups import AbelianGroup, Element, check_element


class Character:
    """chi(g) = zeta_N^(sum_i (N/n_i) a_i g_i), N the group exponent, a the exponent tuple;
    immutable."""

    __slots__ = ("group", "exponents")

    def __init__(self, group: AbelianGroup, exponents: tuple[int, ...]) -> None:
        check_element(group, exponents)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "exponents", exponents)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Character, (self.group, self.exponents)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.group == other.group and self.exponents == other.exponents
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.exponents))

    def __repr__(self) -> str:
        return f"Character(group={self.group!r}, exponents={self.exponents!r})"

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)


def enumerate_characters(group: AbelianGroup) -> list[Character]:
    """All |G| characters, exponent tuples enumerated like elements; trivial character first."""
    return [Character(group, exps) for exps in product(*(range(n) for n in group.orders))]


def char_exponent(chi: Character, g: Element) -> int:
    """The k with chi(g) = zeta_N^k, where N is the group exponent."""
    group = chi.group
    check_element(group, g)
    N = group.exponent
    total = 0
    for ai, gi, ni in zip(chi.exponents, g, group.orders):
        total += (N // ni) * ai * gi
    return total % N


@lru_cache(maxsize=None)
def exponent_table(orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The character table of the group with these factor orders, as exponents.

    Row c is the c-th character of enumerate_characters, column g the g-th
    element of enumerate_elements, and the entry is char_exponent(chi_c, g).
    Built once per group shape; every character sum and twist reads it.

    The rows grow one factor at a time, the entry being sum_i (N/n_i) a_i g_i
    mod N: a row of the first k factors and the row of a_(k+1) on factor k+1
    alone give the row of the first k+1 factors, in element order.
    """
    N = AbelianGroup(orders).exponent
    rows = None
    for n in orders:
        # (N/n) a for a in range(n) is range(0, N, N/n)
        steps = [[wa * g % N for g in range(n)] for wa in range(0, N, N // n)]
        rows = steps if rows is None else [
            [(r + c) % N for r in row for c in step] for row in rows for step in steps
        ]
    return tuple(map(tuple, rows))


def char_value(chi: Character, g: Element) -> CyclotomicInt:
    """chi(g) as an exact cyclotomic integer at the group-exponent level."""
    return root_power(chi.group.exponent, char_exponent(chi, g))


def char_sign(chi: Character, g: Element) -> int:
    """chi(g) as a plain +1/-1; requires every cyclic factor order to divide 2."""
    group = chi.group
    if group.exponent > 2:
        raise ValueError(f"char_sign needs a group of exponent dividing 2, got {group}")
    check_element(group, g)
    return -1 if sum(a * b for a, b in zip(chi.exponents, g)) % 2 else 1
