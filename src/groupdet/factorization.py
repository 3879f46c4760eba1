"""Character-product evaluation and factorizations of integer group determinants.

The determinant of a finite abelian group factors over its characters into
linear forms. Multiplying together the forms whose characters have the same
restriction to a subgroup K yields one factor per character of K: the
direct-product split is K a direct factor, the coprime circulant split of
Laquer is K = <r> in Z/(r*s)Z, and for K = (Z/2Z)^l the orbit norms grouped
the same way give all-integer factors.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import NamedTuple

from .characters import exponent_table
from .cyclotomic import CyclotomicInt, NotRationalError
from .determinant import check_assignment, circulant_det, group_determinant
from .groups import AbelianGroup, crt_decompose, direct_product
from .norms import grouped_norms, orbit_plan


class FactorizationReport(NamedTuple):
    """One factor per character of the split-off component, with a cross-check
    of the factor product against the directly computed determinant."""

    split: str
    factors: tuple[CyclotomicInt, ...]
    product: int
    direct_det: int
    match: bool

    def as_json_dict(self) -> dict:
        rendered = []
        for f in self.factors:
            try:
                rendered.append(str(f.to_integer()))
            except NotRationalError:
                rendered.append(f.render())
        return {
            "split": self.split,
            "factors": rendered,
            "product": str(self.product),
            "direct_det": str(self.direct_det),
            "match": self.match,
        }


def character_sums(group: AbelianGroup, values) -> list[CyclotomicInt]:
    """The linear forms sum_g chi(g) x_g, one per character, in character order."""
    vals = check_assignment(group, values)
    N = group.exponent
    sums = []
    for row in exponent_table(group.orders):
        buckets = [0] * N
        for k, v in zip(row, vals):
            buckets[k] += v
        sums.append(CyclotomicInt.from_polynomial(N, buckets))
    return sums


def _product(forms, level: int) -> CyclotomicInt:
    acc = CyclotomicInt.one(level)
    for f in forms:
        acc = acc * f
    return acc


def _restriction_products(pairs, width: int, one) -> list:
    """Product i of the items whose character restricts to the i-th character of
    a subgroup K of order width, for (c, item) pairs with c the character index.

    Character c restricts to c mod |K|: in H x K the K-character runs fastest,
    and the character k of Z/(r*s)Z restricts to k mod s on <r> = Z/sZ.
    """
    out = [one] * width
    for c, item in pairs:
        out[c % width] *= item
    return out


def _report(split: str, factors, level: int, direct: int) -> FactorizationReport:
    product = _product(factors, level).to_integer()
    return FactorizationReport(split, tuple(factors), product, direct, product == direct)


def dedekind_product(group: AbelianGroup, values) -> int:
    """The determinant as the exact product of all character sums.

    The product is always a rational integer; a non-integer result would mean
    the arithmetic itself is broken, so that error is never caught here.
    """
    return _product(character_sums(group, values), group.exponent).to_integer()


def direct_product_factors(H: AbelianGroup, K: AbelianGroup, values) -> FactorizationReport:
    """Factor the determinant of H x K into one factor per character of K.

    Factor i is the H-determinant of the chi_i-twisted assignment
    y_h = sum_k chi_i(k) x_(h,k), evaluated as the product of the character
    sums of H x K that restrict to chi_i; the factor product is cross-checked
    against the direct determinant of H x K.
    """
    G = direct_product(H, K)
    sums = character_sums(G, values)
    factors = _restriction_products(enumerate(sums), K.order, CyclotomicInt.one(G.exponent))
    return _report(f"H={H}, K={K}", factors, G.exponent, group_determinant(G, values))


def integer_split_factors(H: AbelianGroup, l: int, values) -> list[int]:
    """All-integer factors of the determinant of H x (Z/2Z)^l, one per sign character.

    Factor i is the H-determinant of y_h = sum_k chi_i(k) x_(h,k) with
    chi_i(k) in {+1,-1}, trivial character first: the product of the orbit
    norms whose characters restrict to chi_i. A Galois orbit keeps its sign
    character (trivial at odd order, fixed by odd units), so each norm belongs
    to one factor.
    """
    if l < 1:
        raise ValueError("need at least one Z/2Z factor to split off")
    G = direct_product(H, AbelianGroup((2,) * l))
    return grouped_norms(G, values, _sign_keys(G.orders, l))


def _sign_keys(orders: tuple[int, ...], l: int) -> tuple[int, ...]:
    """The sign factor of H x (Z/2Z)^l that each orbit norm belongs to, in
    orbit_plan order: an orbit's first character c restricts to the sign
    character c mod 2^l, as in _restriction_products."""
    return tuple(orbit.char % (1 << l) for orbit in orbit_plan(orders).orbits)


def laquer_factors(r: int, s: int, xs) -> FactorizationReport:
    """Coprime circulant split C_(r*s) = prod over i < s of C_r(y^i).

    y_j^i = sum_k zeta_s^(i*(k*r + j - 1)) x_(k*r + j) in the classical 1-based
    indexing, i.e. xs[t] is x_(t+1), the value at residue t. Factor i is the
    product of the character sums of Z/(r*s)Z that restrict to the character
    r*i mod s of <r> = Z/sZ, at level r*s.
    """
    if r < 1 or s < 1 or gcd(r, s) != 1:
        raise ValueError(f"need coprime positive sizes, got r={r}, s={s}")
    n = r * s
    xs = tuple(xs)
    if len(xs) != n:
        raise ValueError(f"assignment length {len(xs)} does not match r*s = {n}")
    sums = character_sums(AbelianGroup((n,)), xs)
    groups = _restriction_products(enumerate(sums), s, CyclotomicInt.one(n))
    factors = [groups[r * i % s] for i in range(s)]
    return _report(f"C{n} = C{r} * C{s} (coprime)", factors, n, circulant_det(n, xs))


def crt_transport(r: int, s: int, xs) -> tuple[int, ...]:
    """Carry a circulant assignment of Z/(r*s)Z to Z/rZ x Z/sZ: the residue x
    lands at the element (a, b) = crt_decompose(r*s, r, s, x), index a*s + b."""
    n = r * s
    xs = tuple(xs)
    if len(xs) != n:
        raise ValueError(f"assignment length {len(xs)} does not match r*s = {n}")
    out = [0] * n
    for x, v in enumerate(xs):
        a, b = crt_decompose(n, r, s, x)
        out[a * s + b] = v
    return tuple(out)


def laquer_agrees_with_split(r: int, s: int, xs) -> bool:
    """Laquer's split must equal the transported direct-product split: same factor
    multiset, and both products equal to the circulant determinant."""
    lap = laquer_factors(r, s, xs)
    split = direct_product_factors(AbelianGroup((r,)), AbelianGroup((s,)), crt_transport(r, s, xs))
    same = Counter(lap.factors) == Counter(split.factors)
    return same and lap.match and split.match and split.direct_det == lap.direct_det
