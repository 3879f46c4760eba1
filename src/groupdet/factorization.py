"""Character-product evaluation and factorizations of integer group determinants.

The determinant of a finite abelian group factors over its characters into
linear forms. Grouping those forms along a direct-product component yields one
factor per character of that component; the coprime circulant split of Laquer
is the cyclic special case, and sign characters of (Z/2Z)^l give all-integer
factors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .characters import exponent_table
from .cyclotomic import CyclotomicInt, NotRationalError
from .determinant import check_assignment, circulant_det, group_determinant
from .groups import AbelianGroup, direct_product


@dataclass(frozen=True)
class FactorizationReport:
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


def dedekind_product(group: AbelianGroup, values) -> int:
    """The determinant as the exact product of all character sums.

    The product is always a rational integer; a non-integer result would mean
    the arithmetic itself is broken, so that error is never caught here.
    """
    return _product(character_sums(group, values), group.exponent).to_integer()


def split_character_sums(H: AbelianGroup, K: AbelianGroup, values) -> list[list[CyclotomicInt]]:
    """Character sums of H x K grouped by the K-character, all at level lcm(N_H, N_K).

    Entry [i][j] is the form sum_h psi_j(h) * (sum_k chi_i(k) x_(h,k)): characters
    of H x K run with the K-character fastest, so group i is every |K|-th sum.
    """
    sums = character_sums(direct_product(H, K), values)
    return [sums[i::K.order] for i in range(K.order)]


def direct_product_factors(H: AbelianGroup, K: AbelianGroup, values) -> FactorizationReport:
    """Factor the determinant of H x K into one factor per character of K.

    Factor i is the H-determinant of the chi_i-twisted assignment
    y_h = sum_k chi_i(k) x_(h,k), evaluated as a character product at the
    common level; the factor product is cross-checked against the direct
    determinant of H x K.
    """
    grouped = split_character_sums(H, K, values)
    L = lcm(H.exponent, K.exponent)
    factors = tuple(_product(forms, L) for forms in grouped)
    product = _product(factors, L).to_integer()
    direct = group_determinant(direct_product(H, K), values)
    return FactorizationReport(
        split=f"H={H}, K={K}",
        factors=factors,
        product=product,
        direct_det=direct,
        match=product == direct,
    )


@lru_cache(maxsize=None)
def _sign_rows(l: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 - 2 * k for k in row) for row in exponent_table((2,) * l))


def sign_twists(l: int, vals: tuple) -> list[list[int]]:
    """The twisted assignments y_h = sum_k chi_i(k) x_(h,k) of H, one per sign
    character chi_i of (Z/2Z)^l, for an assignment of H x (Z/2Z)^l."""
    rows = _sign_rows(l)
    chunks = list(zip(*[iter(vals)] * len(rows)))
    return [[sum(map(mul, signs, c)) for c in chunks] for signs in rows]


def integer_split_factors(H: AbelianGroup, l: int, values) -> list[int]:
    """All-integer factors of the determinant of H x (Z/2Z)^l, one per sign character.

    Factor i is the H-determinant of y_h = sum_k chi_i(k) x_(h,k) with
    chi_i(k) in {+1,-1}; the trivial character comes first.
    """
    if l < 1:
        raise ValueError("need at least one Z/2Z factor to split off")
    vals = check_assignment(direct_product(H, AbelianGroup((2,) * l)), values)
    return [group_determinant(H, ys) for ys in sign_twists(l, vals)]


def laquer_factors(r: int, s: int, xs) -> FactorizationReport:
    """Coprime circulant split C_(r*s) = prod over i < s of C_r(y^i).

    y_j^i = sum_k zeta_s^(i*(k*r + j - 1)) x_(k*r + j) in the classical 1-based
    indexing, i.e. xs[t] is x_(t+1), the value at residue t. Factor i is the
    character product of C_r(y^i) at level lcm(r, s) = r*s.
    """
    if r < 1 or s < 1 or gcd(r, s) != 1:
        raise ValueError(f"need coprime positive sizes, got r={r}, s={s}")
    n = r * s
    xs = tuple(xs)
    if len(xs) != n:
        raise ValueError(f"assignment length {len(xs)} does not match r*s = {n}")
    # The m-th C_r form of factor i weights x at residue t by
    # zeta_r^(m*t) * zeta_s^(i*t) = zeta_n^((s*m + r*i) * t), so it is the
    # character sum of Z/nZ with exponent (s*m + r*i) mod n.
    sums = character_sums(AbelianGroup((n,)), xs)
    factors = [_product((sums[(s * m + r * i) % n] for m in range(r)), n) for i in range(s)]
    product = _product(factors, n).to_integer()
    direct = circulant_det(n, xs)
    return FactorizationReport(
        split=f"C{n} = C{r} * C{s} (coprime)",
        factors=tuple(factors),
        product=product,
        direct_det=direct,
        match=product == direct,
    )


def crt_transport(r: int, s: int, xs) -> tuple[int, ...]:
    """Carry a circulant assignment of Z/(r*s)Z to Z/rZ x Z/sZ.

    The residue x = a*s + b*r mod r*s lands at element (a, b), so the value at
    product index a*s + b is xs[(a*s + b*r) % (r*s)].
    """
    if r < 1 or s < 1 or gcd(r, s) != 1:
        raise ValueError(f"need coprime positive sizes, got r={r}, s={s}")
    n = r * s
    xs = tuple(xs)
    if len(xs) != n:
        raise ValueError(f"assignment length {len(xs)} does not match r*s = {n}")
    out = [0] * n
    for a in range(r):
        for b in range(s):
            out[a * s + b] = xs[(a * s + b * r) % n]
    return tuple(out)


def laquer_agrees_with_split(r: int, s: int, xs) -> bool:
    """Laquer's split must equal the transported direct-product split: same factor
    multiset, and both products equal to the circulant determinant."""
    lap = laquer_factors(r, s, xs)
    split = direct_product_factors(
        AbelianGroup((r,)), AbelianGroup((s,)), crt_transport(r, s, xs)
    )
    expected = lap.direct_det
    return (
        Counter(lap.factors) == Counter(split.factors)
        and lap.match
        and split.match
        and lap.product == expected
        and split.product == expected
    )
