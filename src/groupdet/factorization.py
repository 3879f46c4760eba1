"""Character-product evaluation and factorizations of integer group determinants.

The determinant of a finite abelian group factors over its characters into
linear forms. Multiplying together the forms whose characters have the same
restriction psi to a subgroup K yields det_(G/K)(y_psi), one factor per
character of K, in the order of characters.restriction, the one table that
says which character restricts to which psi: the direct-product split is K
a direct factor, the coprime circulant split of Laquer is K = <r> in
Z/(r*s)Z, and for K = (Z/2Z)^l the orbit norms grouped the same way give
all-integer factors. The forms are multiplied as integers packed at
zeta_N = 2^b modulo Phi_N(2^b) (_packed_products).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .characters import exponent_table, restriction
from .cyclotomic import CyclotomicInt, NotRationalError, cyclotomic_polynomial
from .determinant import check_assignment, circulant_det, group_determinant
from .groups import AbelianGroup, crt_decompose, direct_product


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


@lru_cache(maxsize=None)
def _power_bound(N: int) -> int:
    """C_N, the largest |coefficient| of x^k mod Phi_N over k < N."""
    p = cyclotomic_polynomial(N)
    c = [1] + [0] * (len(p) - 2)
    bound = 1
    for _ in range(N - 1):
        # multiply by x, reducing x^phi by Phi_N
        top = c[-1]
        c = [-top * p[0]] + [c[j - 1] - top * p[j] for j in range(1, len(c))]
        bound = max(bound, *map(abs, c))
    return bound


def _packed_products(group: AbelianGroup, values, slots):
    """Product i of the n / |K| character sums of the c with slots[c] = i, their
    restriction to a subgroup K (characters.restriction), as one packed integer,
    and the packing (N, b, q) that _unpack and _total read them back with.

    zeta_N -> w = 2^b is a ring map Z[zeta_N] -> Z/q with q = Phi_N(w), so a
    sum is packed by Horner over its N exponent buckets (O(b*N) bits whatever
    the entries) and each product is one big-integer multiplication mod q.

    The width is exact. Let phi = phi(N), n = |G|, m = n / |K| and
    L = max(sum_g |x_g|, 1). A product of m sums has l1 norm at most L^m in
    Z[x]/(x^N - 1), so its canonical coefficients are bounded by
    A = C_N * L^m, where C_N = _power_bound(N) is 1 for every N < 105 and 2
    at N = 105, 165, 195 and 210. With w >= max(4A + 1, 2*phi),
    Phi_N(w) >= (w - 1)^phi gives |a(w)| <= A (w^phi - 1)/(w - 1) < q/2: the
    symmetric residue of product i is a(w) itself, and its balanced base-w
    digits are its coefficients. The product of all n sums is the
    determinant, an integer, and each sum has absolute value at most L, so
    q > 2 L^n makes the symmetric residue of that product exact too.
    """
    vals = check_assignment(group, values)
    N = group.exponent
    p = cyclotomic_polynomial(N)
    phi = len(p) - 1
    n = len(vals)
    n_slots = max(slots) + 1  # |K|
    L = max(sum(map(abs, vals)), 1)
    det_bound = 2 * L**n
    b = max(
        (4 * _power_bound(N) * L ** (n // n_slots)).bit_length(),
        (2 * phi - 1).bit_length(),
        det_bound.bit_length() // phi,
    )
    # the start is at most two widths short of q > det_bound: (w - 1)^phi >= 2^((b - 1) phi)
    while True:
        q = 0
        for t in reversed(p):
            q = (q << b) + t
        if q > det_bound:
            break
        b += 1
    out = [1] * n_slots
    for slot, row in zip(slots, exponent_table(group.orders)):
        buckets = [0] * N
        for k, v in zip(row, vals):
            buckets[k] += v
        a = 0
        for t in reversed(buckets):
            a = (a << b) + t
        out[slot] = out[slot] * a % q
    return out, (N, b, q)


def _total(products, q: int) -> int:
    """The product of all the packed products: their product mod q, lifted
    to the symmetric residue."""
    total = 1
    for p in products:
        total = total * p % q
    return total - q if total > q >> 1 else total


def _unpack(value: int, packing) -> CyclotomicInt:
    """The cyclotomic integer a packed product 0 <= value < q stands for: the
    phi(N) balanced base-w digits of its symmetric residue. Digits left over
    mean the width bound failed, which raises ArithmeticError."""
    N, b, q = packing
    r = value - q if value > q >> 1 else value
    half = 1 << b - 1
    mask = (1 << b) - 1
    coeffs = []
    for _ in range(len(cyclotomic_polynomial(N)) - 1):
        d = ((r + half) & mask) - half
        coeffs.append(d)
        r = (r - d) >> b
    if r:
        raise ArithmeticError(f"packed product at level {N} does not fit {b}-bit digits")
    return CyclotomicInt(N, tuple(coeffs))


def _report(split: str, products, packing, direct: int) -> FactorizationReport:
    product = _total(products, packing[2])
    factors = tuple(_unpack(p, packing) for p in products)
    return FactorizationReport(split, factors, product, direct, product == direct)


def dedekind_product(group: AbelianGroup, values) -> int:
    """The determinant as the exact product of all character sums, each its
    own packed product (K = G)."""
    products, packing = _packed_products(group, values, range(group.order))
    return _total(products, packing[2])


def direct_product_factors(H: AbelianGroup, K: AbelianGroup, values) -> FactorizationReport:
    """Factor the determinant of H x K into one factor per character of K.

    Factor i is the H-determinant of the chi_i-twisted assignment
    y_h = sum_k chi_i(k) x_(h,k), evaluated as the product of the character
    sums of H x K that restrict to chi_i; the factor product is cross-checked
    against the direct determinant of H x K.
    """
    G = direct_product(H, K)
    products, packing = _packed_products(G, values, restriction(G.orders, range(K.order)))
    return _report(f"H={H}, K={K}", products, packing, group_determinant(G, values))


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
    from .norms import grouped_norms  # the orbit norms, so only when a split is asked for

    G = direct_product(H, AbelianGroup((2,) * l))
    return grouped_norms(G, values, _sign_keys(G.orders, l))


@lru_cache(maxsize=None)
def _sign_keys(orders: tuple[int, ...], l: int) -> tuple[int, ...]:
    """The sign factor of H x (Z/2Z)^l that each orbit norm belongs to, in
    orbit_plan order: the restriction of the orbit's first character to
    (Z/2Z)^l, the elements of index below 2^l."""
    from .norms import orbit_plan

    signs = restriction(orders, range(1 << l))
    return tuple(signs[orbit.char] for orbit in orbit_plan(orders, 0).orbits)


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
    groups, packing = _packed_products(AbelianGroup((n,)), xs, restriction((n,), (r % n,)))
    products = [groups[r * i % s] for i in range(s)]
    return _report(f"C{n} = C{r} * C{s} (coprime)", products, packing, circulant_det(n, xs))


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
