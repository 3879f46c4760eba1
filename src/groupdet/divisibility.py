"""2-adic divisibility checks for determinants of groups H x (Z/2Z)^l.

Checked per assignment: every split factor has the parity of the trivial
factor, and an even determinant is divisible by 2^(e * 2^l), where e is the
largest exponent such that 2^e divides every even determinant value of H. The
exponents e come from a provenance-tagged table of known value sets, never
from finite search (a box can only certify an upper bound on e).
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul
from typing import NamedTuple

from .boxes import box_size, ensure_budget, map_shards, orderly_scan, pruning_maps
from .characters import exponent_table
from .determinant import (  # two_adic_valuation is re-exported here
    DEFAULT_BUDGET,
    BudgetExceededError,
    _index_table,
    bareiss_det,
    two_adic_valuation,
)
from .factorization import _sign_keys, integer_split_factors
from .groups import AbelianGroup, direct_product
from .norms import orbit_plan

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# A suite keeps the first failures in box order with their witnesses and only
# counts the rest, so a wrong bound over a large box cannot exhaust memory.
KEPT_FAILURES = 20


class ExponentFact(NamedTuple):
    """A known largest exponent e with 2^e dividing every even determinant value."""

    orders: tuple[int, ...]
    exponent: int
    source: str


_EXACT_FACTS = {
    (): ExponentFact((1,), 1, "trivial group: the determinant is x_e itself, so the even values are exactly 2Z"),
    (2,): ExponentFact((2,), 2, "classical: the even circulant values of Z/2Z are exactly 4Z"),
    (2, 2): ExponentFact((2, 2), 4, "determined value set {4m+1, 2^4 (2m+1), 2^6 m} of (Z/2Z)^2"),
    (2, 2, 2): ExponentFact((2, 2, 2), 8, "determined value set {8m+1, 2^8 (4m+1), 2^12 m} of (Z/2Z)^3"),
    (2, 4): ExponentFact((4, 2), 8, "determined value set {8m+1, 2^8 m} of Z/4Z x Z/2Z"),
}


def known_even_exponent(H: AbelianGroup) -> ExponentFact | None:
    """Table lookup, insensitive to factor order and trivial factors; None if unknown."""
    key = tuple(sorted(n for n in H.orders if n > 1))
    fact = _EXACT_FACTS.get(key)
    if fact is not None:
        return fact
    if len(key) == 1:
        n = key[0]
        if n >= 4 and n & (n - 1) == 0:
            power = n.bit_length() - 1
            return ExponentFact(
                (n,),
                power + 2,
                f"Kaiblinger: the even circulant values of Z/{n}Z lie in 2^{power + 2} Z "
                f"and in no smaller power's complement 2^{power + 3} Z",
            )
    return None


def bound_exponent(H: AbelianGroup, l: int, exponent: int | None = None) -> int:
    """The exponent e * 2^l of the divisibility bound for H x (Z/2Z)^l."""
    if l < 1:
        raise ValueError("need at least one Z/2Z factor (l >= 1)")
    if exponent is None:
        fact = known_even_exponent(H)
        if fact is None:
            raise ValueError(f"no known even-value exponent for {H}; pass exponent=")
        exponent = fact.exponent
    elif exponent < 0:
        raise ValueError(f"the even-value exponent must be at least 0, got {exponent}")
    return exponent * (1 << l)


def even_divisibility_bound(H: AbelianGroup, l: int, exponent: int | None = None) -> int:
    """2^(e * 2^l): the divisor every even determinant value of H x (Z/2Z)^l carries."""
    return 1 << bound_exponent(H, l, exponent)


class BoundCheck(NamedTuple):
    """Divisibility verdict for one assignment; valuation is None only for det 0."""

    status: str
    det: int
    valuation: int | None
    bound_exponent: int


def check_even_bound(H: AbelianGroup, l: int, values, exponent: int | None = None) -> BoundCheck:
    """Check one assignment of H x (Z/2Z)^l: an even determinant must be divisible
    by the bound; odd determinants are out of scope (not-applicable). A failure
    is confirmed by _recheck first."""
    exp = bound_exponent(H, l, exponent)
    vals = tuple(values)
    factors = integer_split_factors(H, l, vals)
    det = prod(factors)
    if det % 2:
        return BoundCheck(NOT_APPLICABLE, det, 0, exp)
    if det == 0:
        return BoundCheck(PASS, det, None, exp)
    v = two_adic_valuation(det)
    if v < exp:
        _recheck(H.orders, l, vals, factors)
    return BoundCheck(PASS if v >= exp else FAIL, det, v, exp)


class CongruenceCheck(NamedTuple):
    """Parity verdict for one assignment's split factors."""

    status: str
    factors: tuple[int, ...]


def check_factor_congruence(H: AbelianGroup, l: int, values) -> CongruenceCheck:
    """Every split factor of one assignment must have the trivial factor's parity;
    a failure is confirmed by _recheck first."""
    vals = tuple(values)
    factors = integer_split_factors(H, l, vals)
    ok = all((f - factors[0]) % 2 == 0 for f in factors)
    if not ok:
        _recheck(H.orders, l, vals, factors)
    return CongruenceCheck(PASS if ok else FAIL, tuple(factors))


def _failures(vals, factors, exp: int) -> list[dict]:
    """The failure records of a point of even determinant with these sign
    factors, in report order: congruence when a factor is odd, bound when the
    determinant is nonzero and of 2-adic valuation below exp."""
    det = prod(factors)
    found = []
    # an even determinant has an even factor; all of them are even exactly
    # when their gcd is
    if gcd(*factors) % 2:
        found.append({"kind": "congruence", "factors": [str(f) for f in factors],
                      "witness": list(vals)})
    if det and two_adic_valuation(det) < exp:
        found.append({"kind": "bound", "det": str(det), "witness": list(vals)})
    return found


def _suite_shard(h_orders, l, box, exp, maps, start, stop, step=1) -> dict:
    """The theorem2 counts of the suite kernel over the orbits under maps
    whose representatives, the points orderly_scan keeps, lie in the
    surviving prefixes range(start, stop, step), each counted with its orbit
    size: checked sums the sizes, least is the point of smallest nonzero even
    valuation with its sign factors (None when there is none), and
    first_failure the first flagged point. As each representative is the
    least point of its orbit, that is the first failing point of these
    orbits. Nothing is evaluated again here."""
    orders = h_orders + (2,) * l
    plan = orbit_plan(orders, box)
    keys = _sign_keys(orders, l)
    checked = even_count = least = failure_count = 0
    least_point = first = None
    blocks = orderly_scan(plan, box, maps, range(start, stop, step), plan.suite(keys, exp))
    for prefix, suffixes, (even, fails, low, at, flagged), sizes in blocks:
        checked += sum(sizes)
        even_count += even
        failure_count += fails
        if low and (low < least or not least):
            least, least_point = low, (prefix + suffixes[at[0]], at[1])
        if flagged and first is None:
            first = prefix + suffixes[flagged[0][0]]
    return {
        "checked": checked,
        "even_count": even_count,
        "failure_count": failure_count,
        "least": least_point,
        "first_failure": first,
    }


def _first_failures(h_orders, l, box, exp, start, count) -> list[dict]:
    """The first min(count, KEPT_FAILURES) failure records in box order, each
    failing point evaluated again by Bareiss elimination, from a walk of every
    point from the prefix of start, which no failure precedes, to the last of
    them; ArithmeticError when the walk finds fewer."""
    plan = orbit_plan(h_orders + (2,) * l, box)
    kernel = plan.suite(_sign_keys(h_orders + (2,) * l, l), exp)
    cut = len(start) - len(start) // 2  # orderly_scan's prefix, read in base 2 box + 1
    first = sum((v + box) * (2 * box + 1) ** (cut - 1 - i) for i, v in enumerate(start[:cut]))
    want, failures = min(count, KEPT_FAILURES), []
    blocks = orderly_scan(plan, box, (), range(first, box_size(len(start), box)), kernel)
    for prefix, suffixes, (*_, flagged), _ in blocks:
        for j, factors in flagged:
            point = prefix + suffixes[j]
            _recheck(h_orders, l, point, factors)
            failures += _failures(point, factors, exp)
            if len(failures) >= want:
                return failures[:want]
    raise ArithmeticError(
        f"the orbit walk counts {count} failures but the walk of the box from {list(start)} "
        f"finds {len(failures)}"
    )


def sign_twists(l: int, vals) -> list[list[int]]:
    """The twisted assignments y_h = sum_k chi_i(k) x_(h,k) of H, one per sign
    character chi_i of (Z/2Z)^l, for an assignment of H x (Z/2Z)^l."""
    rows = [[1 - 2 * k for k in row] for row in exponent_table((2,) * l)]
    chunks = list(zip(*[iter(vals)] * len(rows)))
    return [[sum(map(mul, signs, c)) for c in chunks] for signs in rows]


def _recheck(h_orders, l: int, vals, factors) -> None:
    """Raise ArithmeticError unless Bareiss elimination on the twisted H group
    matrices gives the same sign factors as the orbit norms."""
    table = _index_table(h_orders)
    direct = [bareiss_det([[ys[j] for j in row] for row in table]) for ys in sign_twists(l, vals)]
    if direct != list(factors):
        raise ArithmeticError(
            f"orbit norms gave sign factors {list(factors)} at {list(vals)} "
            f"but Bareiss elimination gives {direct}"
        )


def run_divisibility_suite(
    H: AbelianGroup,
    l: int,
    box: int,
    exponent: int | None = None,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    jobs: int | None = None,
) -> dict:
    """Exhaustively check the parity congruence and the divisibility bound over
    the box [-box, box]^(|H| * 2^l); the summary is identical for any job count.

    The box is walked by orderly_scan under the split maps (holomorph_maps
    with split=l; none at box 0), one point per orbit, counted with its orbit
    size; the sizes must sum to the box. Every failure is counted in
    failure_count; when there is one, a walk of every point of the box in box
    order, from the first failing representative to the last record it
    needs, lists the first min(failure_count, KEPT_FAILURES) in failures. The
    sign factors come from orbit norms. In this process, the shards' point of
    smallest valuation is evaluated again by Bareiss elimination, and
    min_even_valuation is the valuation of its re-checked factors; so is each
    listed failure. A disagreement, orbit sizes that miss the box, or a walk
    that finds fewer records raise ArithmeticError.
    """
    if not force and l > budget.bit_length():
        # |G|^2 >= 4^l > budget: refuse before 2^l, (2,) * l or the box is built
        raise BudgetExceededError(
            f"H x (Z/2Z)^{l} has order at least 2^{l}, so its tables exceed the budget "
            f"of {budget}"
        )
    exp = bound_exponent(H, l, exponent)
    G = direct_product(H, AbelianGroup((2,) * l))
    ensure_budget(G.order, box, budget, force)
    maps = pruning_maps(G.orders, box, budget, force, split=l)
    plan = orbit_plan(G.orders, box)
    parts = map_shards(_suite_shard, (H.orders, l, box, exp, maps), plan, box, maps, jobs)
    checked = sum(p["checked"] for p in parts)
    if checked != box_size(G.order, box):
        raise ArithmeticError(
            f"the orbit sizes sum to {checked}, not to the {box_size(G.order, box)} points of the box"
        )
    least = min((p["least"] for p in parts if p["least"]), default=None,
                key=lambda point: two_adic_valuation(prod(point[1])))
    if least is not None:
        _recheck(H.orders, l, *least)
    failure_count = sum(p["failure_count"] for p in parts)
    # the first failing representative of all shards; if a count has none, the walk
    # from the first point of the box finds fewer records and raises
    start = min((p["first_failure"] for p in parts if p["first_failure"]), default=(-box,) * G.order)
    failures = _first_failures(H.orders, l, box, exp, start, failure_count) if failure_count else []
    return {
        "suite": "theorem2",
        "group": str(G),
        "H": str(H),
        "l": l,
        "box": box,
        "assignments_checked": checked,
        "even_count": sum(p["even_count"] for p in parts),
        "min_even_valuation": None if least is None else two_adic_valuation(prod(least[1])),
        "bound_exponent": exp,
        "failure_count": failure_count,
        "failures": failures,
        "status": PASS if not failure_count else FAIL,
    }
