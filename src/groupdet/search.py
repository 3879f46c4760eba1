"""Exhaustive search for achieved integer group determinant values over boxes.

Results are deterministic regardless of how the box is sharded: every achieved
value keeps the lexicographically first assignment that produced it.
"""

from __future__ import annotations

import json
import re
from math import gcd
from typing import Callable, NamedTuple

from .boxes import ensure_budget, map_shards, orderly_scan, pruning_maps, scan_plan
from .determinant import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    group_determinant,
    two_adic_valuation,
)
from .groups import AbelianGroup, format_group_spec, parse_group_spec
from .norms import orbit_plan

__all__ = [
    "SearchReport",
    "search_values",
    "find_witness",
    "revalidate",
    "CheckResult",
    "check_even_divisibility",
    "check_membership",
    "MembershipSpec",
    "membership_spec",
    "BudgetExceededError",
]


def _field(obj, key: str, kind, where: str):
    """obj[key] of a loaded report, where an int may be saved as a decimal string;
    ValueError naming where unless it is a kind."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if kind is int and isinstance(value, str) and value.removeprefix("-").isdecimal():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"malformed report: bad or missing {where}")
    return value


class SearchReport:
    """Achieved determinant values over a box, each with its first witness."""

    __slots__ = ("orders", "box", "evaluated", "achieved", "pruned", "value_cap")

    def __init__(
        self,
        orders: tuple[int, ...],
        box: int,
        evaluated: int,
        achieved: dict[int, tuple[int, ...]],
        pruned: bool = False,
        value_cap: int | None = None,
    ) -> None:
        self.orders = orders
        self.box = box
        self.evaluated = evaluated
        self.achieved = achieved
        self.pruned = pruned
        self.value_cap = value_cap

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"SearchReport({fields})"

    @property
    def group(self) -> AbelianGroup:
        return AbelianGroup(self.orders)

    @property
    def distinct(self) -> int:
        return len(self.achieved)

    @property
    def min_even_valuation(self) -> int | None:
        """Smallest 2-adic valuation among the achieved even nonzero values."""
        vals = [two_adic_valuation(v) for v in self.achieved if v and v % 2 == 0]
        return min(vals) if vals else None

    def as_json_dict(self) -> dict:
        values = [
            {
                "v": str(v),
                "witness": list(self.achieved[v]),
                "val2": two_adic_valuation(v) if v else None,
            }
            for v in sorted(self.achieved)
        ]
        return {
            "group": format_group_spec(self.group),
            "box": self.box,
            "pruned": self.pruned,
            "value_cap": None if self.value_cap is None else str(self.value_cap),
            "counts": {"evaluated": self.evaluated, "distinct": self.distinct},
            "values": values,
        }

    def save(self, path) -> None:
        """Write the report as JSON, one value record per line: json.dumps of
        each record runs the C encoder, which an indent would turn off."""
        data = self.as_json_dict()
        rows = ",\n".join(map(json.dumps, data.pop("values")))
        with open(path, "w") as fh:
            fh.write(f'{json.dumps(data)[:-1]}, "values": [\n{rows}\n]}}\n')

    @staticmethod
    def from_json_dict(data) -> "SearchReport":
        """Rebuild a saved report; a malformed one raises ValueError naming the bad field."""
        if not isinstance(data, dict):
            raise ValueError(f"malformed report: expected a JSON object, got {type(data).__name__}")
        spec = _field(data, "group", str, "group")
        try:
            group = parse_group_spec(spec)
        except ValueError as exc:
            raise ValueError(f"malformed report: group: {exc}") from None
        achieved = {}
        for i, row in enumerate(_field(data, "values", list, "values")):
            witness = _field(row, "witness", list, f"values[{i}].witness")
            if len(witness) != group.order or not all(type(w) is int for w in witness):
                raise ValueError(f"malformed report: values[{i}].witness is not {group.order} ints")
            achieved[_field(row, "v", int, f"values[{i}].v")] = tuple(witness)
        counts = _field(data, "counts", dict, "counts")
        box = _field(data, "box", int, "box")
        evaluated = _field(counts, "evaluated", int, "counts.evaluated")
        pruned = data.get("pruned", False)
        cap = None if data.get("value_cap") is None else _field(data, "value_cap", int, "value_cap")
        for where, bad in (("box", box < 0), ("counts.evaluated", evaluated < 0),
                           ("pruned", not isinstance(pruned, bool)),
                           ("value_cap", cap is not None and cap < 0)):
            if bad:
                raise ValueError(f"malformed report: bad {where}")
        return SearchReport(group.orders, box, evaluated, achieved, pruned=pruned, value_cap=cap)

    @staticmethod
    def load(path) -> "SearchReport":
        with open(path) as fh:
            return SearchReport.from_json_dict(json.load(fh))


def _search_shard(orders, box, cap, maps, budget, start, stop, step=1):
    """(evaluated, first witness per value with |value| <= cap) over the
    blocks of orderly_scan under maps, of the scan_plan at this budget, for
    the surviving prefixes range(start, stop, step)."""
    found: dict[int, tuple[int, ...]] = {}
    seen: set[int] = set()  # the values of found and those over the cap
    evaluated = 0
    plan = scan_plan(orders, box, maps, budget)
    blocks = orderly_scan(plan, box, maps, range(start, stop, step))
    for prefix, suffixes, ds in blocks:
        evaluated += len(ds)
        if seen.issuperset(ds):
            continue
        # a witness only for values new to the shard, at their first point:
        # filled from the end, the map keeps each value's first index
        new = set(ds).difference(seen)
        seen |= new
        if cap is not None:
            new = [d for d in new if abs(d) <= cap]
        if new:
            first = dict(zip(reversed(ds), range(len(ds) - 1, -1, -1)))
            for d in new:
                found[d] = prefix + suffixes[first[d]]
    return evaluated, found


def search_values(
    group: AbelianGroup,
    box: int,
    value_cap: int | None = None,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    jobs: int | None = None,
    prune: bool = False,
) -> SearchReport:
    """Evaluate the determinant on every assignment in [-box, box]^|G|.

    value_cap drops values with |v| > cap from the report (they still count as
    evaluated); a negative cap raises ValueError. prune=True evaluates only
    the assignments that are lexicographically minimal under holomorph_maps,
    walked by orderly_scan; the achieved value set is unchanged and
    witnesses stay the lexicographically first ones, as the first witness of
    a value is minimal in its orbit. Without prune the walk has no maps and
    evaluates every point. Shards deal out the surviving prefixes in turn.

    Points are evaluated by the kernel of scan_plan: products of orbit norms,
    or det_H(u) det_H(v) read from a table; every reported witness is then
    evaluated again by Bareiss elimination, and a disagreement raises
    ArithmeticError.
    """
    if value_cap is not None and value_cap < 0:
        raise ValueError(f"value_cap must be at least 0, got {value_cap}")
    ensure_budget(group.order, box, budget, force)
    maps = pruning_maps(group.orders, box, budget, force) if prune else ()
    plan = scan_plan(group.orders, box, maps, budget)
    parts = map_shards(_search_shard, (group.orders, box, value_cap, maps, budget), plan, box, maps,
                       jobs)
    achieved: dict[int, tuple[int, ...]] = {}
    evaluated = 0
    for count, part in parts:
        evaluated += count
        for v, w in part.items():
            cur = achieved.get(v)
            if cur is None or w < cur:
                achieved[v] = w
    for v, w in achieved.items():
        _recheck(group, w, v)
    return SearchReport(group.orders, box, evaluated, achieved, pruned=prune, value_cap=value_cap)


def _recheck(group: AbelianGroup, witness: tuple[int, ...], value: int) -> None:
    """Raise ArithmeticError unless Bareiss elimination gives the witness this value."""
    direct = group_determinant(group, witness)
    if direct != value:
        raise ArithmeticError(
            f"the search gives {value} at {list(witness)} but Bareiss elimination gives {direct}"
        )


def revalidate(report: SearchReport, budget: int = DEFAULT_BUDGET) -> None:
    """Evaluate every witness of a loaded report again by Bareiss elimination,
    in value order; ArithmeticError at the first witness that lies outside
    the report's box or whose determinant is not its value. A group whose
    Bareiss re-check of one point exceeds the budget raises
    BudgetExceededError first."""
    group = report.group
    ensure_budget(group.order, 0, budget, False)
    for v in sorted(report.achieved):
        w = report.achieved[v]
        if max(map(abs, w)) > report.box:
            raise ArithmeticError(f"the witness {list(w)} of {v} lies outside the box {report.box}")
        _recheck(group, w, v)


def find_witness(
    group: AbelianGroup,
    box: int,
    target: int,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
) -> tuple[int, ...] | None:
    """Lexicographically first assignment in the box whose determinant is target,
    or None when the box does not achieve it. The scan walks the points that
    are minimal under holomorph_maps in box order, as search_values(prune=True)
    does, since the first witness of a value is minimal in its orbit, and
    stops at the first point whose orbit norms multiply to target; Bareiss
    elimination then evaluates that witness again, and a disagreement raises
    ArithmeticError. The walk keeps the orbit kernel even where search_values
    reads a split table (scan_plan): it may stop at its first block, before a table
    built first would have paid for itself."""
    total = ensure_budget(group.order, box, budget, force)
    maps = pruning_maps(group.orders, box, budget, force)
    plan = orbit_plan(group.orders, box)
    for prefix, suffixes, ds in orderly_scan(plan, box, maps, range(total)):
        if target in ds:
            vals = prefix + suffixes[ds.index(target)]
            _recheck(group, vals, target)
            return vals
    return None


class CheckResult(NamedTuple):
    """Outcome of a one-sided containment check over a report's values."""

    name: str
    status: str
    violations: tuple[tuple[int, tuple[int, ...]], ...]

    def as_json_dict(self) -> dict:
        return {
            "check": self.name,
            "status": self.status,
            "violations": [
                {"v": str(v), "witness": list(w)} for v, w in self.violations
            ],
        }


def check_even_divisibility(report: SearchReport, exponent: int) -> CheckResult:
    """Every even achieved value (0 included) must be divisible by 2^exponent,
    decided by 2-adic valuation, so 2^exponent is never built; a negative
    exponent raises ValueError."""
    if exponent < 0:
        raise ValueError(f"the exponent must be at least 0, got {exponent}")
    bad = tuple(
        (v, report.achieved[v])
        for v in sorted(report.achieved)
        if v and v % 2 == 0 and two_adic_valuation(v) < exponent
    )
    return CheckResult(f"2^{exponent} divides even values", "pass" if not bad else "fail", bad)


class MembershipSpec(NamedTuple):
    """A named total predicate over Z describing a known determinant value set;
    specs compare and hash by name only."""

    name: str
    predicate: Callable[[int], bool]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return self.name != other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


def _member_z2z2(v: int) -> bool:
    # {4m+1} u {2^4 (2m+1)} u {2^6 m}
    return v % 4 == 1 or (v % 16 == 0 and (v // 16) % 2 == 1) or v % 64 == 0


def _member_z2z2z2(v: int) -> bool:
    # {8m+1} u {2^8 (4m+1)} u {2^12 m}
    return v % 8 == 1 or (v % 256 == 0 and (v // 256) % 4 == 1) or v % 4096 == 0


def _member_z4z2(v: int) -> bool:
    # {8m+1} u {2^8 m}
    return v % 8 == 1 or v % 256 == 0


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p below _MR_EXACT_BELOW."""
    if p < 42 or p % 2 == 0:
        return p in _MR_BASES[1:]
    s = ((p - 1) & (1 - p)).bit_length() - 1
    for a in _MR_BASES:
        # p is a strong probable prime to base a: x = 1, or x^(2^i) = -1 for an i < s
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(s)):
            return False
    return True


def membership_spec(name: str) -> MembershipSpec:
    """Built-in value-set characterizations: "Z2Z2", "Z2Z2Z2", "Z4Z2", "S2p(<p>)".

    S2p(p), for an odd prime p, is the value set of the circulant of size 2p:
    integers that are odd or divisible by 4, and coprime to p or divisible by p^2.
    """
    fixed = {
        "Z2Z2": _member_z2z2,
        "Z2Z2Z2": _member_z2z2z2,
        "Z4Z2": _member_z4z2,
    }
    if name in fixed:
        return MembershipSpec(name, fixed[name])
    m = re.fullmatch(r"S2p\((\d+)\)", name)
    if m:
        p = int(m.group(1))
        if p >= _MR_EXACT_BELOW:
            raise ValueError(f"S2p decides primality exactly only below {_MR_EXACT_BELOW}, got {p}")
        if not _is_odd_prime(p):
            raise ValueError(f"S2p needs an odd prime, got {p}")

        def member(v: int, p: int = p) -> bool:
            return (v % 2 != 0 or v % 4 == 0) and (gcd(v, p) == 1 or v % (p * p) == 0)

        return MembershipSpec(name, member)
    raise ValueError(f"unknown membership spec {name!r}")


def check_membership(report: SearchReport, spec: MembershipSpec) -> CheckResult:
    """Every achieved value must satisfy the predicate (containment, one-sided)."""
    bad = tuple(
        (v, report.achieved[v]) for v in sorted(report.achieved) if not spec.predicate(v)
    )
    return CheckResult(f"membership in {spec.name}", "pass" if not bad else "fail", bad)
