"""The split kernel of shapes H x Z/2: det_G(x) = det_H(u) det_H(v), read as
T[U] * T[V] from one table of det_H, against the cofactor oracle; the
chooser that picks it for search; and reports that do not depend on its
choice."""

from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupdet.boxes
from groupdet import find_witness, group_determinant, make_group, search_values
from groupdet.boxes import holomorph_maps, iter_box, scan_plan, split_plan
from groupdet.norms import OrbitPlan, split_lookups
from oracles import fraction_det, naive_group_det, naive_group_matrix

# each shape with the largest bound at which its table is built here
BUILT = {(2,): 3, (2, 2): 2, (4, 2): 2, (2, 2, 2): 2, (6,): 3, (10,): 2, (2, 6): 1}
# |H| = 12: a table of (4B + 1)^12 entries is not built; OracleTable stands in
ORACLE_TABLE = {(4, 6): 2, (12, 2): 2}


def oracle_det(orders, values):
    """The cofactor oracle up to order 6, rational elimination of the same
    oracle group matrix above (a cofactor expansion of order 8 takes 0.1 s)."""
    if prod(orders) <= 6:
        return naive_group_det(orders, values)
    return fraction_det(naive_group_matrix(orders, list(values)))


class OracleTable:
    """det_H over [-2B, 2B]^|H| in box order, each entry from the oracle
    when it is read."""

    def __init__(self, h_orders, bound):
        self.h_orders, self.bound = h_orders, bound

    def __getitem__(self, index):
        radix, digits = 4 * self.bound + 1, []
        for _ in range(prod(self.h_orders)):
            index, digit = divmod(index, radix)
            digits.append(digit - 2 * self.bound)
        assert index == 0, "index outside the table"
        return oracle_det(self.h_orders, digits[::-1])


def kernel_dets(plan, points):
    head = plan.coefficients((0,) * plan.dim)
    return plan.block()(head, [plan.coefficients(p) for p in points])


@st.composite
def split_cases(draw):
    orders = draw(st.sampled_from(sorted(BUILT | ORACLE_TABLE)))
    bound = draw(st.integers(1, (BUILT | ORACLE_TABLE)[orders]))
    n = prod(orders)
    if draw(st.booleans()):  # a corner of the box
        point = [bound * s for s in draw(st.lists(st.sampled_from((-1, 1)), min_size=n,
                                                  max_size=n))]
    else:
        point = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    return orders, bound, tuple(point)


def plan_for(orders, bound):
    if orders in BUILT:
        return split_plan(orders, bound)
    h_orders, lookups = split_lookups(orders, bound)
    return OrbitPlan(lookups, prod(orders), 0, OracleTable(h_orders, bound))


@settings(max_examples=120, deadline=None)
@given(split_cases())
def test_split_kernel_equals_the_oracle(case):
    orders, bound, point = case
    assert kernel_dets(plan_for(orders, bound), [point]) == [oracle_det(orders, point)]


@pytest.mark.parametrize("orders", [(2,), (2, 2), (4, 2), (6,), (10,)])
def test_split_kernel_at_every_corner(orders):
    bound = BUILT[orders]
    corners = [tuple(bound * s for s in signs)
               for signs in product((-1, 1), repeat=prod(orders))]
    dets = kernel_dets(split_plan(orders, bound), corners)
    assert dets == [oracle_det(orders, p) for p in corners]


@pytest.mark.parametrize("orders,h_orders", [
    ((2,), (1,)), ((2, 2), (2,)), ((4, 2), (4,)), ((2, 2, 2), (2, 2)), ((6,), (3,)),
    ((10,), (5,)), ((2, 6), (6,)), ((4, 6), (4, 3)), ((12, 2), (12,)),
])
def test_h_halves_the_first_factor_two_mod_four(orders, h_orders):
    assert split_lookups(orders, 1)[0] == h_orders


@pytest.mark.parametrize("orders", [(6,), (10,), (2, 6)])
def test_the_table_is_built_at_twice_the_bound(orders, monkeypatch):
    # |u_h| and |v_h| reach 2B, so the width proof of H's phi(d) >= 4 plans
    # needs bound 2B; a table built at width B holds the same values on every
    # box scanned here (the proof has slack), so only the bound shows it
    built = []
    orbit_plan = groupdet.boxes.orbit_plan
    monkeypatch.setattr(groupdet.boxes, "orbit_plan",
                        lambda h, bound: built.append((h, bound)) or orbit_plan(h, bound))
    split_plan.cache_clear()
    try:
        split_plan(orders, 1)
    finally:
        split_plan.cache_clear()
    assert built == [(split_lookups(orders, 1)[0], 2)]


@pytest.mark.parametrize("orders,bound", [
    ((2,), 1), ((2,), 2), ((2,), 3), ((2, 2), 2), ((6,), 1), ((4, 2), 1),
])
def test_the_table_is_det_h_in_box_order(orders, bound):
    # entry by entry against Bareiss elimination over H, so a table built
    # out of box order or by a wrong kernel fails here
    h_orders = split_lookups(orders, bound)[0]
    h = make_group(h_orders)
    expected = [group_determinant(h, p) for p in iter_box(h.order, 2 * bound)]
    assert split_plan(orders, bound).table == expected


def test_table_size():
    # (4B + 1)^|H| entries: 9^4 for 4x2 at box 2, 5^6 for 2x6 at box 1
    assert len(split_plan((4, 2), 2).table) == 6_561
    assert len(split_plan((2, 6), 1).table) == 15_625


def kind(plan):
    return "split" if plan.table is not None else "orbit"


def test_the_chooser():
    # unpruned boxes of a shape with a factor 2 mod 4 take the split
    for orders, box in [((4, 2), 2), ((2, 2, 2), 2), ((6,), 4), ((10,), 2), ((2, 6), 1)]:
        assert kind(scan_plan(orders, box)) == "split"
    # box 0 keeps the orbit kernel: its one point is no more than the table
    for orders in [(2,), (4, 2), (6,), (10,)]:
        assert kind(scan_plan(orders, 0)) == "orbit"
    # pruned 4x2 at box 2: 6,561 entries against 390,625 // 64 = 6,103 kept points
    assert kind(scan_plan((4, 2), 2, holomorph_maps((4, 2)))) == "orbit"
    assert kind(scan_plan((4, 2), 3, holomorph_maps((4, 2)))) == "split"
    # no factor 2 mod 4, no H
    for orders in [(4,), (8,), (12,), (4, 4), (3, 3), (7,)]:
        assert kind(scan_plan(orders, 2)) == "orbit"
    # the table counts against the budget as entries * |G|, 6,561 * 8 on 4x2
    assert kind(scan_plan((4, 2), 2, (), 6_561 * 8)) == "split"
    assert kind(scan_plan((4, 2), 2, (), 6_561 * 8 - 1)) == "orbit"


# Each shape's box with and without pruning: the default budget picks the
# split, a budget of 1 with force the orbit kernel.
REPORT_CASES = [((4, 2), 1, False), ((2, 2, 2), 1, False), ((6,), 2, False), ((6,), 3, True),
                ((10,), 1, False), ((4, 2), 3, True)]


@pytest.mark.parametrize("orders,box,prune", REPORT_CASES)
def test_reports_do_not_depend_on_the_kernel(orders, box, prune):
    g = make_group(orders)
    maps = holomorph_maps(orders) if prune else ()
    assert kind(scan_plan(orders, box, maps)) == "split"
    assert kind(scan_plan(orders, box, maps, 1)) == "orbit"
    orbit = search_values(g, box, budget=1, force=True, jobs=1, prune=prune)
    for jobs in (1, 2):
        assert search_values(g, box, jobs=jobs, prune=prune) == orbit
    assert search_values(g, box, budget=1, force=True, jobs=2, prune=prune) == orbit
    targets = sorted(orbit.achieved)[::max(1, len(orbit.achieved) // 5)] + [7_777_777]
    for target in targets:
        assert find_witness(g, box, target) == orbit.achieved.get(target)


def test_witness_keeps_the_orbit_kernel(monkeypatch):
    # a witness may stop at its first block, so it never builds a table first,
    # even where search would read one (2,197 entries, 19,608 kept points)
    assert kind(scan_plan((6,), 3, holomorph_maps((6,)))) == "split"

    def no_table(*args):
        raise AssertionError("witness built a split table")

    monkeypatch.setattr(groupdet.boxes, "split_plan", no_table)
    assert find_witness(make_group(6), 3, 729) == (-3, -3, 1, -3, -3, 2)
    assert find_witness(make_group(6), 3, 2) is None
