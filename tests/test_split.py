"""The split kernel of every shape of even order: det_G(x) = A(u) B(v),
read as A[U] * B[V] from one table of the norms of G's own orbit plan on a
transversal T of an element k of order 2, against the cofactor oracle and
Bareiss elimination; the chooser that picks it for search; and reports that
do not depend on its choice."""

from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupdet.boxes
import groupdet.norms
from groupdet import find_witness, group_determinant, make_group, search_values
from groupdet.boxes import holomorph_maps, iter_box, scan_plan, split_plan
from groupdet.groups import enumerate_elements
from groupdet.norms import OrbitPlan, orbit_plan, split_lookups
from oracles import fraction_det, naive_group_det, naive_group_matrix, subgroup_factor

# each shape with the largest bound at which its table is built here
BUILT = {(2,): 3, (2, 2): 2, (4, 2): 2, (2, 2, 2): 2, (6,): 3, (10,): 2, (2, 6): 1,
         (4,): 3, (8,): 2, (12,): 1}
# |T| = 12: a table of (4B + 1)^12 entries is not built; OracleTable stands in
ORACLE_TABLE = {(4, 6): 2, (12, 2): 2}
# a shape with a factor 2 mod 4 is H x Z/2, H the first such factor halved
H_ORDERS = {(2,): (1,), (2, 2): (2,), (4, 2): (4,), (2, 2, 2): (2, 2), (6,): (3,),
            (10,): (5,), (2, 6): (6,), (4, 6): (4, 3), (12, 2): (12,)}


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
    lookups = split_lookups(orders, bound)[1]
    return OrbitPlan(lookups, prod(orders), 0, OracleTable(H_ORDERS[orders], bound))


@settings(max_examples=120, deadline=None)
@given(split_cases())
def test_split_kernel_equals_the_oracle(case):
    orders, bound, point = case
    assert kernel_dets(plan_for(orders, bound), [point]) == [oracle_det(orders, point)]


@pytest.mark.parametrize("orders", [(2,), (2, 2), (4, 2), (6,), (10,), (4,), (8,)])
def test_split_kernel_at_every_corner(orders):
    bound = BUILT[orders]
    corners = [tuple(bound * s for s in signs)
               for signs in product((-1, 1), repeat=prod(orders))]
    dets = kernel_dets(split_plan(orders, bound), corners)
    assert dets == [oracle_det(orders, p) for p in corners]


def half_dets(half, points):
    return half.block()(half.coefficients((0,) * half.dim), [half.coefficients(p) for p in points])


@pytest.mark.parametrize("orders,h_orders", list(H_ORDERS.items()))
def test_h_halves_the_first_factor_two_mod_four(orders, h_orders):
    # T is the subgroup H, so B = A = det_H: one table, read at one offset
    halves, (a, b) = split_lookups(orders, 1)
    assert [half.dim for half in halves] == [prod(h_orders)] and a.offset == b.offset
    h = make_group(h_orders)
    points = [tuple((3 * j + i) % 5 - 2 for j in range(h.order)) for i in range(5)]
    assert half_dets(halves[0], points) == [group_determinant(h, p) for p in points]


@pytest.mark.parametrize("orders", [(6,), (10,), (2, 6), (4,), (8,), (12,), (4, 4)])
def test_the_table_is_read_from_gs_own_plan(orders, monkeypatch):
    # one orbit plan, G's at the bound, and no second one in boxes; each
    # table's plan holds G's orbits with their rows cut to the columns of T,
    # at G's width
    built = []
    plan = orbit_plan(orders, 1)

    def recorded(o, bound):
        built.append((o, bound))
        return orbit_plan(o, bound)

    monkeypatch.setattr(groupdet.norms, "orbit_plan", recorded)
    monkeypatch.setattr(groupdet.boxes, "orbit_plan", recorded)
    split_plan.cache_clear()
    try:
        split_plan(orders, 1)
    finally:
        split_plan.cache_clear()
    assert built == [(orders, 1)]
    halves, (a, b) = split_lookups(orders, 1)
    columns = [g for g, place in enumerate(b.rows[0]) if place > 0]
    assert len(columns) == prod(orders) // 2
    cut = {o.char: tuple(tuple(row[g] for g in columns) for row in o.rows) for o in plan.orbits}
    chars = [o.char for half in halves for o in half.orbits]
    # two tables hold every orbit; on T = H, A's orbits alone
    assert len(set(chars)) == len(chars) and set(chars) <= set(cut)
    assert len(halves) == 1 or set(chars) == set(cut)
    for half in halves:
        assert half.width == plan.width
        assert all(o.rows == cut[o.char] for o in half.orbits)


@pytest.mark.parametrize("orders,bound", [
    ((2,), 1), ((2,), 2), ((2,), 3), ((2, 2), 2), ((6,), 1), ((4, 2), 1),
])
def test_the_table_is_det_h_in_box_order(orders, bound):
    # entry by entry against Bareiss elimination over H, so a table built
    # out of box order or by a wrong kernel fails here
    h = make_group(H_ORDERS[orders])
    expected = [group_determinant(h, p) for p in iter_box(h.order, 2 * bound)]
    assert split_plan(orders, bound).table == expected


def transversal(orders):
    """The factor i whose element k = n_i / 2 the split takes, and T: the first
    factor 2 mod 4 with the g of even g_i, else the first even factor with
    the g of g_i < n_i / 2."""
    evens = [i for i, n in enumerate(orders) if n % 2 == 0]
    i = next((i for i in evens if orders[i] % 4 == 2), evens[0])
    half = orders[i] // 2
    elements = enumerate_elements(make_group(orders))
    return i, [g for g in elements if (g[i] % 2 == 0 if half % 2 else g[i] < half)]


@pytest.mark.parametrize("orders,bound,samples", [
    ((4,), 1, 25), ((8,), 1, 625), ((12,), 1, 800), ((4, 4), 1, 300), ((6,), 1, 125),
    ((4, 2), 1, 625), ((2, 4), 1, 625),
])
def test_the_tables_are_the_factors_of_the_split(orders, bound, samples):
    # A at w is det_(G/K) of the point's image in G/K, and A B is det_G at
    # the point w on T, 0 on T + k; entry by entry, every (size // samples)-th
    g = make_group(orders)
    i, t = transversal(orders)
    quotient = make_group(orders[:i] + (orders[i] // 2,) + orders[i + 1:])
    image = {x: x[:i] + (x[i] % (orders[i] // 2),) + x[i + 1:] for x in t}
    q_index = {x: j for j, x in enumerate(enumerate_elements(quotient))}
    g_index = {x: j for j, x in enumerate(enumerate_elements(g))}
    plan = split_plan(orders, bound)
    a, b = plan.orbits
    size = len(t)
    radix = 4 * bound + 1
    assert len(plan.table) == (1 if orders[i] % 4 == 2 else 2) * radix**size
    assert b.offset - a.offset == len(plan.table) - radix**size
    # the Lookup rows give x_g the place of the element of T over g, g or g - k,
    # with the sign - in v on T + k
    places = {x: radix ** (size - 1 - j) for j, x in enumerate(t)}
    k = orders[i] // 2

    def over(x):
        return x if x in places else x[:i] + ((x[i] - k) % orders[i],) + x[i + 1:]

    elements = enumerate_elements(g)
    assert a.rows[0] == tuple(places[over(x)] for x in elements)
    assert b.rows[0] == tuple(places[x] if x in places else -places[over(x)] for x in elements)
    for index, w in enumerate(iter_box(size, 2 * bound)):
        if index % max(1, radix**size // samples):
            continue
        y = [0] * quotient.order
        x = [0] * g.order
        for element, value in zip(t, w):
            y[q_index[image[element]]] = x[g_index[element]] = value
        entry_a, entry_b = plan.table[index], plan.table[index + b.offset - a.offset]
        assert entry_a == group_determinant(quotient, y)
        assert entry_a * entry_b == group_determinant(g, x)


@pytest.mark.parametrize("orders,samples", [
    ((4,), 25), ((8,), 160), ((12,), 40), ((6,), 125), ((4, 2), 160),
])
def test_the_tables_are_the_theorems_factors(orders, samples):
    # A and B at bound 1, entry by entry (every (size // samples)-th), against
    # the cofactor oracle of det_(G/K)(y_+-) for K = <k>, at the point w on T
    # and 0 on T + k, with chi_+- the first character that is +-1 at k; with
    # one table (a factor 2 mod 4) both factors are its entry
    g = make_group(orders)
    i, t = transversal(orders)
    elements = enumerate_elements(g)
    k = elements.index(tuple(n // 2 if j == i else 0 for j, n in enumerate(orders)))
    chis = [next(a for a in elements if a[i] % 2 == sign) for sign in (0, 1)]
    plan = split_plan(orders, 1)
    a, b = plan.orbits
    assert (a.offset == b.offset) == (orders[i] % 4 == 2)
    size = len(t)
    for index, w in enumerate(iter_box(size, 2)):
        if index % max(1, 5**size // samples):
            continue
        x = [0] * g.order
        for element, value in zip(t, w):
            x[elements.index(element)] = value
        for entry, chi in zip((index + a.offset, index + b.offset), chis):
            factor = subgroup_factor(orders, (k,), chi, x)
            assert factor == [plan.table[entry - a.offset]] + [0] * (len(factor) - 1)


def test_table_size():
    # (4B + 1)^(|G|/2) entries for a factor 2 mod 4: 9^4 for 4x2 at box 2, 5^6
    # for 2x6 at box 1; twice that otherwise: 2 * 9^4 for 8 at box 2
    assert len(split_plan((4, 2), 2).table) == 6_561
    assert len(split_plan((2, 6), 1).table) == 15_625
    assert len(split_plan((8,), 2).table) == 13_122
    assert len(split_plan((12,), 1).table) == 31_250


def kind(plan):
    return "split" if plan.table is not None else "orbit"


def test_the_chooser():
    # unpruned boxes of a shape of even order take the split
    for orders, box in [((4, 2), 2), ((2, 2, 2), 2), ((6,), 4), ((10,), 2), ((2, 6), 1),
                        ((4,), 2), ((8,), 2), ((12,), 1), ((2, 4), 2)]:
        assert kind(scan_plan(orders, box)) == "split"
    # box 0 keeps the orbit kernel: its one point is no more than the table
    for orders in [(2,), (4, 2), (6,), (10,), (4,), (8,)]:
        assert kind(scan_plan(orders, 0)) == "orbit"
    # pruned 4x2 at box 2: 6,561 entries against 390,625 // 64 = 6,103 kept points
    assert kind(scan_plan((4, 2), 2, holomorph_maps((4, 2)))) == "orbit"
    assert kind(scan_plan((4, 2), 3, holomorph_maps((4, 2)))) == "split"
    # odd orders have no element of order 2; 12 and 4x4 at box 2 are over the
    # budget (2 * 9^6 * 12 and 2 * 9^8 * 16 entries), and so are 4x4 and 16 at
    # box 1, 2 * 5^8 * 16 = 12,500,000
    for orders, box in [((3, 3), 2), ((7,), 2), ((12,), 2), ((4, 4), 2), ((4, 4), 1), ((16,), 1)]:
        assert kind(scan_plan(orders, box)) == "orbit"
    assert kind(scan_plan((4, 4), 1, (), 12_499_999)) == "orbit"
    # the table counts against the budget as its length * |G|: one table of
    # 6,561 entries * 8 on 4x2 at box 2, two of 6,561 (13,122) * 8 on 8
    for orders, entries in [((4, 2), 6_561), ((8,), 13_122)]:
        assert len(split_plan(orders, 2).table) == entries
        assert kind(scan_plan(orders, 2, (), entries * 8)) == "split"
        assert kind(scan_plan(orders, 2, (), entries * 8 - 1)) == "orbit"


# Each shape's box with and without pruning: the default budget picks the
# split, a budget of 1 with force the orbit kernel.
REPORT_CASES = [((4, 2), 1, False), ((2, 2, 2), 1, False), ((6,), 2, False), ((6,), 3, True),
                ((10,), 1, False), ((4, 2), 3, True), ((4,), 3, False), ((4,), 4, True),
                ((8,), 1, False), ((8,), 2, True), ((12,), 1, False)]


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
