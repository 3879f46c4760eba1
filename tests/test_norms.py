"""Rational norm factors and the box engine, against Bareiss and the cofactor oracle."""

import time
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdet import (
    group_determinant,
    integer_split_factors,
    make_group,
    norm_factors,
    search_values,
)
from groupdet.boxes import DEFAULT_BUDGET, holomorph_maps, iter_box, orderly_scan, scan_plan
from groupdet.characters import exponent_table
from groupdet.cyclotomic import CyclotomicInt, euler_phi
from groupdet.determinant import _index_table, bareiss_det
from groupdet.divisibility import _suite_shard, two_adic_valuation
from groupdet.factorization import _sign_keys, character_sums
from groupdet.norms import _build_plan, _product_source, orbit_plan
from groupdet.search import _search_shard
from oracles import cyclotomic_poly, naive_group_det, orbit_norms, sign_twists

# Shapes whose orbits reach phi(d) >= 4: orders 5, 8, 10, 12 and 16.
PHI_FOUR_AND_UP = [(5,), (8,), (10,), (12,), (16,), (2, 5), (4, 3)]
SMALL_SHAPES = [(1,), (2,), (3,), (4,), (6,), (7,), (2, 2), (2, 3), (4, 2), (3, 3), (2, 2, 2)]


@st.composite
def shape_and_assignment(draw, shapes):
    orders = draw(st.sampled_from(shapes))
    n = prod(orders)
    return orders, tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(shape_and_assignment(SMALL_SHAPES + PHI_FOUR_AND_UP))
def test_norm_product_equals_bareiss(case):
    orders, xs = case
    assert prod(norm_factors(make_group(orders), xs)) == group_determinant(make_group(orders), xs)


@settings(max_examples=60, deadline=None)
@given(shape_and_assignment([s for s in SMALL_SHAPES + PHI_FOUR_AND_UP if prod(s) <= 8]))
def test_norm_product_equals_cofactor_oracle(case):
    orders, xs = case
    assert prod(norm_factors(make_group(orders), xs)) == naive_group_det(orders, xs)


@pytest.mark.parametrize("orders", SMALL_SHAPES + PHI_FOUR_AND_UP)
def test_orbits_partition_the_characters(orders):
    plan = orbit_plan(orders, 1)
    assert sum(euler_phi(o.order) for o in plan.orbits) == prod(orders)
    assert all(len(o.rows) == euler_phi(o.order) for o in plan.orbits)
    assert [o.char for o in plan.orbits] == sorted(o.char for o in plan.orbits)
    assert plan.orbits[0].char == 0 and plan.orbits[0].order == 1


def test_cyclic_orbits_are_the_divisors():
    # Z/n has one orbit per divisor d of n, first character n/d
    assert [(o.char, o.order) for o in orbit_plan((16,), 1).orbits] == [
        (0, 1), (1, 16), (2, 8), (4, 4), (8, 2)
    ]
    assert [(o.char, o.order) for o in orbit_plan((12,), 1).orbits] == [
        (0, 1), (1, 12), (2, 6), (3, 4), (4, 3), (6, 2)
    ]


def test_norm_factors_frozen():
    # Z/8: orbits of orders 1, 8, 4, 2; at x = e_0 + e_1 the factors are the
    # norms of 1 + zeta_d: 2, Phi_8(-1) = 2, Phi_4(-1) = 2 and 1 + (-1) = 0.
    assert norm_factors(make_group(8), (1, 1, 0, 0, 0, 0, 0, 0)) == [2, 2, 2, 0]
    # Z/5 at 2 + x: 3 and the norm of 2 + zeta_5, Phi_5(-2) = 11.
    assert norm_factors(make_group(5), (2, 1, 0, 0, 0)) == [3, 11]
    # 4x2, orbits of the characters (0,0), (0,1), (1,0), (1,1), (2,0), (2,1):
    # sums 5, -1, 3, -1 - 2i, 1, -1, so norms 5, -1, 9, 5, 1, -1 (product 225).
    assert norm_factors(make_group((4, 2)), (1, 2, 0, 1, 0, 0, 1, 0)) == [5, -1, 9, 5, 1, -1]


def points(blocks):
    """The (point, value) pairs of a box walk's per-prefix blocks, in box order."""
    out = []
    for prefix, suffixes, values in blocks:
        assert len(suffixes) == len(values)
        out += [(prefix + t, v) for t, v in zip(suffixes, values)]
    return out


def test_dim_one_group_at_box_zero():
    plan = orbit_plan((1,), 0)
    assert list(orderly_scan(plan, 0, (), range(1), plan.suite((0,), 1))) == [
        ((0,), [()], (1, 0, 0, None, []), [1])
    ]
    assert points(orderly_scan(scan_plan((1,), 0), 0, (), range(1))) == [((0,), 0)]
    rep = search_values(make_group((1,)), 0)
    assert rep.achieved == {0: (0,)} and rep.evaluated == 1


@pytest.mark.parametrize("orders,box", [((2, 2), 1), ((3,), 2), ((4, 2), 1), ((5,), 1)])
def test_engine_walks_the_box_in_order(orders, box):
    dim = prod(orders)
    scanned = points(orderly_scan(scan_plan(orders, box), box, (), range((2 * box + 1) ** dim)))
    assert [vals for vals, _ in scanned] == list(iter_box(dim, box))
    g = make_group(orders)
    for vals, d in scanned:
        if sum(map(abs, vals)) <= 2:
            assert d == group_determinant(g, vals)


@pytest.mark.parametrize("orders,box", [((2, 2), 2), ((3,), 3), ((4,), 2), ((5,), 2), ((2, 3), 2)])
def test_orderly_walk_keeps_the_minimal_points(orders, box):
    maps = holomorph_maps(orders)
    total = (2 * box + 1) ** prod(orders)
    scanned = points(orderly_scan(scan_plan(orders, box, maps), box, maps, range(total)))
    g = make_group(orders)
    assert all(d == group_determinant(g, vals) for vals, d in scanned)
    assert [vals for vals, _ in scanned] == [
        vals for vals in iter_box(prod(orders), box)
        if not any(tuple(vals[p] for p in phi) < vals for phi in maps)
    ]


@st.composite
def shard_cuts(draw, total):
    cuts = draw(st.lists(st.integers(0, total), max_size=4))
    return [0] + sorted(cuts) + [total]


def merged_search_shards(orders, box, maps, cuts):
    evaluated, achieved = 0, {}
    for start, stop in zip(cuts, cuts[1:]):
        count, part = _search_shard(orders, box, None, maps, DEFAULT_BUDGET, start, stop)
        evaluated += count
        for v, w in part.items():
            if v not in achieved or w < achieved[v]:
                achieved[v] = w
    return evaluated, achieved


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_search_shards_at_any_cut_merge_to_one_scan(data):
    orders, box = data.draw(st.sampled_from([((2, 2), 2), ((3,), 3), ((2, 3), 1), ((5,), 1)]))
    dim = prod(orders)
    total = (2 * box + 1) ** dim
    maps = holomorph_maps(orders) if data.draw(st.booleans()) else ()
    # shards cut the ordinals of the surviving prefixes
    cuts = data.draw(shard_cuts((2 * box + 1) ** (dim - dim // 2)))
    whole = _search_shard(orders, box, None, maps, DEFAULT_BUDGET, 0, total)
    assert merged_search_shards(orders, box, maps, cuts) == whole


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_suite_shards_at_any_cut_sum_to_one_scan(data):
    # shards cut the ordinals of the surviving prefixes and deal them with any
    # step; they merge as run_divisibility_suite merges them, and an exponent
    # above the true one keeps bound failures
    h_orders, l, box = data.draw(
        st.sampled_from([((2,), 1, 1), ((1,), 2, 2), ((3,), 1, 1), ((4,), 1, 1), ((2,), 2, 1)])
    )
    exp = data.draw(st.sampled_from([0, 4, 9, 30]))
    orders = h_orders + (2,) * l
    dim = prod(orders)
    total = (2 * box + 1) ** dim
    maps = data.draw(st.sampled_from([holomorph_maps(orders, None, l), ()]))
    cuts = data.draw(shard_cuts((2 * box + 1) ** (dim - dim // 2)))
    step = data.draw(st.integers(1, 3))
    whole = _suite_shard(h_orders, l, box, exp, maps, 0, total)
    parts = [_suite_shard(h_orders, l, box, exp, maps, a + k, b, step)
             for a, b in zip(cuts, cuts[1:]) for k in range(step)]
    assert sum(p["checked"] for p in parts) == whole["checked"] == total
    assert sum(p["even_count"] for p in parts) == whole["even_count"]
    assert sum(p["failure_count"] for p in parts) == whole["failure_count"]
    # the least candidate of the parts is a point of the whole's least valuation
    lows = [two_adic_valuation(prod(p["least"][1])) for p in parts if p["least"]]
    assert min(lows, default=None) == (
        whole["least"] and two_adic_valuation(prod(whole["least"][1])))
    firsts = [p["first_failure"] for p in parts if p["first_failure"]]
    assert min(firsts, default=None) == whole["first_failure"]
    for p in parts:
        if p["least"]:
            point, factors = p["least"]
            assert list(factors) == integer_split_factors(make_group(h_orders), l, point)


@pytest.mark.parametrize("orders,box", [((4, 2), 1), ((2, 3), 1), ((8,), 1)])
@pytest.mark.parametrize("prune", [False, True])
def test_reports_identical_across_jobs(orders, box, prune):
    g = make_group(orders)
    reports = [search_values(g, box, jobs=jobs, prune=prune) for jobs in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]
    if prune:
        assert reports[0].achieved == search_values(g, box).achieved


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_norms_by_sign_character_are_the_split_factors(data):
    h_orders = data.draw(st.sampled_from([(1,), (2,), (3,), (4,), (5,), (6,), (2, 2)]))
    l = data.draw(st.integers(1, 2))
    n = prod(h_orders) << l
    xs = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    # the independent path: Bareiss on the H group matrix of each sign twist
    table = _index_table(h_orders)
    direct = [bareiss_det([[ys[j] for j in row] for row in table]) for ys in sign_twists(l, xs)]
    assert integer_split_factors(make_group(h_orders), l, xs) == direct


# Every d with phi(d) >= 4 up to 16 as Z/d, and two products with such orbits.
WIDE_SHAPES = [(5,), (7,), (8,), (9,), (10,), (11,), (12,), (13,), (14,), (15,), (16,),
               (5, 2), (4, 3)]


@st.composite
def wide_point(draw):
    """A wide shape and an all +-B point, a B delta_e point or a random point
    of the box of B, with B up to 2^64."""
    orders = draw(st.sampled_from(WIDE_SHAPES))
    n = prod(orders)
    b = draw(st.sampled_from([1, 2, 2**64]) | st.integers(0, 2**64))
    kind = draw(st.sampled_from(["signs", "delta", "random"]))
    if kind == "signs":
        xs = draw(st.lists(st.sampled_from([-b, b]), min_size=n, max_size=n))
    elif kind == "delta":
        xs = [0] * n
        xs[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-b, b]))
    else:
        xs = draw(st.lists(st.integers(-b, b), min_size=n, max_size=n))
    return orders, tuple(xs)


@settings(max_examples=150, deadline=None)
@given(wide_point())
def test_modular_norms_equal_the_multiplication_matrix_oracle(case):
    orders, xs = case
    assert norm_factors(make_group(orders), xs) == orbit_norms(orders, xs)


@pytest.mark.parametrize("orders", WIDE_SHAPES + [(1,), (3,), (4, 2), (6,), (2, 2, 2)])
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 7, 1000, 2**64])
def test_plan_width_bounds_every_norm(orders, bound):
    # the lift of a product of conjugates is exact when w - 1 >= 2 |G| B:
    # then Phi_d(w) > 2 (|G| B)^phi, twice the largest norm on the box
    plan = orbit_plan(orders, bound)
    n, b = prod(orders), max(bound, 1)
    wide = [o for o in plan.orbits if o.modulus]
    assert bool(wide) == bool(plan.width) == any(euler_phi(o.order) >= 4 for o in plan.orbits)
    for orbit in wide:
        phi = len(orbit.rows)
        assert phi >= 4 and plan.width - 1 >= 2 * n * b
        assert orbit.modulus == sum(c * plan.width**j for j, c in enumerate(cyclotomic_poly(orbit.order)))
        assert orbit.modulus > 2 * (n * b) ** phi


def test_wide_rows_are_the_powers_of_the_width():
    # row i of a phi(d) >= 4 orbit is w^(u k(g)) mod q = Phi_d(w) for the
    # i-th unit u, read from the d powers of w as q divides w^d - 1
    for orders in [(5,), (8,), (9,), (12,), (5, 2)]:
        plan = orbit_plan(orders, 3)
        n = lcm(*orders)
        for orbit in plan.orbits:
            if orbit.modulus:
                d, w, q = orbit.order, plan.width, orbit.modulus
                ks = [k // (n // d) for k in exponent_table(orders)[orbit.char]]
                units = [u for u in range(1, d + 1) if gcd(u, d) == 1]
                assert orbit.rows == tuple(tuple(pow(w, u * k, q) for k in ks) for u in units)
    # the d powers cost d multiplications per orbit; one modular power per
    # unit and element takes over a second for Z/256
    exponent_table((256,))
    start = time.perf_counter()
    _build_plan.__wrapped__((256,), 1 << 10)  # the width of orbit_plan((256,), 1)
    assert time.perf_counter() - start < 0.5


def test_wide_shapes_build_one_plan_per_bit_length():
    g = make_group(7)
    built = _build_plan.cache_info().misses
    plans = set()
    for b in range(1, 1001):
        xs = (b, -1, 0, 0, 0, 0, 1)
        assert prod(norm_factors(g, xs)) == group_determinant(g, xs)
        plans.add(orbit_plan((7,), b))
    # 2 |G| B runs from 14 to 14,000: bit lengths 4 to 14
    assert len(plans) == 11 and _build_plan.cache_info().misses - built <= 11
    # no phi(d) >= 4 orbit: one plan whatever the bound
    assert len({orbit_plan((4, 2), b) for b in (0, 1, 2, 10**6, 2**64)}) == 1


# The compiled kernels: phi(d) = 1 and 2 (4x2, 3x3, 2x2x3), phi(d) = 4 (5, 8,
# 12) and phi(d) >= 6 (7, 9), on entries of at most KERNEL_BOUND.
KERNEL_SHAPES = [(4, 2), (3, 3), (5,), (8,), (12,), (7,), (9,), (2, 2, 3)]
KERNEL_BOUND = 6


@st.composite
def kernel_block(draw, shapes):
    """A shape, a cut, one prefix and a few suffixes: the points of one block."""
    orders = draw(st.sampled_from(shapes))
    n = prod(orders)
    cut = draw(st.integers(0, n))
    entries = st.integers(-KERNEL_BOUND, KERNEL_BOUND)
    prefix = tuple(draw(st.lists(entries, min_size=cut, max_size=cut)))
    tail = st.lists(entries, min_size=n - cut, max_size=n - cut).map(tuple)
    return orders, prefix, draw(st.lists(tail, min_size=1, max_size=4))


def run_block(plan, keys, prefix, suffixes):
    """The kernel for keys on one head and its tails, laid out as orderly_scan does."""
    n = plan.dim
    head = plan.coefficients(prefix + (0,) * (n - len(prefix)))
    tails = [plan.coefficients((0,) * len(prefix) + t) for t in suffixes]
    return plan.block(keys)(head, tails)


def orbit_character_norms(orders, xs):
    """Each orbit's norm as the product of the character sums of its members
    in Z[zeta_N], without the plan's reduced rows."""
    group = make_group(orders)
    table = exponent_table(orders)
    index = {row: c for c, row in enumerate(table)}
    sums = character_sums(group, xs)
    N = group.exponent
    out = []
    for orbit in orbit_plan(orders, 0).orbits:
        d = orbit.order
        units = [u for u in range(1, d + 1) if gcd(u, d) == 1]
        members = {index[tuple(u * k % N for k in table[orbit.char])] for u in units}
        acc = CyclotomicInt.one(N)
        for c in members:
            acc = acc * sums[c]
        out.append(acc.to_integer())
    return out


@settings(max_examples=80, deadline=None)
@given(kernel_block(KERNEL_SHAPES))
def test_determinant_and_orbit_kernels_match_bareiss(case):
    orders, prefix, suffixes = case
    plan = orbit_plan(orders, KERNEL_BOUND)
    g = make_group(orders)
    xs = [prefix + t for t in suffixes]
    dets = run_block(plan, None, prefix, suffixes)
    assert dets == [group_determinant(g, x) for x in xs]
    per_orbit = run_block(plan, tuple(range(len(plan.orbits))), prefix, suffixes)
    assert [list(norms) for norms in per_orbit] == [orbit_character_norms(orders, x) for x in xs]
    assert [prod(norms) for norms in per_orbit] == dets


@settings(max_examples=10, deadline=None)
@given(kernel_block([s for s in KERNEL_SHAPES if prod(s) <= 8]))
def test_determinant_kernel_matches_cofactor_oracle(case):
    orders, prefix, suffixes = case
    dets = run_block(orbit_plan(orders, KERNEL_BOUND), None, prefix, suffixes)
    assert dets == [naive_group_det(orders, prefix + t) for t in suffixes]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sign_kernel_matches_bareiss_and_oracle(data):
    # G = H x Z/2, H a kernel shape, with sign factors keyed by c mod 2
    h_orders = data.draw(st.sampled_from(KERNEL_SHAPES))
    orders = h_orders + (2,)
    _, prefix, suffixes = data.draw(kernel_block([orders]))
    plan = orbit_plan(orders, KERNEL_BOUND)
    factors = run_block(plan, _sign_keys(orders, 1), prefix, suffixes)
    table = _index_table(h_orders)
    for x, fs in zip((prefix + t for t in suffixes), factors):
        twists = sign_twists(1, x)
        assert list(fs) == [bareiss_det([[ys[j] for j in row] for row in table]) for ys in twists]
        if prod(h_orders) <= 7:
            assert list(fs) == [naive_group_det(h_orders, ys) for ys in twists]


def test_kernels_are_compiled_once_per_grouping():
    plan = orbit_plan((4, 2), 1)
    keys = _sign_keys((4, 2), 1)
    assert plan.block(keys) is plan.block(keys) and plan.block() is plan.block(None)
    assert plan.block(keys) is not plan.block()
    for bad in [(0,), (0, 1, 0, 1, 0, -1), (0, 1, 0, 1, 0, "1")]:
        with pytest.raises(ValueError, match="one slot index"):
            plan.block(bad)
    assert plan.suite(keys, 8) is plan.suite(keys, 8)
    assert plan.suite(keys, 8) is not plan.suite(keys, 9) and plan.suite(keys, 8) is not plan.block(keys)
    for bad in [-1, True, 8.0, "8"]:
        with pytest.raises(ValueError, match="bound exponent"):
            plan.suite(keys, bad)
    source = plan._block_source(keys)
    # integer literals and fixed identifiers only: Phi_4 = x^2 + 1 folded in,
    # and no modular product, as no orbit of 4x2 has phi(d) >= 4
    assert "a2 * a2 + a3 * a3" in source and "%" not in source
    # thousands of orbits in one slot: a flat product would nest too deep to compile
    assert eval(_product_source(["2"] * 5000)) == 2**5000


# The theorem2 suite kernel against the literal per-point rules. Shapes
# H x (Z/2Z)^l with l = 1, 2, 3; 5 x 2 has a phi(d) = 4 orbit.
SUITE_SHAPES = [((5, 2), 1), ((4, 2), 1), ((3, 2), 1), ((1, 2, 2), 2), ((2, 2, 2), 3)]


def wrong_keys(keys, l):
    """A deliberately wrong grouping: the trivial orbit moved to the next sign
    slot. Unlike the true split it fails the congruence at even points."""
    return ((keys[0] + 1) % (1 << l),) + keys[1:]


def rule_aggregates(group, keys, exp, points, sizes):
    """(even, fails, least, at, flagged) of a block of points by the literal
    rules: each even point counts with its weight in sizes, each point's slot
    products, which flagged points and the least point carry, are its
    norm_factors multiplied by keys, a congruence failure is gcd(*factors) %
    2 and a bound failure two_adic_valuation(det) < exp, and each failure
    record counts with the point's weight."""
    even, fails, lows, flagged = 0, 0, [], []
    for j, (x, w) in enumerate(zip(points, sizes)):
        norms = norm_factors(group, x)
        factors = tuple(prod(n for n, k in zip(norms, keys) if k == s) for s in range(max(keys) + 1))
        det = prod(factors)
        if det % 2:
            continue
        even += w
        if det:
            lows.append((two_adic_valuation(det), j, factors))
        records = (gcd(*factors) % 2 == 1) + bool(det and two_adic_valuation(det) < exp)
        if records:
            flagged.append((j, factors))
            fails += w * records
    if not lows:
        return even, fails, 0, None, flagged
    v, j, factors = min(lows)
    return even, fails, 1 << v, (j, factors), flagged


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_suite_kernel_matches_the_per_point_rules(data):
    orders, l = data.draw(st.sampled_from(SUITE_SHAPES))
    plan = orbit_plan(orders, 1)
    true = _sign_keys(orders, l)
    width = len(true)
    keys = data.draw(
        st.sampled_from([true, wrong_keys(true, l)])
        | st.lists(st.integers(0, 1 << l), min_size=width, max_size=width).map(tuple)
    )
    exp = data.draw(st.sampled_from([0, 4, 9, 30, 10**12]))
    # one prefix of box 1 and any slice of its block of suffixes, laid out as
    # orderly_scan does, so the kernel also sees partial and empty blocks
    dim = prod(orders)
    cut = dim - dim // 2
    prefix = tuple(data.draw(st.lists(st.integers(-1, 1), min_size=cut, max_size=cut)))
    block = list(iter_box(dim - cut, 1))
    lo = data.draw(st.integers(0, len(block)))
    suffixes = block[lo:data.draw(st.integers(lo, len(block)))]
    head = plan.coefficients(prefix + (0,) * (dim - cut))
    tails = [plan.coefficients((0,) * cut + t) for t in suffixes]
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=len(tails), max_size=len(tails)))
    result = plan.suite(keys, exp)(head, tails, sizes)
    points = [prefix + t for t in suffixes]
    assert result == rule_aggregates(make_group(orders), keys, exp, points, sizes)


def test_suite_kernel_on_a_whole_box_reaches_every_rule():
    # (Z/2Z)^2 over box 2 under the true sign grouping and a wrong one: zero
    # and negative even determinants, determinants of valuation exactly 4
    # (flagged below exp = 4 + 1 only), and under the wrong grouping
    # congruence failures, at exp = 9 also failing the bound
    orders, l = (1, 2, 2), 2
    group = make_group(orders)
    plan = orbit_plan(orders, 2)
    true = _sign_keys(orders, l)
    wrong = wrong_keys(true, l)
    points = list(iter_box(4, 2))
    dets = [group_determinant(group, x) for x in points]
    assert 0 in dets and any(d < 0 and d % 2 == 0 for d in dets)
    assert any(d and two_adic_valuation(d) == 4 for d in dets)
    slots = [[prod(n for n, k in zip(norm_factors(group, x), wrong) if k == s) for s in range(4)]
             for x in points]
    odd = [d % 2 == 0 and gcd(*fs) % 2 for d, fs in zip(dets, slots)]
    assert any(o and d and two_adic_valuation(d) < 9 for o, d in zip(odd, dets))
    for keys in [true, wrong]:
        for exp in [0, 4, 5, 9, 30]:
            kernel = plan.suite(keys, exp)
            for prefix, suffixes, result, sizes in orderly_scan(plan, 2, (), range(625), kernel):
                assert sizes == [1] * len(suffixes)
                points = [prefix + t for t in suffixes]
                assert result == rule_aggregates(group, keys, exp, points, sizes)
