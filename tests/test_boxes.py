"""Shard dispatch and the pruned orderly walk: job counts are validated and
clamped before any process starts and default to one process for short
scans, the pruning maps keep the determinant, the walk keeps exactly the
points no map sends lower, and its shards deal out the surviving prefixes."""

import multiprocessing
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupdet.boxes
import groupdet.determinant
import groupdet.divisibility
from groupdet import (
    BudgetExceededError,
    find_witness,
    group_determinant,
    make_group,
    run_divisibility_suite,
    search_values,
)
from groupdet.boxes import (
    DEFAULT_BUDGET,
    dealt_shards,
    ensure_budget,
    holomorph_maps,
    iter_box,
    map_shards,
    orderly_scan,
    scan_plan,
)
from groupdet.norms import _build_plan, orbit_plan
from groupdet.search import _search_shard


def shard_bounds(*shard):
    return shard


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the size, runs in this process."""

    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        return [fn(*a) for a in args]


@pytest.fixture
def two_cpus(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(groupdet.boxes.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return RecordingPool.sizes


@pytest.mark.parametrize("jobs", [0, -1, -5000])
def test_jobs_below_one_are_rejected(two_cpus, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        map_shards(shard_bounds, (), orbit_plan((8,), 1), 1, (), jobs)
    assert two_cpus == []


@pytest.mark.parametrize("jobs", [None, 2, 3, 5000])
def test_jobs_are_clamped_to_the_cpu_count(two_cpus, jobs):
    # explicit jobs are clamped whatever the scan: Z/10 at box 1, 3^10 points
    # dealt as 3^5 prefixes; the default uses every CPU on a scan estimated
    # above the break-even: Z/7 at box 3, 7^7 points dealt as 7^4 prefixes
    orders, box, prefixes = ((7,), 3, 7**4) if jobs is None else ((10,), 1, 3**5)
    plan = orbit_plan(orders, box)
    assert map_shards(shard_bounds, (), plan, box, (), jobs) == [(0, prefixes, 2),
                                                                  (1, prefixes, 2)]
    assert two_cpus == [2]


def test_one_job_runs_in_process(two_cpus):
    assert map_shards(shard_bounds, (), orbit_plan((10,), 1), 1, (), 1) == [(0, 3**5, 1)]
    # box 0 has one prefix, which makes one shard whatever the jobs
    assert map_shards(shard_bounds, (), orbit_plan((10,), 0), 0, (), 5000) == [(0, 1, 1)]
    assert two_cpus == []


def test_box_zero_starts_no_pool(two_cpus):
    # one point, one prefix: verify and the unpruned search run in this process
    assert run_divisibility_suite(make_group(2), 1, 0, jobs=2)["assignments_checked"] == 1
    assert search_values(make_group((4, 2)), 0, jobs=2).evaluated == 1
    assert two_cpus == []


def scanned_points(blocks):
    """The points of the per-prefix blocks of a box walk, in walk order."""
    out = []
    for prefix, suffixes, values in blocks:
        assert len(suffixes) == len(values)
        out += [prefix + t for t in suffixes]
    return out


def minimal(vals, maps):
    """The pruning rule, point by point: no map sends vals to a lexicographically smaller point."""
    return not any(tuple(vals[p] for p in phi) < vals for phi in maps)


# 6 and 2x3 have odd translations, which the maps leave out.
PRUNED_SHAPES = [(6,), (2, 3), (4, 2), (2, 2, 2), (3, 3)]


@pytest.mark.parametrize("orders", PRUNED_SHAPES)
def test_candidate_walk_keeps_the_old_filter_set(orders):
    maps = holomorph_maps(orders)
    dim = prod(orders)
    total = 3**dim
    expected = [vals for vals in iter_box(dim, 1) if minimal(vals, maps)]
    plan = scan_plan(orders, 1, maps)
    assert scanned_points(orderly_scan(plan, 1, maps, range(total))) == expected
    # dealt shards and contiguous ordinal ranges each partition the kept points
    for shards in [[range(k, total, 3) for k in range(3)], [range(0, 7), range(7, total)]]:
        parts = [scanned_points(orderly_scan(plan, 1, maps, shard)) for shard in shards]
        assert sorted(p for part in parts for p in part) == expected
        assert all(part == sorted(part) for part in parts)


class StubPlan:
    """A plan of dim columns whose kernels only count: the walk alone is under test."""

    def __init__(self, dim):
        self.dim = dim

    def coefficients(self, point):
        return point

    def block(self):
        return lambda head, tails: [len(t) for t in tails]


@pytest.mark.parametrize("dim", [2000, 5000])
def test_the_walk_has_no_depth_limit(dim):
    # more coordinates than the interpreter's recursion limit allows frames
    plan = StubPlan(dim)
    [(prefix, suffixes, result)] = orderly_scan(plan, 0, (), range(1))
    assert prefix + suffixes[0] == (0,) * dim and result == [dim]

    def kernel(head, tails, sizes):
        return len(tails), sizes

    [(prefix, suffixes, result, sizes)] = orderly_scan(plan, 0, (), range(1), kernel)
    assert prefix + suffixes[0] == (0,) * dim and result == (1, [1]) and sizes == [1]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pruned_search_shards_cut_anywhere_merge_to_one_shard(data):
    orders = data.draw(st.sampled_from(PRUNED_SHAPES))
    maps = data.draw(st.sampled_from([holomorph_maps(orders), ()]))
    dim = prod(orders)
    total = 3**dim
    # cut the ordinals of the surviving prefixes anywhere, dealt with any step
    top = 3 ** (dim - dim // 2)
    step = data.draw(st.integers(1, 4))
    cuts = [0] + sorted(data.draw(st.lists(st.integers(0, top), max_size=4))) + [top]
    args = (orders, 1, None, maps, DEFAULT_BUDGET)
    evaluated, achieved = 0, {}
    for start, stop in zip(cuts, cuts[1:]):
        for k in range(step):
            count, part = _search_shard(*args, start + k, stop, step)
            evaluated += count
            for v, w in part.items():
                if v not in achieved or w < achieved[v]:
                    achieved[v] = w
    assert (evaluated, achieved) == _search_shard(*args, 0, total)
    assert achieved == _search_shard(orders, 1, None, (), DEFAULT_BUDGET, 0, total)[1]


def test_pruned_shards_split_the_candidates_evenly():
    # 4x2 at box 2: the walk evaluates 8,800 points, and dealing the
    # surviving prefixes in turn gives no shard more than 10% over its share
    maps = holomorph_maps((4, 2))
    total = 5**8
    assert _search_shard((4, 2), 2, None, maps, DEFAULT_BUDGET, 0, total)[0] == 8_800
    for jobs in (2, 3):
        counts = [_search_shard((4, 2), 2, None, maps, DEFAULT_BUDGET, *shard)[0]
                  for shard in dealt_shards(total, jobs)]
        assert sum(counts) == 8_800
        assert max(counts) <= 1.1 * 8_800 / jobs


def test_pruned_search_deals_the_surviving_prefixes(two_cpus, monkeypatch):
    # every shard runs in a worker; the parent only merges and re-checks
    seen = []
    monkeypatch.setattr(groupdet.search, "_search_shard",
                        lambda *a: seen.append(a[5:]) or (0, {}))
    search_values(make_group((4, 2)), 1, jobs=2, prune=True)
    assert seen == dealt_shards(3**4, 2) == [(0, 3**4, 2), (1, 3**4, 2)]
    assert two_cpus == [2]


def test_default_jobs_follow_the_work(two_cpus, monkeypatch):
    # the estimate is kept points, the box size over |maps| + 1, times the
    # point cost of the kind of plan the kernel comes from (width 0, modular,
    # split) plus the walk cost per map, against the break-even in seconds
    point_s, walk_s = groupdet.boxes.POINT_S, groupdet.boxes.WALK_S
    cases = [
        ((4, 2), 2, (), 2, False),  # 390,625 points of a split plan: about 0.08 s
        ((7,), 3, (), 1, True),  # 823,543 points of a modular plan: about 1.2 s
        ((6,), 5, (), 2, False),  # 1,771,561 points of a split plan: about 0.35 s
        ((4, 2), 3, (), 2, True),  # 5,764,801 points of a split plan: about 1.2 s
        ((9,), 2, (), 1, True),  # 1,953,125 points of a modular plan: about 2.9 s
        ((8,), 2, (), 2, False),  # 390,625 points of a split plan, two tables: about 0.08 s
        ((4,), 4, (), 2, False),  # 6,561 points of a split plan, two tables
        ((4, 2), 2, holomorph_maps((4, 2)), 0, False),  # 6,103 kept points under 63 maps
    ]
    for orders, box, maps, kind, pool in cases:
        dim = prod(orders)
        plan = scan_plan(orders, box, maps)
        assert (2 if plan.table is not None else int(plan.width > 0)) == kind
        seconds = (2 * box + 1) ** dim // (len(maps) + 1) * (point_s[kind] + len(maps) * walk_s)
        assert (seconds > groupdet.boxes.POOL_BREAK_EVEN_S) == pool
        prefixes = (2 * box + 1) ** (dim - dim // 2)
        jobs = 2 if pool else 1
        expected = [(k, prefixes, jobs) for k in range(jobs)]
        assert map_shards(shard_bounds, (), plan, box, maps, None) == expected
    assert two_cpus == [2, 2, 2]
    # with the orbit plan, as verify passes: Z/6 at box 5 is 1,771,561 points
    # of a width-0 plan, about 0.9 s, and 4x2 at box 2 under verify's 31 maps
    # is 12,207 kept points, about 0.03 s
    assert map_shards(shard_bounds, (), orbit_plan((6,), 5), 5, (), None) == dealt_shards(11**3, 2)
    maps = holomorph_maps((4, 2), None, 1)
    seconds = 5**8 // (len(maps) + 1) * (point_s[0] + len(maps) * walk_s)
    assert len(maps) == 31 and seconds < groupdet.boxes.POOL_BREAK_EVEN_S
    assert map_shards(shard_bounds, (), orbit_plan((4, 2), 2), 2, maps, None) == [(0, 5**4, 1)]
    # the callers pass their shapes, maps and plans: the 4x2 box 2 search,
    # unpruned and pruned, verify H = 4, l = 1 at box 2 (12,207 kept points
    # under 31 maps of the orbit kernel) and the Z/6 box 5 search run in
    # this process
    seen = []
    monkeypatch.setattr(groupdet.search, "_search_shard",
                        lambda *a: seen.append(a[5:]) or (0, {}))
    search_values(make_group((4, 2)), 2)
    search_values(make_group((4, 2)), 2, prune=True)
    search_values(make_group(6), 5)
    assert seen == [(0, 5**4, 1)] * 2 + [(0, 11**3, 1)]
    seen.clear()
    part = {"checked": 5**8, "even_count": 0, "failure_count": 0, "least": None,
            "first_failure": None}
    monkeypatch.setattr(groupdet.divisibility, "_suite_shard",
                        lambda *a: seen.append(a[5:]) or part)
    run_divisibility_suite(make_group(4), 1, 2)
    assert seen == [(0, 5**4, 1)]
    # and Z/7 at box 3 and 4x2 at box 3 use the pool
    seen.clear()
    search_values(make_group(7), 3)
    search_values(make_group((4, 2)), 3)
    assert seen == dealt_shards(7**4, 2) + dealt_shards(7**4, 2)
    assert two_cpus == [2] * 6


def test_a_huge_box_is_estimated_without_a_float():
    # (2 * 10^200 + 1)^2 points do not fit a float; the estimate still says
    # to start the pool
    assert groupdet.boxes.pool_pays(orbit_plan((2,), 10**200), 10**200, ())


MAP_COUNTS = [((4, 2), 64), ((2, 2, 2), 1_344), ((3, 3), 432), ((7,), 42), ((8,), 16)]


@pytest.mark.parametrize("orders,count", MAP_COUNTS)
def test_map_counts(orders, count):
    # |Aut(G)| times the translations of even row permutation, identity included
    maps = holomorph_maps(orders)
    assert len(maps) + 1 == len(set(maps) | {tuple(range(prod(orders)))}) == count
    assert all(sorted(phi) == list(range(prod(orders))) for phi in maps)


def test_translation_parity_decides_not_permutation_parity():
    # on Z/8, g -> 3g + 1 is an even permutation but translation by 1 is an
    # 8-cycle, which flips the determinant's sign; g -> 3g keeps it although
    # it is an odd permutation
    maps = holomorph_maps((8,))
    assert tuple((3 * g + 1) % 8 for g in range(8)) not in maps
    assert tuple(3 * g % 8 for g in range(8)) in maps
    x = (1, 0, 0, 0, 0, 0, 0, 2)
    g = make_group(8)
    flipped = tuple(x[(3 * i + 1) % 8] for i in range(8))
    assert group_determinant(g, flipped) == -group_determinant(g, x) != 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_map_keeps_the_bareiss_determinant(data):
    orders = data.draw(st.sampled_from(
        [(3,), (4,), (5,), (6,), (7,), (8,), (9,), (2, 2), (2, 3), (4, 2), (2, 2, 2), (3, 3),
         (2, 2, 3)]))
    n = prod(orders)
    x = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    g = make_group(orders)
    det = group_determinant(g, x)
    for phi in holomorph_maps(orders):
        assert group_determinant(g, tuple(x[i] for i in phi)) == det


def test_maps_count_against_the_budget():
    # 2x2x2: 1,344 maps of 8 entries each, more than the 6,561 points of box 1
    g = make_group((2, 2, 2))
    misses = holomorph_maps.cache_info().misses
    with pytest.raises(BudgetExceededError, match="maps"):
        search_values(g, 1, budget=1_344 * 8 - 1, prune=True)
    with pytest.raises(BudgetExceededError, match="maps"):
        find_witness(g, 1, 1, budget=6_561)
    # box 0 builds none
    search_values(g, 0, budget=512, prune=True)
    find_witness(g, 0, 1, budget=512)
    assert holomorph_maps.cache_info().misses == misses + 2
    full = search_values(g, 1, jobs=1).achieved
    assert search_values(g, 1, budget=1_344 * 8, prune=True, jobs=1).achieved == full
    assert search_values(g, 1, budget=100, force=True, prune=True, jobs=1).achieved == full


PRUNED_REPORT_SHAPES = PRUNED_SHAPES + [(2, 2), (4,), (8,), (5,), (7,)]


@pytest.mark.parametrize("orders", PRUNED_REPORT_SHAPES)
def test_pruned_reports_equal_unpruned_at_any_jobs(two_cpus, orders):
    g = make_group(orders)
    full = search_values(g, 1, jobs=1)
    assert full.evaluated == 3 ** g.order
    for jobs in (2, 3):
        unpruned = search_values(g, 1, jobs=jobs)
        assert (unpruned.achieved, unpruned.evaluated) == (full.achieved, full.evaluated)
    for jobs in (1, 2, 3):
        pruned = search_values(g, 1, jobs=jobs, prune=True)
        assert pruned.achieved == full.achieved  # values and witnesses
        assert pruned.evaluated < full.evaluated


@pytest.mark.parametrize("orders", PRUNED_REPORT_SHAPES)
def test_witness_hits_and_misses_equal_the_unpruned_scan(orders):
    g = make_group(orders)
    full = search_values(g, 1, jobs=1)
    for v, w in full.achieved.items():
        assert find_witness(g, 1, v) == w
    misses = [v for v in range(-40, 41) if v not in full.achieved][:10]
    assert misses and all(find_witness(g, 1, v) is None for v in misses)


def test_group_tables_count_against_the_budget():
    # order 143 at box 0: one point, but 143^2 = 20,449 table entries
    g = make_group((13, 11))
    misses = _build_plan.cache_info().misses
    with pytest.raises(BudgetExceededError, match="order 143"):
        search_values(g, 0, budget=20_000)
    with pytest.raises(BudgetExceededError, match="order 143"):
        find_witness(g, 0, 1, budget=20_000)
    assert _build_plan.cache_info().misses == misses
    # one point still pays the split re-check of its witness: 1 + 12^3 steps for Z/13,
    # over its 13^2 table entries
    with pytest.raises(BudgetExceededError, match="order 13 needs 1729 steps"):
        find_witness(make_group(13), 0, 0, budget=1728)
    assert find_witness(make_group(13), 0, 0, budget=1729) == (0,) * 13


def test_group_tables_are_refused_before_the_box_size(monkeypatch):
    # (2*box+1)^|G| of a huge group takes seconds to compute; it must not be reached
    def unreachable(dim, box):
        raise AssertionError("box_size reached on a group refused by its tables")

    monkeypatch.setattr(groupdet.determinant, "box_size", unreachable)
    with pytest.raises(BudgetExceededError, match="order 10000000"):
        ensure_budget((10**7,), 1, 10**7, False)
    with pytest.raises(BudgetExceededError, match="order 10000000"):
        search_values(make_group(10**7), 1)
