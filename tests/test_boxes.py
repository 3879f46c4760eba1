"""Shard dispatch and the pruned candidate walk: job counts are validated and
clamped before any process starts, pruned scans visit only the candidate
sub-boxes, and their shards are cut by candidate count."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupdet.boxes
from groupdet import BudgetExceededError, find_witness, make_group, search_values
from groupdet.boxes import candidate_ranges, ensure_budget, iter_box, map_shards, scan_box
from groupdet.norms import orbit_plan
from groupdet.search import _even_translations, _search_shard


def shard_bounds(start, stop):
    return start, stop


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
    monkeypatch.setattr(groupdet.boxes.multiprocessing, "Pool", RecordingPool)
    return RecordingPool.sizes


@pytest.mark.parametrize("jobs", [0, -1, -5000])
def test_jobs_below_one_are_rejected(two_cpus, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        map_shards(shard_bounds, (), 100, jobs)
    assert two_cpus == []


@pytest.mark.parametrize("jobs", [None, 2, 3, 5000])
def test_jobs_are_clamped_to_the_cpu_count(two_cpus, jobs):
    assert map_shards(shard_bounds, (), 100, jobs) == [(0, 50), (50, 100)]
    assert two_cpus == [2]


def test_one_job_runs_in_process(two_cpus):
    assert map_shards(shard_bounds, (), 100, 1) == [(0, 100)]
    assert map_shards(shard_bounds, (), 1, 5000) == [(0, 1)]
    assert two_cpus == []


def test_map_shards_runs_the_given_split(two_cpus):
    def split(total, jobs):
        return [(0, 10), (10, total)]

    assert map_shards(shard_bounds, (), 100, 2, split) == [(0, 10), (10, 100)]
    assert two_cpus == [2]


def scanned_points(blocks):
    """The points of scan_box's per-prefix blocks, in box order."""
    out = []
    for prefix, suffixes, values in blocks:
        assert len(suffixes) == len(values)
        out += [prefix + t for t in suffixes]
    return out


def old_filter(vals, perms):
    """The original pruning rule: no translate of vals is lexicographically smaller."""
    return not any(tuple(vals[p] for p in perm) < vals for perm in perms)


# 6 and 2x3 have odd translations, which the lead set leaves out.
PRUNED_SHAPES = [(6,), (2, 3), (4, 2), (2, 2, 2), (3, 3)]


@pytest.mark.parametrize("orders", PRUNED_SHAPES)
def test_candidate_walk_keeps_the_old_filter_set(orders):
    perms = _even_translations(make_group(orders))
    dim = prod(orders)
    total = 3**dim
    expected = [vals for vals in iter_box(dim, 1) if old_filter(vals, perms)]
    assert scanned_points(scan_box(orders, 1, 0, total, perms)) == expected
    # a range cut mid-suffix keeps exactly the points of the old filter inside it
    start, stop = total // 3 + 1, 2 * total // 3 - 1
    inside = [
        v for i, v in enumerate(iter_box(dim, 1)) if start <= i < stop and old_filter(v, perms)
    ]
    assert scanned_points(scan_box(orders, 1, start, stop, perms)) == inside


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pruned_search_shards_cut_anywhere_merge_to_one_shard(data):
    orders = data.draw(st.sampled_from(PRUNED_SHAPES))
    # cuts slice a prefix's block anywhere, pruned or not
    perms = data.draw(st.sampled_from([_even_translations(make_group(orders)), ()]))
    total = 3 ** prod(orders)
    cuts = [0] + sorted(data.draw(st.lists(st.integers(0, total), max_size=4))) + [total]
    evaluated, achieved = 0, {}
    for start, stop in zip(cuts, cuts[1:]):
        count, part = _search_shard(orders, 1, None, perms, start, stop)
        evaluated += count
        for v, w in part.items():
            if v not in achieved or w < achieved[v]:
                achieved[v] = w
    assert (evaluated, achieved) == _search_shard(orders, 1, None, perms, 0, total)


def test_pruned_shards_split_the_candidates_evenly():
    # 4x2 at box 2: the shards are cut on prefix boundaries (625 suffixes
    # each), and no shard gets more than 10% over its share of the
    # candidates: 55% at jobs 2.
    perms = _even_translations(make_group((4, 2)))
    leads = [perm[0] for perm in perms]
    total = 5**8
    candidates = [
        i for i, vals in enumerate(iter_box(8, 2)) if all(vals[s] >= vals[0] for s in leads)
    ]
    assert len(candidates) == 96_825
    for jobs in (2, 3):
        ranges = candidate_ranges((4, 2), 2, perms, total, jobs)
        assert len(ranges) == jobs
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:]))
        assert all(a % 625 == 0 for a, _ in ranges)
        counts = [sum(a <= i < b for i in candidates) for a, b in ranges]
        assert max(counts) <= 1.1 * len(candidates) / jobs


def test_pruned_search_dispatches_candidate_ranges(two_cpus, monkeypatch):
    seen = []
    monkeypatch.setattr(groupdet.search, "_search_shard", lambda *a: seen.append(a[-2:]) or (0, {}))
    search_values(make_group((4, 2)), 1, jobs=2, prune=True)
    perms = _even_translations(make_group((4, 2)))
    assert seen == candidate_ranges((4, 2), 1, perms, 3**8, 2)
    assert seen != [(0, 3**8 // 2), (3**8 // 2, 3**8)]


def test_group_tables_count_against_the_budget():
    # order 143 at box 0: one point, but 143^2 = 20,449 table entries
    g = make_group((13, 11))
    misses = orbit_plan.cache_info().misses
    with pytest.raises(BudgetExceededError, match="order 143"):
        search_values(g, 0, budget=20_000)
    with pytest.raises(BudgetExceededError, match="order 143"):
        find_witness(g, 0, 1, budget=20_000)
    assert orbit_plan.cache_info().misses == misses
    assert find_witness(make_group(12), 0, 0, budget=144) == (0,) * 12


def test_group_tables_are_refused_before_the_box_size(monkeypatch):
    # (2*box+1)^|G| of a huge group takes seconds to compute; it must not be reached
    def unreachable(dim, box):
        raise AssertionError("box_size reached on a group refused by its tables")

    monkeypatch.setattr(groupdet.boxes, "box_size", unreachable)
    with pytest.raises(BudgetExceededError, match="order 10000000"):
        ensure_budget(10**7, 1, 10**7, False)
    with pytest.raises(BudgetExceededError, match="order 10000000"):
        search_values(make_group(10**7), 1)
