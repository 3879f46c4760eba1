"""Shared box enumeration and the box engine of the exhaustive harnesses.

A box search walks [-B, B]^dim in lexicographic order (last coordinate
fastest); shards are contiguous index ranges of that one fixed order, which is
what makes results independent of the number of workers.
"""

from __future__ import annotations

import multiprocessing
import os
from math import prod
from bisect import bisect_left
from itertools import accumulate, compress, islice, product
from operator import itemgetter

from .norms import orbit_plan

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The requested box is larger than the evaluation budget."""


def box_size(dim: int, box: int) -> int:
    if box < 0:
        raise ValueError(f"the box must be at least 0, got {box}")
    if dim < 1:
        raise ValueError(f"a box needs dimension at least 1, got {dim}")
    return (2 * box + 1) ** dim


def ensure_budget(dim: int, box: int, budget: int, force: bool) -> int:
    """Size of the box, raising when it or dim^2, the size of the group's
    orbit plan and translation tables, exceeds the budget and force is off;
    dim^2 goes first, as (2*box+1)^dim of a huge group takes long to compute."""
    if not force and dim * dim > budget:
        raise BudgetExceededError(
            f"a group of order {dim} needs tables of {dim * dim} entries, over the budget "
            f"of {budget}"
        )
    total = box_size(dim, box)
    if not force and total > budget:
        raise BudgetExceededError(
            f"box [-{box}, {box}]^{dim} needs {total} evaluations, over the budget of "
            f"{budget}"
        )
    return total


def iter_box(dim: int, box: int, start: int = 0, stop: int | None = None):
    """Assignment tuples in lexicographic order, sliced to [start, stop)."""
    it = product(range(-box, box + 1), repeat=dim)
    if start == 0 and stop is None:
        return it
    return islice(it, start, stop)


def scan_box(orders: tuple[int, ...], box: int, start: int, stop: int, perms=(), kernel=None):
    """(prefix, suffixes, result) once per prefix for the points of [start, stop)
    of the box over the group with these factor orders, in lexicographic
    order: the points are prefix + t for t in suffixes, and result is what
    kernel, a compiled kernel of the shape's plan (OrbitPlan.block or
    OrbitPlan.suite), returns for the prefix and those suffixes; kernel None
    is the determinant kernel, whose result lists one determinant per suffix.

    The prefix is the first dim - dim // 2 coordinates. The coefficient
    vectors of every suffix (at most sqrt of the box size many) are built
    once and one per prefix, and one kernel call evaluates a prefix's whole
    block of suffixes. A point that some index permutation in perms maps to a
    lexicographically smaller point is left out: only the candidates of
    _candidates are walked, and the points tied on the first coordinate that
    _orbit_minimal rejects are dropped from a prefix's block before it is
    evaluated.
    """
    plan = orbit_plan(orders)
    kernel = kernel or plan.block()
    dim = len(plan.columns)
    cut = dim - dim // 2
    pad = (0,) * cut
    suffixes = list(iter_box(dim - cut, box))
    tails = [plan.coefficients(pad + t) for t in suffixes]
    size = len(suffixes)
    first = start // size
    prefixes = zip(range(first * size, stop, size), iter_box(cut, box, first))
    if not perms:
        for base, prefix in prefixes:
            lo, hi = max(start - base, 0), stop - base
            yield prefix, suffixes[lo:hi], kernel(plan.coefficients(prefix), tails[lo:hi])
        return
    lead, floors = _candidates(dim, box, perms)
    walks = {
        c: (
            [j for j, _, _ in entries],
            [t for _, t, _ in entries],
            [tails[j] for j, _, _ in entries],
            [tied for _, _, tied in entries],
        )
        for c, entries in floors.items()
    }
    for base, prefix in prefixes:
        ties = _prefix_ties(prefix, lead)
        if ties is None:
            continue
        index, ts, tl, tieds = walks[prefix[0]]
        lo = bisect_left(index, start - base)
        hi = bisect_left(index, stop - base)
        if lo == hi:
            continue
        ts, tl, tieds = ts[lo:hi], tl[lo:hi], tieds[lo:hi]
        if ties or any(tieds):
            keep = [
                not (ties or tied) or _orbit_minimal(prefix + t, ties + tied)
                for t, tied in zip(ts, tieds)
            ]
            ts, tl = list(compress(ts, keep)), list(compress(tl, keep))
        yield prefix, ts, kernel(plan.coefficients(prefix), tl)


def _candidates(dim: int, box: int, perms):
    """The candidate sub-boxes of a pruned scan. A point x is only minimal in
    its orbit if x_0 <= x_s for every lead index s = perm[0], so with x_0 = c
    every lead coordinate lies in [c, box].

    Each perm is kept as its lead index and itemgetter(*perm), which applies
    it to a whole tuple in one C call. Returns the (lead index, getter) pairs
    whose lead index lies in the prefix (the first dim - dim // 2
    coordinates), and, for each c, the suffixes whose lead coordinates are
    all >= c as (suffix index, suffix, getters of the perms tied at c
    there), in box order.
    """
    cut = dim - dim // 2
    getters = [(perm[0], itemgetter(*perm)) for perm in perms]
    lead = tuple((s, g) for s, g in getters if s < cut)
    rest = [(s - cut, g) for s, g in getters if s >= cut]
    suffixes = list(iter_box(dim - cut, box))
    floors = {
        c: [
            (j, t, tuple(g for s, g in rest if t[s] == c))
            for j, t in enumerate(suffixes)
            if all(t[s] >= c for s, _ in rest)
        ]
        for c in range(-box, box + 1)
    }
    return lead, floors


def _prefix_ties(prefix: tuple, lead):
    """None when a lead coordinate of the prefix is below prefix[0], else the
    getters of lead whose lead coordinate equals it."""
    c = prefix[0]
    ties = []
    for s, g in lead:
        x = prefix[s]
        if x < c:
            return None
        if x == c:
            ties.append(g)
    return tuple(ties)


def _orbit_minimal(vals: tuple, getters) -> bool:
    """No getter (itemgetter(*perm) of an index permutation perm) maps vals
    to a lexicographically smaller tuple."""
    for g in getters:
        if g(vals) < vals:
            return False
    return True


def shard_ranges(total: int, jobs: int) -> list[tuple[int, int]]:
    """Split [0, total) into at most `jobs` contiguous, near-equal ranges."""
    jobs = max(1, min(jobs, total)) if total else 1
    step, extra = divmod(total, jobs)
    ranges = []
    start = 0
    for i in range(jobs):
        stop = start + step + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def candidate_ranges(orders: tuple[int, ...], box: int, perms, total: int, jobs: int):
    """Split the box [0, total) of a pruned scan into at most `jobs` contiguous
    ranges holding near-equal numbers of candidates. The cuts lie on prefix
    boundaries: a prefix holds as many candidates as its floor has suffixes,
    or none when it leaves the candidate sub-boxes."""
    dim = prod(orders)
    cut = dim - dim // 2
    lead, floors = _candidates(dim, box, perms)
    weights = [
        0 if _prefix_ties(prefix, lead) is None else len(floors[prefix[0]])
        for prefix in iter_box(cut, box)
    ]
    # jobs times the candidate count before each prefix boundary
    scaled = [jobs * n for n in accumulate(weights, initial=0)]
    size = total // len(weights)
    bounds = [0]
    for k in range(1, jobs):
        # the first boundary with at least k/jobs of all candidates before it
        i = bisect_left(scaled, k * sum(weights))
        if bounds[-1] < i < len(weights):
            bounds.append(i)
    return [(a * size, b * size) for a, b in zip(bounds, bounds[1:] + [len(weights)])]


def map_shards(worker, args: tuple, total: int, jobs: int | None, split=shard_ranges) -> list:
    """worker(*args, start, stop) over the shards split(total, jobs) of
    [0, total), results in shard order.

    jobs defaults to, and is clamped to, the CPU count; a value below 1 raises
    ValueError. A single shard runs in this process, more run in a process pool.
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, cpus)
    shard_args = [(*args, start, stop) for start, stop in split(total, jobs)]
    if len(shard_args) == 1:
        return [worker(*shard_args[0])]
    with multiprocessing.Pool(len(shard_args)) as pool:
        return pool.starmap(worker, shard_args)
