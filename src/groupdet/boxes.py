"""Shared box enumeration and the box engine of the exhaustive harnesses.

A box search walks [-B, B]^dim in lexicographic order (last coordinate
fastest). Shards are contiguous index ranges of that one fixed order, or for
the orderly walk of a pruned scan, every N-th of its surviving prefixes;
either way the merged result is independent of the number of workers.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import islice, product

from .norms import orbit_plan

DEFAULT_BUDGET = 10_000_000
# Default jobs: work (points, or for a pruned walk the box size over the
# number of maps) below this runs in one process; a pool costs more than it
# saves there.
IN_PROCESS_WORK = 50_000


class BudgetExceededError(RuntimeError):
    """The requested box is larger than the evaluation budget."""


def box_size(dim: int, box: int) -> int:
    if box < 0:
        raise ValueError(f"the box must be at least 0, got {box}")
    if dim < 1:
        raise ValueError(f"a box needs dimension at least 1, got {dim}")
    return (2 * box + 1) ** dim


def ensure_tables(dim: int, budget: int = DEFAULT_BUDGET) -> None:
    """Raise when dim^2, the size of the matrix and tables built for a group
    of order dim, exceeds the budget."""
    if dim * dim > budget:
        raise BudgetExceededError(
            f"a group of order {dim} needs tables of {dim * dim} entries, over the budget "
            f"of {budget}"
        )


def ensure_budget(dim: int, box: int, budget: int, force: bool) -> int:
    """Size of the box, raising when it or dim^3, the steps of the Bareiss
    re-check of one point of a group of order dim (more than its dim^2
    tables), exceeds the budget and force is off; dim^3 goes first, as
    (2*box+1)^dim of a huge group takes long to compute."""
    if not force and dim**3 > budget:
        raise BudgetExceededError(
            f"a group of order {dim} needs {dim**3} steps to re-check one point by Bareiss "
            f"elimination, over the budget of {budget}"
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


def _halves(orders: tuple[int, ...], box: int, kernel):
    """What both box walks share: the shape's plan, the kernel (None is the
    determinant kernel), the prefix length dim - dim // 2, and the suffixes
    of the box with their coefficient vectors, in box order."""
    plan = orbit_plan(orders)
    dim = len(plan.columns)
    cut = dim - dim // 2
    pad = (0,) * cut
    suffixes = list(iter_box(dim - cut, box))
    tails = [plan.coefficients(pad + t) for t in suffixes]
    return plan, kernel or plan.block(), cut, suffixes, tails


def scan_box(orders: tuple[int, ...], box: int, start: int, stop: int, kernel=None):
    """(prefix, suffixes, result) once per prefix for the points of [start, stop)
    of the box over the group with these factor orders, in lexicographic
    order: the points are prefix + t for t in suffixes, and result is what
    kernel, a compiled kernel of the shape's plan (OrbitPlan.block or
    OrbitPlan.suite), returns for the prefix and those suffixes; kernel None
    is the determinant kernel, whose result lists one determinant per suffix.

    The prefix is the first dim - dim // 2 coordinates. The coefficient
    vectors of every suffix (at most sqrt of the box size many) are built
    once and one per prefix, and one kernel call evaluates a prefix's whole
    block of suffixes.
    """
    plan, kernel, cut, suffixes, tails = _halves(orders, box, kernel)
    size = len(suffixes)
    first = start // size
    for base, prefix in zip(range(first * size, stop, size), iter_box(cut, box, first)):
        lo, hi = max(start - base, 0), stop - base
        yield prefix, suffixes[lo:hi], kernel(plan.coefficients(prefix), tails[lo:hi])


def _chains(maps, dim: int) -> list[list]:
    """The comparison of x o phi with x, for each index permutation phi in
    maps, as a chain of nodes bucketed by the depth that decides them.

    x o phi and x first differ at the first position g with x[phi[g]] !=
    x[g]; positions phi fixes never differ. The comparisons that the first d
    coordinates decide form one node (g, h, rest, depth, next): its first
    pair (g, h = phi[g]) is the one that needs coordinate d = max(g, h),
    rest are the later pairs needing no coordinate beyond d, and next is the
    following node, decided at depth. Returns, per depth d, the first nodes
    decided there."""
    buckets = [[] for _ in range(dim)]
    for phi in maps:
        groups = []
        for g, h in enumerate(phi):
            if g != h:
                if not groups or max(g, h) > groups[-1][0]:
                    groups.append((max(g, h), []))
                groups[-1][1].append((g, h))
        node = depth = None
        for d, pairs in reversed(groups):
            node = (*pairs[0], tuple(pairs[1:]), depth, node)
            depth = d
        buckets[depth].append(node)
    return buckets


def orderly_scan(orders: tuple[int, ...], box: int, maps, shard: range):
    """The determinant blocks of scan_box for the points of the box that no
    index permutation phi in maps sends to a lexicographically smaller
    point x o phi, restricted to the surviving prefixes whose ordinal lies
    in shard.

    An orderly walk (Read 1978): coordinates are fixed one at a time in box
    order, depth first. For each map the walk keeps the node its comparison
    has reached, bucketed by the depth that can decide it. Fixing coordinate
    d decides the nodes of bucket d: the first pair of each bounds x_d from
    one side, values outside every bound are never visited, and only at a
    bound are the later pairs of the tied nodes compared, dropping the value
    when one sends x lower and moving the node to its next depth when all
    tie. A map that is decided higher, or that fixes x, is done. The prefix
    walk is done in full by every shard, so the ordinals of the surviving
    prefixes are the same in all of them; a prefix without a kept suffix
    yields no block.
    """
    plan, kernel, cut, suffixes, tails = _halves(orders, box, None)
    dim = len(plan.columns)
    buckets = _chains(maps, dim)
    x = [0] * dim
    width = 2 * box + 1

    def bounds(m):
        lo, hi = -box, box
        for g, h, _, _, _ in buckets[m]:
            if h == m:
                if x[g] > lo:
                    lo = x[g]
            elif x[h] < hi:
                hi = x[h]
        return lo, hi

    def settle(m, v, pushed) -> bool:
        """With x_m = v at a bound: compare the rest of the tied nodes of
        bucket m and push on the ones that tie throughout; False when some
        map sends x lower."""
        for g, h, rest, depth, node in buckets[m]:
            if (x[g] if h == m else x[h]) != v:
                continue
            for i, j in rest:
                if x[j] != x[i]:
                    if x[j] < x[i]:
                        return False
                    break
            else:
                if node is not None:
                    buckets[depth].append(node)
                    pushed.append(depth)
        return True

    def values(m):
        """Set x_m in turn to each value the maps allow below the current
        node, the nodes tied there pushed on while the walk is below it."""
        lo, hi = bounds(m)
        for v in range(lo, hi + 1):
            x[m] = v
            pushed = []
            if not (v == lo or v == hi) or settle(m, v, pushed):
                yield v
            for depth in pushed:
                buckets[depth].pop()

    def descend(m, index, out):
        """Append to out the suffix indices of the kept points below the
        current node at depth m, index being the suffix index so far."""
        for v in values(m):
            if m + 1 == dim:
                out.append(index * width + v + box)
            else:
                descend(m + 1, index * width + v + box, out)

    ordinal = 0

    def prefixes(m):
        nonlocal ordinal
        if m < cut:
            for _ in values(m):
                yield from prefixes(m + 1)
            return
        ordinal += 1
        if ordinal - 1 in shard:
            kept = []
            descend(m, 0, kept)
            if kept:
                prefix = tuple(x[:cut])
                yield prefix, [suffixes[j] for j in kept], kernel(
                    plan.coefficients(prefix), [tails[j] for j in kept]
                )

    return prefixes(0)


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


def dealt_shards(total: int, jobs: int) -> list[tuple[int, int, int]]:
    """The shards of an orderly walk as (start, stop, step) of range(k, total,
    jobs), k < jobs: shard k takes every jobs-th surviving prefix, so the
    dense and the sparse stretches of the box are dealt out evenly."""
    return [(k, total, jobs) for k in range(jobs)]


def map_shards(worker, args: tuple, total: int, jobs: int | None, split=shard_ranges,
               work: int | None = None) -> list:
    """worker(*args, *shard) over the shards split(total, jobs) of [0, total),
    results in shard order.

    jobs None runs in this process when work (by default total, the box
    size) is below IN_PROCESS_WORK, and uses every CPU otherwise; jobs is
    clamped to the CPU count, and a value below 1 raises ValueError. A
    single shard runs in this process, more run in a process pool.
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = 1 if (total if work is None else work) < IN_PROCESS_WORK else cpus
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, cpus)
    shard_args = [(*args, *shard) for shard in split(total, jobs)]
    if len(shard_args) == 1:
        return [worker(*shard_args[0])]
    with multiprocessing.Pool(len(shard_args)) as pool:
        return pool.starmap(worker, shard_args)
