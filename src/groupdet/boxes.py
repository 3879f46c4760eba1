"""Shared box enumeration and the box engine of the exhaustive harnesses.

A box search walks [-B, B]^dim in lexicographic order (last coordinate
fastest) as an orderly walk of its prefixes, with no maps when unpruned.
Shards deal out the surviving prefixes, shard k of N taking every N-th, so
the merged result is independent of the number of workers.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product
from math import prod

from .determinant import (  # the budget and the pool break-even, re-exported here
    DEFAULT_BUDGET,
    POOL_BREAK_EVEN_S,
    BudgetExceededError,
    ensure_tables,
)
from .groups import (
    AbelianGroup,
    addition_table,
    automorphisms,
    enumerate_elements,
    translation_is_even,
)
from .norms import OrbitPlan, orbit_plan, split_lookups

# The default job count (pool_pays), measured on a 2-vCPU host: seconds per
# point of the kernel (plans of width 0, modular plans, split plans) and per
# kept point and map of the pruning walk; a pool pays above POOL_BREAK_EVEN_S.
POINT_S = (0.5e-6, 1.5e-6, 0.2e-6)
WALK_S = 0.05e-6


def box_size(dim: int, box: int) -> int:
    if box < 0:
        raise ValueError(f"the box must be at least 0, got {box}")
    if dim < 1:
        raise ValueError(f"a box needs dimension at least 1, got {dim}")
    return (2 * box + 1) ** dim


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


def iter_box(dim: int, box: int):
    """Assignment tuples in lexicographic order."""
    return product(range(-box, box + 1), repeat=dim)


@lru_cache(maxsize=None)
def holomorph_maps(
    orders: tuple[int, ...], limit: int | None = None, split: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Index permutations g -> sigma(g) + a of the group with these factor
    orders, the identity left out, for one of two sets of sigma and a.

    split 0 (search and witness): every automorphism sigma and every
    translation a whose row permutation is even. The relabelling x -> x o
    (sigma + a) of an assignment keeps the determinant, since det(x o (sigma
    + a)) = sign(tau_a) det(x): sigma only reorders the characters. The
    parity of sigma, or of the whole index permutation, does not matter (on
    Z/8, g -> 3g + 1 is even but changes the sign).

    split l > 0 (verify, the group being H x K with K = (Z/2Z)^l its last l
    factors): every translation and every sigma with sigma(K) = K. A
    translation multiplies each split factor by +-1, and such a sigma permutes
    the restrictions to K of the characters, fixing the trivial one, so it
    permutes the split factors and keeps the trivial one in place. The parity
    of every split factor and the 2-adic valuation of the determinant stay.

    Built once per shape, limit and split from the images of the generators;
    raises BudgetExceededError as soon as there would be more than limit
    maps, the identity counted.
    """
    group = AbelianGroup(orders)
    add = addition_table(group)
    shifts = [add[i] for i, a in enumerate(enumerate_elements(group))
              if split or translation_is_even(group, a)]
    identity = tuple(range(group.order))
    maps = []
    for table in automorphisms(group, add, split):
        maps += (tuple(row[s] for s in table) for row in shifts)
        if limit is not None and len(maps) > limit:
            raise BudgetExceededError(
                f"pruning a group of order {group.order} needs more than {limit} maps of "
                f"{group.order} entries each, over the budget"
            )
    return tuple(m for m in maps if m != identity)


def pruning_maps(orders: tuple[int, ...], box: int, budget: int, force: bool, split: int = 0):
    """holomorph_maps of the shape, counted against the budget as |maps| * |G|
    table entries; none at box 0, whose one point needs no pruning."""
    if box == 0:
        return ()
    return holomorph_maps(orders, None if force else budget // prod(orders), split)


def _chains(maps, dim: int, tied=None) -> list[list]:
    """The comparison of x o phi with x, for each index permutation phi in
    maps, as a chain of nodes bucketed by the depth that decides them.

    x o phi and x first differ at the first position g with x[phi[g]] !=
    x[g]; positions phi fixes never differ. The comparisons that the first d
    coordinates decide form one node (g, h, rest, depth, next): its first
    pair (g, h = phi[g]) is the one that needs coordinate d = max(g, h),
    rest are the later pairs needing no coordinate beyond d, and next is the
    following node, decided at depth. Returns, per depth d < dim, the first
    nodes decided there, and an empty bucket dim: a chain ends in next =
    tied at depth dim, so with tied not None the bucket holds one entry per
    map that ties throughout, that is, fixes x."""
    buckets = [[] for _ in range(dim + 1)]
    for phi in maps:
        groups = []
        for g, h in enumerate(phi):
            if g != h:
                if not groups or max(g, h) > groups[-1][0]:
                    groups.append((max(g, h), []))
                groups[-1][1].append((g, h))
        node, depth = tied, dim
        for d, pairs in reversed(groups):
            node = (*pairs[0], tuple(pairs[1:]), depth, node)
            depth = d
        buckets[depth].append(node)
    return buckets


def kept_points(dim: int, box: int, maps) -> int:
    """The estimated points the orderly walk under maps keeps of the box of
    this dimension: its size over |maps| + 1."""
    return box_size(dim, box) // (len(maps) + 1)


def scan_plan(orders: tuple[int, ...], box: int, maps=(), budget: int = DEFAULT_BUDGET):
    """The plan whose determinant kernel the orderly walk under maps runs on
    the box over the group with these factor orders: split_plan when some
    factor is 2 mod 4 and its table of det_H, (4 box + 1)^(|G| / 2) entries,
    is smaller than kept_points and, counted as entries * |G| like the
    pruning maps, fits the budget (force does not lift this: the orbit
    kernel is as exact); orbit_plan otherwise, which keeps box 0 on it."""
    dim = prod(orders)
    if any(n % 4 == 2 for n in orders):
        entries = (4 * box + 1) ** (dim // 2)
        if entries * dim <= budget and entries < kept_points(dim, box, maps):
            return split_plan(orders, box)
    return orbit_plan(orders, box)


@lru_cache(maxsize=1)
def split_plan(orders: tuple[int, ...], bound: int) -> OrbitPlan:
    """The plan of the shape reading its determinant as T[U] * T[V], exact on
    the assignments with every |x_g| <= bound: T is det_H over [-2 bound, 2
    bound]^|H| in box order, the blocks of the unpruned orderly_scan of H's
    own orbit plan at bound 2 bound, the bound |u_h|, |v_h| <= 2 bound its
    width proof needs (norms.split_lookups). Only the last plan is kept: a
    scan reads one table, and one at the budget cap holds about a million
    ints."""
    h_orders, lookups = split_lookups(orders, bound)
    h_plan = orbit_plan(h_orders, 2 * bound)
    dim = h_plan.dim
    prefixes = range(box_size(dim - dim // 2, 2 * bound))
    table = []
    for _, _, dets in orderly_scan(h_plan, 2 * bound, (), prefixes):
        table += dets
    return OrbitPlan(lookups, prod(orders), 0, table)


def orderly_scan(plan: OrbitPlan, box: int, maps, shard: range, kernel=None):
    """(prefix, suffixes, result) in box order once per surviving prefix whose
    ordinal lies in shard: the points prefix + t are those of the box
    [-box, box]^dim, dim = plan.dim, that no index permutation phi
    in maps sends to a lexicographically smaller point x o phi (maps () keeps
    every point), and result is what plan.block() returns for them in one
    call; plan must be exact on the box. The prefix is the first dim - dim
    // 2 coordinates; the coefficient vectors of the suffixes are built once.

    A given kernel is a suite kernel of plan (plan.suite): maps (the identity
    added) must form a group, each kept point stands for its orbit, and every
    block is (prefix, suffixes, result, sizes): sizes lists the orbit size of
    each kept point, |maps| + 1 over the number of maps fixing it
    (orbit-stabilizer), and result is kernel(head, tails, sizes).

    An orderly walk (Read 1978): coordinates are fixed one at a time in box
    order, depth first. For each map the walk keeps the node its comparison
    has reached, bucketed by the depth that can decide it. Fixing coordinate
    d decides the nodes of bucket d: the first pair of each bounds x_d from
    one side, values outside every bound are never visited, and only at a
    bound are the later pairs of the tied nodes compared, dropping the value
    when one sends x lower and moving the node to its next depth when all
    tie. A map that is decided higher is done; one that ties to its end
    fixes x, and is counted for the sizes. A prefix below which no node is
    pending keeps its whole block of suffixes, unwalked. The prefix walk is
    done in full by every shard, so the ordinals of the surviving prefixes
    are the same in all of them; a prefix without a kept suffix yields no
    block.
    """
    weighted = kernel is not None
    kernel = kernel or plan.block()
    dim = plan.dim
    cut = dim - dim // 2
    suffixes = list(iter_box(dim - cut, box))
    tails = [plan.coefficients((0,) * cut + t) for t in suffixes]
    buckets = _chains(maps, dim, True if weighted else None)
    fixing = buckets[dim]
    group_size = len(maps) + 1
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

    def descend(m, index, out, sizes):
        """Append to out the suffix indices of the kept points below the
        current node at depth m, index being the suffix index so far, and
        when weighted their orbit sizes to sizes."""
        for v in values(m):
            if m + 1 == dim:
                out.append(index * width + v + box)
                if weighted:
                    sizes.append(group_size // (1 + len(fixing)))
            else:
                descend(m + 1, index * width + v + box, out, sizes)

    ordinal = 0

    def prefixes(m):
        nonlocal ordinal
        if m < cut:
            for _ in values(m):
                yield from prefixes(m + 1)
            return
        ordinal += 1
        if ordinal - 1 not in shard:
            return
        if not any(buckets[cut:dim]):
            # no map is pending below the prefix: its whole block is kept
            points, block = suffixes, tails
            if weighted:
                sizes = [group_size // (1 + len(fixing))] * len(suffixes)
        else:
            kept, sizes = [], []
            descend(m, 0, kept, sizes)
            if not kept:
                return
            points, block = [suffixes[j] for j in kept], [tails[j] for j in kept]
        prefix = tuple(x[:cut])
        head = plan.coefficients(prefix)
        if weighted:
            yield prefix, points, kernel(head, block, sizes), sizes
        else:
            yield prefix, points, kernel(head, block)

    return prefixes(0)


def dealt_shards(total: int, jobs: int) -> list[tuple[int, int, int]]:
    """The shards of an orderly walk as (start, stop, step) of range(k, total,
    jobs), k < jobs: shard k takes every jobs-th surviving prefix, so the
    dense and the sparse stretches of the box are dealt out evenly."""
    return [(k, total, jobs) for k in range(jobs)]


def pool_pays(plan: OrbitPlan, box: int, maps) -> bool:
    """Whether the orderly walk of plan under maps over the box is estimated
    to take more than POOL_BREAK_EVEN_S seconds in this process: its
    kept_points each cost the POINT_S of the kind of plan and WALK_S per
    map."""
    kind = 2 if plan.table is not None else int(plan.width > 0)
    point_s = POINT_S[kind] + len(maps) * WALK_S
    # points against a float bound, so a huge box is never made a float
    return kept_points(plan.dim, box, maps) > POOL_BREAK_EVEN_S / point_s


def map_shards(worker, args: tuple, plan: OrbitPlan, box: int, maps, jobs: int | None) -> list:
    """worker(*args, *shard) over the dealt_shards of the prefixes of the
    orderly walk of plan under maps over the box, results in shard order;
    the worker scans with the same plan.

    jobs None uses every CPU when pool_pays and runs in this process
    otherwise; jobs is clamped to the CPU count and to the (2 box + 1)^(dim
    - dim // 2) prefixes, dim = plan.dim, and a value below 1
    raises ValueError.
    A single shard runs in this process, more run in a process pool.
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus if pool_pays(plan, box, maps) else 1
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    dim = plan.dim
    prefixes = box_size(dim - dim // 2, box)
    shard_args = [(*args, *shard) for shard in dealt_shards(prefixes, min(jobs, cpus, prefixes))]
    if len(shard_args) == 1:
        return [worker(*shard_args[0])]
    import multiprocessing  # about 10 ms, so only when a pool starts

    with multiprocessing.Pool(len(shard_args)) as pool:
        return pool.starmap(worker, shard_args)
