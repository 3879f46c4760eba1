"""Shared box enumeration and the box engine of the exhaustive harnesses.

A box search walks [-B, B]^dim in lexicographic order (last coordinate
fastest); shards are contiguous index ranges of that one fixed order, which is
what makes results independent of the number of workers.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import islice, product

from .norms import orbit_plan

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The requested box is larger than the evaluation budget."""


def box_size(dim: int, box: int) -> int:
    if dim < 1 or box < 0:
        raise ValueError(f"bad box [-{box}, {box}]^{dim}")
    return (2 * box + 1) ** dim


def ensure_budget(dim: int, box: int, budget: int, force: bool) -> int:
    """Size of the box, raising when it exceeds the budget and force is off."""
    total = box_size(dim, box)
    if not force and total > budget:
        raise BudgetExceededError(
            f"box [-{box}, {box}]^{dim} needs {total} evaluations, over the budget of "
            f"{budget}; raise budget= or pass force=True to run anyway"
        )
    return total


def iter_box(dim: int, box: int, start: int = 0, stop: int | None = None):
    """Assignment tuples in lexicographic order, sliced to [start, stop)."""
    it = product(range(-box, box + 1), repeat=dim)
    if start == 0 and stop is None:
        return it
    return islice(it, start, stop)


def scan_box(orders: tuple[int, ...], box: int, start: int, stop: int, perms=()):
    """(vals, norms) for the points of [start, stop) of the box over the group
    with these factor orders, in lexicographic order; norms are the point's
    orbit norm factors in orbit_plan order, so their product is its determinant.

    The coefficient vectors of every suffix (the last floor(dim/2) coordinates,
    at most sqrt of the box size many) are built once and one partial vector
    per prefix, so a point costs one vector add plus the norms. A point that
    some index permutation in perms maps to a lexicographically smaller point
    is skipped.
    """
    plan = orbit_plan(orders)
    norms = plan.norms
    dim = len(plan.columns)
    cut = dim - dim // 2
    pad = (0,) * cut
    suffixes = [(t, plan.coefficients(pad + t)) for t in iter_box(dim - cut, box)]
    size = len(suffixes)
    first = start // size
    for base, prefix in zip(range(first * size, stop, size), iter_box(cut, box, first)):
        head = plan.coefficients(prefix)
        for t, tail in suffixes[max(start - base, 0):stop - base]:
            vals = prefix + t
            if perms and not _orbit_minimal(vals, perms):
                continue
            yield vals, norms(head, tail)


def _orbit_minimal(vals: tuple, perms) -> bool:
    """No perm maps vals to a lexicographically smaller tuple. The first entry
    decides most comparisons, so the permuted tuple is built only on a tie."""
    first = vals[0]
    for perm in perms:
        lead = vals[perm[0]]
        if lead < first or lead == first and tuple([vals[i] for i in perm]) < vals:
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


def map_shards(worker, args: tuple, total: int, jobs: int | None) -> list:
    """worker(*args, start, stop) over the shards of [0, total), results in shard order.

    jobs defaults to, and is clamped to, the CPU count; a value below 1 raises
    ValueError. A single shard runs in this process, more run in a process pool.
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, cpus)
    shard_args = [(*args, start, stop) for start, stop in shard_ranges(total, jobs)]
    if len(shard_args) == 1:
        return [worker(*shard_args[0])]
    with multiprocessing.Pool(len(shard_args)) as pool:
        return pool.starmap(worker, shard_args)
