"""Shared box enumeration for the exhaustive harnesses.

A box search walks [-B, B]^dim in lexicographic order (last coordinate
fastest); shards are contiguous index ranges of that one fixed order, which is
what makes results independent of the number of workers.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import islice, product

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

    jobs defaults to the CPU count; a single shard runs in this process, more
    run in a process pool.
    """
    jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    shard_args = [(*args, start, stop) for start, stop in shard_ranges(total, jobs)]
    if len(shard_args) == 1:
        return [worker(*shard_args[0])]
    with multiprocessing.Pool(len(shard_args)) as pool:
        return pool.starmap(worker, shard_args)
