"""Shard dispatch: job counts are validated and clamped before any process starts."""

import pytest

import groupdet.boxes
from groupdet.boxes import map_shards


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
