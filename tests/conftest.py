import os

import pytest


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def record_pool_sizes(monkeypatch):
    """``(module, cpus) -> sizes``: fake the module's process pool and the
    CPUs this process may use; ``sizes`` collects each pool's max_workers.
    No worker process is started."""
    def patch(module, cpus):
        sizes = []
        monkeypatch.setattr(module, "ProcessPoolExecutor",
                            lambda max_workers: RecordingPool(sizes,
                                                              max_workers))
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        return sizes
    return patch
