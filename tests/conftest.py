"""Suite-wide fixtures."""

import multiprocessing

import pytest

from thetaleap import engine


@pytest.fixture(autouse=True)
def no_leftover_child_processes():
    """Fail a test that leaves live child processes behind, such as an unjoined pool."""
    yield
    leftover = multiprocessing.active_children()
    for proc in leftover:
        proc.terminate()
        proc.join()
    if leftover:
        pytest.fail(f"test left {len(leftover)} live child process(es): {leftover}")


@pytest.fixture
def pool_log(monkeypatch):
    """Record every process pool the engine builds and every task mapped onto one."""
    pools, tasks = [], []

    class CountingPool(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def map(self, fn, iterable, **kwargs):
            batch = list(iterable)
            tasks.extend(batch)
            return super().map(fn, batch, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    return pools, tasks
