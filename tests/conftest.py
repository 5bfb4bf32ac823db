import pytest


@pytest.fixture
def cores(monkeypatch):
    """Sets the core count the engine sees; the test starts without a worker
    pool and the pool it starts is shut down after it."""
    import bcnn.workers as workers

    monkeypatch.setattr(workers, "_pool", None)

    def set_cores(count):
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(count)))

    yield set_cores
    if workers._pool is not None:
        workers._pool.shutdown()
