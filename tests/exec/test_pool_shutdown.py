"""WorkerPool.shutdown() must be safe whatever state the pool is in.

Benchmarks and tests call shutdown on whatever pool object exists at
that moment — including one whose ``__init__`` never finished
(ConfigError mid-construction), one built inline (no threads), or one
already shut down.  None of those may raise.
"""

from __future__ import annotations

from repro.exec.parallel.pool import WorkerPool


def test_shutdown_on_never_started_pool_is_a_noop():
    # A partially-constructed instance: __new__ only, no attributes at
    # all — the state shutdown sees when __init__ raised early.
    pool = WorkerPool.__new__(WorkerPool)
    pool.shutdown()  # must not raise
    assert pool._executor is None


def test_shutdown_tolerates_half_built_attributes():
    pool = WorkerPool.__new__(WorkerPool)
    pool.n_workers = 2
    # _executor intentionally missing entirely
    pool.shutdown()
    pool.shutdown()  # and again


def test_inline_pool_shutdown_is_idempotent():
    pool = WorkerPool(1)
    pool.shutdown()
    pool.shutdown()
    assert pool._executor is None


def _double(x):
    return 2 * x


def test_thread_pool_double_shutdown():
    pool = WorkerPool(2)
    assert pool.run(_double, [{"x": 1}, {"x": 2}, {"x": 3}]) == [2, 4, 6]
    threads = list(pool._executor._threads)
    assert threads and all(t.is_alive() for t in threads)
    pool.shutdown()
    assert pool._executor is None
    assert not any(t.is_alive() for t in threads)  # joined, none leaked
    pool.shutdown()  # second call finds everything cleared
