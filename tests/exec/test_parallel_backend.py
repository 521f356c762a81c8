"""Units for the parallel backend: arena, thread pool, gating, kernels."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import make_join
from repro.cpu.chained_table import ChainedHashTable
from repro.cpu.partition import _scatter, partition_pass, refine_pass
from repro.cpu.segments import split_segments
from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError, DeadlineExceeded, ExecutionError
from repro.exec.backend import PARALLEL, VECTOR, use_backend
from repro.exec.cancel import Deadline, cancel_scope
from repro.exec.differential import compare_results
from repro.exec.matching import expand_pairs, match_group_stats
from repro.exec.parallel import (
    DEFAULT_MIN_PARALLEL_TUPLES,
    MIN_TUPLES_ENV,
    WORKERS_ENV,
    SharedArena,
    WorkerPool,
    morsel_pool,
    shutdown_pool,
)
from repro.exec.parallel import pool as pool_mod
from repro.exec.parallel.kernels import (
    partition_hist,
    stable_argsort,
    stable_order,
)

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------- arena

def test_inline_arena_carries_arrays_directly():
    arena = SharedArena()
    data = np.arange(10, dtype=np.uint32)
    assert arena.share(data) is data  # morsels read the caller's array


def test_shared_arena_ships_file_mapped_morsels_zero_copy(tmp_path):
    data = np.arange(128, dtype=np.uint32)
    path = tmp_path / "chunk.bin"
    data.tofile(path)
    mapped = np.memmap(path, dtype=np.uint32, mode="r")
    morsel = mapped[16:48]
    shared = SharedArena().share(morsel)
    assert shared is morsel and np.shares_memory(shared, mapped)
    assert np.array_equal(shared, data[16:48])


# ----------------------------------------------------------------- pool

def _tagged(i, delay=0.0):
    """A kernel that sleeps, then reports its task and thread."""
    time.sleep(delay)
    return i, threading.get_ident()


def test_inline_pool_runs_kernels_in_process():
    pool = WorkerPool(1)
    ids = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)
    [hist] = pool.run(partition_hist, [{"ids": ids, "a": 0, "b": 6,
                                        "fanout": 4}])
    assert hist.tolist() == [1, 2, 3, 0]
    results = pool.run(_tagged, [{"i": 0}, {"i": 1}])
    assert {tid for _i, tid in results} == {threading.get_ident()}
    pool.shutdown()  # no-op for inline pools


def test_thread_pool_returns_results_in_task_order():
    pool = WorkerPool(2)
    try:
        # Early tasks sleep longest, so they complete last.
        specs = [{"i": i, "delay": 0.02 * (4 - i)} for i in range(5)]
        results = pool.run(_tagged, specs)
        assert [i for i, _tid in results] == list(range(5))
        assert threading.get_ident() not in {tid for _i, tid in results}
    finally:
        pool.shutdown()


def _boom(i):
    if i == 2:
        raise ValueError("bad morsel")
    return i


def test_worker_failure_raises_typed_execution_error():
    for n_workers in (1, 2):  # inline and threaded
        pool = WorkerPool(n_workers)
        try:
            with pytest.raises(ExecutionError) as excinfo:
                pool.run(_boom, [{"i": i} for i in range(4)])
            assert "_boom" in str(excinfo.value)
            assert "ValueError: bad morsel" in str(excinfo.value)
            assert excinfo.value.context["task_id"] == 2
            assert pool.run(_boom, [{"i": 0}]) == [0]  # still serves
        finally:
            pool.shutdown()


def test_deadline_raises_only_after_in_flight_morsels_finish():
    started, finished = set(), set()
    lock = threading.Lock()

    def slow(i):
        with lock:
            started.add(i)
        time.sleep(0.2)
        with lock:
            finished.add(i)
        return i

    pool = WorkerPool(2)
    try:
        with cancel_scope(deadline=Deadline(50.0)):
            with pytest.raises(DeadlineExceeded):
                pool.run(slow, [{"i": i} for i in range(8)])
        with lock:
            # Nothing is still running once run() has raised, and the
            # morsels that had not started were cancelled.
            assert started == finished
            assert 0 < len(started) < 8
        time.sleep(0.3)
        assert len(finished) == len(started)
    finally:
        pool.shutdown()


def test_worker_count_env_validation(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert pool_mod.worker_count() == 3
    monkeypatch.setenv(WORKERS_ENV, "zero")
    with pytest.raises(ConfigError):
        pool_mod.worker_count()
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ConfigError):
        pool_mod.worker_count()
    monkeypatch.delenv(WORKERS_ENV)
    assert pool_mod.worker_count() >= 1


def test_min_tuples_env_validation(monkeypatch):
    monkeypatch.delenv(MIN_TUPLES_ENV, raising=False)
    assert pool_mod.min_parallel_tuples() == DEFAULT_MIN_PARALLEL_TUPLES
    monkeypatch.setenv(MIN_TUPLES_ENV, "0")
    assert pool_mod.min_parallel_tuples() == 0
    monkeypatch.setenv(MIN_TUPLES_ENV, "-1")
    with pytest.raises(ConfigError):
        pool_mod.min_parallel_tuples()


def test_get_pool_rebuilds_when_worker_count_changes(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    try:
        first = pool_mod.get_pool()
        assert first.n_workers == 1
        assert pool_mod.get_pool() is first  # cached while env is stable
        assert pool_mod.current_pool() is first
        monkeypatch.setenv(WORKERS_ENV, "2")
        second = pool_mod.get_pool()
        assert second is not first and second.n_workers == 2
    finally:
        shutdown_pool()
    assert pool_mod.current_pool() is None


# --------------------------------------------------------------- gating

def test_morsel_pool_requires_parallel_backend(monkeypatch):
    monkeypatch.setenv(MIN_TUPLES_ENV, "0")
    with use_backend(VECTOR):
        assert morsel_pool(1 << 20) is None


def test_morsel_pool_respects_min_tuples(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    monkeypatch.setenv(MIN_TUPLES_ENV, "1000")
    try:
        with use_backend(PARALLEL):
            assert morsel_pool(999) is None
            assert morsel_pool(1000) is not None
    finally:
        shutdown_pool()


# ------------------------------------------------------------- kernels

_U32_MAX = 0xFFFF_FFFF


@given(st.lists(st.one_of(st.integers(0, 3), st.just(_U32_MAX),
                          st.integers(0, _U32_MAX)), max_size=300),
       st.sampled_from([np.int64, np.uint32]))
@example([], np.int64)
@example([_U32_MAX], np.uint32)
@example([7] * 50, np.int64)
@example([_U32_MAX] * 9 + [0], np.uint32)
@settings(max_examples=200, deadline=None)
def test_stable_sorts_are_numpy_stable_argsort(values, dtype):
    values = np.asarray(values, dtype=dtype)
    sorted_values, order = stable_order(values)
    assert sorted_values.dtype == values.dtype
    assert np.array_equal(sorted_values, np.sort(values))
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(values, kind="stable"))
    assert np.array_equal(stable_argsort(values), order)


def _both_backends(fn):
    """fn() under vector and under parallel (2 threads, every phase)."""
    out = {}
    for backend in (VECTOR, PARALLEL):
        with use_backend(backend):
            out[backend] = fn()
    return out[VECTOR], out[PARALLEL]


def _assert_same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_every_kernel_matches_vector_with_two_threads(parallel_pool_env,
                                                      monkeypatch):
    ran = []
    real_run = WorkerPool.run

    def recording_run(self, kernel, task_specs):
        ran.append(kernel.__name__)
        assert self.n_workers == 2
        return real_run(self, kernel, task_specs)

    monkeypatch.setattr(WorkerPool, "run", recording_run)
    join_input = ZipfWorkload(6000, 5000, theta=1.0, seed=9).generate()
    r, s = join_input.r, join_input.s
    hashes = (r.keys * np.uint32(2654435761)).astype(np.uint32)
    part_ids = (hashes & np.uint32(15)).astype(np.int64)
    segments = split_segments(r.keys.size, 5)

    # partition_hist + partition_scatter
    vec, par = _both_backends(lambda: _scatter(
        r.keys, r.payloads, hashes, part_ids, 16, segments))
    _assert_same_arrays(vec, par)

    # refine_chunk
    def refine():
        parent = partition_pass(r.keys, r.payloads, hashes, 0, 3, 4)
        out = refine_pass(parent.partitioned, 3, 2).partitioned
        return out.keys, out.payloads, out.hashes, out.offsets
    vec, par = _both_backends(refine)
    _assert_same_arrays(vec, par)

    # chain_links
    def build():
        table = ChainedHashTable(1024)
        table.build(r.keys, r.payloads)
        return table.next, table.heads
    vec, par = _both_backends(build)
    _assert_same_arrays(vec, par)

    # match_stats
    vec, par = _both_backends(lambda: match_group_stats(
        r.keys, r.payloads, s.keys, s.payloads))
    assert vec == par and vec[0] > 0

    # expand_count + expand_write
    vec, par = _both_backends(lambda: expand_pairs(
        r.keys[:800], r.payloads[:800], s.keys[:800], s.payloads[:800]))
    _assert_same_arrays(vec, par)
    assert vec[0].size > 0
    assert set(ran) == {"partition_hist", "partition_scatter",
                        "refine_chunk", "chain_links", "match_stats",
                        "expand_count", "expand_write"}


def test_parallel_join_matches_vector_with_real_pool(parallel_pool_env):
    join_input = ZipfWorkload(4096, 4096, theta=1.0, seed=3).generate()
    results = {}
    for backend in (VECTOR, PARALLEL):
        with use_backend(backend):
            results[backend] = make_join("csh").run(join_input)
    assert compare_results(results[VECTOR], results[PARALLEL]) == []
    assert results[PARALLEL].meta["backend"] == PARALLEL


def test_disjoint_morsel_writes_survive_thread_stress(monkeypatch):
    """More threads than cores and a tiny switch interval: every morsel
    still lands in its own slice, so joins stay bit-identical."""
    monkeypatch.setenv(WORKERS_ENV, "8")
    monkeypatch.setenv(MIN_TUPLES_ENV, "0")
    join_input = ZipfWorkload(20000, 20000, theta=1.0, seed=17).generate()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for algorithm in ("cbase", "cbase-npj"):
            vec, par = _both_backends(
                lambda: make_join(algorithm).run(join_input))
            assert compare_results(vec, par) == []
    finally:
        sys.setswitchinterval(interval)
        shutdown_pool()


def test_parallel_diff_writes_nothing_to_stderr():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_WORKERS="2",
               REPRO_PARALLEL_MIN_TUPLES="0")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "diff", "--tuples", "4096"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout
    assert proc.stderr.splitlines() == []
