"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generators import uniform_input
from repro.data.histogram import (
    KeyHistogram,
    join_output_checksum,
    join_output_count,
)
from repro.data.relation import JoinInput, Relation
from repro.data.zipf import ZipfWorkload


def expected_summary(join_input: JoinInput):
    """Ground-truth (count, checksum) for a materialized join input."""
    hr = KeyHistogram.from_relation(join_input.r)
    hs = KeyHistogram.from_relation(join_input.s)
    return (
        join_output_count(hr, hs),
        join_output_checksum(join_input.r, join_input.s),
    )


def brute_force_count(join_input: JoinInput) -> int:
    """O(n*m)-ish dict-based join count for tiny inputs."""
    from collections import Counter

    r_counts = Counter(join_input.r.keys.tolist())
    return sum(r_counts.get(k, 0) for k in join_input.s.keys.tolist())


def assert_result_correct(result, join_input: JoinInput):
    count, checksum = expected_summary(join_input)
    assert result.output_count == count, (
        f"{result.algorithm}: count {result.output_count} != {count}"
    )
    assert result.output_checksum == checksum, (
        f"{result.algorithm}: checksum mismatch"
    )


@pytest.fixture
def parallel_pool_env(monkeypatch):
    """Pin a deterministic two-worker pool and force morsel engagement.

    CI pins ``REPRO_WORKERS`` the same way, so pool-path tests exercise a
    real thread pool regardless of the host's core count; the engagement
    threshold drops to zero so the small test inputs reach the kernels.
    The process-wide pool is torn down afterwards so other tests see the
    ambient environment again.
    """
    from repro.exec import parallel

    monkeypatch.setenv(parallel.WORKERS_ENV, "2")
    monkeypatch.setenv(parallel.MIN_TUPLES_ENV, "0")
    yield
    parallel.shutdown_pool()


@pytest.fixture
def small_uniform() -> JoinInput:
    return uniform_input(4000, 4000, n_keys=1000, seed=11)


@pytest.fixture
def small_skewed() -> JoinInput:
    return ZipfWorkload(8000, 8000, theta=1.0, seed=5).generate()


@pytest.fixture
def tiny_input() -> JoinInput:
    r = Relation(np.array([1, 2, 2, 3], dtype=np.uint32),
                 np.array([10, 20, 21, 30], dtype=np.uint32), name="R")
    s = Relation(np.array([2, 3, 3, 4], dtype=np.uint32),
                 np.array([200, 300, 301, 400], dtype=np.uint32), name="S")
    return JoinInput(r=r, s=s)
