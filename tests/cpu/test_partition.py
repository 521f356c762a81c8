"""Tests for radix partitioning.

The layout tests check each result against the scalar oracle: keys,
payloads, hashes and offsets bit for bit, and the per-unit counters.
They run on the ambient backend under their own names, and again on
every backend (``parallel`` on a forced two-worker pool) through
``test_layout_on_every_backend``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.hashing import hash_keys, radix_bits
from repro.cpu.partition import (
    PartitionedRelation,
    choose_radix_bits,
    partition_pass,
    partition_relation,
    refine_pass,
)
from repro.errors import ConfigError
from repro.exec.backend import BACKENDS, PARALLEL, SCALAR, use_backend


def make_input(n, n_keys=64, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, n).astype(np.uint32)
    pays = rng.integers(0, 2**31, n).astype(np.uint32)
    return keys, pays


def tuple_multiset(keys, pays):
    return sorted(zip(keys.tolist(), pays.tolist()))


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Run the test on one backend; ``parallel`` engages a real pool."""
    if request.param == PARALLEL:
        request.getfixturevalue("parallel_pool_env")
    with use_backend(request.param):
        yield request.param


def same_as_scalar(run):
    """``run()`` on the ambient backend, checked against the scalar run.

    ``run`` returns a PartitionPassResult (or a tuple of them, None
    allowed); the ambient result is returned.
    """
    got = run()
    with use_backend(SCALAR):
        want = run()
    got_all = got if isinstance(got, tuple) else (got,)
    want_all = want if isinstance(want, tuple) else (want,)
    assert len(got_all) == len(want_all)
    for g, w in zip(got_all, want_all):
        if w is None:
            assert g is None
            continue
        for name in ("keys", "payloads", "hashes", "offsets"):
            x = getattr(g.partitioned, name)
            y = getattr(w.partitioned, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert g.unit_counters == w.unit_counters
    return got


def test_partition_pass_is_permutation():
    keys, pays = make_input(5000)
    res = same_as_scalar(
        lambda: partition_pass(keys, pays, hash_keys(keys), 0, 4, n_threads=4))
    pr = res.partitioned
    assert tuple_multiset(pr.keys, pr.payloads) == tuple_multiset(keys, pays)


def test_partition_pass_groups_by_radix():
    keys, pays = make_input(3000)
    res = same_as_scalar(
        lambda: partition_pass(keys, pays, hash_keys(keys), 0, 3, n_threads=3))
    pr = res.partitioned
    for p in range(pr.fanout):
        k, _ = pr.partition(p)
        if k.size:
            assert np.all(radix_bits(hash_keys(k), 0, 3) == p)


def test_partition_sizes_match_offsets():
    keys, pays = make_input(1000)
    res = same_as_scalar(
        lambda: partition_pass(keys, pays, hash_keys(keys), 0, 4, n_threads=2))
    pr = res.partitioned
    assert pr.sizes().sum() == 1000
    assert pr.fanout == 16


def test_partition_counters_cover_all_tuples():
    keys, pays = make_input(1024)
    res = same_as_scalar(
        lambda: partition_pass(keys, pays, hash_keys(keys), 0, 4, n_threads=8))
    total = res.total_counters
    assert total.tuple_moves == 1024
    assert total.seq_tuple_reads == 2048
    assert len(res.unit_counters) == 8


def test_two_pass_refine_groups_by_both_bit_ranges():
    keys, pays = make_input(4000, n_keys=5000, seed=3)
    pass1, pass2 = same_as_scalar(
        lambda: partition_relation(keys, pays, 3, 2, n_threads=4))
    pr = pass2.partitioned
    assert pr.fanout == 32
    for p in range(pr.fanout):
        k, _ = pr.partition(p)
        if k.size:
            h = hash_keys(k)
            assert np.all(radix_bits(h, 0, 3) == p >> 2)
            assert np.all(radix_bits(h, 3, 2) == p % 4)
    assert tuple_multiset(pr.keys, pr.payloads) == tuple_multiset(keys, pays)


def test_refine_pass_mask_passthrough():
    keys, pays = make_input(2000)
    res = partition_pass(keys, pays, hash_keys(keys), 0, 2, n_threads=2)
    mask = np.array([True, False, False, False])
    ref = same_as_scalar(
        lambda: refine_pass(res.partitioned, 2, 2, refine_mask=mask))
    pr = ref.partitioned
    assert pr.fanout == 16
    # untouched partitions sit in sub-slot 0
    for parent in (1, 2, 3):
        for sub in (1, 2, 3):
            lo, hi = pr.offsets[parent * 4 + sub], pr.offsets[parent * 4 + sub + 1]
            assert lo == hi
    assert tuple_multiset(pr.keys, pr.payloads) == tuple_multiset(keys, pays)
    # exactly one refine task ran
    assert len(ref.unit_counters) == 1


def test_refine_pass_hashes_a_parent_without_hashes(backend):
    keys, pays = make_input(3000, n_keys=2000, seed=5)
    parent = partition_pass(keys, pays, hash_keys(keys), 0, 3,
                            n_threads=2).partitioned
    bare = PartitionedRelation(parent.keys, parent.payloads, parent.offsets)
    mask = np.arange(parent.fanout) % 3 != 1
    ref = same_as_scalar(lambda: refine_pass(bare, 3, 2, refine_mask=mask))
    with_hashes = refine_pass(parent, 3, 2, refine_mask=mask)
    for name in ("keys", "payloads", "hashes", "offsets"):
        assert np.array_equal(getattr(ref.partitioned, name),
                              getattr(with_hashes.partitioned, name))
    assert np.array_equal(ref.partitioned.hashes,
                          hash_keys(ref.partitioned.keys))


def test_same_key_tuples_stay_together_under_refinement():
    """The paper's core observation: splitting with more hash bits cannot
    separate tuples that share a join key."""
    keys = np.full(1000, 77, dtype=np.uint32)
    pays = np.arange(1000, dtype=np.uint32)
    pass1, pass2 = same_as_scalar(
        lambda: partition_relation(keys, pays, 4, 4, n_threads=4))
    sizes = pass2.partitioned.sizes()
    assert (sizes > 0).sum() == 1
    assert sizes.max() == 1000


def test_partitioned_relation_validation():
    with pytest.raises(ConfigError):
        PartitionedRelation(np.zeros(4, np.uint32), np.zeros(4, np.uint32),
                            offsets=np.array([0, 2, 3]))  # does not span
    with pytest.raises(ConfigError):
        PartitionedRelation(np.zeros(4, np.uint32), np.zeros(4, np.uint32),
                            offsets=np.array([0, 3, 2, 4]))  # decreasing


def test_choose_radix_bits_targets_partition_size():
    b1, b2 = choose_radix_bits(1 << 20, 2048)
    assert 1 << (b1 + b2) == (1 << 20) // 2048
    assert abs(b1 - b2) <= 1
    assert choose_radix_bits(100, 2048) == (0, 0)


def test_choose_radix_bits_validation():
    with pytest.raises(ConfigError):
        choose_radix_bits(100, 0)


@given(st.integers(1, 3000), st.integers(0, 5), st.integers(1, 8),
       st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_partition_permutation_property(n, bits, threads, seed):
    keys, pays = make_input(n, n_keys=max(n // 2, 1), seed=seed)
    res = same_as_scalar(
        lambda: partition_pass(keys, pays, hash_keys(keys), 0, bits, threads))
    pr = res.partitioned
    assert pr.fanout == 1 << bits
    assert tuple_multiset(pr.keys, pr.payloads) == tuple_multiset(keys, pays)
    assert res.total_counters.tuple_moves == n


LAYOUT_TESTS = [
    test_partition_pass_is_permutation,
    test_partition_pass_groups_by_radix,
    test_partition_sizes_match_offsets,
    test_partition_counters_cover_all_tuples,
    test_two_pass_refine_groups_by_both_bit_ranges,
    test_refine_pass_mask_passthrough,
    test_same_key_tuples_stay_together_under_refinement,
    test_partition_permutation_property,
]


@pytest.mark.parametrize("check", LAYOUT_TESTS, ids=lambda f: f.__name__)
def test_layout_on_every_backend(backend, check):
    check()
