"""The build index: bit-identity with the scalar oracle, one build per table.

The indexed side runs on the ambient backend (vector unless
``REPRO_BACKEND`` picks parallel, where pool threads share one read-only
index); the oracle is always the scalar backend's literal tallies.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import chained_table
from repro.cpu.chained_table import ChainedHashTable
from repro.cpu.hashing import hash_keys
from repro.data.zipf import ZipfWorkload
from repro.exec import matching
from repro.exec.backend import SCALAR, VECTOR, current_backend, use_backend
from repro.exec.matching import (
    build_index,
    emit_matches,
    expand_pairs,
    match_group_stats,
)
from repro.exec.output import JoinOutputBuffer
from repro.serve.engine import ProbeRequest, ServeEngine

U32_MAX = 0xFFFF_FFFF


def _colliding_keys(n: int, bits: int) -> np.ndarray:
    """``n`` distinct keys, U32_MAX first, sharing their top ``bits`` hash
    bits: an index over at most 2**bits of them chains all in one bucket."""
    keys = np.concatenate(([U32_MAX], np.arange(1 << 20))).astype(np.uint32)
    top = hash_keys(keys) >> np.uint32(32 - bits)
    return keys[top == top[0]][:n]


# Few distinct keys (so groups repeat): either spread keys including both
# ends of uint32, or keys that all land in one bucket chain.  Payloads
# near 2**32 make per-key sums times probe payloads wrap 2**64.
KEY_POOLS = ([0, 1, 2, 7, 1 << 31, U32_MAX - 1, U32_MAX],
             _colliding_keys(7, 3).tolist())
payloads_st = st.one_of(st.sampled_from([0, 1, U32_MAX - 1, U32_MAX]),
                        st.integers(0, U32_MAX))


def _relation_st(pool):
    return st.lists(st.tuples(st.sampled_from(pool), payloads_st),
                    max_size=40)


def _arrays(pairs):
    return (np.array([k for k, _ in pairs], dtype=np.uint32),
            np.array([p for _, p in pairs], dtype=np.uint32))


def _indexed_backend() -> str:
    backend = current_backend()
    return VECTOR if backend == SCALAR else backend


def _emit(rk, rp, sk, sp, index=None):
    buf = JoinOutputBuffer(64)
    summary = emit_matches(rk, rp, sk, sp, buf, index=index)
    return (summary.count, summary.checksum, buf.count, buf.checksum,
            buf.snapshot().tolist())


def _assert_indexed_equals_scalar(rk, rp, sk, sp):
    with use_backend(SCALAR):
        want_stats = match_group_stats(rk, rp, sk, sp)
        want_r, want_s = expand_pairs(rk, rp, sk, sp)
        want_emit = _emit(rk, rp, sk, sp)
    with use_backend(_indexed_backend()):
        index = build_index(rk, rp)
        groups = index.lookup(sk)
        got_stats = match_group_stats(rk, rp, sk, sp, index=index,
                                      groups=groups)
        got_r, got_s = expand_pairs(rk, rp, sk, sp, index=index,
                                    groups=groups)
        got_emit = _emit(rk, rp, sk, sp, index=index)
    assert got_stats == want_stats
    assert got_r.dtype == want_r.dtype and got_s.dtype == want_s.dtype
    assert np.array_equal(got_r, want_r) and np.array_equal(got_s, want_s)
    assert got_emit == want_emit
    for key, group in zip(sk.tolist(), groups.tolist()):
        if key in set(rk.tolist()):
            assert index.keys[group] == key
        else:
            assert group == -1


@given(st.sampled_from(KEY_POOLS).flatmap(
    lambda pool: st.tuples(_relation_st(pool), _relation_st(pool))))
@settings(max_examples=150, deadline=None)
def test_indexed_matching_is_bit_identical_to_scalar(sides):
    rk, rp = _arrays(sides[0])
    sk, sp = _arrays(sides[1])
    _assert_indexed_equals_scalar(rk, rp, sk, sp)


def test_edge_shapes_match_scalar():
    rng = np.random.default_rng(3)
    empty = np.empty(0, dtype=np.uint32)
    dup_keys = np.full(300, U32_MAX, dtype=np.uint32)
    big_pays = np.full(300, U32_MAX, dtype=np.uint32)
    distinct = rng.choice(1 << 20, size=200, replace=False).astype(np.uint32)
    one_chain = _colliding_keys(200, 8)
    assert (build_index(one_chain, one_chain).first >= 0).sum() == 1
    cases = [
        (empty, empty, empty, empty),
        (dup_keys, big_pays, empty, empty),
        (empty, empty, dup_keys, big_pays),
        # All-duplicate keys on both sides, payload products past 2**64.
        (dup_keys, big_pays, dup_keys[:50], big_pays[:50]),
        (distinct, distinct, distinct[::-1].copy(), distinct[::-1].copy()),
        # 200 distinct keys in one bucket chain, probed with hits and misses.
        (one_chain, one_chain, np.concatenate((one_chain[::-1], distinct)),
         np.concatenate((one_chain, distinct))),
    ]
    for rk, rp, sk, sp in cases:
        _assert_indexed_equals_scalar(rk, rp, sk, sp)


def test_checksum_wraps_two_to_the_64():
    keys = np.full(300, U32_MAX, dtype=np.uint32)
    pays = np.full(300, U32_MAX, dtype=np.uint32)
    index = build_index(keys, pays)
    assert index.keys.tolist() == [U32_MAX] and index.counts.tolist() == [300]
    assert int(index.sums[0]) == 300 * U32_MAX  # the per-key sum itself
    exact = (300 * U32_MAX) * (2 * U32_MAX)  # far past 2**64
    with use_backend(_indexed_backend()):
        count, checksum = match_group_stats(keys, pays, keys[:2], pays[:2],
                                            index=index)
    assert count == 600 and checksum == exact % (1 << 64)


def test_index_is_read_only():
    index = build_index(np.array([3, 1, 3], np.uint32),
                        np.array([9, 8, 7], np.uint32))
    assert index.keys.tolist() == [1, 3]
    assert index.payloads.tolist() == [8, 9, 7]  # stable within a key
    with pytest.raises(ValueError):
        index.counts[0] = 5


@pytest.fixture
def build_index_calls(monkeypatch):
    """Count build_index calls wherever the program binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return build_index(*args, **kwargs)

    monkeypatch.setattr(matching, "build_index", counting)
    monkeypatch.setattr(chained_table, "build_index", counting)
    return calls


@pytest.mark.parametrize("build_backend", [SCALAR, None])
def test_sixty_four_probes_build_the_index_once(build_index_calls,
                                                build_backend):
    join_input = ZipfWorkload(4096, 4096, theta=0.5, seed=11).generate()
    r, s = join_input.r, join_input.s
    table = ChainedHashTable(4096)
    with use_backend(build_backend or _indexed_backend()):
        table.build(r.keys, r.payloads)
    # A scalar-built table indexes lazily, on its first grouped probe.
    assert len(build_index_calls) == (0 if build_backend else 1)
    buf = JoinOutputBuffer(1 << 12)
    total = 0
    with use_backend(_indexed_backend()):
        for a in range(0, 4096, 64):
            total += table.probe(s.keys[a:a + 64], s.payloads[a:a + 64],
                                 buf).count
    assert len(build_index_calls) == 1
    with use_backend(SCALAR):
        assert total == match_group_stats(r.keys, r.payloads,
                                          s.keys, s.payloads)[0]


def test_warm_served_probes_share_the_cached_index(monkeypatch):
    join_input = ZipfWorkload(4096, 1024, theta=1.0, seed=5).generate()
    seen = []
    real_emit = chained_table.emit_matches

    def recording_emit(*args, index=None):
        seen.append(index)
        return real_emit(*args, index=index)

    monkeypatch.setattr(chained_table, "emit_matches", recording_emit)
    engine = ServeEngine()
    engine.register("orders", join_input.r)
    request = ProbeRequest(relation_id="orders", probe=join_input.s,
                           morsel_tuples=256)
    with use_backend(_indexed_backend()):
        cold = engine.probe_sync(request)
        seen.clear()
        warm = [engine.probe_sync(request) for _ in range(2)]
    assert not cold.cache_hit and all(o.cache_hit for o in warm)
    index = engine.cache.peek(("orders", 1)).table.index
    assert len(seen) == 8 and all(i is index for i in seen)
    assert {(o.summary.count, o.summary.checksum) for o in warm} == {
        (cold.summary.count, cold.summary.checksum)}
