"""Key-equality matching helpers shared by CPU and GPU executors.

These compute the exact join output (count, checksum, and materialized
pairs while small) between two tuple sets, group-wise by key.  They are the
functional core every probe implementation delegates to; operation
*accounting* stays in the callers, which know what the scalar/SIMT
algorithm would have paid.

Under the vector and parallel backends every match runs against a
:class:`BuildIndex`, the build side grouped by key.  A
:class:`~repro.cpu.chained_table.ChainedHashTable` builds its index once
and reuses it for every probe (build once, probe many); callers without a
table get a throw-away index from the same :func:`build_index`.  The
scalar backend keeps its literal per-tuple tallies as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exec.backend import dispatch, is_vector
from repro.exec.output import JoinOutputBuffer, OutputSummary

_U64_MASK = (1 << 64) - 1

#: Materialize real output pairs only while the expansion stays this small;
#: beyond it only the closed-form count/checksum is recorded.
MATERIALIZE_LIMIT = 1 << 21


@dataclass(frozen=True)
class BuildIndex:
    """A build side grouped by key: immutable, shared by every probe.

    Group ``g`` is the ``g``-th smallest distinct key ``keys[g]``, with
    ``counts[g]`` tuples whose payloads sum to ``sums[g]`` mod 2**64.
    ``payloads`` is the build payloads stably sorted by key, so
    ``payloads[starts[g]:starts[g] + counts[g]]`` are the group's payloads
    in insertion order.  ``first``/``next`` chain the groups per bucket of
    the keys' top ``bucket_bits`` hash bits (-1 ends a chain): looking up
    an unsorted probe key costs O(1) expected, not a binary search.
    """

    keys: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    payloads: np.ndarray
    starts: np.ndarray
    bucket_bits: int
    first: np.ndarray
    next: np.ndarray

    def lookup(self, s_keys: np.ndarray) -> np.ndarray:
        """Group of each probe key (int64), -1 where no build tuple has it.

        All probe keys walk their bucket chains in lockstep, one chain
        node per round.
        """
        from repro.cpu.hashing import bucket_ids, hash_keys

        groups = np.full(s_keys.size, -1, dtype=np.int64)
        if self.keys.size == 0 or s_keys.size == 0:
            return groups
        cand = self.first[bucket_ids(hash_keys(s_keys), self.bucket_bits)]
        todo = np.flatnonzero(cand >= 0)
        cand = cand[todo]
        while todo.size:
            hit = self.keys[cand] == s_keys[todo]
            groups[todo[hit]] = cand[hit]
            miss = ~hit
            cand = self.next[cand[miss]]
            todo = todo[miss]
            live = cand >= 0
            cand = cand[live]
            todo = todo[live]
        return groups


def build_index(keys: np.ndarray, payloads: np.ndarray) -> BuildIndex:
    """Group a build side by key and chain its groups by hash bucket.

    There are about as many buckets as distinct keys.  The arrays are
    made read-only, so pool threads can share one index.
    """
    from repro.cpu.hashing import bits_for, bucket_ids, hash_keys
    from repro.exec.parallel.kernels import chain_links, stable_order

    keys = np.asarray(keys, dtype=np.uint32)
    n = keys.size
    sorted_keys, order = stable_order(keys)
    sorted_payloads = np.asarray(payloads, dtype=np.uint32)[order]
    is_start = np.ones(n, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    group_keys = sorted_keys[starts]
    sums = (np.add.reduceat(sorted_payloads.astype(np.uint64), starts)
            if n else np.zeros(0, dtype=np.uint64))
    bucket_bits = bits_for(group_keys.size)
    first = np.full(1 << bucket_bits, -1, dtype=np.int64)
    nxt = np.full(group_keys.size, -1, dtype=np.int64)
    buckets = bucket_ids(hash_keys(group_keys), bucket_bits)
    uniq, _first_idx, last_idx = chain_links(buckets, nxt, 0, buckets.size)
    first[uniq] = last_idx
    index = BuildIndex(
        keys=group_keys, counts=np.diff(np.append(starts, n)), sums=sums,
        payloads=sorted_payloads, starts=starts, bucket_bits=bucket_bits,
        first=first, next=nxt)
    for array in (index.keys, index.counts, index.sums, index.payloads,
                  index.starts, index.first, index.next):
        array.flags.writeable = False
    return index


def _group_tallies(
    keys: np.ndarray, payloads: np.ndarray
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per-key tuple counts and payload sums, tuple-at-a-time."""
    counts: Dict[int, int] = {}
    sums: Dict[int, int] = {}
    for k, p in zip(keys.tolist(), payloads.tolist()):
        counts[k] = counts.get(k, 0) + 1
        sums[k] = sums.get(k, 0) + p
    return counts, sums


def _match_group_stats_scalar(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Literal per-tuple tally of the equi-join count and checksum."""
    if r_keys.size == 0 or s_keys.size == 0:
        return 0, 0
    r_counts, r_sums = _group_tallies(r_keys, r_payloads)
    s_counts, s_sums = _group_tallies(s_keys, s_payloads)
    total = 0
    checksum = 0
    for key, rc in r_counts.items():
        sc = s_counts.get(key)
        if sc is None:
            continue
        total += rc * sc
        checksum += (r_sums[key] & _U64_MASK) * (s_sums[key] & _U64_MASK)
    return total, checksum & _U64_MASK


def _indexed(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    index: Optional[BuildIndex],
    groups: Optional[np.ndarray],
) -> Tuple[BuildIndex, np.ndarray]:
    """The given index and lookup, or a throw-away index and its lookup."""
    if index is None:
        index = build_index(r_keys, r_payloads)
    if groups is None:
        groups = index.lookup(s_keys)
    return index, groups


def _s_morsels(n_tuples: int, n_s: int):
    """(pool, contiguous S morsels): the whole S inline unless the pool
    engages, else morsels sized to keep its task queue fed."""
    from repro.cpu.segments import split_segments
    from repro.exec.parallel import MORSELS_PER_WORKER, morsel_pool
    pool = morsel_pool(n_tuples)
    if pool is None:
        return None, [(0, n_s)]
    return pool, split_segments(n_s, max(pool.n_workers * MORSELS_PER_WORKER,
                                         1))


def match_group_stats(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    index: Optional[BuildIndex] = None,
    groups: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """Exact (count, checksum) of the equi-join of two tuple sets.

    Vector and parallel tally per S morsel against the build side's
    :class:`BuildIndex` (``index``, with ``groups`` its lookup of
    ``s_keys``; both are computed here when not given).  Morsel sums are
    order independent, so the result does not depend on the worker count.
    """
    from repro.exec.parallel import run_morsels
    from repro.exec.parallel.kernels import match_stats

    if not is_vector():
        return _match_group_stats_scalar(r_keys, r_payloads,
                                         s_keys, s_payloads)
    if r_keys.size == 0 or s_keys.size == 0:
        return 0, 0
    index, groups = _indexed(r_keys, r_payloads, s_keys, index, groups)
    pool, morsels = _s_morsels(r_keys.size + s_keys.size, s_keys.size)
    task = dict(counts=index.counts, sums=index.sums, groups=groups,
                s_payloads=s_payloads)
    results = run_morsels(pool, match_stats,
                          [dict(task, a=a, b=b) for (a, b) in morsels])
    total = sum(t for t, _c in results)
    checksum = sum(c for _t, c in results)
    return total, checksum & _U64_MASK


def emit_matches(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    buffer: JoinOutputBuffer,
    index: Optional[BuildIndex] = None,
) -> OutputSummary:
    """Join two tuple sets on key equality and feed the output buffer.

    Real pairs are written to the ring while the expansion is small; beyond
    :data:`MATERIALIZE_LIMIT` the buffer receives the closed-form summary
    only (overwrite-on-full semantics discard the bulk anyway).  Vector
    and parallel look ``s_keys`` up once in ``index`` (a throw-away index
    when None) and hand that lookup to both the tally and the expansion.
    """
    summary = OutputSummary()
    groups = None
    if is_vector():
        index, groups = _indexed(r_keys, r_payloads, s_keys, index, None)
    total, checksum = match_group_stats(r_keys, r_payloads, s_keys,
                                        s_payloads, index=index,
                                        groups=groups)
    if total == 0:
        return summary
    if total <= MATERIALIZE_LIMIT:
        pairs_r, pairs_s = expand_pairs(r_keys, r_payloads, s_keys,
                                        s_payloads, index=index,
                                        groups=groups)
        buffer.write_pairs(pairs_r, pairs_s)
    else:
        buffer.count += total
        buffer.checksum = (buffer.checksum + checksum) & _U64_MASK
    summary.add_pairs_sum(total, checksum)
    return summary


def expand_pairs(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    index: Optional[BuildIndex] = None,
    groups: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize all matching (r_payload, s_payload) pairs.

    All backends emit the pairs in the same order — by S tuple, then by R
    insertion order within the key — so buffer snapshots stay bit-identical.
    Vector and parallel expand in two rounds over S morsels of the
    ``index`` lookup: round 1 counts each morsel's output, the counts
    prefix-sum into per-morsel offsets, and round 2 writes each morsel's
    pairs into its disjoint slice of the output.
    """
    from repro.exec.parallel import run_morsels
    from repro.exec.parallel.kernels import expand_count, expand_write

    if not is_vector():
        return _expand_pairs_scalar(r_keys, r_payloads, s_keys, s_payloads)
    if r_keys.size == 0 or s_keys.size == 0:
        return np.empty(0, np.uint32), np.empty(0, np.uint32)
    index, groups = _indexed(r_keys, r_payloads, s_keys, index, groups)
    pool, morsels = _s_morsels(r_keys.size + s_keys.size, s_keys.size)
    lookup = dict(counts=index.counts, groups=groups)
    counts = run_morsels(pool, expand_count,
                         [dict(lookup, a=a, b=b) for (a, b) in morsels])
    total = int(sum(counts))
    out_r = np.empty(total, np.uint32)
    out_s = np.empty(total, np.uint32)
    if total == 0:
        return out_r, out_s
    offsets = np.concatenate(([0], np.cumsum(counts)))
    task = dict(lookup, starts=index.starts, payloads=index.payloads,
                s_payloads=s_payloads, out_r=out_r, out_s=out_s)
    run_morsels(pool, expand_write, [
        dict(task, a=a, b=b, offset=int(offsets[i]))
        for i, (a, b) in enumerate(morsels) if counts[i]
    ])
    return out_r, out_s


def _expand_pairs_scalar(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tuple-at-a-time pair expansion via a per-key payload index."""
    if r_keys.size == 0 or s_keys.size == 0:
        return np.empty(0, np.uint32), np.empty(0, np.uint32)
    by_key: Dict[int, List[int]] = {}
    for k, p in zip(r_keys.tolist(), r_payloads.tolist()):
        by_key.setdefault(k, []).append(p)
    out_r: List[int] = []
    out_s: List[int] = []
    for k, sp in zip(s_keys.tolist(), s_payloads.tolist()):
        group = by_key.get(k)
        if group is None:
            continue
        out_r.extend(group)
        out_s.extend([sp] * len(group))
    return (np.asarray(out_r, dtype=np.uint32),
            np.asarray(out_s, dtype=np.uint32))


def per_key_match_counts(
    query_keys: np.ndarray, target_keys: np.ndarray
) -> np.ndarray:
    """For each query key, how many target tuples share it."""
    impl = dispatch(_per_key_match_counts_scalar, _per_key_match_counts_vector)
    return impl(query_keys, target_keys)


def _per_key_match_counts_scalar(
    query_keys: np.ndarray, target_keys: np.ndarray
) -> np.ndarray:
    if target_keys.size == 0 or query_keys.size == 0:
        return np.zeros(query_keys.size, dtype=np.int64)
    counts: Dict[int, int] = {}
    for k in target_keys.tolist():
        counts[k] = counts.get(k, 0) + 1
    out = np.empty(query_keys.size, dtype=np.int64)
    for i, k in enumerate(query_keys.tolist()):
        out[i] = counts.get(k, 0)
    return out


def _per_key_match_counts_vector(
    query_keys: np.ndarray, target_keys: np.ndarray
) -> np.ndarray:
    if target_keys.size == 0 or query_keys.size == 0:
        return np.zeros(query_keys.size, dtype=np.int64)
    t_uniq, t_counts = np.unique(target_keys, return_counts=True)
    pos = np.searchsorted(t_uniq, query_keys)
    pos_clipped = np.minimum(pos, t_uniq.size - 1)
    hit = t_uniq[pos_clipped] == query_keys
    return np.where(hit, t_counts[pos_clipped], 0).astype(np.int64)
