"""Key-equality matching helpers shared by CPU and GPU executors.

These compute the exact join output (count, checksum, and materialized
pairs while small) between two tuple sets, group-wise by key.  They are the
functional core every probe implementation delegates to; operation
*accounting* stays in the callers, which know what the scalar/SIMT
algorithm would have paid.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exec.backend import dispatch
from repro.exec.output import JoinOutputBuffer, OutputSummary

_U64_MASK = (1 << 64) - 1

#: Materialize real output pairs only while the expansion stays this small;
#: beyond it only the closed-form count/checksum is recorded.
MATERIALIZE_LIMIT = 1 << 21


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


def _match_group_stats_vector(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Group-wise batch tally of the equi-join count and checksum."""
    if r_keys.size == 0 or s_keys.size == 0:
        return 0, 0
    r_uniq, r_inv = np.unique(r_keys, return_inverse=True)
    s_uniq, s_inv = np.unique(s_keys, return_inverse=True)
    shared, idx_r, idx_s = np.intersect1d(
        r_uniq, s_uniq, assume_unique=True, return_indices=True
    )
    if shared.size == 0:
        return 0, 0
    r_counts = np.bincount(r_inv, minlength=r_uniq.size)
    s_counts = np.bincount(s_inv, minlength=s_uniq.size)
    total = int(np.sum(r_counts[idx_r].astype(object)
                       * s_counts[idx_s].astype(object)))
    r_sums = np.zeros(r_uniq.size, dtype=np.uint64)
    s_sums = np.zeros(s_uniq.size, dtype=np.uint64)
    np.add.at(r_sums, r_inv, r_payloads.astype(np.uint64))
    np.add.at(s_sums, s_inv, s_payloads.astype(np.uint64))
    checksum = int(np.sum(r_sums[idx_r] * s_sums[idx_s], dtype=np.uint64))
    return total, checksum & _U64_MASK


def _s_morsels(n_s: int, pool) -> List[Tuple[int, int]]:
    """Contiguous S-side morsels sized to keep the task queue fed."""
    from repro.cpu.segments import split_segments
    from repro.exec.parallel import MORSELS_PER_WORKER
    return split_segments(n_s, max(pool.n_workers * MORSELS_PER_WORKER, 1))


def _match_group_stats_parallel(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Morsel-parallel tally: R-side group index + per-S-morsel probes.

    The per-key (count, payload-sum) index of R is built once and the
    per-morsel contributions are summed.  The per-tuple checksum
    ``r_sums[key] * s_payload`` equals the vector backend's per-key
    ``r_sums * s_sums`` because multiplication distributes over addition
    mod 2**64, and morsel merge order is irrelevant for the same reason —
    so the result is bit-identical regardless of worker count.
    """
    from repro.exec.parallel import SharedArena, morsel_pool
    from repro.exec.parallel.kernels import match_stats

    pool = morsel_pool(r_keys.size + s_keys.size)
    if pool is None or r_keys.size == 0 or s_keys.size == 0:
        return _match_group_stats_vector(r_keys, r_payloads,
                                         s_keys, s_payloads)
    r_uniq, r_inv = np.unique(r_keys, return_inverse=True)
    r_counts = np.bincount(r_inv, minlength=r_uniq.size)
    r_sums = np.zeros(r_uniq.size, dtype=np.uint64)
    np.add.at(r_sums, r_inv, r_payloads.astype(np.uint64))
    arena = SharedArena()
    task = dict(r_uniq=arena.share(r_uniq), r_counts=arena.share(r_counts),
                r_sums=arena.share(r_sums), s_keys=arena.share(s_keys),
                s_payloads=arena.share(s_payloads))
    results = pool.run(match_stats, [
        dict(task, a=a, b=b) for (a, b) in _s_morsels(s_keys.size, pool)
    ])
    total = sum(t for t, _c in results)
    checksum = sum(c for _t, c in results)
    return total, checksum & _U64_MASK


def match_group_stats(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Exact (count, checksum) of the equi-join of two tuple sets."""
    impl = dispatch(_match_group_stats_scalar, _match_group_stats_vector,
                    _match_group_stats_parallel)
    return impl(r_keys, r_payloads, s_keys, s_payloads)


def emit_matches(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    buffer: JoinOutputBuffer,
) -> OutputSummary:
    """Join two tuple sets on key equality and feed the output buffer.

    Real pairs are written to the ring while the expansion is small; beyond
    :data:`MATERIALIZE_LIMIT` the buffer receives the closed-form summary
    only (overwrite-on-full semantics discard the bulk anyway).
    """
    summary = OutputSummary()
    total, checksum = match_group_stats(r_keys, r_payloads, s_keys, s_payloads)
    if total == 0:
        return summary
    if total <= MATERIALIZE_LIMIT:
        pairs_r, pairs_s = expand_pairs(r_keys, r_payloads, s_keys, s_payloads)
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
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize all matching (r_payload, s_payload) pairs.

    All backends emit the pairs in the same order — by S tuple, then by R
    insertion order within the key — so buffer snapshots stay bit-identical.
    """
    impl = dispatch(_expand_pairs_scalar, _expand_pairs_vector,
                    _expand_pairs_parallel)
    return impl(r_keys, r_payloads, s_keys, s_payloads)


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


def _expand_pairs_vector(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch pair expansion via sort + searchsorted + repeat."""
    if r_keys.size == 0 or s_keys.size == 0:
        return np.empty(0, np.uint32), np.empty(0, np.uint32)
    r_order = np.argsort(r_keys, kind="stable")
    rk = r_keys[r_order]
    rp = r_payloads[r_order]
    group_keys, group_start = np.unique(rk, return_index=True)
    group_count = np.diff(np.append(group_start, rk.size))
    pos = np.searchsorted(group_keys, s_keys)
    pos = np.clip(pos, 0, max(group_keys.size - 1, 0))
    hit = (group_keys[pos] == s_keys) if group_keys.size else np.zeros(
        s_keys.size, bool)
    cnt_per_s = np.where(hit, group_count[pos], 0)
    total = int(cnt_per_s.sum())
    if total == 0:
        return np.empty(0, np.uint32), np.empty(0, np.uint32)
    s_rep = np.repeat(np.arange(s_keys.size), cnt_per_s)
    run_origin = np.repeat(np.cumsum(cnt_per_s) - cnt_per_s, cnt_per_s)
    within = np.arange(total) - run_origin
    r_idx = np.repeat(np.where(hit, group_start[pos], 0), cnt_per_s) + within
    return rp[r_idx], s_payloads[s_rep]


def _expand_pairs_parallel(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-round morsel-parallel pair expansion.

    Round 1 counts each S morsel's output; the driver prefix-sums those
    counts into per-morsel output offsets; round 2 writes each morsel's
    pairs into its disjoint slice of the output.  Because morsels are
    contiguous S spans and pairs are ordered by S tuple then R insertion
    order, the concatenation equals the vector expansion bit for bit.
    """
    from repro.exec.parallel import SharedArena, morsel_pool
    from repro.exec.parallel.kernels import expand_count, expand_write

    pool = morsel_pool(r_keys.size + s_keys.size)
    if pool is None or r_keys.size == 0 or s_keys.size == 0:
        return _expand_pairs_vector(r_keys, r_payloads, s_keys, s_payloads)
    r_order = np.argsort(r_keys, kind="stable")
    rk = r_keys[r_order]
    rp = r_payloads[r_order]
    group_keys, group_start = np.unique(rk, return_index=True)
    group_count = np.diff(np.append(group_start, rk.size))
    morsels = _s_morsels(s_keys.size, pool)
    arena = SharedArena()
    index = dict(group_keys=arena.share(group_keys),
                 group_count=arena.share(group_count),
                 s_keys=arena.share(s_keys))
    counts = pool.run(expand_count, [dict(index, a=a, b=b)
                                     for (a, b) in morsels])
    total = int(sum(counts))
    if total == 0:
        return np.empty(0, np.uint32), np.empty(0, np.uint32)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    out_r = arena.empty(total, np.uint32)
    out_s = arena.empty(total, np.uint32)
    task = dict(index, group_start=arena.share(group_start),
                r_pays_sorted=arena.share(rp),
                s_payloads=arena.share(s_payloads), out_r=out_r, out_s=out_s)
    pool.run(expand_write, [
        dict(task, a=a, b=b, offset=int(offsets[i]))
        for i, (a, b) in enumerate(morsels) if counts[i]
    ])
    return out_r, out_s


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
