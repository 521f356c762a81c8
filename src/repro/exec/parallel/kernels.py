"""Compute kernels of the batch backends, ``vector`` and ``parallel``.

Each kernel is a pure function over the pipeline's arrays: no fault
scopes, no tracer, no counters.  All accounting (operation counters,
simulated seconds, fault injection and recovery) stays in the driver,
which is what keeps every backend's observable results bit-identical —
morsels can run in any order without the cost model noticing.  Kernels
that write do so into a slice no other morsel of the phase touches.

The kernels *are* the vector implementation: without the pool the
driver runs them inline, in morsel order (one morsel per simulated
thread segment for the partition scatter, one morsel spanning the whole
input for the rest), so the pool changes only which thread runs each
morsel.  Every ordering by a small integer id is the one composite sort
behind :func:`stable_argsort` and :func:`stable_order`.  The
differential suite pins the results down per algorithm against the
scalar oracle.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def _sorted_composites(values: np.ndarray) -> np.ndarray:
    """``value << 32 | position`` for integers in [0, 2**32), sorted.

    One unstable SIMD sort: the position makes every composite distinct,
    so the order is the stable one — several times faster than numpy's
    stable argsort, which is a timsort for 32- and 64-bit integers.
    """
    comp = values.astype(np.uint64) << np.uint64(32)
    comp |= np.arange(values.size, dtype=np.uint64)
    comp.sort()
    return comp


def _positions(comp: np.ndarray) -> np.ndarray:
    """The positions of sorted composites, in place, as int64."""
    comp &= np.uint64(0xFFFF_FFFF)
    return comp.view(np.int64)


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of integers in [0, 2**32)."""
    return _positions(_sorted_composites(values))


def stable_order(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted values, :func:`stable_argsort` order) in one sort."""
    comp = _sorted_composites(values)
    sorted_values = (comp >> np.uint64(32)).astype(values.dtype)
    return sorted_values, _positions(comp)


def partition_hist(ids: np.ndarray, a: int, b: int,
                   fanout: int) -> np.ndarray:
    """First scan of one segment: the per-thread partition histogram."""
    if b <= a:
        return np.zeros(fanout, dtype=np.int64)
    return np.bincount(ids[a:b], minlength=fanout)


def partition_scatter(
    keys: np.ndarray, payloads: np.ndarray, hashes: np.ndarray,
    ids: np.ndarray, keys_out: np.ndarray, pays_out: np.ndarray,
    hashes_out: np.ndarray, a: int, b: int, base_row: np.ndarray,
    counts_row: np.ndarray,
) -> None:
    """Second scan of one segment: the contention-free fancy-index scatter.

    ``base_row``/``counts_row`` are this thread's rows of the prefix-sum
    base matrix and histogram, so the destinations are disjoint across
    segments by construction.
    """
    if b <= a:
        return None
    order = stable_argsort(ids[a:b])
    run_start = np.repeat(base_row, counts_row)
    run_origin = np.repeat(np.cumsum(counts_row) - counts_row, counts_row)
    dest = run_start + (np.arange(b - a) - run_origin)
    keys_out[dest] = keys[a:b][order]
    pays_out[dest] = payloads[a:b][order]
    hashes_out[dest] = hashes[a:b][order]
    return None


def refine_chunk(
    keys: np.ndarray, payloads: np.ndarray, hashes: np.ndarray,
    ids: np.ndarray, keys_out: np.ndarray, pays_out: np.ndarray,
    hashes_out: np.ndarray, bounds: Sequence[Tuple[int, int]],
    sub_fanout: int,
) -> np.ndarray:
    """Refine a chunk of parent partitions, one stable sort each.

    ``bounds`` holds each partition's [lo, hi) span; partitions only ever
    move tuples within their own span, so chunks are contention free.
    Returns the (len(bounds), sub_fanout) sub-size matrix.
    """
    sub_sizes = np.empty((len(bounds), sub_fanout), dtype=np.int64)
    for j, (lo, hi) in enumerate(bounds):
        pid = ids[lo:hi]
        order = stable_argsort(pid)
        keys_out[lo:hi] = keys[lo:hi][order]
        pays_out[lo:hi] = payloads[lo:hi][order]
        hashes_out[lo:hi] = hashes[lo:hi][order]
        sub_sizes[j] = np.bincount(pid, minlength=sub_fanout)
    return sub_sizes


def chain_links(
    buckets: np.ndarray, nxt: np.ndarray, a: int, b: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local head-insertion chain links for build entries [a, b).

    Writes the within-segment ``next`` links into ``nxt`` (disjoint slice
    per segment; entries with no in-segment predecessor keep the caller's
    -1 fill) and returns, per bucket present in the segment, (bucket id,
    first entry index, last entry index) in segment order — the compact
    summary the caller stitches across segments.
    """
    empty = np.empty(0, dtype=np.int64)
    if b <= a:
        return empty, empty, empty
    sorted_b, order = stable_order(buckets[a:b])
    m = b - a
    if m > 1:
        same = sorted_b[1:] == sorted_b[:-1]
        nxt[a + order[1:][same]] = a + order[:-1][same]
    is_last = np.empty(m, dtype=bool)
    is_last[:-1] = sorted_b[:-1] != sorted_b[1:]
    is_last[-1] = True
    is_first = np.empty(m, dtype=bool)
    is_first[0] = True
    is_first[1:] = is_last[:-1]
    uniq = sorted_b[is_first].astype(np.int64)
    first_idx = (a + order[is_first]).astype(np.int64)
    last_idx = (a + order[is_last]).astype(np.int64)
    return uniq, first_idx, last_idx


def match_stats(
    counts: np.ndarray, sums: np.ndarray, groups: np.ndarray,
    s_payloads: np.ndarray, a: int, b: int,
) -> Tuple[int, int]:
    """Join (count, checksum mod 2**64) of one S morsel against a build
    index, given each S tuple's index group (-1: no match).

    Checksum distributivity: summing ``sums[group] * s_payload`` per S
    tuple equals the per-key product of the two sides' payload sums
    exactly, because multiplication distributes over addition mod 2**64.
    """
    g = groups[a:b]
    hit = g >= 0
    g = g[hit]
    total = int(counts[g].sum())
    checksum = int(np.sum(sums[g] * s_payloads[a:b][hit].astype(np.uint64),
                          dtype=np.uint64))
    return total, checksum


def expand_count(counts: np.ndarray, groups: np.ndarray,
                 a: int, b: int) -> int:
    """Output pairs one S morsel will produce (round 1 of expansion)."""
    g = groups[a:b]
    return int(counts[g[g >= 0]].sum())


def expand_write(
    counts: np.ndarray, groups: np.ndarray, starts: np.ndarray,
    payloads: np.ndarray, s_payloads: np.ndarray,
    out_r: np.ndarray, out_s: np.ndarray, a: int, b: int, offset: int,
) -> None:
    """Write one S morsel's expanded pairs at its prefix-sum offset.

    Pairs come by S tuple, then by R insertion order within the key:
    ``payloads`` is the build payloads stably sorted by key, so
    ``starts[group] + j`` walks a key's R tuples in insertion order.
    """
    sel = np.flatnonzero(groups[a:b] >= 0)
    g = groups[a:b][sel]
    cnt = counts[g]
    total = int(cnt.sum())
    if total == 0:
        return None
    run_origin = np.cumsum(cnt) - cnt
    r_idx = np.repeat(starts[g] - run_origin, cnt) + np.arange(total)
    out_r[offset:offset + total] = payloads[r_idx]
    out_s[offset:offset + total] = np.repeat(s_payloads[a:b][sel], cnt)
    return None
