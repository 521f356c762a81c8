"""Parallel radix partitioning (the Cbase/CSH partition phase).

Implements the partitioning scheme the paper describes for Cbase
(Section II-B): the input is divided into equal segments per thread; each
thread scans its segment twice — once to build a per-thread histogram, once
to copy tuples to contention-free destinations computed from prefix sums of
the histograms.  A second pass re-partitions each first-pass partition with
the next group of hash bits, dispatched through a task queue; oversized
partitions can be further refined with extra bits (Cbase's skew-splitting
technique — which, by construction, can never separate tuples sharing a
key, since they share all hash bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.hashing import hash_keys, radix_bits
from repro.cpu.segments import split_segments
from repro.errors import ConfigError
from repro.exec.backend import dispatch
from repro.exec.counters import OpCounters
from repro.types import KEY_DTYPE, PAYLOAD_DTYPE, TUPLE_BYTES


@dataclass
class PartitionedRelation:
    """A relation stored partition-contiguously.

    ``offsets`` has ``fanout + 1`` entries; partition ``p`` occupies
    ``[offsets[p], offsets[p+1])`` of the key/payload arrays.
    """

    keys: np.ndarray
    payloads: np.ndarray
    offsets: np.ndarray
    #: Hashes of the stored keys, kept so later phases need not re-hash.
    hashes: Optional[np.ndarray] = None

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ConfigError("offsets must be a 1-D array with >= 1 entry")
        if self.offsets[0] != 0 or self.offsets[-1] != self.keys.size:
            raise ConfigError("offsets must span the full relation")
        if np.any(np.diff(self.offsets) < 0):
            raise ConfigError("offsets must be non-decreasing")

    @property
    def fanout(self) -> int:
        """Number of partitions."""
        return int(self.offsets.size - 1)

    @property
    def n(self) -> int:
        """Total tuples stored."""
        return int(self.keys.size)

    def sizes(self) -> np.ndarray:
        """Tuples per partition."""
        return np.diff(self.offsets)

    def partition(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        """Keys and payloads of one partition."""
        lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
        return self.keys[lo:hi], self.payloads[lo:hi]

    def partition_hashes(self, p: int) -> np.ndarray:
        """Hashes of one partition's keys."""
        if self.hashes is None:
            lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
            return hash_keys(self.keys[lo:hi])
        lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
        return self.hashes[lo:hi]


@dataclass
class PartitionPassResult:
    """Output of one partitioning pass plus its cost bookkeeping."""

    partitioned: PartitionedRelation
    #: Counters per thread (static pass) or per task (queued pass).
    unit_counters: List[OpCounters] = field(default_factory=list)

    @property
    def total_counters(self) -> OpCounters:
        """Counters summed over all units."""
        return OpCounters.sum(self.unit_counters)


def _scan_counters(n: int) -> OpCounters:
    """Counters for two-scan count-then-copy partitioning of n tuples."""
    return OpCounters(
        seq_tuple_reads=2 * n,
        hash_ops=2 * n,
        tuple_moves=n,
        bytes_read=2 * n * TUPLE_BYTES,
        bytes_written=n * TUPLE_BYTES,
    )


def _partition_bases(hist: np.ndarray) -> np.ndarray:
    """Per-thread output bases from the first-scan histograms.

    ``base[t, p]`` is the start slot of thread ``t``'s tuples of partition
    ``p`` in the partition-major, thread-minor destination layout.  Shared
    by both backends: it is the prefix-sum over the (small) histogram
    matrix, not per-tuple work.
    """
    flat = hist.T.ravel()  # order: (p0,t0), (p0,t1), ..., (p1,t0), ...
    excl = np.cumsum(flat) - flat
    return excl.reshape(hist.shape[1], hist.shape[0]).T


def _scatter_outputs(n: int, hist: np.ndarray):
    fanout = hist.shape[1]
    keys_out = np.empty(n, dtype=KEY_DTYPE)
    pays_out = np.empty(n, dtype=PAYLOAD_DTYPE)
    hashes_out = np.empty(n, dtype=np.uint32)
    offsets = np.zeros(fanout + 1, dtype=np.int64)
    np.cumsum(hist.sum(axis=0), out=offsets[1:])
    return keys_out, pays_out, hashes_out, offsets


def _scatter_scalar(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    part_ids: np.ndarray,
    fanout: int,
    segments: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Literal two-scan scatter: count loop, then tuple-at-a-time copies."""
    n_threads = len(segments)
    ids = part_ids.tolist()
    hist = np.zeros((n_threads, fanout), dtype=np.int64)
    for t, (a, b) in enumerate(segments):
        row = hist[t]
        for i in range(a, b):
            row[ids[i]] += 1
    base = _partition_bases(hist)
    keys_out, pays_out, hashes_out, offsets = _scatter_outputs(keys.size, hist)
    for t, (a, b) in enumerate(segments):
        cursor = base[t].tolist()
        for i in range(a, b):
            p = ids[i]
            d = cursor[p]
            cursor[p] = d + 1
            keys_out[d] = keys[i]
            pays_out[d] = payloads[i]
            hashes_out[d] = hashes[i]
    return keys_out, pays_out, hashes_out, offsets


def _scatter_batch(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    part_ids: np.ndarray,
    fanout: int,
    segments: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch scatter: bincount histograms + one fancy-index pass per segment.

    Both scans run one morsel per per-thread segment — the segments the
    simulated ThreadPool prices — on the worker pool, or inline in segment
    order without it.  The destinations come from the prefix-sum base
    matrix, so segment scatters are contention free.
    """
    from repro.exec.parallel import SharedArena, morsel_pool, run_morsels
    from repro.exec.parallel.kernels import partition_hist, partition_scatter

    pool = morsel_pool(keys.size)
    if pool is not None:
        arena = SharedArena()
        part_ids = arena.share(part_ids)
        keys, payloads, hashes = (arena.share(a)
                                  for a in (keys, payloads, hashes))
    hist = np.stack(run_morsels(pool, partition_hist, [
        dict(ids=part_ids, a=a, b=b, fanout=fanout) for (a, b) in segments
    ])).astype(np.int64, copy=False)
    base = _partition_bases(hist)
    keys_out, pays_out, hashes_out, offsets = _scatter_outputs(keys.size, hist)
    task = dict(keys=keys, payloads=payloads, hashes=hashes, ids=part_ids,
                keys_out=keys_out, pays_out=pays_out, hashes_out=hashes_out)
    run_morsels(pool, partition_scatter, [
        dict(task, a=a, b=b, base_row=base[t], counts_row=hist[t])
        for t, (a, b) in enumerate(segments) if b > a
    ])
    return keys_out, pays_out, hashes_out, offsets


def _scatter(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    part_ids: np.ndarray,
    fanout: int,
    segments: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contention-free two-scan scatter, on the ambient backend.

    Returns (keys_out, payloads_out, hashes_out, offsets).  The destination
    layout is partition-major, thread-minor, exactly like the per-thread
    output offsets Cbase computes from the first-scan histograms; all
    backends produce bit-identical arrays.
    """
    impl = dispatch(_scatter_scalar, _scatter_batch)
    return impl(keys, payloads, hashes, part_ids, fanout, segments)


def partition_pass(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    start_bit: int,
    n_bits: int,
    n_threads: int,
) -> PartitionPassResult:
    """One statically divided partitioning pass over a full relation."""
    if n_bits < 0:
        raise ConfigError("n_bits must be non-negative")
    n = keys.size
    fanout = 1 << n_bits
    segments = split_segments(n, n_threads)
    part_ids = radix_bits(hashes, start_bit, n_bits)
    keys_out, pays_out, hashes_out, offsets = _scatter(
        keys, payloads, hashes, part_ids, fanout, segments
    )
    per_thread = [_scan_counters(b - a) for (a, b) in segments]
    return PartitionPassResult(
        partitioned=PartitionedRelation(keys_out, pays_out, offsets, hashes_out),
        unit_counters=per_thread,
    )


def _refine_scalar(keys, payloads, hashes, ids, keys_out, pays_out,
                   hashes_out, bounds, sub_fanout):
    """Reorder each [lo, hi) parent span tuple-at-a-time (count, then copy)."""
    sub_sizes = np.empty((len(bounds), sub_fanout), dtype=np.int64)
    for j, (lo, hi) in enumerate(bounds):
        id_list = ids[lo:hi].tolist()
        counts = [0] * sub_fanout
        for sid in id_list:
            counts[sid] += 1
        cursor = [0] * sub_fanout
        acc = 0
        for sid in range(sub_fanout):
            cursor[sid] = acc
            acc += counts[sid]
        for i, sid in enumerate(id_list):
            d = lo + cursor[sid]
            cursor[sid] += 1
            keys_out[d] = keys[lo + i]
            pays_out[d] = payloads[lo + i]
            hashes_out[d] = hashes[lo + i]
        sub_sizes[j] = counts
    return sub_sizes


def _refine_batch(keys, payloads, hashes, ids, keys_out, pays_out,
                  hashes_out, bounds, sub_fanout):
    """Refine every [lo, hi) parent span, in chunks of consecutive spans.

    Each span reorders only its own tuples, so chunks are contention free.
    The pool gets about ``MORSELS_PER_WORKER`` chunks per worker; without
    it one chunk holds every span.  Returns the (len(bounds), sub_fanout)
    sub-size matrix.
    """
    from repro.exec.parallel import (MORSELS_PER_WORKER, SharedArena,
                                     morsel_pool, run_morsels)
    from repro.exec.parallel.kernels import refine_chunk

    pool = morsel_pool(keys.size)
    if pool is None:
        chunks = [bounds]
    else:
        arena = SharedArena()
        keys, payloads, hashes, ids = (arena.share(a)
                                       for a in (keys, payloads, hashes, ids))
        target = max(keys.size // (pool.n_workers * MORSELS_PER_WORKER), 1)
        chunks: List[List[Tuple[int, int]]] = [[]]
        chunk_tuples = 0
        for lo, hi in bounds:
            if chunks[-1] and chunk_tuples >= target:
                chunks.append([])
                chunk_tuples = 0
            chunks[-1].append((lo, hi))
            chunk_tuples += hi - lo
    task = dict(keys=keys, payloads=payloads, hashes=hashes, ids=ids,
                keys_out=keys_out, pays_out=pays_out, hashes_out=hashes_out,
                sub_fanout=sub_fanout)
    return np.concatenate(run_morsels(pool, refine_chunk, [
        dict(task, bounds=chunk) for chunk in chunks
    ]))


def refine_pass(
    parent: PartitionedRelation,
    start_bit: int,
    n_bits: int,
    refine_mask: Optional[np.ndarray] = None,
) -> PartitionPassResult:
    """Re-partition each (selected) parent partition with further hash bits.

    This is Cbase's second, task-queued pass: each parent partition becomes
    one task.  If ``refine_mask`` is given, only marked partitions are
    refined; others pass through as single sub-partitions (used by the
    oversized-partition splitting).  Returns a new PartitionedRelation whose
    fanout is ``parent.fanout * 2**n_bits`` (pass-through partitions occupy
    sub-slot 0 and leave their siblings empty), with one counters entry per
    refined partition task.
    """
    sub_fanout = 1 << n_bits
    fanout = parent.fanout * sub_fanout
    n = parent.n
    keys_out = np.empty(n, dtype=KEY_DTYPE)
    pays_out = np.empty(n, dtype=PAYLOAD_DTYPE)
    hashes_out = np.empty(n, dtype=np.uint32)
    offsets = np.zeros(fanout + 1, dtype=np.int64)
    sizes = np.zeros(fanout, dtype=np.int64)
    hashes = parent.hashes
    if hashes is None:
        hashes = hash_keys(parent.keys)
    bounds = parent.offsets.tolist()
    mask = (np.ones(parent.fanout, dtype=bool) if refine_mask is None
            else np.asarray(refine_mask, dtype=bool))
    refined = np.flatnonzero(mask).tolist()
    refine = dispatch(_refine_scalar, _refine_batch)
    sub_sizes = refine(parent.keys, parent.payloads, hashes,
                       radix_bits(hashes, start_bit, n_bits), keys_out,
                       pays_out, hashes_out,
                       [(bounds[p], bounds[p + 1]) for p in refined],
                       sub_fanout)
    task_counters = []
    for p, row in zip(refined, sub_sizes):
        sizes[p * sub_fanout:(p + 1) * sub_fanout] = row
        task_counters.append(_scan_counters(bounds[p + 1] - bounds[p]))
    for p in np.flatnonzero(~mask).tolist():
        lo, hi = bounds[p], bounds[p + 1]
        keys_out[lo:hi] = parent.keys[lo:hi]
        pays_out[lo:hi] = parent.payloads[lo:hi]
        hashes_out[lo:hi] = hashes[lo:hi]
        sizes[p * sub_fanout] = hi - lo
    np.cumsum(sizes, out=offsets[1:])
    return PartitionPassResult(
        partitioned=PartitionedRelation(keys_out, pays_out, offsets, hashes_out),
        unit_counters=task_counters,
    )


def partition_relation(
    keys: np.ndarray,
    payloads: np.ndarray,
    bits_pass1: int,
    bits_pass2: int,
    n_threads: int,
) -> Tuple[PartitionPassResult, Optional[PartitionPassResult]]:
    """Full one- or two-pass radix partitioning of a relation.

    Returns the pass-1 result and, if ``bits_pass2 > 0``, the pass-2 result
    (whose ``partitioned`` member holds the final layout).
    """
    hashes = hash_keys(keys)
    pass1 = partition_pass(keys, payloads, hashes, 0, bits_pass1, n_threads)
    if bits_pass2 <= 0:
        return pass1, None
    pass2 = refine_pass(pass1.partitioned, bits_pass1, bits_pass2)
    return pass1, pass2


def choose_radix_bits(n_tuples: int, target_partition_tuples: int,
                      max_total_bits: int = 18) -> Tuple[int, int]:
    """Pick (pass-1 bits, pass-2 bits) so partitions hit a target size.

    Mirrors Cbase's tuning: total fanout ~ n / target, split across two
    passes to bound per-pass fanout (the TLB-miss motivation for the radix
    join's multi-pass design).
    """
    if target_partition_tuples <= 0:
        raise ConfigError("target_partition_tuples must be positive")
    total_bits = 0
    while (n_tuples >> total_bits) > target_partition_tuples and total_bits < max_total_bits:
        total_bits += 1
    bits1 = (total_bits + 1) // 2
    bits2 = total_bits - bits1
    return bits1, bits2
