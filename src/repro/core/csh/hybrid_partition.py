"""CSH's hybrid partition phase.

Section IV-A, steps (2) and (3): while partitioning R, skewed tuples are
diverted into per-key skewed partitions; while partitioning S, skewed
tuples are *not copied at all* — their join results are produced on the fly
by sequentially scanning the matching skewed R partition, in the style of
the hybrid hash join.  Normal tuples of both tables flow through the same
two-pass radix partitioning as Cbase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.csh.checkup import SkewCheckupTable, SkewedPartitionSet
from repro.cpu.hashing import hash_keys
from repro.cpu.partition import PartitionedRelation, partition_pass, refine_pass
from repro.cpu.segments import split_segments
from repro.cpu.threads import ThreadPool
from repro.data.relation import Relation
from repro.exec.counters import OpCounters
from repro.exec.output import JoinOutputBuffer, OutputSummary, combine_summaries
from repro.exec.parallel.kernels import stable_order


@dataclass
class HybridPartitionR:
    """Outcome of partitioning R with skew diversion."""

    normal: PartitionedRelation
    skewed: SkewedPartitionSet
    simulated_seconds: float
    counters: OpCounters
    n_skewed_tuples: int


@dataclass
class HybridPartitionS:
    """Outcome of partitioning S with on-the-fly skew joining."""

    normal: PartitionedRelation
    simulated_seconds: float
    counters: OpCounters
    summary: OutputSummary
    n_skewed_tuples: int
    buffers: List[JoinOutputBuffer] = field(default_factory=list)


def partition_r_hybrid(
    r: Relation,
    checkup: SkewCheckupTable,
    bits1: int,
    bits2: int,
    pool: ThreadPool,
) -> HybridPartitionR:
    """Partition R, diverting skewed tuples to per-key skewed partitions."""
    n = len(r)
    hashes = hash_keys(r.keys)
    lookup_counters = OpCounters()
    pids = checkup.lookup(r.keys, counters=lookup_counters)
    skew_mask = pids >= 0
    skewed = SkewedPartitionSet(len(checkup))
    skewed.fill(pids[skew_mask], r.keys[skew_mask], r.payloads[skew_mask])
    normal_idx = np.flatnonzero(~skew_mask)

    # Pass 1 counters follow the original per-thread segments: every tuple
    # is read twice (count scan + copy scan), checked in the checkup table
    # once, hashed, and moved exactly once (to a skewed partition or to its
    # normal pass-1 partition).
    per_thread = []
    for a, b in split_segments(n, pool.n_threads):
        m = b - a
        per_thread.append(OpCounters(
            seq_tuple_reads=2 * m,
            hash_ops=2 * m,
            key_compares=m,
            tuple_moves=m,
            bytes_read=2 * m * 8,
            bytes_written=m * 8,
        ))
    seconds = pool.static_phase_seconds(per_thread)
    counters = OpCounters.sum(per_thread)

    pass1 = partition_pass(
        r.keys[normal_idx], r.payloads[normal_idx], hashes[normal_idx],
        0, bits1, pool.n_threads,
    )
    normal = pass1.partitioned
    if bits2 > 0:
        pass2 = refine_pass(normal, bits1, bits2)
        schedule = pool.queue_phase_seconds(pass2.unit_counters)
        seconds += schedule.makespan
        counters += pass2.total_counters
        normal = pass2.partitioned
    return HybridPartitionR(
        normal=normal,
        skewed=skewed,
        simulated_seconds=seconds,
        counters=counters,
        n_skewed_tuples=int(skew_mask.sum()),
    )


def partition_s_hybrid(
    s: Relation,
    checkup: SkewCheckupTable,
    skewed_r: SkewedPartitionSet,
    bits1: int,
    bits2: int,
    pool: ThreadPool,
    output_capacity: int,
) -> HybridPartitionS:
    """Partition S; skewed S tuples join the skewed R partitions on the fly.

    For a skewed S tuple the worker sequentially reads every R tuple of the
    associated skewed partition and emits one output tuple per R tuple — no
    hash probe and no key verification are needed, because the skewed
    partition holds exactly the tuples of that key (Section IV-A).
    """
    n = len(s)
    hashes = hash_keys(s.keys)
    lookup_counters = OpCounters()
    pids = checkup.lookup(s.keys, counters=lookup_counters)
    skew_mask = pids >= 0
    normal_idx = np.flatnonzero(~skew_mask)
    skew_sizes = skewed_r.sizes() if len(checkup) else np.empty(0, np.int64)
    # Per-tuple on-the-fly work: |skewed R partition| reads and writes.
    fly_per_tuple = np.zeros(n, dtype=np.int64)
    if skew_mask.any():
        fly_per_tuple[skew_mask] = skew_sizes[pids[skew_mask]]

    per_thread = []
    for a, b in split_segments(n, pool.n_threads):
        m = b - a
        seg_mask = skew_mask[a:b]
        n_norm = int((~seg_mask).sum())
        fly = int(fly_per_tuple[a:b].sum())
        per_thread.append(OpCounters(
            # First scan reads and checks every tuple; only normal tuples
            # are re-read and copied by the second scan.
            seq_tuple_reads=m + n_norm + fly,
            hash_ops=m + n_norm,
            key_compares=m,
            tuple_moves=n_norm,
            output_tuples=fly,
            bytes_read=(m + n_norm) * 8 + fly * 8,
            bytes_written=n_norm * 8 + fly * 8,
        ))
    seconds = pool.static_phase_seconds(per_thread)
    counters = OpCounters.sum(per_thread)

    # Functional emission of the skewed join results, grouped per skewed key.
    buffers = [JoinOutputBuffer(output_capacity) for _ in range(pool.n_threads)]
    summaries = []
    if skew_mask.any():
        skew_pids = pids[skew_mask]
        skew_pays = s.payloads[skew_mask]
        sorted_pids, order = stable_order(skew_pids)
        boundaries = np.flatnonzero(np.diff(sorted_pids)) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [sorted_pids.size]])
        for i, (a, b) in enumerate(zip(starts, stops)):
            pid = int(sorted_pids[a])
            buf = buffers[i % len(buffers)]
            before = OutputSummary(buf.count, buf.checksum)
            buf.write_cartesian(skewed_r.payloads[pid], skew_pays[order[a:b]])
            summaries.append(OutputSummary(
                buf.count - before.count,
                (buf.checksum - before.checksum) & ((1 << 64) - 1),
            ))
    summary = combine_summaries(summaries)

    pass1 = partition_pass(
        s.keys[normal_idx], s.payloads[normal_idx], hashes[normal_idx],
        0, bits1, pool.n_threads,
    )
    normal = pass1.partitioned
    if bits2 > 0:
        pass2 = refine_pass(normal, bits1, bits2)
        schedule = pool.queue_phase_seconds(pass2.unit_counters)
        seconds += schedule.makespan
        counters += pass2.total_counters
        normal = pass2.partitioned
    return HybridPartitionS(
        normal=normal,
        simulated_seconds=seconds,
        counters=counters,
        summary=summary,
        n_skewed_tuples=int(skew_mask.sum()),
        buffers=buffers,
    )
