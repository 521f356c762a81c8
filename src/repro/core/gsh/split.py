"""GSH's large-partition split.

Section IV-B, step (3): each large partition is divided into per-skewed-key
tuple arrays plus a normal partition.  Every tuple is checked against the
partition's (at most k) skewed keys; skewed tuples are appended to the
array of their key, normal tuples to the normal partition.  The same
procedure runs on the R and the S side, so the normal partitions stay
aligned for the NM-join and the skewed arrays pair up by key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.gsh.detector import GpuSkewDetection
from repro.cpu.partition import PartitionedRelation
from repro.exec.backend import dispatch
from repro.exec.counters import OpCounters
from repro.exec.parallel.kernels import stable_order
from repro.gpu.kernel import BlockWork, uniform_grid
from repro.gpu.partitioning import PARTITION_TUPLES_PER_BLOCK
from repro.types import KEY_DTYPE, PAYLOAD_DTYPE


@dataclass
class SkewedArrays:
    """Per-skewed-key tuple arrays for one table side."""

    payloads: Dict[int, np.ndarray] = field(default_factory=dict)

    def size_of(self, key: int) -> int:
        """Tuples stored for one skewed key."""
        arr = self.payloads.get(int(key))
        return 0 if arr is None else int(arr.size)

    def keys(self) -> List[int]:
        """Skewed keys with stored tuples (sorted)."""
        return sorted(self.payloads)

    def total_tuples(self) -> int:
        """Total tuples across all skewed arrays."""
        return sum(arr.size for arr in self.payloads.values())


@dataclass
class SplitResult:
    """Aligned normal partitions plus per-key skewed arrays."""

    normal_r: PartitionedRelation
    normal_s: PartitionedRelation
    skewed_r: SkewedArrays
    skewed_s: SkewedArrays
    #: Block work of the split kernel (empty if nothing was large).
    block_work: List[BlockWork] = field(default_factory=list)

    @property
    def counters(self) -> OpCounters:
        """Total operation counters of the split kernel."""
        return OpCounters.sum(w.total_counters for w in self.block_work)


def _split_one_vector(
    k: np.ndarray,
    v: np.ndarray,
    h: np.ndarray,
    skew_keys: np.ndarray,
    skewed: SkewedArrays,
):
    """Batch split of one large partition: mask + stable sort scatter."""
    mask = np.isin(k, skew_keys)
    if mask.any():
        sk, order = stable_order(k[mask])
        sv = v[mask][order]
        bounds = np.flatnonzero(np.diff(sk)) + 1
        starts = np.concatenate([[0], bounds])
        stops = np.concatenate([bounds, [sk.size]])
        for a, b in zip(starts, stops):
            skewed.payloads[int(sk[a])] = sv[a:b].copy()
        return k[~mask], v[~mask], h[~mask]
    return k, v, h


def _split_one_scalar(
    k: np.ndarray,
    v: np.ndarray,
    h: np.ndarray,
    skew_keys: np.ndarray,
    skewed: SkewedArrays,
):
    """Literal split of one large partition, tuple-at-a-time appends."""
    skew_set = {int(key) for key in np.asarray(skew_keys).tolist()}
    per_key: Dict[int, List[int]] = {}
    normal: List[int] = []
    for i, key in enumerate(k.tolist()):
        if key in skew_set:
            per_key.setdefault(key, []).append(int(v[i]))
        else:
            normal.append(i)
    for key, pays in per_key.items():
        skewed.payloads[key] = np.asarray(pays, dtype=PAYLOAD_DTYPE)
    if not per_key:
        return k, v, h
    idx = np.asarray(normal, dtype=np.int64)
    return k[idx], v[idx], h[idx]


def _split_side(
    part: PartitionedRelation,
    detection: GpuSkewDetection,
    skewed: SkewedArrays,
    block_work: List[BlockWork],
    top_k: int,
) -> PartitionedRelation:
    """Split one table side; returns its new normal partitioning."""
    keys_parts: List[np.ndarray] = []
    pays_parts: List[np.ndarray] = []
    hash_parts: List[np.ndarray] = []
    sizes = np.zeros(part.fanout, dtype=np.int64)
    large_set = {int(p) for p in detection.large_partitions}
    split_one = dispatch(_split_one_scalar, _split_one_vector)
    for p in range(part.fanout):
        k, v = part.partition(p)
        h = part.partition_hashes(p)
        if p in large_set and k.size:
            n_full = int(k.size)
            skew_keys = detection.skewed_keys_of(p)
            k, v, h = split_one(k, v, h, skew_keys, skewed)
            # Split kernel: every tuple re-read twice (count + scatter),
            # compared against <= k skewed keys, and copied once.
            per_tuple = OpCounters(
                seq_tuple_reads=2,
                key_compares=top_k,
                tuple_moves=1,
                bytes_read=16,
                bytes_written=8,
            )
            block_work.extend(
                uniform_grid(n_full, PARTITION_TUPLES_PER_BLOCK, per_tuple)
            )
        keys_parts.append(k)
        pays_parts.append(v)
        hash_parts.append(h)
        sizes[p] = k.size
    offsets = np.zeros(part.fanout + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return PartitionedRelation(
        np.concatenate(keys_parts) if keys_parts else np.empty(0, KEY_DTYPE),
        np.concatenate(pays_parts) if pays_parts else np.empty(0, PAYLOAD_DTYPE),
        offsets,
        np.concatenate(hash_parts) if hash_parts else np.empty(0, np.uint32),
    )


def split_large_partitions(
    part_r: PartitionedRelation,
    part_s: PartitionedRelation,
    detection: GpuSkewDetection,
    top_k: int,
) -> SplitResult:
    """Divide every large partition into skewed arrays + normal partition."""
    skewed_r = SkewedArrays()
    skewed_s = SkewedArrays()
    block_work: List[BlockWork] = []
    normal_r = _split_side(part_r, detection, skewed_r, block_work, top_k)
    normal_s = _split_side(part_s, detection, skewed_s, block_work, top_k)
    return SplitResult(
        normal_r=normal_r,
        normal_s=normal_s,
        skewed_r=skewed_r,
        skewed_s=skewed_s,
        block_work=block_work,
    )
