"""The skew checkup table.

CSH consults this table for every tuple during partitioning: "For each R
tuple, it checks the tuple in the skew checkup table.  If the join key is a
skewed key, then the tuple is appended to the associated skewed partition as
indicated by the part_id in the skew checkup table" (Section IV-A).

The lookup is a hash-table probe in the original; here it is a vectorized
sorted-array lookup whose per-tuple cost (one hash + one compare) is
accounted explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.exec.backend import dispatch
from repro.exec.counters import OpCounters
from repro.exec.parallel.kernels import stable_order


class SkewCheckupTable:
    """Maps each skewed key to its skewed partition id.

    Keys not in the table map to ``-1`` (normal route).  Partition ids are
    assigned densely in key order: skewed key ``i`` owns skewed partition
    ``i``.
    """

    def __init__(self, skewed_keys: np.ndarray):
        keys = np.unique(np.asarray(skewed_keys, dtype=np.uint32))
        self.keys = keys
        self.n_skewed = int(keys.size)
        self._index = {int(k): i for i, k in enumerate(keys.tolist())}

    def lookup(self, keys: np.ndarray,
               counters: OpCounters = None) -> np.ndarray:
        """Return the skewed partition id per key (-1 for normal keys)."""
        keys = np.asarray(keys, dtype=np.uint32)
        n = keys.size
        if counters is not None:
            counters.hash_ops += n
            counters.key_compares += n
        if self.n_skewed == 0 or n == 0:
            return np.full(n, -1, dtype=np.int64)
        return dispatch(self._lookup_scalar, self._lookup_vector)(keys)

    def _lookup_vector(self, keys: np.ndarray) -> np.ndarray:
        """Batch lookup: one searchsorted over the sorted key array."""
        pos = np.searchsorted(self.keys, keys)
        pos_clipped = np.minimum(pos, self.n_skewed - 1)
        hit = self.keys[pos_clipped] == keys
        return np.where(hit, pos_clipped, -1).astype(np.int64)

    def _lookup_scalar(self, keys: np.ndarray) -> np.ndarray:
        """Literal per-tuple probe of the checkup table."""
        index = self._index
        out = np.empty(keys.size, dtype=np.int64)
        for i, k in enumerate(keys.tolist()):
            out[i] = index.get(k, -1)
        return out

    def part_id_of(self, key: int) -> int:
        """Skewed partition id of one key, or -1."""
        ids = self.lookup(np.asarray([key], dtype=np.uint32))
        return int(ids[0])

    def __len__(self) -> int:
        return self.n_skewed


class SkewedPartitionSet:
    """Per-skewed-key R tuple arrays (the "skewed partitions").

    Built once while partitioning R; read sequentially for every skewed S
    tuple during the S partitioning pass.
    """

    def __init__(self, n_skewed: int):
        if n_skewed < 0:
            raise ConfigError("n_skewed must be non-negative")
        self.n_skewed = n_skewed
        self.payloads = [np.empty(0, dtype=np.uint32) for _ in range(n_skewed)]
        self.keys = [np.empty(0, dtype=np.uint32) for _ in range(n_skewed)]

    def fill(self, part_ids: np.ndarray, keys: np.ndarray,
             payloads: np.ndarray) -> None:
        """Group skewed tuples by partition id, preserving arrival order."""
        if part_ids.size == 0:
            return
        dispatch(self._fill_scalar, self._fill_vector)(part_ids, keys,
                                                       payloads)

    def _fill_scalar(self, part_ids: np.ndarray, keys: np.ndarray,
                     payloads: np.ndarray) -> None:
        """Literal append of each skewed tuple to its partition array."""
        by_pid = {}
        for i, pid in enumerate(part_ids.tolist()):
            by_pid.setdefault(pid, []).append(i)
        for pid, idx in by_pid.items():
            sel = np.asarray(idx, dtype=np.int64)
            self.payloads[pid] = payloads[sel].copy()
            self.keys[pid] = keys[sel].copy()

    def _fill_vector(self, part_ids: np.ndarray, keys: np.ndarray,
                     payloads: np.ndarray) -> None:
        """Batch grouping via one stable sort over partition ids."""
        sorted_ids, order = stable_order(part_ids)
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [sorted_ids.size]])
        for a, b in zip(starts, stops):
            pid = int(sorted_ids[a])
            self.payloads[pid] = payloads[order[a:b]].copy()
            self.keys[pid] = keys[order[a:b]].copy()

    def size_of(self, part_id: int) -> int:
        """Tuples stored for one skewed partition."""
        return int(self.payloads[part_id].size)

    def sizes(self) -> np.ndarray:
        """Tuples per skewed partition."""
        return np.asarray([p.size for p in self.payloads], dtype=np.int64)

    def total_tuples(self) -> int:
        """Total skewed tuples stored."""
        return int(self.sizes().sum())
