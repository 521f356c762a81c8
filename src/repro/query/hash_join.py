"""The query layer's hash-join operator.

A vectorized volcano join: the build side is materialized into a
:class:`~repro.exec.matching.BuildIndex` of its row ids grouped by key,
and each probe batch is expanded into matching row pairs.  With
``skew_aware=True`` the operator detects heavy build keys by sampling
(CSH's recipe: sample + frequency threshold) and emits their cartesian
expansions through a dedicated chunked path, so a single hot key cannot
blow up an output batch — the operator-level rendition of handling skewed
and normal keys in separate routines.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.csh.detector import detect_skewed_keys
from repro.errors import ConfigError
from repro.exec.matching import BuildIndex, build_index
from repro.query.batch import Batch
from repro.query.operators import DEFAULT_BATCH_SIZE, Operator
from repro.types import SeedLike


class HashJoin(Operator):
    """Equi-join of two operators on one key column each.

    Output columns are the probe (left) columns followed by the build
    (right) columns; name collisions get a ``build_`` prefix.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
        skew_aware: bool = False,
        sample_rate: float = 0.01,
        freq_threshold: int = 2,
        max_output_batch: int = DEFAULT_BATCH_SIZE,
        seed: SeedLike = 0,
    ):
        if max_output_batch <= 0:
            raise ConfigError("max_output_batch must be positive")
        if left_key not in left.schema():
            raise ConfigError(f"left operator has no column {left_key!r}")
        if right_key not in right.schema():
            raise ConfigError(f"right operator has no column {right_key!r}")
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key
        self._skew_aware = skew_aware
        self._sample_rate = sample_rate
        self._freq_threshold = freq_threshold
        self._max_output = max_output_batch
        self._seed = seed
        self._out_names = self._output_names()

    def _output_names(self) -> Dict[str, Tuple[str, str]]:
        """output name -> (side, source column)."""
        out: Dict[str, Tuple[str, str]] = {}
        for name in self._left.schema():
            out[name] = ("left", name)
        for name in self._right.schema():
            target = name if name not in out else f"build_{name}"
            if target in out:
                raise ConfigError(f"cannot disambiguate column {name!r}")
            out[target] = ("right", name)
        return out

    def schema(self) -> List[str]:
        """Output column names."""
        return list(self._out_names)

    def __iter__(self) -> Iterator[Batch]:
        build = self._right.collect()
        build_keys = build.column(self._right_key).astype(np.uint32)
        # The payloads are build row ids, so the index's payloads are the
        # rows in key order and each group's rows keep their build order.
        index = build_index(build_keys,
                            np.arange(build_keys.size, dtype=np.uint32))

        skewed: Optional[np.ndarray] = None
        if self._skew_aware and build_keys.size:
            detection = detect_skewed_keys(
                build_keys, sample_rate=self._sample_rate,
                freq_threshold=self._freq_threshold, seed=self._seed)
            skewed = detection.skewed_keys

        for batch in self._left:
            probe_keys = batch.column(self._left_key).astype(np.uint32)
            if skewed is not None and skewed.size:
                hot = np.isin(probe_keys, skewed)
                if hot.any():
                    yield from self._emit(batch.filter(hot), build, index)
                    batch = batch.filter(~hot)
                    if len(batch) == 0:
                        continue
            yield from self._emit(batch, build, index)

    def _emit(self, batch: Batch, build: Batch,
              index: BuildIndex) -> Iterator[Batch]:
        """Expand one probe batch into output batches of bounded size."""
        probe_keys = batch.column(self._left_key).astype(np.uint32)
        if probe_keys.size == 0 or index.keys.size == 0:
            return
        groups = index.lookup(probe_keys)
        hit = groups >= 0
        cnt = np.where(hit, index.counts[groups], 0)
        start = np.where(hit, index.starts[groups], 0)
        boundaries = self._chunk_boundaries(cnt)
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            total = int(cnt[a:b].sum())
            if total == 0:
                continue
            probe_rep = np.repeat(np.arange(a, b), cnt[a:b])
            run_origin = np.repeat(np.cumsum(cnt[a:b]) - cnt[a:b], cnt[a:b])
            within = np.arange(total) - run_origin
            build_sorted_idx = np.repeat(start[a:b], cnt[a:b]) + within
            build_idx = index.payloads[build_sorted_idx]
            columns = {}
            for out_name, (side, src) in self._out_names.items():
                if side == "left":
                    columns[out_name] = batch.column(src)[probe_rep]
                else:
                    columns[out_name] = build.column(src)[build_idx]
            yield Batch(columns)

    def _chunk_boundaries(self, cnt: np.ndarray) -> np.ndarray:
        """Split probe rows so chunks expand to ~<= max_output rows.

        Rows are grouped by which ``max_output``-sized window of the
        cumulative expansion they end in, so a single row with a huge
        match count forms (at least) its own chunk.
        """
        if cnt.size == 0:
            return np.asarray([0, 0])
        cum = np.cumsum(cnt.astype(np.int64))
        window = (cum - 1) // self._max_output
        change = np.flatnonzero(np.diff(window)) + 1
        return np.unique(np.concatenate([[0], change, [cnt.size]]))
