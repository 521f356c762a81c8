"""Column batches: the unit of data flow in the query layer.

The paper's experimental setup models "volcano-style query processing
[where] the join output is often consumed by an upper level query
operator" (Section III).  The query layer realizes that consumer side: a
vectorized volcano engine whose operators exchange :class:`Batch` values —
dictionaries of equal-length numpy columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass
class Batch:
    """A set of equal-length named columns."""

    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        lengths = {name: np.asarray(col).shape for name, col
                   in self.columns.items()}
        self.columns = {name: np.asarray(col) for name, col
                        in self.columns.items()}
        sizes = {col.shape[0] for col in self.columns.values()}
        if len(sizes) > 1:
            raise ConfigError(f"ragged batch: column lengths {lengths}")
        for name, col in self.columns.items():
            if col.ndim != 1:
                raise ConfigError(f"column {name!r} must be 1-D")

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return int(next(iter(self.columns.values())).shape[0])

    @property
    def schema(self) -> List[str]:
        """Output column names."""
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        """One column by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise ConfigError(
                f"no column {name!r}; batch has {self.schema}") from None

    def select(self, names: Sequence[str]) -> "Batch":
        """A batch with only the named columns."""
        return Batch({name: self.column(name) for name in names})

    def filter(self, mask: np.ndarray) -> "Batch":
        """Rows where the mask holds."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise ConfigError("mask length mismatch")
        return Batch({name: col[mask] for name, col in self.columns.items()})

    def rename(self, mapping: Dict[str, str]) -> "Batch":
        """A batch with columns renamed per the mapping."""
        return Batch({mapping.get(name, name): col
                      for name, col in self.columns.items()})

    @staticmethod
    def empty(schema: Sequence[str]) -> "Batch":
        """An empty instance."""
        return Batch({name: np.empty(0, dtype=np.uint32) for name in schema})

    @staticmethod
    def concat(batches: Iterable["Batch"]) -> "Batch":
        """Concatenate same-schema batches."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return Batch({})
        schema = batches[0].schema
        for b in batches:
            if b.schema != schema:
                raise ConfigError(
                    f"schema mismatch in concat: {b.schema} vs {schema}")
        return Batch({
            name: np.concatenate([b.columns[name] for b in batches])
            for name in schema
        })

    def to_rows(self) -> List[tuple]:
        """Materialize as python tuples (tests and tiny results only)."""
        names = self.schema
        return list(zip(*(self.columns[n].tolist() for n in names)))
