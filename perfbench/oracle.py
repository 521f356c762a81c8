"""Closed-form join oracle, independent of the program's join code.

For an equi-join of R and S on key, with per-key tuple counts ``cR(k)``,
``cS(k)`` and per-key payload sums ``sumR(k)``, ``sumS(k)``:

* count    = sum over k of cR(k) * cS(k)
* checksum = sum over k of sumR(k) * sumS(k)  (mod 2**64)

The checksum identity holds because the program's output checksum is
``sum(r_payload * s_payload) mod 2**64`` over all output pairs, and the
pairs of one key form the product of its R and S tuples; multiplication
distributes over addition mod 2**64 (see the module docstring of
``repro.exec.output``).  Everything here is plain numpy over the
generated key and payload columns.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class KeyHistogram:
    """Sorted distinct keys with their tuple counts and payload sums."""

    __slots__ = ("keys", "counts", "sums")

    def __init__(self, keys: np.ndarray, payloads: np.ndarray):
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_pays = np.asarray(payloads, dtype=np.uint64)[order]
        if sorted_keys.size:
            starts = np.flatnonzero(
                np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        else:
            starts = np.empty(0, dtype=np.int64)
        self.keys = sorted_keys[starts]
        self.counts = np.diff(np.r_[starts, sorted_keys.size]).astype(np.int64)
        # Payloads are < 2**32 and a relation has < 2**32 tuples, so the
        # per-key sums fit in uint64 without wrapping.
        self.sums = (np.add.reduceat(sorted_pays, starts)
                     if starts.size else np.empty(0, dtype=np.uint64))

    def join(self, other: "KeyHistogram") -> Tuple[int, int]:
        """(count, checksum) of joining the two histogrammed relations."""
        common, mine, theirs = np.intersect1d(
            self.keys, other.keys, assume_unique=True, return_indices=True)
        if common.size == 0:
            return 0, 0
        count = int(np.sum(self.counts[mine] * other.counts[theirs]))
        # uint64 products and sums wrap mod 2**64, which is the checksum.
        with np.errstate(over="ignore"):
            checksum = int(np.sum(self.sums[mine] * other.sums[theirs],
                                  dtype=np.uint64))
        return count, checksum


def expected_join(r_keys, r_payloads, s_keys, s_payloads) -> Tuple[int, int]:
    """(count, checksum) the join of R and S must produce."""
    return KeyHistogram(r_keys, r_payloads).join(
        KeyHistogram(s_keys, s_payloads))
