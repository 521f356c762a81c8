"""Zipf-distributed join workloads, generated exactly as in the paper.

Section V-A of the paper: *"we generate an array of intervals for a given
zipf factor.  Each array element stores an interval whose length corresponds
to the probability of the element in the zipf distribution.  Then we
randomly assign a unique key to each interval.  After that, for each input
tuple, we generate a random number, and search it in the interval array...
we model highly skewed cases by using the same interval array and unique key
array for both table R and table S."*

:class:`ZipfWorkload` reproduces that procedure literally (cumulative
interval array + ``searchsorted``), including the shared interval/key arrays
across R and S.  For paper-scale analysis (32 M and 560 M tuples) the module
can also produce per-rank count histograms without materializing tuples.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.histogram import KeyHistogram
from repro.data.relation import JoinInput, Relation
from repro.errors import WorkloadError
from repro.types import KEY_DTYPE, PAYLOAD_DTYPE, SeedLike, make_rng

#: LRU bound on the (n_keys, theta) table cache; each entry holds two
#: float64 arrays of n_keys elements.
_ZIPF_CACHE_MAX = 64

_zipf_cache: "OrderedDict[Tuple[int, float], Tuple[np.ndarray, np.ndarray]]" \
    = OrderedDict()
_zipf_cache_hits = 0
_zipf_cache_misses = 0

#: Uniform draws made per step when keys are drawn (bounds the temporaries).
_DRAW_CHUNK = 1 << 23


def _zipf_tables(n_keys: int, theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """The (pmf, cumulative-interval) pair for one (n_keys, theta), cached.

    Building these is O(n_keys) in float64 and dominated the cost of
    instantiating workloads in tests and the diff grid, where the same
    handful of (n, theta) shapes recur constantly.  Cached arrays are
    returned read-only and shared between callers; anything needing to
    mutate must copy.
    """
    global _zipf_cache_hits, _zipf_cache_misses
    if n_keys <= 0:
        raise WorkloadError(f"n_keys must be positive, got {n_keys}")
    if theta < 0:
        raise WorkloadError(f"zipf factor must be non-negative, got {theta}")
    key = (int(n_keys), float(theta))
    cached = _zipf_cache.get(key)
    if cached is not None:
        _zipf_cache_hits += 1
        _zipf_cache.move_to_end(key)
        return cached
    _zipf_cache_misses += 1
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    weights = ranks ** (-theta)
    probs = weights / weights.sum()
    intervals = np.cumsum(probs)
    intervals[-1] = 1.0  # guard against float round-off
    probs.setflags(write=False)
    intervals.setflags(write=False)
    _zipf_cache[key] = (probs, intervals)
    while len(_zipf_cache) > _ZIPF_CACHE_MAX:
        _zipf_cache.popitem(last=False)
    return probs, intervals


def zipf_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the table cache (diagnostics, tests)."""
    return {"hits": _zipf_cache_hits, "misses": _zipf_cache_misses,
            "size": len(_zipf_cache), "max_size": _ZIPF_CACHE_MAX}


def clear_zipf_cache() -> None:
    """Drop every cached table and reset the counters."""
    global _zipf_cache_hits, _zipf_cache_misses
    _zipf_cache.clear()
    _zipf_cache_hits = 0
    _zipf_cache_misses = 0


def zipf_probabilities(n_keys: int, theta: float) -> np.ndarray:
    """Zipf pmf over ranks 1..n_keys: p_i proportional to 1 / i**theta.

    ``theta = 0`` degenerates to the uniform distribution, matching the
    paper's zipf-factor-0 configuration.  The returned array is a shared,
    read-only cache entry; copy before mutating.
    """
    return _zipf_tables(n_keys, theta)[0]


@dataclass
class ZipfWorkload:
    """A pair of equal-schema tables with zipf-distributed join keys.

    Parameters mirror the paper's workload: both tables draw keys from the
    *same* interval array and the *same* shuffled unique-key array, which is
    what makes high zipf factors produce matching heavy hitters on both
    sides of the join.
    """

    n_r: int
    n_s: int
    theta: float
    n_keys: Optional[int] = None
    seed: SeedLike = 0
    _probs: np.ndarray = field(init=False, repr=False)
    _intervals: np.ndarray = field(init=False, repr=False)
    _key_of_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_r < 0 or self.n_s < 0:
            raise WorkloadError("table sizes must be non-negative")
        if self.n_keys is None:
            # The paper's tables have as many candidate keys as tuples.
            self.n_keys = max(self.n_r, self.n_s, 1)
        if self.n_keys > 2**32:
            raise WorkloadError("key domain exceeds the 4-byte key space")
        rng = make_rng(self.seed)
        # Interval array: cumulative right edges of per-rank intervals.
        # Both arrays come from the shared read-only table cache.
        self._probs, self._intervals = _zipf_tables(self.n_keys, self.theta)
        # Randomly assign a unique key to each interval.
        self._key_of_rank = rng.permutation(self.n_keys).astype(KEY_DTYPE)
        self._rng = rng

    @property
    def probabilities(self) -> np.ndarray:
        """Per-rank probabilities (rank 1 first)."""
        return self._probs

    def key_for_rank(self, rank: int) -> int:
        """The unique key assigned to a 1-based zipf rank."""
        if not 1 <= rank <= self.n_keys:
            raise WorkloadError(f"rank {rank} out of range 1..{self.n_keys}")
        return int(self._key_of_rank[rank - 1])

    def _draw_keys(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n keys by the paper's interval-search procedure."""
        out = np.empty(n, dtype=KEY_DTYPE)
        pos = 0
        while pos < n:
            m = min(_DRAW_CHUNK, n - pos)
            u = rng.random(m)
            ranks = np.searchsorted(self._intervals, u, side="right")
            out[pos:pos + m] = self._key_of_rank[ranks]
            pos += m
        return out

    @staticmethod
    def _draw_payloads(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2**32, size=n,
                            dtype=np.uint64).astype(PAYLOAD_DTYPE)

    def generate(self, payload_seed: SeedLike = None) -> JoinInput:
        """Materialize the R and S relations."""
        rng = self._rng
        pay_rng = make_rng(payload_seed) if payload_seed is not None else rng
        r_keys = self._draw_keys(self.n_r, rng)
        s_keys = self._draw_keys(self.n_s, rng)
        r = Relation(r_keys, self._draw_payloads(self.n_r, pay_rng), name="R")
        s = Relation(s_keys, self._draw_payloads(self.n_s, pay_rng), name="S")
        return JoinInput(r=r, s=s, meta={
            "theta": self.theta, "n_keys": self.n_keys, "generator": "zipf",
        })

    def generate_r(self) -> Relation:
        """R alone, bit-identical to ``generate().r``.

        R and S share one rng stream (R keys, S keys, R payloads, S
        payloads), so S's uniform key draws still advance it, only
        without the interval search; S's payloads are not drawn.
        """
        rng = self._rng
        r_keys = self._draw_keys(self.n_r, rng)
        for pos in range(0, self.n_s, _DRAW_CHUNK):
            rng.random(min(_DRAW_CHUNK, self.n_s - pos))
        return Relation(r_keys, self._draw_payloads(self.n_r, rng), name="R")

    def sample_rank_counts(self, n: int, rng: Optional[np.random.Generator] = None,
                           chunk: int = 1 << 23) -> np.ndarray:
        """Draw n tuples and return per-rank counts, without keeping keys.

        This is the exact distribution of a materialized table's histogram
        and is what the paper-scale analytic path consumes.
        """
        rng = rng or self._rng
        counts = np.zeros(self.n_keys, dtype=np.int64)
        pos = 0
        while pos < n:
            m = min(chunk, n - pos)
            u = rng.random(m)
            # Sorting the draws makes the interval search cache friendly
            # (~15x faster at paper scale); the per-rank counts are
            # distributionally identical since only counts are kept.
            u.sort()
            ranks = np.searchsorted(self._intervals, u, side="right")
            counts += np.bincount(ranks, minlength=self.n_keys)
            pos += m
        return counts

    def histograms(self) -> Tuple[KeyHistogram, KeyHistogram]:
        """Sampled key histograms for R and S (paper-scale friendly)."""
        cr = self.sample_rank_counts(self.n_r)
        cs = self.sample_rank_counts(self.n_s)
        keys = self._key_of_rank.astype(np.uint64)
        order = np.argsort(keys, kind="stable")
        return (
            KeyHistogram(keys[order], cr[order]),
            KeyHistogram(keys[order], cs[order]),
        )


def zipf_rank_counts_approx(
    n_tuples: int,
    n_keys: int,
    theta: float,
    seed: SeedLike = 0,
    exact_head: int = 1 << 20,
) -> np.ndarray:
    """Per-rank counts for very large workloads (e.g. 560 M tuples).

    The hottest ``exact_head`` ranks are sampled exactly (Poisson
    approximation to their multinomial counts, excellent for small per-key
    probabilities); the tail ranks receive their expected counts rounded
    stochastically.  Skew behaviour is driven entirely by the head, so this
    preserves every quantity the analytic executors consume while keeping
    memory linear in ``n_keys`` only for one int64 array.
    """
    probs = zipf_probabilities(n_keys, theta)
    rng = make_rng(seed)
    counts = np.zeros(n_keys, dtype=np.int64)
    head = min(exact_head, n_keys)
    counts[:head] = rng.poisson(probs[:head] * n_tuples)
    if head < n_keys:
        expected_tail = probs[head:] * n_tuples
        floor = np.floor(expected_tail)
        frac = expected_tail - floor
        counts[head:] = floor.astype(np.int64) + (rng.random(n_keys - head) < frac)
    return counts
