"""Candidate enumeration and constraint handling for the planner.

A candidate is one (algorithm, backend, workers) execution point.  The
planner enumerates every point — parallel worker counts up the
power-of-two ladder to the configured pool size — then filters by the
operational constraints the rest of the system already defines:

* **memory budget** (``REPRO_MEMORY_BUDGET`` / the spill plane): an input
  whose partitioned form exceeds the budget is only feasible on the
  spill-capable algorithms;
* **deadline** (the serve layer's ``deadline_ms``): a candidate whose
  predicted wall time already exceeds the request budget is refused
  up front instead of burning the slot and dying mid-probe.

Infeasible candidates stay in the explain table with their reason — the
point of ``repro plan`` is showing the decision, not hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.exec.backend import BACKENDS, PARALLEL

#: Spill-capable algorithms (the ones that can honor a memory budget).
from repro.faults.plan import SPILL_ALGORITHM_NAMES


@dataclass(frozen=True)
class CandidatePoint:
    """One (algorithm, backend, workers) execution point."""

    algorithm: str
    backend: str
    workers: int = 1

    def label(self) -> str:
        """Short display form, e.g. ``csh/parallel@2``."""
        base = f"{self.algorithm}/{self.backend}"
        return f"{base}@{self.workers}" if self.backend == PARALLEL else base


@dataclass
class Constraints:
    """Operational constraints a plan must respect."""

    #: Algorithms to consider (None = every registered algorithm).
    algorithms: Optional[Sequence[str]] = None
    #: Backends to consider (None = all).
    backends: Optional[Sequence[str]] = None
    #: Upper bound on the parallel worker ladder (None = the configured
    #: pool size, i.e. ``REPRO_WORKERS`` or the core count).
    max_workers: Optional[int] = None
    #: Resident-bytes budget; inputs beyond it need a spill-capable
    #: algorithm.  None = unconstrained.
    memory_budget_bytes: Optional[int] = None
    #: Wall-clock budget for the run, milliseconds.  None = none.
    deadline_ms: Optional[float] = None

    @staticmethod
    def from_environment(**overrides) -> "Constraints":
        """Constraints implied by the ambient environment: the spill
        plane's memory budget, every backend the host can run."""
        from repro.store.spill import memory_budget_from_env
        values = {"memory_budget_bytes": memory_budget_from_env()}
        values.update(overrides)
        return Constraints(**values)

    def describe(self) -> dict:
        """Plan-metadata form."""
        return {
            "algorithms": list(self.algorithms) if self.algorithms else None,
            "backends": list(self.backends) if self.backends else None,
            "max_workers": self.max_workers,
            "memory_budget_bytes": self.memory_budget_bytes,
            "deadline_ms": self.deadline_ms,
        }


def worker_ladder(max_workers: Optional[int] = None) -> Tuple[int, ...]:
    """Power-of-two worker counts up to the pool bound: 1, 2, 4, ...

    The pool is sized by ``REPRO_WORKERS`` (else the core count); probing
    every intermediate count would be quadratic noise for no signal.
    """
    from repro.exec.parallel import worker_count
    cap = worker_count() if max_workers is None else max(int(max_workers), 1)
    ladder = []
    w = 1
    while w < cap:
        ladder.append(w)
        w *= 2
    ladder.append(cap)
    return tuple(sorted(set(ladder)))


def enumerate_candidates(
    constraints: Optional[Constraints] = None,
) -> List[CandidatePoint]:
    """Every execution point allowed by the constraints.

    Deterministic order: algorithms sorted, backends in registry order,
    workers ascending — ties in predicted cost resolve reproducibly.
    """
    from repro.api import ALGORITHMS

    constraints = constraints or Constraints()
    algorithms = (sorted(ALGORITHMS) if constraints.algorithms is None
                  else list(constraints.algorithms))
    wanted = (tuple(constraints.backends) if constraints.backends
              else BACKENDS)
    points: List[CandidatePoint] = []
    for algorithm in algorithms:
        for backend in BACKENDS:
            if backend not in wanted:
                continue
            if backend == PARALLEL:
                for workers in worker_ladder(constraints.max_workers):
                    points.append(CandidatePoint(algorithm, backend, workers))
            else:
                points.append(CandidatePoint(algorithm, backend, 1))
    return points


@dataclass
class Feasibility:
    """Whether one candidate passes the constraints, and why not."""

    ok: bool
    reasons: List[str] = field(default_factory=list)


def check_feasibility(
    point: CandidatePoint,
    predicted_wall_seconds: float,
    estimated_bytes: int,
    constraints: Constraints,
) -> Feasibility:
    """Apply the memory-budget and deadline constraints to one point."""
    reasons: List[str] = []
    budget = constraints.memory_budget_bytes
    if (budget is not None and estimated_bytes > budget
            and point.algorithm not in SPILL_ALGORITHM_NAMES):
        reasons.append(
            f"input ~{estimated_bytes} bytes exceeds the {budget}-byte "
            f"memory budget and {point.algorithm!r} cannot spill")
    if (constraints.deadline_ms is not None
            and predicted_wall_seconds * 1000.0 > constraints.deadline_ms):
        reasons.append(
            f"predicted {predicted_wall_seconds * 1000.0:.1f} ms exceeds "
            f"the {constraints.deadline_ms:g} ms deadline")
    return Feasibility(ok=not reasons, reasons=reasons)
