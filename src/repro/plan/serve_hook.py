"""Planner integration for the serve engine (``planner: auto`` mode).

The serve path has exactly one planning degree of freedom per request:
which backend executes the build and probe kernels.  The algorithm is
fixed (the engine *is* the no-partition join), workers are the simulated
pool, and the deadline/admission constraints are enforced by the engine
itself — so :class:`ServeProbePlanner` is a small, per-request
specialization of the batch planner: price the request's ``build`` (cold
keys only) and ``probe`` phases through the npj analytic model, pick the
cheapest allowed backend, and learn serve-specific corrections (keyed
``("serve", phase, backend)``) from every answered request.

The decision is stamped into ``result.meta["plan"]`` in the same shape
the batch planner uses, so ``repro trace --check`` validates served
bookkeeping with the same :func:`repro.plan.verify.verify_result_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.analytic import ANALYTIC_EXECUTORS
from repro.data.relation import JoinInput, Relation
from repro.exec.backend import BACKENDS
from repro.plan.corrections import CorrectionStore, corrections_path_from_env
from repro.plan.predict import base_wall_factor
from repro.plan.sketch import (
    DEFAULT_EXACT_BELOW,
    DEFAULT_SAMPLE_RATE,
    sketch_workload,
)

#: The pseudo-algorithm serve corrections are keyed under.
SERVE_PLAN_ALGORITHM = "serve"

#: The analytic model that prices a served request: the engine's build +
#: morsel-probe is the no-partition join's execution shape.
_SERVE_ANALYTIC = "cbase-npj"

#: Persist learned serve corrections every this many answered requests.
SAVE_EVERY = 32


@dataclass
class _PhaseEstimate:
    name: str
    simulated_seconds: float
    base_wall_seconds: float
    predicted_wall_seconds: float


@dataclass
class ProbeDecision:
    """One request's backend choice with its full candidate table."""

    backend: str
    cold: bool
    phases: List[_PhaseEstimate] = field(default_factory=list)
    #: (backend, predicted wall) for every candidate considered.
    candidates: List[dict] = field(default_factory=list)
    sketch: Optional[dict] = None

    @property
    def predicted_wall_seconds(self) -> float:
        return sum(p.predicted_wall_seconds for p in self.phases)

    @property
    def predicted_simulated_seconds(self) -> float:
        return sum(p.simulated_seconds for p in self.phases)


class ServeProbePlanner:
    """Backend auto-selection + correction learning for served probes."""

    def __init__(
        self,
        corrections: Optional[CorrectionStore] = None,
        backends: Optional[Sequence[str]] = None,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        exact_below: int = DEFAULT_EXACT_BELOW,
        seed: int = 0,
    ):
        if corrections is None:
            corrections = CorrectionStore(path=corrections_path_from_env())
        self.corrections = corrections
        self.backends = tuple(backends) if backends else None
        self.sample_rate = sample_rate
        self.exact_below = exact_below
        self.seed = seed
        self.planned = 0
        self.observed = 0

    def _usable_backends(self) -> List[str]:
        return [backend for backend in BACKENDS
                if self.backends is None or backend in self.backends]

    def plan_probe(self, build_rel: Relation, probe_rel: Relation,
                   cold: bool) -> ProbeDecision:
        """Pick the backend for one request (deterministic per input)."""
        sketch = sketch_workload(
            JoinInput(build_rel, probe_rel), sample_rate=self.sample_rate,
            seed=self.seed, exact_below=self.exact_below)
        analytic = ANALYTIC_EXECUTORS[_SERVE_ANALYTIC](sketch.workload)
        sims = {p.name: p.simulated_seconds for p in analytic.phases}
        if not cold:
            # Warm keys never build: the cached table is free.
            sims.pop("build", None)

        best: Optional[ProbeDecision] = None
        candidates: List[dict] = []
        for backend in self._usable_backends():
            factor = base_wall_factor(backend)
            phases = [
                _PhaseEstimate(
                    name=name,
                    simulated_seconds=sim,
                    base_wall_seconds=sim * factor,
                    predicted_wall_seconds=sim * factor
                    * self.corrections.factor(SERVE_PLAN_ALGORITHM, name,
                                              backend),
                )
                for name, sim in sims.items()
            ]
            decision = ProbeDecision(backend=backend, cold=cold,
                                     phases=phases)
            candidates.append({
                "backend": backend,
                "predicted_wall_seconds": decision.predicted_wall_seconds,
            })
            # Strict less-than: ties keep registry order, deterministic.
            if (best is None or decision.predicted_wall_seconds
                    < best.predicted_wall_seconds):
                best = decision
        if best is None:
            raise_from = self.backends
            from repro.errors import ConfigError
            raise ConfigError(
                "serve planner has no usable backend to choose from",
                requested=list(raise_from) if raise_from else None)
        best.candidates = candidates
        best.sketch = sketch.summary()
        self.planned += 1
        return best

    def finish(self, result, decision: ProbeDecision) -> None:
        """Stamp the plan into a served result and learn from it.

        Phases that were predicted but never ran (a build that another
        request shared mid-flight) are dropped from the stamped plan so
        the bookkeeping always describes the request that actually
        happened — ``verify_result_plan`` holds either way.
        """
        realized = {}
        for phase in result.phases:
            realized[phase.name] = realized.get(phase.name, 0.0) \
                + phase.wall_seconds
        kept = [p for p in decision.phases if p.name in realized]
        result.meta["plan"] = {
            "algorithm": SERVE_PLAN_ALGORITHM,
            "backend": decision.backend,
            "workers": 1,
            "predicted_wall_seconds":
                sum(p.predicted_wall_seconds for p in kept),
            "predicted_simulated_seconds":
                sum(p.simulated_seconds for p in kept),
            "realized_wall_seconds": result.wall_seconds,
            "realized_simulated_seconds": result.simulated_seconds,
            "phases": [
                {
                    "name": p.name,
                    "simulated_seconds": p.simulated_seconds,
                    "base_wall_seconds": p.base_wall_seconds,
                    "predicted_wall_seconds": p.predicted_wall_seconds,
                    "realized_wall_seconds": realized[p.name],
                }
                for p in kept
            ],
            "candidates": len(decision.candidates),
            "feasible": len(decision.candidates),
            "cold": decision.cold,
            "backend_candidates": list(decision.candidates),
            "sketch": decision.sketch,
            "constraints": {"backends": (list(self.backends)
                                         if self.backends else None)},
        }
        for p in kept:
            self.corrections.observe(SERVE_PLAN_ALGORITHM, p.name,
                                     decision.backend,
                                     p.base_wall_seconds, realized[p.name])
            self.observed += 1
        if self.observed and self.observed % SAVE_EVERY == 0:
            self.corrections.save()
