"""The out-of-core scale tier: joins larger than the memory budget.

``repro bench --oocore --record`` streams a zipf workload to an on-disk
relation store whose raw size **exceeds** ``REPRO_MEMORY_BUDGET``, then
runs the join once per backend — each run in a **fresh child process**
that captures its interpreter baseline RSS *before* the store opens and
its peak RSS after the join.  The committed ``BENCH_oocore_<tag>.json``
snapshot is therefore a machine-checked memory claim:

* every backend produced the identical ``(count, checksum)`` answer as
  every other backend (bit-identity survives paging), and
* every backend's RSS delta (peak minus baseline) stayed under the
  budget even though the dataset did not fit in it.

The child process matters: ``ru_maxrss`` is a process-lifetime
high-water mark, so measuring inside a long-lived pytest or CLI process
would inherit whatever the process had already touched.  A fresh child
starts from the interpreter + numpy baseline and everything above it is
attributable to the run.  The parallel backend's workers are threads of
that same child, so its recorded delta covers all the parallel work —
morsel paging and every morsel's scratch arrays included.

``repro bench --oocore --compare`` re-records under the baseline's own
shape and gates wall time per backend with the same threshold + floor
as the main bench gate, after re-verifying both claims above.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import BaselineError, VerificationError
from repro.exec.backend import BACKENDS

#: Schema of BENCH_oocore_<tag>.json files.
OOCORE_SCHEMA_VERSION = 1

#: Default tier shape: a 4 M tuple probe side (32 MiB of raw relation
#: data with the 64 Ki build side) under a budget of half the dataset.
DEFAULT_OOCORE_N_R = 1 << 16
DEFAULT_OOCORE_N_S = 1 << 22
DEFAULT_OOCORE_THETA = 0.5
DEFAULT_OOCORE_SEED = 42
DEFAULT_OOCORE_ALGORITHM = "cbase-npj"
DEFAULT_OOCORE_CODEC = "zlib"
DEFAULT_OOCORE_CHUNK_TUPLES = 1 << 17
DEFAULT_OOCORE_CACHE_SEGMENTS = 2

#: Probe threads for the tier's cbase-npj runs.  The streamed probe's
#: transient working set scales with the morsel (``n_s / n_threads``),
#: so the tier runs with more, smaller segments than the latency-tuned
#: default — same answer (bit-identity holds for any thread count),
#: bounded residency.
DEFAULT_OOCORE_THREADS = 64

#: Wall-time gate, matching the main bench gate's shape.
OOCORE_REGRESSION_THRESHOLD = 0.25
OOCORE_WALL_FLOOR_SECONDS = 5e-3


@dataclass
class OocoreRun:
    """One backend's measured child-process run."""

    backend: str
    wall_seconds: float
    baseline_rss_bytes: int
    peak_rss_bytes: int
    output_count: int
    output_checksum: int

    @property
    def delta_rss_bytes(self) -> int:
        """Residency attributable to the run (peak minus baseline)."""
        return max(self.peak_rss_bytes - self.baseline_rss_bytes, 0)


@dataclass
class OocoreBenchRecord:
    """One recorded out-of-core tier snapshot."""

    tag: str
    algorithm: str
    n_r: int
    n_s: int
    theta: float
    seed: int
    codec: str
    chunk_tuples: int
    cache_segments: int
    n_threads: int
    dataset_bytes: int
    budget_bytes: int
    runs: List[OocoreRun] = field(default_factory=list)

    def run_for(self, backend: str) -> Optional[OocoreRun]:
        for run in self.runs:
            if run.backend == backend:
                return run
        return None

    def verify(self) -> List[str]:
        """The tier's claims, re-checked (empty list = all hold)."""
        issues: List[str] = []
        if self.dataset_bytes <= self.budget_bytes:
            issues.append(
                f"dataset ({self.dataset_bytes} B) does not exceed the "
                f"budget ({self.budget_bytes} B) — not an out-of-core run")
        if not self.runs:
            issues.append("no backend runs recorded")
            return issues
        reference = self.runs[0]
        for run in self.runs[1:]:
            if (run.output_count != reference.output_count
                    or run.output_checksum != reference.output_checksum):
                issues.append(
                    f"{run.backend} answer diverged from "
                    f"{reference.backend}: ({run.output_count}, "
                    f"{run.output_checksum:#x}) vs "
                    f"({reference.output_count}, "
                    f"{reference.output_checksum:#x})")
        for run in self.runs:
            if run.peak_rss_bytes <= 0:
                issues.append(
                    f"{run.backend} recorded no RSS measurement")
            elif run.delta_rss_bytes > self.budget_bytes:
                issues.append(
                    f"{run.backend} RSS delta {run.delta_rss_bytes} B "
                    f"exceeds the {self.budget_bytes} B budget")
        return issues


# ------------------------------------------------------------ recording


def _repro_pythonpath() -> Dict[str, str]:
    """Child env whose PYTHONPATH resolves this very repro package."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [src_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    # Pin glibc's mmap threshold: by default it ratchets up as large
    # blocks are freed, after which freed morsel buffers are retained
    # in the heap and the measured RSS floor creeps upward.  Forcing
    # large allocations through mmap keeps frees returning to the OS,
    # so the child measures the streaming working set, not allocator
    # retention.
    env.setdefault("MALLOC_MMAP_THRESHOLD_", "131072")
    return env


def _measure_backend(directory: Union[str, Path], algorithm: str,
                     backend: str, cache_segments: int,
                     n_threads: int) -> OocoreRun:
    """Run one backend in a fresh child process; parse its measurement."""
    spec = json.dumps({
        "directory": str(directory),
        "algorithm": algorithm,
        "backend": backend,
        "cache_segments": int(cache_segments),
        "n_threads": int(n_threads),
    })
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.oocore", "--child", spec],
        capture_output=True, text=True, env=_repro_pythonpath(),
    )
    if proc.returncode != 0:
        raise VerificationError(
            f"oocore child for backend {backend!r} failed "
            f"(exit {proc.returncode}): {proc.stderr.strip()[-2000:]}",
            backend=backend)
    try:
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError) as exc:
        raise VerificationError(
            f"oocore child for backend {backend!r} produced no "
            f"measurement: {proc.stdout[-500:]!r}", backend=backend) from exc
    return OocoreRun(
        backend=backend,
        wall_seconds=float(payload["wall_seconds"]),
        baseline_rss_bytes=int(payload["baseline_rss_bytes"]),
        peak_rss_bytes=int(payload["peak_rss_bytes"]),
        output_count=int(payload["output_count"]),
        output_checksum=int(payload["output_checksum"]),
    )


def record_oocore_bench(
    tag: str,
    n_r: int = DEFAULT_OOCORE_N_R,
    n_s: int = DEFAULT_OOCORE_N_S,
    theta: float = DEFAULT_OOCORE_THETA,
    seed: int = DEFAULT_OOCORE_SEED,
    algorithm: str = DEFAULT_OOCORE_ALGORITHM,
    codec: str = DEFAULT_OOCORE_CODEC,
    chunk_tuples: int = DEFAULT_OOCORE_CHUNK_TUPLES,
    cache_segments: int = DEFAULT_OOCORE_CACHE_SEGMENTS,
    n_threads: int = DEFAULT_OOCORE_THREADS,
    budget_bytes: Optional[int] = None,
    backends: Sequence[str] = BACKENDS,
    directory: Optional[Union[str, Path]] = None,
) -> OocoreBenchRecord:
    """Stream the tier's workload to disk and measure every backend.

    The default budget is half the raw dataset, making "dataset exceeds
    the budget" true by construction; the record's :meth:`verify` then
    checks the measured claims and the caller decides whether failures
    are fatal (``repro bench --oocore`` treats them as such).
    """
    import shutil
    import tempfile

    from repro.data.stream import stream_zipf_input
    from repro.store.relations import dataset_bytes as stored_bytes

    owned = directory is None
    directory = Path(tempfile.mkdtemp(prefix="repro-oocore-")
                     if owned else directory)
    try:
        stream_zipf_input(directory, n_r, n_s, theta, seed=seed,
                          codec=codec, chunk_tuples=chunk_tuples)
        total = stored_bytes(directory)
        budget = total // 2 if budget_bytes is None else int(budget_bytes)
        record = OocoreBenchRecord(
            tag=tag, algorithm=algorithm, n_r=n_r, n_s=n_s, theta=theta,
            seed=seed, codec=codec, chunk_tuples=chunk_tuples,
            cache_segments=cache_segments, n_threads=n_threads,
            dataset_bytes=total, budget_bytes=budget)
        for backend in backends:
            record.runs.append(_measure_backend(
                directory, algorithm, backend, cache_segments, n_threads))
        return record
    finally:
        if owned:
            shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------- persistence


def oocore_bench_path(tag: str, directory: Union[str, Path] = ".") -> Path:
    return Path(directory) / f"BENCH_oocore_{tag}.json"


def oocore_to_dict(record: OocoreBenchRecord) -> Dict:
    return {
        "schema_version": OOCORE_SCHEMA_VERSION,
        "tag": record.tag,
        "algorithm": record.algorithm,
        "n_r": record.n_r,
        "n_s": record.n_s,
        "theta": record.theta,
        "seed": record.seed,
        "codec": record.codec,
        "chunk_tuples": record.chunk_tuples,
        "cache_segments": record.cache_segments,
        "n_threads": record.n_threads,
        "dataset_bytes": record.dataset_bytes,
        "budget_bytes": record.budget_bytes,
        "runs": [
            {
                "backend": r.backend,
                "wall_seconds": r.wall_seconds,
                "baseline_rss_bytes": r.baseline_rss_bytes,
                "peak_rss_bytes": r.peak_rss_bytes,
                "delta_rss_bytes": r.delta_rss_bytes,
                "output_count": r.output_count,
                "output_checksum": r.output_checksum,
            }
            for r in record.runs
        ],
    }


def oocore_from_dict(data: Dict, source: str = "<dict>") -> OocoreBenchRecord:
    version = data.get("schema_version")
    if version != OOCORE_SCHEMA_VERSION:
        raise BaselineError(
            f"oocore baseline {source} has schema version {version!r}, "
            f"but this build reads version {OOCORE_SCHEMA_VERSION}; "
            "re-record it with `repro bench --oocore --record`",
            path=source, found_version=version,
            expected_version=OOCORE_SCHEMA_VERSION)
    try:
        return OocoreBenchRecord(
            tag=data["tag"],
            algorithm=data["algorithm"],
            n_r=int(data["n_r"]),
            n_s=int(data["n_s"]),
            theta=float(data["theta"]),
            seed=int(data["seed"]),
            codec=data["codec"],
            chunk_tuples=int(data["chunk_tuples"]),
            cache_segments=int(data["cache_segments"]),
            n_threads=int(data["n_threads"]),
            dataset_bytes=int(data["dataset_bytes"]),
            budget_bytes=int(data["budget_bytes"]),
            runs=[
                OocoreRun(
                    backend=r["backend"],
                    wall_seconds=float(r["wall_seconds"]),
                    baseline_rss_bytes=int(r["baseline_rss_bytes"]),
                    peak_rss_bytes=int(r["peak_rss_bytes"]),
                    output_count=int(r["output_count"]),
                    output_checksum=int(r["output_checksum"]),
                )
                for r in data["runs"]
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BaselineError(
            f"oocore baseline {source} is malformed ({exc}); re-record it "
            "with `repro bench --oocore --record`", path=source) from exc


def save_oocore_bench(record: OocoreBenchRecord,
                      path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(oocore_to_dict(record), indent=2,
                               sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_oocore_bench(path: Union[str, Path]) -> OocoreBenchRecord:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise BaselineError(
            f"no oocore baseline at {path}; record one with "
            "`repro bench --oocore --record`", path=str(path)) from None
    except OSError as exc:
        raise BaselineError(
            f"cannot read oocore baseline {path}: {exc}",
            path=str(path)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BaselineError(
            f"oocore baseline {path} is not valid JSON ({exc}); re-record "
            "it with `repro bench --oocore --record`",
            path=str(path)) from exc
    if not isinstance(data, dict):
        raise BaselineError(
            f"oocore baseline {path} is not a JSON object; re-record it "
            "with `repro bench --oocore --record`", path=str(path))
    return oocore_from_dict(data, source=str(path))


# ------------------------------------------------------------ comparing


@dataclass
class OocoreComparison:
    """Outcome of gating a candidate oocore record against a baseline."""

    baseline_tag: str
    candidate_tag: str
    threshold: float
    floor_seconds: float
    claim_failures: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.claim_failures and not self.regressions

    def render(self) -> str:
        lines = [
            f"oocore compare — candidate {self.candidate_tag!r} vs "
            f"baseline {self.baseline_tag!r}",
            f"  gate: per-backend wall time, >{self.threshold:.0%} over "
            f"baseline (+{self.floor_seconds:g}s floor) fails; RSS and "
            "bit-identity claims re-verified",
        ]
        for issue in self.claim_failures:
            lines.append(f"  CLAIM FAILED: {issue}")
        for issue in self.regressions:
            lines.append(f"  REGRESSION: {issue}")
        lines.append("OOCORE COMPARE " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def compare_oocore_benches(
    baseline: OocoreBenchRecord,
    candidate: OocoreBenchRecord,
    threshold: float = OOCORE_REGRESSION_THRESHOLD,
    floor_seconds: float = OOCORE_WALL_FLOOR_SECONDS,
) -> OocoreComparison:
    """Re-verify the candidate's claims and gate per-backend wall time."""
    comparison = OocoreComparison(
        baseline_tag=baseline.tag, candidate_tag=candidate.tag,
        threshold=threshold, floor_seconds=floor_seconds,
        claim_failures=candidate.verify())
    for base_run in baseline.runs:
        cand_run = candidate.run_for(base_run.backend)
        if cand_run is None:
            comparison.regressions.append(
                f"backend {base_run.backend!r} present in baseline but "
                "absent from candidate")
            continue
        over = cand_run.wall_seconds - base_run.wall_seconds * (1 + threshold)
        if (over > 0 and cand_run.wall_seconds - base_run.wall_seconds
                > floor_seconds):
            ratio = (cand_run.wall_seconds / base_run.wall_seconds
                     if base_run.wall_seconds > 0 else float("inf"))
            comparison.regressions.append(
                f"{base_run.backend}: {base_run.wall_seconds:.4f}s -> "
                f"{cand_run.wall_seconds:.4f}s ({ratio:.2f}x)")
    return comparison


def render_oocore(record: OocoreBenchRecord) -> str:
    """Human-readable snapshot summary."""
    lines = [
        f"oocore tier {record.tag!r} — {record.algorithm}, "
        f"n_r={record.n_r}, n_s={record.n_s}, theta={record.theta}, "
        f"codec={record.codec}",
        f"  dataset {record.dataset_bytes / 2**20:.1f} MiB under a "
        f"{record.budget_bytes / 2**20:.1f} MiB budget",
    ]
    for run in record.runs:
        lines.append(
            f"  {run.backend:<9} {run.wall_seconds:8.3f}s  "
            f"rss +{run.delta_rss_bytes / 2**20:6.1f} MiB  "
            f"({run.output_count} tuples, {run.output_checksum:#x})")
    issues = record.verify()
    lines.append("OOCORE " + ("OK" if not issues else "FAILED"))
    for issue in issues:
        lines.append(f"  - {issue}")
    return "\n".join(lines)


# ------------------------------------------------------------ child run


def _child_main(spec_json: str) -> int:
    """One backend's measured run (fresh process; see module docstring)."""
    from repro.obs.rss import current_rss_bytes, peak_rss_bytes, \
        reset_peak_rss

    spec = json.loads(spec_json)
    # Everything the run needs is imported *before* the baseline capture,
    # so the delta excludes interpreter/numpy warmup and covers exactly
    # the store, the paging, and the join.
    from repro.api import make_join
    from repro.exec.backend import use_backend
    from repro.store.relations import open_join_input

    # Drop the high-water mark to the post-import floor so the recorded
    # peak is what this run allocated, not what import transients (or,
    # without procfs, the spawning driver) happened to touch.
    reset_peak_rss()
    baseline = current_rss_bytes() or peak_rss_bytes()
    start = time.perf_counter()
    config = None
    if spec["algorithm"] == "cbase-npj" and spec.get("n_threads"):
        from repro.cpu.no_partition_join import NoPartitionConfig
        config = NoPartitionConfig(n_threads=int(spec["n_threads"]))
    join_input, store = open_join_input(
        spec["directory"], cache_segments=spec.get("cache_segments"))
    try:
        with use_backend(spec["backend"]):
            result = make_join(spec["algorithm"], config).run(join_input)
    finally:
        store.close()
    wall = time.perf_counter() - start
    peak = int(result.meta.get("peak_rss_bytes") or peak_rss_bytes())
    print(json.dumps({
        "backend": spec["backend"],
        "wall_seconds": wall,
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": peak,
        "output_count": result.output_count,
        "output_checksum": result.output_checksum,
    }))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        sys.exit(_child_main(sys.argv[2]))
    print("usage: python -m repro.bench.oocore --child '<json spec>'",
          file=sys.stderr)
    sys.exit(2)
