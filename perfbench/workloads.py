"""Workload definitions: settings, set-up repeats and expected layers.

Each workload runs in a fresh child process whose environment carries no
``REPRO_*`` variable except the settings listed here (see ``run.py``).
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: End-to-end metric name -> unit.  Measured with tracing off; every
#: workload reports every one.  An operation is one pass over the four
#: algorithms (skew-radix, skew-radix-par), one join (probe-many) or one
#: warm probe request (served).  Times are CPU time of the program's
#: processes (see child.cpu_seconds) at the reference speed (calibrate.py).
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "tuples_per_cpu_s": "1/s",
    "op_cpu_p50_ms": "ms",
    "op_cpu_p95_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: The four partitioned algorithms of the paper's Fig. 4 experiment.
SKEW_ALGORITHMS: Tuple[str, ...] = ("cbase", "csh", "gbase", "gsh")

#: Layers (span names of tracing.LAYERS) every partitioned join touches.
_SKEW_LAYERS = (
    "data.generate", "cpu.partition", "gpu.partitioning",
    "core.csh.hybrid_partition", "core.gsh.split", "core.detect",
    "cpu.chained_table.build", "cpu.chained_table.probe",
    "exec.matching.group_stats", "exec.matching.expand", "exec.output.write",
    "cpu.threads.schedule", "gpu.simulator.launch", "faults.recovery",
)


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)


WORKLOADS: Dict[str, Dict] = {
    "skew-radix": {
        "env": {"REPRO_BACKEND": "vector"},
        # setup_s is the median of this many set-ups per run.
        "setup_repeats": 3,
        # Passes over the four algorithms a run makes at least.
        "min_passes": 2,
        "layers": _SKEW_LAYERS,
    },
    "skew-radix-par": {
        "env": {"REPRO_BACKEND": "parallel", "REPRO_WORKERS": str(_nproc())},
        "setup_repeats": 3,
        "min_passes": 1,
        "layers": _SKEW_LAYERS + ("exec.parallel.pool_run",
                                  "exec.parallel.arena_share"),
    },
    "probe-many": {
        "env": {"REPRO_BACKEND": "vector", "REPRO_SPILL_CODEC": "zlib",
                "REPRO_STREAM_CHUNK_TUPLES": str(1 << 17),
                "REPRO_PAGE_CACHE_SEGMENTS": "2"},
        # One set-up takes 4-8 s (zipf draws over 4 M ranks plus
        # the store write); two keep the runs inside the time budget.
        "setup_repeats": 2,
        "layers": (
            "data.generate", "store.write", "store.morsel", "store.page_in",
            "cpu.chained_table.build", "cpu.chained_table.probe",
            "exec.matching.group_stats", "cpu.threads.schedule",
            "faults.recovery",
        ),
    },
    "served": {
        "env": {"REPRO_BACKEND": "vector"},
        "setup_repeats": 3,
        "layers": (
            "data.generate", "serve.protocol.decode", "serve.protocol.encode",
            "serve.admission.wait", "serve.cache.get_or_build",
            "serve.engine.request", "cpu.chained_table.build",
            "cpu.chained_table.probe", "exec.matching.group_stats",
            "cpu.threads.schedule", "faults.recovery",
        ),
    },
}
