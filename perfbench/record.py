"""Record the benchmark: repeated runs per workload, then one traced run.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 1-10 --trace-seed 42 \
        --out perfbench/results/seed.json

For every workload it runs ``run.py`` once per seed, for the
``run_seconds`` of ``BENCHMARK.json``, with tracing off and
keeps each end-to-end metric's values, median and quartile spread (the
distance between the first and third quartile as a share of the median,
from ``statistics.quantiles(values, n=4)``), each run's host-speed
calibration factor, and the median and spread the same runs would have
had without calibration (see ``calibrate.py``).  It then makes one traced
run per workload and keeps its per-layer metrics.  Runs are sequential,
so they never compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, host_facts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed "
                           f"(exit {proc.returncode}): "
                           f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
    info = next((json.loads(line[len("info "):]) for line in lines
                 if line.startswith("info ")), {})
    return json.loads(lines[-1]), info, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=42)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = Path(args.out)
    record = {"host": host_facts(), "seeds": _seeds(args.seeds),
              "trace_seed": args.trace_seed, "seconds": seconds,
              "workloads": {}}
    for workload in WORKLOADS:
        values, raw, factors, walls = {}, {}, [], []
        attempted = failed = 0
        for seed in record["seeds"]:
            result, info, elapsed = run_once(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: "
                                   f"{result['failed']} failed operations")
            walls.append(elapsed)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            for name, value in info["raw_metrics"].items():
                raw.setdefault(name, []).append(value)
            factors.append(info["calibration_factor"])
            print(f"{workload} seed {seed} {elapsed:.1f}s "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                  flush=True)
        traced, _, elapsed = run_once(workload, args.trace_seed, seconds, 1)
        if not traced["correct"] or traced["failed"]:
            raise RuntimeError(f"{workload} traced run failed")
        record["workloads"][workload] = {
            "settings": WORKLOADS[workload]["env"],
            "attempted": attempted,
            "failed": failed,
            "run_wall_s": walls,
            "calibration_factor": factors,
            # The same runs before calibration: what calibration removed.
            "uncalibrated": {
                name: {"median": statistics.median(v),
                       "spread": spread(v) if len(v) > 1 else 0.0}
                for name, v in raw.items()},
            "end_to_end": {
                name: {"median": statistics.median(v),
                       "spread": spread(v) if len(v) > 1 else 0.0,
                       "values": v}
                for name, v in values.items()},
            "traced": {"seed": args.trace_seed, "run_wall_s": elapsed,
                       "correct": traced["correct"],
                       "attempted": traced["attempted"],
                       "failed": traced["failed"],
                       "metrics": {name: entry["value"] for name, entry
                                   in traced["metrics"].items()}},
        }
        for name, entry in record["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {entry['median']:.4g} "
                  f"spread {entry['spread']:.3f}", flush=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
