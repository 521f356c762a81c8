"""The repository benchmark: one command, four workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload skew-radix --seed 42 \
        --seconds 5 --trace 0

Each invocation builds nothing: the program is the pure-Python package
under ``src/``.  The run happens in a fresh child process (``child.py``)
whose working directory is a new temporary directory under
``.perfbench-work/`` in the checkout, and whose environment has every
``REPRO_*`` variable removed except the workload's own settings
(``workloads.py``).  The child's standard-error lines are counted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run.  See
``README.md`` in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import END_TO_END_UNITS, WORKLOADS, _nproc  # noqa: E402

#: A run must end within 180 seconds; leave room to clean up.
CHILD_TIMEOUT_SECONDS = 165
#: Seconds the child's leftover processes get to exit by themselves.
GROUP_GRACE_SECONDS = 5.0


def child_env(workload: str) -> dict:
    """The parent's environment without REPRO_*, plus the workload's."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(WORKLOADS[workload]["env"])
    return env


def host_facts() -> dict:
    facts = {"nproc": _nproc(), "python": platform.python_version(),
             "machine": platform.machine()}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    return facts


def _group_members(pgid: int) -> list:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _end_group(pgid: int, grace_seconds: float) -> None:
    """Let the child's process group exit on its own, then kill the rest.

    Pool workers and the multiprocessing resource tracker exit shortly
    after the child does, and their last standard-error lines are part
    of the count; whatever is still alive after the grace is killed.
    """
    deadline = time.monotonic() + grace_seconds
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while _group_members(pgid):
        time.sleep(0.05)


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_signal)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    out_path = workdir / "result.json"
    stderr_path = workdir / "child.stderr"
    try:
        with open(stderr_path, "wb") as stderr, \
                open(workdir / "child.stdout", "wb") as stdout:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", str(out_path)],
                cwd=workdir, env=child_env(args.workload), stdout=stdout,
                stderr=stderr, stdin=subprocess.DEVNULL,
                start_new_session=True)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                _end_group(proc.pid, 0)
                proc.wait()
                print(f"error: run exceeded {CHILD_TIMEOUT_SECONDS}s",
                      file=sys.stderr)
                return 1
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): take the child's whole
                # process group down with us.
                _end_group(proc.pid, 0)
                proc.wait()
                raise
            # Pool workers or a daemon left behind must not outlive us.
            _end_group(proc.pid, GROUP_GRACE_SECONDS)
        stderr_text = stderr_path.read_text(errors="replace")
        if code != 0 or not out_path.is_file():
            sys.stderr.write(stderr_text[-4000:])
            print(f"error: benchmark child exited with code {code}",
                  file=sys.stderr)
            return 1
        outcome = json.loads(out_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = outcome["info"]
    stderr_lines = stderr_text.count("\n")
    measured = outcome["metrics"]
    if args.trace:
        measured["exec.parallel.stderr_lines"] = stderr_lines
        measured["serve.server.stderr_lines"] = info.get(
            "serve.server.stderr_lines", 0)
        names = [(name, unit) for name, unit in PER_LAYER_METRICS]
    else:
        names = list(END_TO_END_UNITS.items())
    # A failed run may stop before it measures; it exits 1 below.
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in names if name in measured}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"host {json.dumps(host_facts(), sort_keys=True)}")
    print(f"settings {json.dumps(WORKLOADS[args.workload]['env'], sort_keys=True)}"
          f" child_stderr_lines {stderr_lines}")
    print(f"info {json.dumps(info, sort_keys=True)}")
    for error in outcome["errors"]:
        print(f"error {error}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": outcome["correct"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
