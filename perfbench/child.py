"""One benchmark run: set up a workload, measure it, check every answer.

``run.py`` starts this script in a fresh process with a clean
environment and a temporary working directory; it writes its outcome to
``result.json`` there.  Usage (normally only through ``run.py``)::

    python3 perfbench/child.py --workload skew-radix --seed 42 \
        --seconds 10 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import tracing
from calibrate import Calibration
from oracle import KeyHistogram, expected_join
from workloads import SKEW_ALGORITHMS, WORKLOADS

HERE = Path(__file__).resolve().parent


SKEW_TUPLES = 1 << 20
SKEW_THETA = 1.0

NPJ_R = 1 << 16
NPJ_S = 1 << 22
NPJ_THETA = 0.5
NPJ_THREADS = 64
NPJ_MIN_JOINS = 3

SERVE_BUILD = 1 << 16
SERVE_THETA = 0.5
SERVE_PROBE_TUPLES = 512
SERVE_MORSEL_TUPLES = 64
SERVE_CONNECTIONS = 2
#: Every 16th operation on a connection drops the cached build.  The
#: protocol's ``invalidate`` also forgets the relation, which would fail
#: the other connection's probes until a re-register; re-registering the
#: same spec bumps the version and drops the cached build in one step.
SERVE_INVALIDATE_EVERY = 16
#: Distinct probe requests drawn per run (cycled through by the load).
SERVE_PROBE_POOL = 64
#: p95 needs ten samples beyond it.
SERVE_MIN_WARM = 200
SERVE_MAX_SECONDS = 120.0
#: Operations per connection in one round of the loop, and in each half
#: of a traced served run; a multiple of SERVE_INVALIDATE_EVERY.
SERVE_ROUND_OPS = 32
SERVE_START_TIMEOUT = 60.0


class Run:
    """Outcome bookkeeping shared by every workload."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.workdir = Path.cwd()
        self.attempted = 0
        self.failed = 0
        #: Run-level failures that no single operation owns.
        self.problems: List[str] = []
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.calibration = Calibration()

    def check(self, label: str, got, want) -> bool:
        """Count one operation; False (and a failure) on a wrong answer."""
        self.attempted += 1
        if any(tuple(g) != tuple(want) for g in got):
            self.failed += 1
            self.errors.append(f"{label}: got {got}, expected {want}")
            return False
        return True

    def fail(self, label: str, reason: str) -> None:
        """Count one operation that raised, was refused or dropped."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{label}: {reason}")

    def problem(self, reason: str) -> None:
        """Fail the run as a whole (coverage guard, too few samples)."""
        self.problems.append(reason)
        self.errors.append(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def calibrate_metrics(self) -> None:
        """Scale the measured times to the reference speed (calibrate.py);
        the raw figures and the factor go into the run details."""
        factor = self.calibration.factor()
        self.info["raw_metrics"] = dict(self.metrics)
        self.info["calibration_factor"] = factor
        self.info["reference_ms"] = [round(1000.0 * t, 2)
                                     for t in self.calibration.samples]
        for name in ("setup_s", "op_cpu_p50_ms", "op_cpu_p95_ms"):
            self.metrics[name] *= factor
        self.metrics["tuples_per_cpu_s"] /= factor


# ----------------------------------------------------------- processes


def _descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (pool workers, trackers)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in parents.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss(pids: List[int]) -> None:
    """Drop each process's high-water mark to its current residency.

    Free heap pages of this process go back to the system first, so
    memory the set-up released does not count as residency.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass


def process_tree() -> List[int]:
    return [os.getpid()] + _descendants(os.getpid())


def peak_rss_mib(pids: List[int]) -> float:
    return sum(_vm_hwm_kib(pid) for pid in pids) / 1024.0


# ------------------------------------------------------------ CPU time


def _cpu_clock(pid: int) -> int:
    """The clock id of ``pid``'s process-wide CPU time, as
    ``clock_getcpuclockid`` makes it: all threads, dead ones included."""
    return ((~pid) << 3) | 2


def cpu_seconds(pids: List[int]) -> Dict[int, float]:
    """CPU seconds each live process of ``pids`` has used so far.

    The kernel's task clock leaves out the time a virtual CPU was taken
    away by the hypervisor (steal) or the task waited for a CPU, so the
    difference of two readings is the work the processes did in
    between, whatever else the host was running.
    """
    used = {}
    for pid in pids:
        try:
            used[pid] = time.clock_gettime(_cpu_clock(pid))
        except OSError:
            pass
    return used


def cpu_spent(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds between two readings; a process born in between
    counts from zero, one that ended in between drops out."""
    return sum(t - before.get(pid, 0.0) for pid, t in after.items())


def host_steal_ticks() -> Tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


# -------------------------------------------------------------- set-up


def _clear_program_caches() -> None:
    """Make a repeated set-up as cold as the first one."""
    from repro.data.zipf import clear_zipf_cache
    clear_zipf_cache()


def timed_setups(run: Run, setup: Callable[[int], object],
                 program_pids: Callable[[], List[int]],
                 discard: Callable[[object], None] = lambda value: None,
                 ) -> Tuple[object, float]:
    """Set up the workload's ``setup_repeats`` times.

    Returns the last set-up's value and the median CPU seconds the
    program's processes (``program_pids``, listed before and after each
    set-up) spent in one set-up; ``discard`` releases each earlier
    value, outside the timing.  A calibration point follows every
    set-up.  The wall times go into the run details.
    """
    cpu, wall, value = [], [], None
    for i in range(WORKLOADS[run.workload]["setup_repeats"]):
        if value is not None:
            discard(value)
            value = None
        _clear_program_caches()
        before = cpu_seconds(program_pids())
        start = time.perf_counter()
        value = setup(i)
        wall.append(time.perf_counter() - start)
        cpu.append(cpu_spent(before, cpu_seconds(program_pids())))
        run.calibration.point()
    run.info["setup_cpu_s"] = cpu
    run.info["setup_wall_s"] = wall
    return value, statistics.median(cpu)


# ---------------------------------------------------- partitioned joins


def _skew_setup(run: Run, parallel: bool):
    from repro import ZipfWorkload

    def setup(_i):
        join_input = ZipfWorkload(n_r=SKEW_TUPLES, n_s=SKEW_TUPLES,
                                  theta=SKEW_THETA, seed=run.seed).generate()
        if parallel:
            # Engage the pool the way a join phase does: availability
            # probe first, then the workers (the order decides which
            # process owns the shared-memory resource tracker).
            from repro.exec.parallel import min_parallel_tuples, morsel_pool
            if morsel_pool(max(min_parallel_tuples(), 1)) is None:
                raise RuntimeError("the parallel backend did not engage")
        return join_input
    return setup


def _shutdown_pool(_value=None) -> None:
    from repro.exec.parallel.pool import shutdown_pool
    shutdown_pool()


def _skew_pass(run: Run, join_input, expected, times: Dict[str, list],
               cpu: Optional[List[float]] = None):
    """One join per algorithm: wall times into ``times``, and the CPU
    seconds of the program's processes per join into ``cpu``."""
    from repro import make_join

    for algorithm in SKEW_ALGORITHMS:
        with tracing.RECORDER.group():
            before = cpu_seconds(process_tree()) if cpu is not None else None
            start = time.perf_counter()
            result = make_join(algorithm).run(join_input)
            times[algorithm].append(time.perf_counter() - start)
            if cpu is not None:
                cpu.append(cpu_spent(before, cpu_seconds(process_tree())))
                run.calibration.point()
        run.check(algorithm, [(result.output_count, result.output_checksum)],
                  expected)


def skew_radix(run: Run, parallel: bool = False) -> None:
    setup = _skew_setup(run, parallel)
    if run.trace:
        join_input = setup(0)
        expected = expected_join(join_input.r.keys, join_input.r.payloads,
                                 join_input.s.keys, join_input.s.payloads)

        def unit(join_input):
            times = {a: [] for a in SKEW_ALGORITHMS}
            _skew_pass(run, join_input, expected, times)
            return times
        traced_in_process(run, join_input, unit, lambda: setup(0))
        return
    join_input, run.metrics["setup_s"] = timed_setups(
        run, setup, process_tree,
        _shutdown_pool if parallel else (lambda value: None))
    expected = expected_join(join_input.r.keys, join_input.r.payloads,
                             join_input.s.keys, join_input.s.payloads)
    pids = process_tree()
    reset_peak_rss(pids)
    times: Dict[str, list] = {a: [] for a in SKEW_ALGORITHMS}
    cpu: List[float] = []
    # Whole passes over the four algorithms until run.seconds have passed
    # and the workload's min_passes were made.  One pass takes 7-14 s on
    # the recording host, so a run there makes exactly min_passes.
    steal = host_steal_ticks()
    start = time.perf_counter()
    while True:
        _skew_pass(run, join_input, expected, times, cpu)
        if (time.perf_counter() - start >= run.seconds
                and len(times[SKEW_ALGORITHMS[0]])
                >= WORKLOADS[run.workload]["min_passes"]):
            break
    run.info["host_steal_share"] = steal_share(steal, host_steal_ticks())
    run.metrics["peak_rss_mib"] = peak_rss_mib(process_tree())
    # The operation is one pass: the four joins of one Fig. 4 data point.
    passes = len(times[SKEW_ALGORITHMS[0]])
    n = len(SKEW_ALGORITHMS)
    record_operations(run, [sum(cpu[i * n:(i + 1) * n])
                            for i in range(passes)],
                      [sum(times[a][i] for a in SKEW_ALGORITHMS)
                       for i in range(passes)],
                      len(cpu) * 2 * SKEW_TUPLES)
    run.info["join_s"] = times
    run.info["passes"] = passes
    run.info["expected"] = list(expected)


# ----------------------------------------------------- probe many times


def _write_store(directory: Path, join_input, seed: int) -> None:
    from repro.store.relations import (RelationStreamWriter,
                                       resolve_stream_chunk_tuples)

    chunk = resolve_stream_chunk_tuples()
    writer = RelationStreamWriter(directory)
    for role, relation in (("r", join_input.r), ("s", join_input.s)):
        for column in ("keys", "payloads"):
            values = getattr(relation, column)
            stream = writer.column(role, relation.name, column, values.dtype)
            for start in range(0, len(values), chunk):
                stream.append(values[start:start + chunk])
    writer.finish(meta={"generator": "zipf", "theta": NPJ_THETA,
                        "seed": seed})


def _probe_many_setup(run: Run):
    from repro import ZipfWorkload

    def setup(i):
        directory = run.workdir / f"store-{i}"
        join_input = ZipfWorkload(n_r=NPJ_R, n_s=NPJ_S, theta=NPJ_THETA,
                                  seed=run.seed).generate()
        _write_store(directory, join_input, run.seed)
        return directory, join_input
    return setup


def _npj_join(run: Run, directory: Path, expected,
              cpu: Optional[List[float]] = None) -> float:
    """One join, store open to close; returns its wall seconds and puts
    the CPU seconds of the program's processes into ``cpu``."""
    from repro import make_join
    from repro.cpu.no_partition_join import NoPartitionConfig
    from repro.store.relations import open_join_input

    with tracing.RECORDER.group():
        before = cpu_seconds(process_tree()) if cpu is not None else None
        start = time.perf_counter()
        join_input, store = open_join_input(directory)
        try:
            result = make_join("cbase-npj", NoPartitionConfig(
                n_threads=NPJ_THREADS)).run(join_input)
        finally:
            store.close()
        elapsed = time.perf_counter() - start
        if cpu is not None:
            cpu.append(cpu_spent(before, cpu_seconds(process_tree())))
            run.calibration.point()
    run.check("cbase-npj", [(result.output_count, result.output_checksum)],
              expected)
    return elapsed


def probe_many(run: Run) -> None:
    setup = _probe_many_setup(run)
    if run.trace:
        directory, join_input = setup(0)
        expected = expected_join(join_input.r.keys, join_input.r.payloads,
                                 join_input.s.keys, join_input.s.payloads)
        del join_input
        traced_in_process(run, directory,
                          lambda d: {"cbase-npj": [_npj_join(run, d,
                                                             expected)]},
                          lambda: setup(1)[0])
        return
    (directory, join_input), run.metrics["setup_s"] = timed_setups(
        run, setup, process_tree, lambda value: shutil.rmtree(value[0]))
    expected = expected_join(join_input.r.keys, join_input.r.payloads,
                             join_input.s.keys, join_input.s.payloads)
    del join_input
    pids = process_tree()
    reset_peak_rss(pids)
    times, cpu = [], []
    steal = host_steal_ticks()
    start = time.perf_counter()
    while True:
        times.append(_npj_join(run, directory, expected, cpu))
        if (time.perf_counter() - start >= run.seconds
                and len(times) >= NPJ_MIN_JOINS):
            break
    run.info["host_steal_share"] = steal_share(steal, host_steal_ticks())
    run.metrics["peak_rss_mib"] = peak_rss_mib(process_tree())
    record_operations(run, cpu, times, len(cpu) * (NPJ_R + NPJ_S))
    run.info["join_s"] = times
    run.info["expected"] = list(expected)


# -------------------------------------------------------- traced runs


def traced_in_process(run: Run, state, unit: Callable,
                      traced_setup: Callable) -> None:
    """Untraced units, then wrappers on, set-up + unit again, traced.

    The first untraced unit warms the process up, so the second one and
    the traced unit both run warm; ``trace_overhead_ratio`` is the traced
    unit's wall over the second untraced one, and the ``join_s.*``
    metrics are the second untraced unit's join times (``unit`` returns
    them per algorithm).  The other per-layer metrics cover the traced
    set-up and unit.
    """
    unit(state)
    start = time.perf_counter()
    join_times = unit(state)
    untraced = time.perf_counter() - start
    for algorithm, times in join_times.items():
        run.metrics[f"join_s.{algorithm}"] = statistics.median(times)
    tracing.install()
    recorder = tracing.RECORDER
    recorder.enabled = True
    _clear_program_caches()
    window_start = time.perf_counter()
    state = traced_setup()
    start = time.perf_counter()
    unit(state)
    window_end = time.perf_counter()
    recorder.enabled = False
    finish_trace(run, recorder.spans, (window_start, window_end),
                 recorder.retained_pairs, (window_end - start) / untraced)


def finish_trace(run: Run, spans, window, retained_pairs: int,
                 overhead_ratio: float) -> None:
    values = tracing.layer_metrics(spans, window, retained_pairs)
    values["trace_overhead_ratio"] = overhead_ratio
    values["fail_ratio"] = run.failed / max(run.attempted, 1)
    for name, _ in tracing.UNTRACED_METRICS:
        values[name] = run.metrics.get(name, 0.0)
    run.metrics.update(values)
    calls = tracing.layer_calls(spans)
    run.info["layer_calls"] = calls
    missing = [layer for layer in WORKLOADS[run.workload]["layers"]
               if not calls.get(layer)]
    if missing:
        run.problem("coverage guard: layers expected active recorded no "
                    "calls: " + ", ".join(missing))
        run.info["coverage_missing"] = missing


# -------------------------------------------------------------- served


class Daemon:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, run: Run, index: int, spans_out: Optional[Path]):
        self.stderr_path = run.workdir / f"daemon-{index}.stderr"
        self.spans_out = spans_out
        argv = [sys.executable, str(HERE / "serve_launcher.py")]
        if spans_out is not None:
            argv += ["--spans-out", str(spans_out)]
        argv += ["serve", "--host", "127.0.0.1", "--port", "0"]
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._stderr,
                                     stdin=subprocess.DEVNULL)
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + SERVE_START_TIMEOUT
        buffered = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            data = os.read(fd, 4096)
            if not data:
                break
            buffered += data
            for line in buffered.split(b"\n"):
                if b"listening on " in line:
                    address = line.split(b"listening on ")[1].split()[0]
                    return int(address.rsplit(b":", 1)[1])
        self.stop()
        raise RuntimeError(
            f"daemon did not report a listening port: {buffered[-500:]!r}")

    def peak_rss_mib(self) -> float:
        return peak_rss_mib([self.proc.pid])

    def pids(self) -> List[int]:
        return [self.proc.pid] if self.proc.poll() is None else []

    def cpu_seconds(self) -> float:
        return time.clock_gettime(_cpu_clock(self.proc.pid))

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill only if it does not exit."""
        if self.proc.poll() is None:
            try:
                asyncio.run(_shutdown(self.port))
            except (OSError, RuntimeError, asyncio.TimeoutError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()

    def stderr_lines(self) -> int:
        with open(self.stderr_path, "rb") as fh:
            return sum(1 for _ in fh)


async def _open(port: int):
    return await asyncio.wait_for(asyncio.open_connection(
        "127.0.0.1", port, limit=1 << 26), timeout=10)


async def _request(reader, writer, line: bytes, request_id: str):
    """Send one request line; return (final message, chunk messages)."""
    writer.write(line)
    await writer.drain()
    chunks = []
    while True:
        raw = await reader.readline()
        if not raw:
            raise ConnectionError("connection closed by the server")
        message = json.loads(raw)
        if message.get("request_id") != request_id:
            raise ConnectionError(f"reply for another request: {raw[:200]!r}")
        if message.get("type") == "chunk":
            chunks.append(message)
            continue
        return message, chunks


def _line(message: Dict) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


async def _shutdown(port: int) -> None:
    reader, writer = await _open(port)
    try:
        await asyncio.wait_for(_request(
            reader, writer, _line({"op": "shutdown", "request_id": "bye"}),
            "bye"), timeout=30)
    finally:
        writer.close()


class ServeLoad:
    """The served workload's data: build spec, probe pool, oracles."""

    def __init__(self, seed: int):
        from repro import ZipfWorkload

        generated = ZipfWorkload(SERVE_BUILD, SERVE_BUILD, SERVE_THETA,
                                 seed=seed).generate()
        build = KeyHistogram(generated.r.keys, generated.r.payloads)
        rng = np.random.default_rng([seed, 7])
        self.spec = {"generator": "zipf", "n": SERVE_BUILD,
                     "theta": SERVE_THETA, "seed": seed, "side": "r"}
        self.probes: List[Tuple[bytes, Tuple[int, int]]] = []
        for _ in range(SERVE_PROBE_POOL):
            index = rng.integers(0, len(generated.s), SERVE_PROBE_TUPLES)
            keys = generated.s.keys[index]
            payloads = generated.s.payloads[index]
            spec = json.dumps({"generator": "inline",
                               "keys": keys.tolist(),
                               "payloads": payloads.tolist()},
                              separators=(",", ":"))
            head = ('{"op":"probe","relation_id":"build","morsel_tuples":'
                    f'{SERVE_MORSEL_TUPLES},"probe":{spec},"request_id":"')
            self.probes.append((head.encode(),
                                build.join(KeyHistogram(keys, payloads))))

    def register_line(self, request_id: str) -> bytes:
        return _line({"op": "register", "request_id": request_id,
                      "relation_id": "build", "relation": self.spec})

    def probe_line(self, index: int, request_id: str) -> bytes:
        head, _ = self.probes[index % len(self.probes)]
        return head + request_id.encode() + b'"}\n'

    def expected(self, index: int) -> Tuple[int, int]:
        return self.probes[index % len(self.probes)][1]


def _reply_answer(reply: Dict, chunks: List[Dict]):
    result = reply.get("result") or {}
    streamed = (sum(c.get("count", 0) for c in chunks),
                sum(c.get("checksum", 0) for c in chunks) % (1 << 64))
    return (result.get("output_count"), result.get("output_checksum")), \
        streamed


async def _setup_daemon(run: Run, load: ServeLoad, daemon: Daemon) -> None:
    """Register the build by spec and pay the first cold probe."""
    reader, writer = await _open(daemon.port)
    try:
        reply, _ = await _request(reader, writer,
                                  load.register_line("register"), "register")
        if reply.get("type") != "registered":
            raise RuntimeError(f"register failed: {reply}")
        reply, chunks = await _request(
            reader, writer, load.probe_line(0, "first"), "first")
        _check_probe(run, "first probe", reply, chunks, load.expected(0))
    finally:
        writer.close()


def _check_probe(run: Run, label: str, reply: Dict, chunks: List[Dict],
                 expected: Tuple[int, int]) -> bool:
    """Both the final result and the streamed chunks must match."""
    if reply.get("type") != "result":
        run.fail(label, f"typed error {reply.get('error')}")
        return False
    return run.check(label, list(_reply_answer(reply, chunks)), expected)


async def closed_loop(run: Run, load: ServeLoad, daemon: Daemon) -> Dict:
    """One round: a closed loop of SERVE_ROUND_OPS operations on each of
    SERVE_CONNECTIONS connections from this process.

    Each warm probe is timed twice: wall seconds from send to reply, and
    the daemon's CPU seconds over that interval (which include the other
    connection's interleaved work).
    """
    warm: List[float] = []
    warm_cpu: List[float] = []
    cold: List[float] = []
    done = {"ops": 0, "tuples": 0}
    port = daemon.port
    cpu_start = daemon.cpu_seconds()
    start = time.perf_counter()

    async def connection(c: int) -> None:
        try:
            reader, writer = await _open(port)
        except (OSError, asyncio.TimeoutError) as exc:
            run.fail(f"connection {c}", f"connect failed: {exc}")
            return
        i = 0
        try:
            while i < SERVE_ROUND_OPS:
                request_id = f"c{c}-{i}"
                label = f"connection {c} op {i}"
                if i % SERVE_INVALIDATE_EVERY == SERVE_INVALIDATE_EVERY - 1:
                    reply, _ = await _request(
                        reader, writer, load.register_line(request_id),
                        request_id)
                    if reply.get("type") == "registered":
                        run.attempted += 1
                    else:
                        run.fail(label, f"re-register failed: {reply}")
                else:
                    index = c + SERVE_CONNECTIONS * i
                    sent_cpu = daemon.cpu_seconds()
                    sent = time.perf_counter()
                    reply, chunks = await _request(
                        reader, writer, load.probe_line(index, request_id),
                        request_id)
                    latency = time.perf_counter() - sent
                    latency_cpu = daemon.cpu_seconds() - sent_cpu
                    if _check_probe(run, label, reply, chunks,
                                    load.expected(index)):
                        if reply.get("cache_hit"):
                            warm.append(latency)
                            warm_cpu.append(latency_cpu)
                        else:
                            cold.append(latency)
                        done["tuples"] += SERVE_PROBE_TUPLES
                done["ops"] += 1
                i += 1
        except (OSError, EOFError, ValueError) as exc:
            run.fail(f"connection {c} op {i}", f"connection dropped: {exc}")
        finally:
            writer.close()

    await asyncio.gather(*(connection(c) for c in range(SERVE_CONNECTIONS)))
    return {"wall": time.perf_counter() - start,
            "cpu": daemon.cpu_seconds() - cpu_start, "warm": warm,
            "warm_cpu": warm_cpu, "cold": cold, **done}


def _start_and_setup(run: Run, load: ServeLoad, index: int,
                     spans_out: Optional[Path] = None) -> Daemon:
    daemon = Daemon(run, index, spans_out)
    try:
        asyncio.run(_setup_daemon(run, load, daemon))
    except BaseException:
        daemon.stop()
        raise
    return daemon


def served(run: Run) -> None:
    load = ServeLoad(run.seed)
    daemons: List[Daemon] = []
    try:
        if run.trace:
            served_traced(run, load, daemons)
            return

        def setup(i):
            daemons.append(_start_and_setup(run, load, i))
            return daemons[-1]
        daemon, run.metrics["setup_s"] = timed_setups(
            run, setup, lambda: [p for d in daemons for p in d.pids()],
            lambda previous: previous.stop())
        steal = host_steal_ticks()
        outcome = served_rounds(run, load, daemon)
        run.info["host_steal_share"] = steal_share(steal, host_steal_ticks())
        run.metrics["peak_rss_mib"] = daemon.peak_rss_mib()
        daemon.stop()
        wall = outcome["wall"]
        if len(outcome["warm"]) < SERVE_MIN_WARM:
            run.problem(f"only {len(outcome['warm'])} warm probes in "
                        f"{wall:.0f} s, {SERVE_MIN_WARM} needed")
            return
        # Probe tuples per daemon CPU second over the whole loop (cold
        # builds and re-registers included); latency over warm probes.
        record_operations(run, outcome["warm_cpu"], outcome["warm"],
                          outcome["tuples"], outcome["cpu"])
        cold_ms = [1000.0 * t for t in outcome["cold"]]
        run.info.update({"warm_probes": len(outcome["warm"]),
                         "cold_probes": len(cold_ms),
                         "cold_probe_p50_ms": statistics.median(cold_ms)
                         if cold_ms else None,
                         "wall_tuples_per_s": outcome["tuples"] / wall,
                         "requests_per_s": outcome["ops"] / wall,
                         "operations": outcome["ops"],
                         "loop_s": wall, "loop_daemon_cpu_s": outcome["cpu"]})
    finally:
        for daemon in daemons:
            daemon.stop()
        run.info["serve.server.stderr_lines"] = sum(
            d.stderr_lines() for d in daemons)


def served_rounds(run: Run, load: ServeLoad, daemon: Daemon) -> Dict:
    """Rounds of the closed loop until ``run.seconds`` of loop have passed
    and SERVE_MIN_WARM warm probes completed (capped at SERVE_MAX_SECONDS),
    with a calibration point after every round, while the daemon idles.
    """
    total: Dict = {"wall": 0.0, "cpu": 0.0, "warm": [], "warm_cpu": [],
                   "cold": [], "ops": 0, "tuples": 0}
    while True:
        outcome = asyncio.run(closed_loop(run, load, daemon))
        run.calibration.point()
        for key, value in outcome.items():
            total[key] += value
        if total["wall"] >= SERVE_MAX_SECONDS or (
                total["wall"] >= run.seconds
                and len(total["warm"]) >= SERVE_MIN_WARM) or run.failed:
            return total


def served_traced(run: Run, load: ServeLoad, daemons: List[Daemon]) -> None:
    """Untraced daemon and loop, then the same through a traced daemon."""
    daemons.append(_start_and_setup(run, load, 0))
    outcome = asyncio.run(closed_loop(run, load, daemons[0]))
    untraced = outcome["wall"]
    daemons[0].stop()
    if outcome["cold"]:
        run.metrics["serve.cold_probe_p50_ms"] = 1000.0 * statistics.median(
            outcome["cold"])
    spans_path = run.workdir / "daemon-spans.json"
    window_start = time.perf_counter()
    daemons.append(_start_and_setup(run, load, 1, spans_path))
    traced = asyncio.run(closed_loop(run, load, daemons[1]))["wall"]
    window_end = time.perf_counter()
    daemons[1].stop()
    with open(spans_path) as fh:
        dump = json.load(fh)
    spans = [tracing.Span.from_dict(s) for s in dump["spans"]]
    finish_trace(run, spans, (window_start, window_end),
                 dump["retained_pairs"], traced / untraced)


def record_operations(run: Run, cpu: List[float], wall: List[float],
                      tuples: int, cpu_total: Optional[float] = None,
                      ) -> None:
    """The end-to-end figures of the run's operations.

    ``cpu`` holds the CPU seconds of each operation, ``wall`` its wall
    seconds (printed with the run details, not gated); ``tuples`` input
    tuples were processed in ``cpu_total`` CPU seconds (by default the
    operations' own).  ``Run.calibrate_metrics`` scales them later.
    """
    ms = [1000.0 * t for t in cpu]
    run.metrics["tuples_per_cpu_s"] = tuples / (
        sum(cpu) if cpu_total is None else cpu_total)
    run.metrics["op_cpu_p50_ms"] = statistics.median(ms)
    run.metrics["op_cpu_p95_ms"] = percentile(ms, 95)
    wall_ms = [1000.0 * t for t in wall]
    run.info["wall_op_p50_ms"] = statistics.median(wall_ms)
    run.info["wall_op_p95_ms"] = percentile(wall_ms, 95)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    run = Run(args)
    if run.workload == "skew-radix":
        skew_radix(run)
    elif run.workload == "skew-radix-par":
        skew_radix(run, parallel=True)
        from repro.exec.parallel.pool import shutdown_pool
        shutdown_pool()
    elif run.workload == "probe-many":
        probe_many(run)
    else:
        served(run)
    if not run.trace and run.correct:
        run.calibrate_metrics()
    with open(args.out, "w") as fh:
        json.dump({"correct": run.correct,
                   "attempted": run.attempted, "failed": run.failed,
                   "metrics": run.metrics, "errors": run.errors[:20],
                   "info": run.info}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
