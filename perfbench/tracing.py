"""Span recording around the program's layer functions, and the per-layer
metrics derived from the spans.

The benchmark never edits the program.  Instead, ``install()`` replaces
each public layer function listed in :data:`LAYERS` with a wrapper that
records one span per call: layer name, start, end, parent span id and a
group id shared by every span of one join or one served request.  Spans
stay in memory (:class:`Recorder`) and are written out once, at the end.

A module-level function is often imported by value elsewhere
(``from repro.exec.matching import emit_matches``), so ``install()``
rebinds the wrapper at every ``repro.*`` module that holds the original
object, not only at the defining module.  The coverage guard in
``child.py`` fails a traced run whose expected layers recorded no calls,
which is what catches a wrapper bound at the wrong import site.

All timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux), so spans recorded in a daemon process and the window measured by
the benchmark process share one clock.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span id, group id) of the innermost open span of this thread / task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_current_span", default=(0, 0))


def _rows(arg_index: int) -> Callable:
    """Extra: the length of positional argument ``arg_index``."""
    def extra(args, kwargs, result):
        return {"rows": len(args[arg_index])}
    return extra


def _refine_rows(args, kwargs, result):
    return {"rows": int(args[0].n)}


def _written(args, kwargs, result):
    return {"rows": int(result), "buffer": args[0]}


def _paged_in(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _retries(args, kwargs, result):
    return {"retries": int(result.retries)}


def _pool_tasks(args, kwargs, result):
    specs = args[2] if len(args) > 2 else kwargs["task_specs"]
    return {"rows": len(specs)}


def _shared_bytes(args, kwargs, result):
    return {"bytes": int(args[1].nbytes)}


def _pairs(args, kwargs, result):
    return {"rows": int(len(result[0]))}


def _cache_hit(args, kwargs, result):
    return {"hit": bool(result[1])}


#: (layer, "module:qualname", extra) for every wrapped program function.
#: ``extra(args, kwargs, result)`` returns per-call counts kept on the span.
LAYERS: Sequence[Tuple[str, str, Optional[Callable]]] = (
    ("data.generate", "repro.data.zipf:ZipfWorkload.__post_init__", None),
    ("data.generate", "repro.data.zipf:ZipfWorkload.generate", None),
    ("store.write", "repro.store.relations:ColumnStreamWriter.append",
     _rows(1)),
    ("store.write", "repro.store.relations:RelationStreamWriter.finish",
     None),
    ("store.morsel", "repro.store.relations:MappedRelation.morsel", None),
    ("store.page_in", "repro.store.chunks:ChunkStore.read_array", _paged_in),
    ("cpu.partition", "repro.cpu.partition:partition_pass", _rows(0)),
    ("cpu.partition", "repro.cpu.partition:refine_pass", _refine_rows),
    ("gpu.partitioning", "repro.gpu.partitioning:gbase_partition", None),
    ("gpu.partitioning", "repro.gpu.partitioning:gsh_partition", None),
    ("core.csh.hybrid_partition",
     "repro.core.csh.hybrid_partition:partition_r_hybrid", None),
    ("core.csh.hybrid_partition",
     "repro.core.csh.hybrid_partition:partition_s_hybrid", None),
    ("core.gsh.split", "repro.core.gsh.split:split_large_partitions", None),
    ("core.detect", "repro.core.csh.detector:detect_skewed_keys", None),
    ("core.detect", "repro.core.gsh.detector:detect_partition_skew", None),
    ("cpu.chained_table.build",
     "repro.cpu.chained_table:ChainedHashTable.build", _rows(1)),
    ("cpu.chained_table.probe",
     "repro.cpu.chained_table:ChainedHashTable.probe", _rows(1)),
    ("exec.matching.group_stats", "repro.exec.matching:match_group_stats",
     _rows(0)),
    ("exec.matching.expand", "repro.exec.matching:expand_pairs", _pairs),
    ("exec.output.write", "repro.exec.output:JoinOutputBuffer.write_pairs",
     _written),
    ("cpu.threads.schedule",
     "repro.cpu.threads:ThreadPool.static_phase_seconds", None),
    ("cpu.threads.schedule",
     "repro.cpu.threads:ThreadPool.queue_phase_seconds", None),
    ("gpu.simulator.launch", "repro.gpu.simulator:GPUSimulator.launch", None),
    ("faults.recovery", "repro.faults.recovery:run_task_with_recovery",
     _retries),
    ("exec.parallel.pool_run", "repro.exec.parallel.pool:WorkerPool.run",
     _pool_tasks),
    ("exec.parallel.arena_share",
     "repro.exec.parallel.arena:SharedArena.share", _shared_bytes),
    ("serve.protocol.decode", "repro.serve.protocol:decode_message", None),
    ("serve.protocol.encode", "repro.serve.protocol:encode_message", None),
    ("serve.admission.wait", "repro.serve.admission:AdmissionController.admit",
     None),
    ("serve.cache.get_or_build", "repro.serve.cache:BuildCache.get_or_build",
     _cache_hit),
    ("serve.engine.request", "repro.serve.engine:ServeEngine.probe", None),
)

#: Layers whose wrapper opens a new group (one id per served request).
_GROUP_ROOTS = frozenset({"serve.engine.request"})

#: Async context managers: only the wait to enter them is a span.
_ENTER_ONLY = frozenset({"serve.admission.wait"})


class Span:
    __slots__ = ("id", "parent", "group", "layer", "start", "end", "extra")

    def __init__(self, id, parent, group, layer, start, end, extra):
        self.id = id
        self.parent = parent
        self.group = group
        self.layer = layer
        self.start = start
        self.end = end
        self.extra = extra

    def to_dict(self) -> Dict:
        return {"id": self.id, "parent": self.parent, "group": self.group,
                "layer": self.layer, "start": self.start, "end": self.end,
                "extra": self.extra or {}}

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        return cls(data["id"], data["parent"], data["group"], data["layer"],
                   data["start"], data["end"], data.get("extra") or {})


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._groups = itertools.count(1)
        # Output-ring accounting: pairs still retained across all buffers.
        self.retained_pairs = 0

    def new_group(self) -> int:
        return next(self._groups)

    def open(self, layer: str) -> Tuple[int, int, int, contextvars.Token]:
        parent, group = _CURRENT.get()
        span_id = next(self._ids)
        if layer in _GROUP_ROOTS:
            group = self.new_group()
        token = _CURRENT.set((span_id, group))
        return span_id, parent, group, token

    def close(self, span_id, parent, group, layer, start, end, extra,
              token) -> None:
        _CURRENT.reset(token)
        if extra and "buffer" in extra:
            self._account_ring(extra["buffer"], extra["rows"])
            extra = {"rows": extra["rows"]}
        self.spans.append(Span(span_id, parent, group, layer, start, end,
                               extra))

    def _account_ring(self, buffer, n: int) -> None:
        """Track how many written pairs the ring still holds.

        The per-buffer total lives on the buffer object itself, so the
        recorder keeps no reference that would outlive the join.
        """
        before = getattr(buffer, "_perfbench_written", 0)
        after = before + n
        try:
            buffer._perfbench_written = after
        except AttributeError:
            return
        capacity = buffer.capacity
        self.retained_pairs += min(after, capacity) - min(before, capacity)

    @contextlib.contextmanager
    def group(self):
        """Spans opened inside share one fresh group id (one join)."""
        parent, _ = _CURRENT.get()
        token = _CURRENT.set((parent, self.new_group()))
        try:
            yield
        finally:
            _CURRENT.reset(token)


RECORDER = Recorder()


def _wrap(fn: Callable, layer: str, extra: Optional[Callable],
          recorder: Recorder) -> Callable:
    if layer in _ENTER_ONLY:
        @functools.wraps(fn)
        def enter_timed(*args, **kwargs):
            cm = fn(*args, **kwargs)
            return cm if not recorder.enabled else _TimedEnter(
                cm, layer, recorder)
        return enter_timed

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            span_id, parent, group, token = recorder.open(layer)
            start = time.perf_counter()
            counts = None
            try:
                result = await fn(*args, **kwargs)
                if extra is not None:
                    counts = extra(args, kwargs, result)
                return result
            finally:
                recorder.close(span_id, parent, group, layer, start,
                               time.perf_counter(), counts, token)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span_id, parent, group, token = recorder.open(layer)
        start = time.perf_counter()
        counts = None
        try:
            result = fn(*args, **kwargs)
            if extra is not None:
                counts = extra(args, kwargs, result)
            return result
        finally:
            recorder.close(span_id, parent, group, layer, start,
                           time.perf_counter(), counts, token)
    return wrapper


class _TimedEnter:
    """Async context manager proxy whose span is the wait to enter."""

    def __init__(self, cm, layer: str, recorder: Recorder):
        self._cm = cm
        self._layer = layer
        self._recorder = recorder

    async def __aenter__(self):
        span_id, parent, group, token = self._recorder.open(self._layer)
        start = time.perf_counter()
        try:
            return await self._cm.__aenter__()
        finally:
            self._recorder.close(span_id, parent, group, self._layer, start,
                                 time.perf_counter(), None, token)

    async def __aexit__(self, *exc_info):
        return await self._cm.__aexit__(*exc_info)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def install(recorder: Recorder = RECORDER) -> List[str]:
    """Wrap every layer function; returns the targets that were bound.

    Importing the target modules here, before any workload code runs,
    means every later ``from x import f`` already sees the wrapper; the
    rebinding scan covers modules that imported the original earlier.
    """
    bound = []
    for layer, target, extra in LAYERS:
        module, owner, name = _resolve(target)
        original = inspect.getattr_static(owner, name)
        wrapped = _wrap(original, layer, extra, recorder)
        setattr(owner, name, wrapped)
        if owner is module:
            for other in list(sys.modules.values()):
                if (other is not None and other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, name, None) is original):
                    setattr(other, name, wrapped)
        bound.append(target)
    return bound


# ------------------------------------------------------------ analysis


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [(max(a, span.start), min(b, span.end))
                   for a, b in children.get(span.id, ())
                   if b > span.start and a < span.end]
        out[span.id] = (span.end - span.start) - _covered(clipped)
    return out


def _has_ancestor(span: Span, layer: str, by_id: Dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.layer == layer:
            return True
        parent = by_id.get(parent.parent)
    return False


#: Per-layer metrics a traced run measures before the wrappers go on
#: (``child.py``); zero on workloads that do not run the operation.
UNTRACED_METRICS: Sequence[Tuple[str, str]] = (
    ("join_s.cbase", "s"),
    ("join_s.csh", "s"),
    ("join_s.gbase", "s"),
    ("join_s.gsh", "s"),
    ("join_s.cbase-npj", "s"),
    ("serve.cold_probe_p50_ms", "ms"),
)

#: Per-layer metric names, in report order (see README.md for meanings).
PER_LAYER_METRICS: Sequence[Tuple[str, str]] = (
    ("data.generate_s", "s"),
    ("store.write_s", "s"),
    ("store.morsel_s", "s"),
    ("store.morsel_calls", "count"),
    ("store.page_in_s", "s"),
    ("store.pages_in", "count"),
    ("store.bytes_paged_in", "B"),
    ("cpu.partition.pass_s", "s"),
    ("cpu.partition.tuples_moved", "count"),
    ("gpu.partitioning.partition_s", "s"),
    ("core.csh.hybrid_partition_s", "s"),
    ("core.gsh.split_s", "s"),
    ("core.detect_s", "s"),
    ("cpu.chained_table.build_s", "s"),
    ("cpu.chained_table.build_calls", "count"),
    ("cpu.chained_table.build_rows", "count"),
    ("cpu.chained_table.probe_s", "s"),
    ("cpu.chained_table.probe_calls", "count"),
    ("cpu.chained_table.probe_rows", "count"),
    ("exec.matching.group_stats_s", "s"),
    ("exec.matching.group_stats_calls", "count"),
    ("exec.matching.build_rows_scanned", "count"),
    ("exec.matching.rescans_per_build_row", "ratio"),
    ("exec.matching.expand_s", "s"),
    ("exec.matching.pairs_expanded", "count"),
    ("exec.output.write_s", "s"),
    ("exec.output.pairs_written", "count"),
    ("exec.output.retained_ratio", "ratio"),
    ("cpu.threads.schedule_s", "s"),
    ("gpu.simulator.launch_s", "s"),
    ("faults.recovery.tasks", "count"),
    ("faults.recovery.retries", "count"),
    ("exec.parallel.pool_run_s", "s"),
    ("exec.parallel.pool_run_calls", "count"),
    ("exec.parallel.tasks", "count"),
    ("exec.parallel.arena_share_bytes", "B"),
    ("exec.parallel.arena_share_s", "s"),
    ("exec.parallel.stderr_lines", "count"),
    ("serve.protocol.decode_s", "s"),
    ("serve.protocol.encode_s", "s"),
    ("serve.admission.wait_s", "s"),
    ("serve.cache.get_or_build_s", "s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.engine.probe_busy_s", "s"),
    ("serve.engine.probe_wall_s", "s"),
    ("serve.server.stderr_lines", "count"),
    ("unattributed_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
) + tuple(UNTRACED_METRICS)

#: Self-time metric -> layer it sums.
_SELF_TIME = {
    "data.generate_s": "data.generate",
    "store.write_s": "store.write",
    "store.morsel_s": "store.morsel",
    "store.page_in_s": "store.page_in",
    "cpu.partition.pass_s": "cpu.partition",
    "gpu.partitioning.partition_s": "gpu.partitioning",
    "core.csh.hybrid_partition_s": "core.csh.hybrid_partition",
    "core.gsh.split_s": "core.gsh.split",
    "core.detect_s": "core.detect",
    "cpu.chained_table.build_s": "cpu.chained_table.build",
    "cpu.chained_table.probe_s": "cpu.chained_table.probe",
    "exec.matching.group_stats_s": "exec.matching.group_stats",
    "exec.matching.expand_s": "exec.matching.expand",
    "exec.output.write_s": "exec.output.write",
    "cpu.threads.schedule_s": "cpu.threads.schedule",
    "gpu.simulator.launch_s": "gpu.simulator.launch",
    "exec.parallel.pool_run_s": "exec.parallel.pool_run",
    "exec.parallel.arena_share_s": "exec.parallel.arena_share",
    "serve.protocol.decode_s": "serve.protocol.decode",
    "serve.protocol.encode_s": "serve.protocol.encode",
    "serve.admission.wait_s": "serve.admission.wait",
    "serve.cache.get_or_build_s": "serve.cache.get_or_build",
}

#: Call-count metric -> layer it counts.
_CALLS = {
    "store.morsel_calls": "store.morsel",
    "store.pages_in": "store.page_in",
    "cpu.chained_table.build_calls": "cpu.chained_table.build",
    "cpu.chained_table.probe_calls": "cpu.chained_table.probe",
    "exec.matching.group_stats_calls": "exec.matching.group_stats",
    "faults.recovery.tasks": "faults.recovery",
    "exec.parallel.pool_run_calls": "exec.parallel.pool_run",
}

#: Summed-extra metric -> (layer, extra key).
_SUMS = {
    "store.bytes_paged_in": ("store.page_in", "bytes"),
    "cpu.partition.tuples_moved": ("cpu.partition", "rows"),
    "cpu.chained_table.build_rows": ("cpu.chained_table.build", "rows"),
    "cpu.chained_table.probe_rows": ("cpu.chained_table.probe", "rows"),
    "exec.matching.build_rows_scanned": ("exec.matching.group_stats", "rows"),
    "exec.matching.pairs_expanded": ("exec.matching.expand", "rows"),
    "exec.output.pairs_written": ("exec.output.write", "rows"),
    "faults.recovery.retries": ("faults.recovery", "retries"),
    "exec.parallel.tasks": ("exec.parallel.pool_run", "rows"),
    "exec.parallel.arena_share_bytes": ("exec.parallel.arena_share", "bytes"),
}


def layer_calls(spans: Sequence[Span]) -> Dict[str, int]:
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.layer] += 1
    return dict(calls)


def layer_metrics(spans: Sequence[Span], window: Tuple[float, float],
                  retained_pairs: int) -> Dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    ``window`` is the traced run's (start, end); ``unattributed_s`` is the
    part of it no span covers, which equals the window minus the self
    time of every layer whenever spans nest (in-process runs) and stays
    non-negative when served requests interleave on the event loop.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    values: Dict[str, float] = defaultdict(float)
    calls = layer_calls(spans)
    for metric, layer in _SELF_TIME.items():
        values[metric] = sum(own[s.id] for s in spans if s.layer == layer)
    for metric, layer in _CALLS.items():
        values[metric] = float(calls.get(layer, 0))
    for metric, (layer, key) in _SUMS.items():
        values[metric] = float(sum((s.extra or {}).get(key, 0)
                                   for s in spans if s.layer == layer))

    # Build-index reuse: group-stat scans made by chained-table probes,
    # per row those tables inserted.  Partitioned joins build and probe
    # each table once (ratio 1); a build probed k times scans R k times.
    probe_scans = sum(
        (s.extra or {}).get("rows", 0) for s in spans
        if s.layer == "exec.matching.group_stats"
        and _has_ancestor(s, "cpu.chained_table.probe", by_id))
    inserted = values["cpu.chained_table.build_rows"]
    values["exec.matching.rescans_per_build_row"] = (
        probe_scans / inserted if inserted else 0.0)
    written = values["exec.output.pairs_written"]
    values["exec.output.retained_ratio"] = (
        retained_pairs / written if written else 0.0)

    lookups = [s for s in spans if s.layer == "serve.cache.get_or_build"]
    hits = sum(1 for s in lookups if (s.extra or {}).get("hit"))
    values["serve.cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    # Probe busy time: synchronous chained-table probes inside requests.
    values["serve.engine.probe_busy_s"] = sum(
        s.end - s.start for s in spans
        if s.layer == "cpu.chained_table.probe"
        and _has_ancestor(s, "serve.engine.request", by_id))
    # Probe wall: each request's span minus its admission wait and its
    # cache lookup (which holds any cold build), so it covers the morsel
    # loop including the awaits where other requests interleave.
    request_wall = 0.0
    for span in spans:
        if span.layer != "serve.engine.request":
            continue
        excluded = sum(c.end - c.start for c in spans
                       if c.parent == span.id and c.layer in (
                           "serve.admission.wait",
                           "serve.cache.get_or_build"))
        request_wall += (span.end - span.start) - excluded
    values["serve.engine.probe_wall_s"] = request_wall

    start, end = window
    inside = [(max(s.start, start), min(s.end, end)) for s in spans
              if s.end > start and s.start < end]
    values["unattributed_s"] = (end - start) - _covered(inside)
    return dict(values)
