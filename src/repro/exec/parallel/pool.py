"""The persistent morsel pool behind the ``parallel`` backend.

One pool per process, sized by ``REPRO_WORKERS`` (default: the machine's
core count).  Workers are the threads of one
:class:`~concurrent.futures.ThreadPoolExecutor` pulling morsels off its
single queue — morsel-driven scheduling: whichever thread frees up first
takes the next morsel, so a skewed morsel never idles the rest of the
pool.  Kernels run on the pipeline's own arrays (numpy releases the GIL in
the sort, searchsorted and scatter work they do) and write disjoint
slices, so nothing is copied, pickled or forked.

With one worker the pool runs **inline**: morsels execute on the calling
thread.  Single-core machines (and the tiny inputs of the test grid)
therefore pay nothing for selecting the parallel backend.

Determinism does not depend on the worker count: morsel decomposition is
fixed by the driver (the same per-thread segments the simulated
:class:`~repro.cpu.threads.ThreadPool` prices), and every merge the
driver performs is order-independent or index-ordered.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigError, ExecutionError
from repro.exec.cancel import checkpoint

#: Environment variable fixing the pool size (default: os.cpu_count()).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable for the morsel engagement threshold, in tuples.
MIN_TUPLES_ENV = "REPRO_PARALLEL_MIN_TUPLES"

#: Below this many tuples a phase stays on the inline vector path: task
#: hand-off latency would dwarf the compute of a tiny morsel.
DEFAULT_MIN_PARALLEL_TUPLES = 16384

#: Seconds between cancellation checkpoints while morsels run.
_CHECKPOINT_SECONDS = 0.05


def _env_int(env: str, default: int, minimum: int, what: str) -> int:
    raw = os.environ.get(env, "").strip()
    if not raw:
        return default
    try:
        n: Optional[int] = int(raw)
    except ValueError:
        n = None
    if n is None or n < minimum:
        raise ConfigError(f"{env} must be a {what} integer, got {raw!r}",
                          env=env, value=raw)
    return n


def worker_count() -> int:
    """The configured pool size: ``REPRO_WORKERS``, else the core count."""
    return _env_int(WORKERS_ENV, max(os.cpu_count() or 1, 1), 1, "positive")


def min_parallel_tuples() -> int:
    """The engagement threshold: phases below it stay on the vector path."""
    return _env_int(MIN_TUPLES_ENV, DEFAULT_MIN_PARALLEL_TUPLES, 0,
                    "non-negative")


def _kernel_error(kernel: Callable, task_id: int,
                  exc: BaseException) -> ExecutionError:
    name = getattr(kernel, "__name__", repr(kernel))
    detail = f"{type(exc).__name__}: {exc}"
    return ExecutionError(
        f"parallel worker failed in kernel {name!r}: {detail}",
        kernel=name, task_id=task_id, detail=detail)


class WorkerPool:
    """A fixed set of worker threads fed from one morsel queue."""

    def __init__(self, n_workers: int):
        if n_workers <= 0:
            raise ConfigError(
                f"worker count must be positive, got {n_workers}")
        self.n_workers = int(n_workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.n_workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_workers,
                thread_name_prefix="repro-morsel")

    def run(self, kernel: Callable, task_specs: Sequence[Dict]) -> List:
        """Execute one kernel over all morsels; results in task order.

        Each spec is the keyword arguments of one kernel call.  A kernel
        exception surfaces as a typed :class:`ExecutionError`.  The
        caller keeps hitting :func:`~repro.exec.cancel.checkpoint` while
        it waits; when that (or a kernel) raises, morsels that have not
        started are cancelled and running ones are waited for first, so
        no worker is still writing into the phase's arrays once this
        returns or raises.
        """
        name = getattr(kernel, "__name__", repr(kernel))
        if self._executor is None:
            out = []
            for task_id, spec in enumerate(task_specs):
                checkpoint(kernel=name, pending=len(task_specs) - task_id)
                try:
                    out.append(kernel(**spec))
                except Exception as exc:
                    raise _kernel_error(kernel, task_id, exc) from exc
            return out
        futures = [self._executor.submit(kernel, **spec)
                   for spec in task_specs]
        pending = set(futures)
        try:
            while pending:
                checkpoint(kernel=name, pending=len(pending))
                done, pending = wait(pending, timeout=_CHECKPOINT_SECONDS,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    if future.exception() is not None:
                        exc = future.exception()
                        raise _kernel_error(kernel, futures.index(future),
                                            exc) from exc
        except BaseException:
            for future in pending:
                future.cancel()
            wait(pending)
            raise
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent).

        Safe on a pool that never started: a partially-constructed
        instance (``__init__`` raised, or a test built one via
        ``__new__``) has no executor, and a second call finds it
        already cleared — both are no-ops.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


_pool: Optional[WorkerPool] = None


def get_pool() -> WorkerPool:
    """The process-wide pool, (re)built when ``REPRO_WORKERS`` changes."""
    global _pool
    n = worker_count()
    if _pool is None or _pool.n_workers != n:
        if _pool is not None:
            _pool.shutdown()
        _pool = WorkerPool(n)
    return _pool


def current_pool() -> Optional[WorkerPool]:
    """The live pool if one exists — never creates one (health probes)."""
    return _pool


def shutdown_pool() -> None:
    """Tear down the process-wide pool (tests and benchmarks)."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None
