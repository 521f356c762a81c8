"""Morsel-driven multicore execution on a thread pool.

The third execution backend (``REPRO_BACKEND=parallel``) is the vector
backend plus a persistent :class:`~repro.exec.parallel.pool.WorkerPool`
of threads.  Each batch phase — partition scatter/refine, chained-table
build, match-group stats and pair expansion — has one implementation,
kernels over the pipeline's own arrays (:mod:`repro.exec.parallel.kernels`)
run through :func:`run_morsels`; the pool only takes their morsels.

Division of labour:

* the **driver** (the ordinary pipeline code) decomposes each phase into
  the same per-thread segments and queue tasks the simulated
  :class:`~repro.cpu.threads.ThreadPool` prices, performs all operation
  accounting and fault injection, and merges morsel results with
  order-independent or index-ordered reductions;
* **workers** are pure compute (see :mod:`repro.exec.parallel.kernels`).

That split is what makes the backend observationally identical to
``vector``: counters, simulated seconds, output count/checksum, trace
structure, and fault behaviour cannot depend on the real worker count.

:func:`morsel_pool` is the single gate the hot paths consult: it returns
the pool only when the parallel backend is active and the phase is large
enough to amortize morsel overhead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.parallel.arena import SharedArena
from repro.exec.parallel.pool import (
    DEFAULT_MIN_PARALLEL_TUPLES,
    MIN_TUPLES_ENV,
    WORKERS_ENV,
    WorkerPool,
    get_pool,
    min_parallel_tuples,
    shutdown_pool,
    worker_count,
)

#: Morsels handed out per worker for internal (unpriced) fan-out, so the
#: queue always holds spare morsels for early finishers to steal.
MORSELS_PER_WORKER = 2


def morsel_pool(n_tuples: int) -> Optional[WorkerPool]:
    """The pool to run an ``n_tuples``-sized phase on, or None.

    None means "run the morsels inline": the parallel backend is not the
    ambient backend, or the phase is too small to engage the pool
    (``REPRO_PARALLEL_MIN_TUPLES``).
    """
    from repro.exec.backend import PARALLEL, current_backend
    if current_backend() != PARALLEL:
        return None
    if n_tuples < min_parallel_tuples():
        return None
    return get_pool()


def run_morsels(pool: Optional[WorkerPool], kernel: Callable,
                task_specs: Sequence[Dict]) -> List:
    """``pool.run(kernel, task_specs)``, or every spec inline in order
    when ``pool`` is None (the vector rendition of the same phase)."""
    if pool is None:
        return [kernel(**spec) for spec in task_specs]
    return pool.run(kernel, task_specs)


__all__ = [
    "DEFAULT_MIN_PARALLEL_TUPLES",
    "MIN_TUPLES_ENV",
    "MORSELS_PER_WORKER",
    "SharedArena",
    "WORKERS_ENV",
    "WorkerPool",
    "get_pool",
    "min_parallel_tuples",
    "morsel_pool",
    "run_morsels",
    "shutdown_pool",
    "worker_count",
]
