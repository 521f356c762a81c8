"""Execution-backend selection: ``scalar``, ``vector``, ``parallel``.

Every hot phase of the five join pipelines — radix scatter, chained-table
build/probe, the no-partition join's global probe, the GPU simulator's
block-cost evaluation, GSH's skew split — exists in functionally
identical renditions:

* ``vector`` (the default) — NumPy batch evaluation: ``np.bincount``
  histograms, cumulative-sum bases, single-pass fancy-index scatters, and
  group-wise match expansion against a build index each hash table
  computes once.  This is the fast path
  that keeps the Python executors bandwidth-bound instead of
  interpreter-bound.
* ``scalar`` — a literal per-tuple Python rendition of the paper's
  algorithms (tuple-at-a-time scatter loops, chain walks in lockstep).
  It is the executable specification: slow, obvious, and used by the
  differential harness to pin the vector path down to bit-identical
  outputs, :class:`~repro.exec.counters.OpCounters`, and phase structure.
* ``parallel`` — the vector implementation with its morsels handed to
  a persistent thread pool over the pipeline's own arrays
  (:mod:`repro.exec.parallel`).  Results stay bit-identical; only wall
  time changes.

Selection is ambient.  The process default comes from the
``REPRO_BACKEND`` environment variable (``vector`` when unset); tests and
the differential harness override it lexically with :func:`use_backend`::

    with use_backend("scalar"):
        result = join(workload, algorithm="csh")

Backend choice may never change *what* is computed — only how.  The
differential test matrix (``tests/test_backend_differential.py``) and the
hypothesis property suite enforce that invariant for every algorithm.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional, TypeVar

from repro.errors import ConfigError

SCALAR = "scalar"
VECTOR = "vector"
PARALLEL = "parallel"

#: All selectable backends.
BACKENDS = (SCALAR, VECTOR, PARALLEL)

#: Environment variable holding the process-wide default backend.
BACKEND_ENV = "REPRO_BACKEND"

_DEFAULT = VECTOR

_override: ContextVar[Optional[str]] = ContextVar("repro_backend_override",
                                                  default=None)

_F = TypeVar("_F", bound=Callable)


def validate_backend(name: str) -> str:
    """Return ``name`` normalized, or raise a :class:`ConfigError`."""
    normalized = str(name).strip().lower()
    if normalized not in BACKENDS:
        raise ConfigError(
            f"unknown execution backend {name!r}; choose one of "
            f"{list(BACKENDS)} (set {BACKEND_ENV} or use "
            "repro.exec.backend.use_backend)",
            backend=str(name), valid=list(BACKENDS),
        )
    return normalized


def backend_from_env() -> str:
    """The process default backend from ``REPRO_BACKEND`` (else vector)."""
    raw = os.environ.get(BACKEND_ENV, "").strip()
    if not raw:
        return _DEFAULT
    return validate_backend(raw)


def current_backend() -> str:
    """The backend in effect: the innermost override, else the env default."""
    override = _override.get()
    if override is not None:
        return override
    return backend_from_env()


def is_vector() -> bool:
    """True when a batch (NumPy) backend is selected.

    The parallel backend counts: it runs the vector implementation, only
    with the morsels on the worker pool.
    """
    return current_backend() != SCALAR


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Select a backend for the duration of the block (re-entrant)."""
    backend = validate_backend(name)
    token = _override.set(backend)
    try:
        yield backend
    finally:
        _override.reset(token)


def dispatch(scalar_impl: _F, vector_impl: _F) -> _F:
    """Pick the implementation matching the ambient backend.

    The parallel backend receives ``vector_impl``: batch phases consult
    :func:`repro.exec.parallel.morsel_pool` for the pool themselves.
    """
    return scalar_impl if current_backend() == SCALAR else vector_impl
