"""Wire protocol of the join service: NDJSON over a local socket.

One request per line, one or more response lines per request.  Every
message is a JSON object; requests carry an ``op`` plus op-specific
fields, responses carry a ``type`` plus the originating ``request_id``
and ``trace_id`` so concurrent requests can interleave on one
connection.

Requests::

    {"op": "register", "relation_id": "orders", "relation": <spec>}
    {"op": "probe", "relation_id": "orders", "probe": <spec>,
     "version": 2, "morsel_tuples": 8192, "trace_id": "req-7",
     "faults": [{"kind": "worker-crash", "point": "task"}]}
    {"op": "stats"} | {"op": "invalidate", "relation_id": "orders"}
    {"op": "ping"} | {"op": "health"} | {"op": "shutdown"}

A probe may carry ``"deadline_ms"``: a positive wall-clock budget for
the whole request; expiry surfaces as a typed ``DeadlineExceeded`` error
with partial-progress counters.  ``health`` reports cache occupancy,
circuit-breaker states, pool size and admission depth as flat
``serve.health.*`` metrics.

Responses: ``registered``, ``chunk`` (one streamed probe morsel),
``result`` (the full serialized :class:`~repro.exec.result.JoinResult`),
``stats``, ``invalidated``, ``pong``, ``health``, ``bye``, and
``error``.  Errors are
*typed*: the payload carries the exception class name, the structured
context, and — for unrecovered faults — the full
:class:`~repro.faults.report.FailureReport`, so clients never parse
prose.

A relation ``<spec>`` names a deterministic generator so requests stay
small: ``{"generator": "zipf", "n": 20000, "theta": 1.0, "seed": 42,
"side": "r"}`` (both sides of one seeded workload are addressable, which
is how a client and the server agree bit-for-bit on the data), or
``{"generator": "inline", "keys": [...], "payloads": [...]}`` for
hand-built relations.
"""

from __future__ import annotations

import json
from typing import Dict, Union

import numpy as np

from repro.data.generators import constant_key_input, uniform_input
from repro.data.relation import Relation
from repro.data.zipf import ZipfWorkload
from repro.errors import ProtocolError, ReproError

PROTOCOL_VERSION = 1

#: Every request op the server understands.
REQUEST_OPS = ("register", "probe", "stats", "invalidate", "ping", "health",
               "shutdown")

#: Every response type the server emits.
RESPONSE_TYPES = ("registered", "chunk", "result", "stats", "invalidated",
                  "pong", "health", "bye", "error")

#: Generators addressable from a relation spec.
SPEC_GENERATORS = ("zipf", "uniform", "constant", "inline")


def encode_message(message: Dict) -> bytes:
    """One compact JSON line (UTF-8, trailing newline)."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: Union[str, bytes]) -> Dict:
    """Parse one protocol line; raises :class:`ProtocolError` when bad."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty protocol line")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            f"protocol line is not valid JSON: {exc}",
            head=line[:80]) from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol message must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def validate_request(message: Dict) -> str:
    """Return the request's op; raise :class:`ProtocolError` otherwise."""
    op = message.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown request op {op!r}; expected one of {REQUEST_OPS}",
            op=str(op))
    version = message.get("protocol_version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this server "
            f"speaks version {PROTOCOL_VERSION})",
            found_version=version, expected_version=PROTOCOL_VERSION)
    return op


def relation_from_spec(spec: Dict) -> Relation:
    """Materialize the relation a spec describes, deterministically.

    Seeded generator specs let a probe request describe megabytes of
    tuples in one line, and let the smoke harness re-derive the same
    relation client-side to check answers against a direct run.
    """
    if not isinstance(spec, dict):
        raise ProtocolError(
            f"relation spec must be an object, got {type(spec).__name__}")
    generator = spec.get("generator")
    if generator not in SPEC_GENERATORS:
        raise ProtocolError(
            f"unknown relation generator {generator!r}; expected one of "
            f"{SPEC_GENERATORS}")
    try:
        if generator == "inline":
            keys = spec.get("keys")
            payloads = spec.get("payloads")
            if keys is None:
                raise ProtocolError("inline relation spec needs 'keys'")
            if payloads is None:
                payloads = keys
            return Relation(np.asarray(keys, dtype=np.uint32),
                            np.asarray(payloads, dtype=np.uint32),
                            name=str(spec.get("name", "inline")))
        n = int(spec.get("n", 0))
        seed = int(spec.get("seed", 0))
        side = spec.get("side", "r")
        if side not in ("r", "s"):
            raise ProtocolError(
                f"relation spec side must be 'r' or 's', got {side!r}")
        if generator == "zipf":
            zipf = ZipfWorkload(n, n, float(spec.get("theta", 1.0)),
                                seed=seed)
            if side == "r":
                return zipf.generate_r()
            workload = zipf.generate()
        elif generator == "uniform":
            workload = uniform_input(n, n, n_keys=spec.get("n_keys"),
                                     seed=seed)
        else:  # constant
            workload = constant_key_input(n, n, key=int(spec.get("key", 7)),
                                          seed=seed)
        return workload.r if side == "r" else workload.s
    except ProtocolError:
        raise
    except (ReproError, ValueError, TypeError, OverflowError) as exc:
        raise ProtocolError(
            f"bad relation spec: {exc}", generator=str(generator)) from exc


def error_payload(exc: BaseException) -> Dict:
    """Typed error body: class name, message, context, fault report."""
    payload: Dict[str, object] = {
        "kind": type(exc).__name__,
        "message": getattr(exc, "message", "") or str(exc),
    }
    context = getattr(exc, "context", None)
    if context:
        payload["context"] = {key: _jsonable(value)
                              for key, value in context.items()}
    report = getattr(exc, "report", None)
    if report is not None and hasattr(report, "to_dict"):
        payload["report"] = report.to_dict()
    return payload


def error_response(exc: BaseException,
                   request_id: str = "",
                   trace_id: str = "") -> Dict:
    """A full ``error`` response line for one failed request."""
    return {
        "type": "error",
        "request_id": request_id,
        "trace_id": trace_id,
        "error": error_payload(exc),
    }


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "__int__"):
        return int(value)
    return str(value)
