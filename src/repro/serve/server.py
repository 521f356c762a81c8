"""The asyncio join-service daemon: NDJSON requests over a local socket.

:class:`ServeServer` binds a loopback TCP socket (ephemeral port by
default) and speaks the protocol in :mod:`repro.serve.protocol`.  Each
connection reads one request per line; ``probe`` requests are dispatched
as their own tasks so a slow cold build never blocks other requests on
the same connection — responses carry the request id, and chunks stream
back as the engine produces them.  Control ops (``register``, ``stats``,
``invalidate``, ``ping``, ``shutdown``) are answered inline.

Every failure a request can hit — malformed lines, unknown relations,
admission refusals, expired deadlines, open circuits, unrecovered
faults — is answered with a typed ``error`` line; the connection itself
stays up.  When a trace path is configured, every completed probe's full
:class:`JoinResult` (trace, metrics, fault reports included) is appended
to a JSONL artifact, the file the serve-smoke CI job uploads.

Shutdown is a **graceful drain**: the listener closes, new probes are
refused with a typed error, in-flight probes get ``drain_seconds`` to
finish, then their cancel tokens fire (typed ``RequestCancelled`` at the
next morsel boundary) and only an unresponsive remainder is hard
task-cancelled.  A client that disconnects mid-stream cancels its own
request the same cooperative way — the admission slot is always
released.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro.errors import ProtocolError, ReproError, ServeError
from repro.exec.cancel import CancelToken
from repro.exec.serialize import append_results_jsonl, result_to_dict
from repro.faults.plan import plan_from_dicts
from repro.serve.engine import ProbeRequest, ServeEngine
from repro.serve.protocol import (
    decode_message,
    encode_message,
    error_response,
    relation_from_spec,
    validate_request,
)

DEFAULT_HOST = "127.0.0.1"

#: Seconds in-flight probes get to finish before drain cancels them.
DEFAULT_DRAIN_SECONDS = 5.0

#: Seconds between "tokens cancelled" and hard ``task.cancel()``.
_FORCE_CANCEL_GRACE_SECONDS = 1.0

#: Longest request line the reader accepts (asyncio's default limit).
_LINE_LIMIT = 1 << 16

#: Seconds an oversized-line connection waits for the client to hang up.
_HANG_UP_GRACE_SECONDS = 1.0


class ServeServer:
    """One daemon instance wrapping a :class:`ServeEngine`."""

    def __init__(
        self,
        engine: Optional[ServeEngine] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        trace_path: Optional[Union[str, Path]] = None,
        drain_seconds: float = DEFAULT_DRAIN_SECONDS,
    ):
        self.engine = engine or ServeEngine()
        self.host = host
        self.port = port
        self.trace_path = Path(trace_path) if trace_path else None
        self.drain_seconds = float(drain_seconds)
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: Set[asyncio.Task] = set()
        # Connection handler task -> its writer, so close can finish them.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._cancel_tokens: Set[CancelToken] = set()
        self._shutdown = asyncio.Event()
        self.draining = False
        self.connections = 0
        self.traced_results = 0
        self.disconnects = 0
        self.drain_refusals = 0
        self.force_cancelled = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> "ServeServer":
        """Bind the socket; ``self.port`` holds the real port afterwards."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
            limit=_LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`shutdown`) arrives."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()
            await self._drain()

    def shutdown(self) -> None:
        """Ask the serve loop to stop accepting and drain in-flight work."""
        self._shutdown.set()

    async def _drain(self) -> None:
        """Graceful drain: wait, then cancel cooperatively, then force.

        1. Stop accepting: the listener closes and new probes are
           refused with a typed error.
        2. In-flight probe tasks get ``drain_seconds`` to finish.
        3. Stragglers' cancel tokens fire — each request raises a typed
           ``RequestCancelled`` at its next morsel checkpoint, so the
           client still gets a well-formed error line.
        4. Anything still alive after a short grace is hard-cancelled.
        5. Connection handlers are woken by closing their transports (a
           transport still stuck after the grace is aborted) and run to
           completion, so none is left for the loop to cancel.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
        await self._drain_requests()
        await self._finish_connections()

    async def _drain_requests(self) -> None:
        tasks = {t for t in self._tasks if not t.done()}
        if not tasks:
            return
        _done, pending = await asyncio.wait(tasks,
                                            timeout=self.drain_seconds)
        if not pending:
            return
        for token in list(self._cancel_tokens):
            token.cancel("server drain")
        _done, pending = await asyncio.wait(
            pending, timeout=_FORCE_CANCEL_GRACE_SECONDS)
        for task in pending:
            self.force_cancelled += 1
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def _finish_connections(self) -> None:
        """Close every connection and await its handler.

        A client that stopped reading keeps its transport's buffer full,
        and a closing transport with buffered output never reports the
        connection lost, so its handler would wait forever; after a
        short grace such transports are aborted.
        """
        connections = dict(self._connections)
        for writer in connections.values():
            writer.close()
        if not connections:
            return
        _done, pending = await asyncio.wait(
            connections, timeout=_FORCE_CANCEL_GRACE_SECONDS)
        for task in pending:
            connections[task].transport.abort()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def close(self) -> None:
        """Stop the listener, wait for in-flight request tasks, then
        finish every connection handler."""
        self.shutdown()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drain()

    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        task = asyncio.current_task()
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)
        # One writer lock per connection: chunk lines from concurrent
        # probe tasks interleave whole-line, never mid-line.
        lock = asyncio.Lock()
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran _LINE_LIMIT
                    await self._reject_oversized_line(reader, writer, lock)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                stop = await self._handle_line(line, writer, lock)
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _reject_oversized_line(self, reader: asyncio.StreamReader,
                                     writer: asyncio.StreamWriter,
                                     lock: asyncio.Lock) -> None:
        """Answer an over-long request line with a typed error, then hang up.

        The error line goes out and the write side is shut; the rest of
        the client's input is read and dropped until it hangs up too (or
        a short grace ends), so closing never resets the connection
        under a reply the client has not read yet.
        """
        await self._send(writer, lock, error_response(ProtocolError(
            f"request line exceeds the {_LINE_LIMIT}-byte limit",
            limit=_LINE_LIMIT)))

        async def discard_until_eof() -> None:
            while await reader.read(_LINE_LIMIT):
                pass

        try:
            writer.write_eof()
            await asyncio.wait_for(discard_until_eof(),
                                   _HANG_UP_GRACE_SECONDS)
        except (asyncio.TimeoutError, OSError):
            pass

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> bool:
        """Dispatch one request line; True means "close this connection"."""
        request_id = ""
        try:
            message = decode_message(line)
            request_id = str(message.get("request_id", ""))
            op = validate_request(message)
        except ProtocolError as exc:
            await self._send(writer, lock, error_response(exc, request_id))
            return False
        if op == "probe":
            if self.draining or self._shutdown.is_set():
                self.drain_refusals += 1
                await self._send(writer, lock, error_response(
                    ServeError("server is draining; not accepting new "
                               "probes", draining=True), request_id))
                return False
            task = asyncio.ensure_future(
                self._handle_probe(message, request_id, writer, lock))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            return False
        try:
            if op == "register":
                response = self._handle_register(message, request_id)
            elif op == "stats":
                response = {"type": "stats", "request_id": request_id,
                            "stats": self.engine.stats()}
            elif op == "invalidate":
                relation_id = str(message.get("relation_id", ""))
                dropped = self.engine.invalidate(relation_id)
                response = {"type": "invalidated", "request_id": request_id,
                            "relation_id": relation_id, "dropped": dropped}
            elif op == "ping":
                response = {"type": "pong", "request_id": request_id}
            elif op == "health":
                health = self.engine.health()
                health["draining"] = self.draining
                health["disconnects"] = self.disconnects
                response = {"type": "health", "request_id": request_id,
                            "health": health}
            else:  # shutdown
                await self._send(writer, lock,
                                 {"type": "bye", "request_id": request_id})
                self.shutdown()
                return True
        except ReproError as exc:
            response = error_response(exc, request_id)
        await self._send(writer, lock, response)
        return False

    def _handle_register(self, message: Dict, request_id: str) -> Dict:
        relation_id = str(message.get("relation_id", ""))
        relation = relation_from_spec(message.get("relation"))
        version = self.engine.register(relation_id, relation)
        return {
            "type": "registered",
            "request_id": request_id,
            "relation_id": relation_id,
            "version": version,
            "n_entries": len(relation),
        }

    async def _handle_probe(self, message: Dict, request_id: str,
                            writer: asyncio.StreamWriter,
                            lock: asyncio.Lock) -> None:
        trace_id = str(message.get("trace_id", ""))
        token = CancelToken()
        self._cancel_tokens.add(token)
        try:
            request = self._probe_request(message, trace_id)
            request.cancel = token

            async def emit(chunk: Dict) -> None:
                # Strict: a failed chunk write must abort the request —
                # the client is gone, so finishing the remaining morsels
                # would burn the admission slot for nobody.
                await self._send(writer, lock, {
                    "type": "chunk", "request_id": request_id,
                    "trace_id": chunk.pop("trace_id", trace_id), **chunk},
                    strict=True)

            outcome = await self.engine.probe(request, emit=emit)
        except (ConnectionResetError, BrokenPipeError):
            # Mid-stream disconnect: the emit failure already unwound the
            # morsel loop and released the admission slot; nothing can be
            # sent back, so just account for it.
            self.disconnects += 1
            token.cancel("client disconnected")
            return
        except ReproError as exc:
            await self._send(writer, lock,
                             error_response(exc, request_id, trace_id))
            return
        finally:
            self._cancel_tokens.discard(token)
        result = outcome.result
        if self.trace_path is not None:
            append_results_jsonl([result], self.trace_path)
            self.traced_results += 1
        await self._send(writer, lock, {
            "type": "result",
            "request_id": request_id,
            "trace_id": result.meta.get("trace_id", trace_id),
            "cache_hit": bool(result.meta.get("cache_hit")),
            "n_chunks": len(outcome.chunks),
            "result": result_to_dict(result),
        })

    def _probe_request(self, message: Dict, trace_id: str) -> ProbeRequest:
        probe = relation_from_spec(message.get("probe"))
        version = message.get("version")
        if version is not None:
            version = int(version)
        morsel_tuples = message.get("morsel_tuples")
        if morsel_tuples is not None:
            morsel_tuples = int(morsel_tuples)
        faults = message.get("faults")
        plan = plan_from_dicts(faults) if faults else None
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None:
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"deadline_ms must be a positive number, got "
                    f"{message.get('deadline_ms')!r}") from None
            if not deadline_ms > 0:
                raise ProtocolError(
                    f"deadline_ms must be a positive number, got "
                    f"{deadline_ms!r}", deadline_ms=deadline_ms)
        return ProbeRequest(
            relation_id=str(message.get("relation_id", "")),
            probe=probe,
            version=version,
            morsel_tuples=morsel_tuples,
            trace_id=trace_id,
            faults=plan,
            deadline_ms=deadline_ms,
        )

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    message: Dict, strict: bool = False) -> None:
        """Write one response line; connection failures are swallowed
        unless ``strict`` (the chunk-emit path, which must abort)."""
        try:
            async with lock:
                writer.write(encode_message(message))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            if strict:
                raise
