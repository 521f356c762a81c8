"""Resilience layer: deadlines, cancellation, circuits, drain, health."""

import asyncio
import contextlib
import socket

import pytest

from repro.data.zipf import ZipfWorkload
from repro.errors import (
    CircuitOpen,
    ConfigError,
    DeadlineExceeded,
    RequestCancelled,
    UnrecoveredFaultError,
)
from repro.exec.backend import BACKENDS, use_backend
from repro.exec.cancel import (
    CancelToken,
    Deadline,
    cancel_scope,
    checkpoint,
    current_cancel_scope,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.serve.cache import BuildCache, CachedBuild
from repro.serve.client import ServeClient
from repro.serve.engine import ProbeRequest, ServeEngine
from repro.serve.server import ServeServer

N = 2048
THETA = 1.0
SEED = 42

BUILD_SPEC = {"generator": "zipf", "n": N, "theta": THETA, "seed": SEED,
              "side": "r"}
PROBE_SPEC = {**BUILD_SPEC, "side": "s"}


@pytest.fixture(scope="module")
def workload():
    return ZipfWorkload(N, N, THETA, seed=SEED).generate()


@pytest.fixture(scope="module")
def big_workload():
    n = 1 << 17
    return ZipfWorkload(n, n, THETA, seed=SEED).generate()


def probe(engine, workload, **kwargs):
    return engine.probe_sync(
        ProbeRequest(relation_id="orders", probe=workload.s, **kwargs))


# ------------------------------------------------------- cancel plumbing

def test_checkpoint_is_a_noop_without_a_scope():
    checkpoint(anywhere="at all")  # must not raise
    assert current_cancel_scope() is None


def test_deadline_rejects_non_positive_budgets():
    for bad in (0, -1, -0.5):
        with pytest.raises(ConfigError):
            Deadline(bad)


def test_deadline_charge_trips_without_wall_time():
    deadline = Deadline(50.0, clock=lambda: 0.0)  # frozen clock
    assert not deadline.expired
    deadline.charge(10.0)  # 10 simulated seconds vs a 50ms budget
    assert deadline.expired
    with cancel_scope(deadline=deadline):
        with pytest.raises(DeadlineExceeded) as excinfo:
            checkpoint(morsel=3)
    assert excinfo.value.context["deadline_ms"] == 50.0
    assert excinfo.value.context["morsel"] == 3


def test_cancellation_wins_over_deadline():
    deadline = Deadline(1.0, clock=lambda: 0.0)
    deadline.charge(99.0)
    token = CancelToken()
    token.cancel("client disconnected")
    token.cancel("second reason loses")
    with cancel_scope(deadline=deadline, token=token):
        assert current_cancel_scope() is not None
        with pytest.raises(RequestCancelled) as excinfo:
            checkpoint()
    assert excinfo.value.context["reason"] == "client disconnected"
    assert current_cancel_scope() is None


# -------------------------------------------------- engine-level deadline

@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_deadline_against_large_cold_build_is_typed(
        backend, big_workload):
    """deadline_ms=1 against a 131072-tuple cold build: every backend
    must answer with a typed DeadlineExceeded instead of serving."""
    with use_backend(backend):
        engine = ServeEngine()
        engine.register("orders", big_workload.r)
        with pytest.raises(DeadlineExceeded) as excinfo:
            probe(engine, big_workload, deadline_ms=1)
    context = excinfo.value.context
    assert context["deadline_ms"] == 1
    assert context["elapsed_ms"] >= 1
    assert engine.deadline_exceeded == 1
    assert engine.failed == 1
    assert engine.admission.inflight == 0  # slot released


def test_slow_fault_plus_deadline_is_deterministic(workload):
    """A charged 30s morsel delay trips a 20s budget with no sleeping,
    and the error carries exact partial progress."""
    engine = ServeEngine()
    engine.register("orders", workload.r)
    probe(engine, workload)  # warm the cache: no build-time expiry
    plan = FaultPlan((FaultSpec(kind="slow", point="slow", occurrence=2,
                                seconds=30.0),))
    with pytest.raises(DeadlineExceeded) as excinfo:
        probe(engine, workload, morsel_tuples=256, faults=plan,
              deadline_ms=20_000)
    context = excinfo.value.context
    assert context["morsels_completed"] == 1  # died at the charged morsel
    assert context["n_morsels"] == N // 256
    assert context["partial_count"] >= 0
    assert "partial_checksum" in context
    assert engine.deadline_exceeded == 1
    assert engine.admission.inflight == 0


def test_slow_fault_without_deadline_is_harmless(workload):
    engine = ServeEngine()
    engine.register("orders", workload.r)
    clean = probe(engine, workload, morsel_tuples=256)
    plan = FaultPlan((FaultSpec(kind="slow", point="slow", occurrence=3,
                                seconds=7.5),))
    slowed = probe(engine, workload, morsel_tuples=256, faults=plan)
    assert slowed.result.output_count == clean.result.output_count
    assert slowed.result.output_checksum == clean.result.output_checksum
    reports = slowed.result.faults
    assert len(reports) == 1
    assert reports[0].kind == "slow" and reports[0].recovered
    assert reports[0].backoff_seconds == 7.5
    # The delay is priced into the probe schedule, not ignored.
    slow_probe = next(p for p in slowed.result.phases if p.name == "probe")
    clean_probe = next(p for p in clean.result.phases if p.name == "probe")
    assert slow_probe.simulated_seconds >= 7.5
    assert slow_probe.simulated_seconds > clean_probe.simulated_seconds


def test_cancel_token_stops_a_request_with_partial_progress(workload):
    engine = ServeEngine()
    engine.register("orders", workload.r)
    probe(engine, workload)

    async def scenario():
        token = CancelToken()
        emitted = []

        async def emit(chunk):
            emitted.append(chunk)
            if len(emitted) == 2:
                token.cancel("test says stop")

        request = ProbeRequest(relation_id="orders", probe=workload.s,
                               morsel_tuples=256, cancel=token)
        with pytest.raises(RequestCancelled) as excinfo:
            await engine.probe(request, emit=emit)
        return emitted, excinfo.value

    emitted, error = asyncio.run(scenario())
    assert len(emitted) == 2  # cancelled at the next morsel boundary
    assert error.context["reason"] == "test says stop"
    assert error.context["morsels_completed"] == 2
    assert engine.cancelled == 1
    assert engine.admission.inflight == 0


# -------------------------------------------------------- circuit breaker

def _failing_builder():
    raise RuntimeError("cold build exploded")


def _entry(key=("orders", 1), n=4):
    return CachedBuild(table=object(), relation_id=key[0], version=key[1],
                       n_entries=n)


def test_circuit_opens_after_threshold_and_half_opens_on_decay():
    now = {"t": 0.0}
    cache = BuildCache(circuit_threshold=3, circuit_reset_seconds=30.0,
                       clock=lambda: now["t"])
    key = ("orders", 1)

    async def scenario():
        for _ in range(3):
            with pytest.raises(RuntimeError):
                await cache.get_or_build(key, _failing_builder)
        # Open: the next request sheds fast with a typed error.
        with pytest.raises(CircuitOpen) as excinfo:
            await cache.get_or_build(key, _failing_builder)
        assert excinfo.value.context["failures"] == 3
        assert excinfo.value.context["retry_in_seconds"] == 30.0
        assert cache.circuit_shed == 1
        assert cache.circuits()["orders@1"]["state"] == "open"

        # Decay window passes: exactly one half-open trial runs.
        now["t"] = 31.0
        with pytest.raises(RuntimeError):
            await cache.get_or_build(key, _failing_builder)
        # The failed trial re-opened the circuit.
        with pytest.raises(CircuitOpen):
            await cache.get_or_build(key, _failing_builder)

        # Next decay: a successful trial closes it for good.
        now["t"] = 62.0
        entry, hit, shared = await cache.get_or_build(key, _entry)
        assert not hit and not shared
        assert cache.open_circuits() == 0
        assert cache.circuits() == {}

    asyncio.run(scenario())
    assert cache.circuit_opens == 2
    assert cache.circuit_closes == 1


def test_deadline_failures_do_not_open_the_circuit():
    cache = BuildCache(circuit_threshold=1)
    key = ("orders", 1)

    def doomed_budget():
        raise DeadlineExceeded("deadline exceeded", deadline_ms=1)

    async def scenario():
        for _ in range(5):
            with pytest.raises(DeadlineExceeded):
                await cache.get_or_build(key, doomed_budget)
        assert cache.open_circuits() == 0
        entry, hit, shared = await cache.get_or_build(key, _entry)
        assert not hit

    asyncio.run(scenario())


def test_invalidate_clears_circuit_state():
    cache = BuildCache(circuit_threshold=1)
    key = ("orders", 1)

    async def scenario():
        with pytest.raises(RuntimeError):
            await cache.get_or_build(key, _failing_builder)
        assert cache.open_circuits() == 1
        cache.invalidate("orders")
        assert cache.open_circuits() == 0
        entry, hit, _ = await cache.get_or_build(key, _entry)
        assert not hit

    asyncio.run(scenario())


def test_waiters_survive_a_leader_that_hits_its_own_deadline():
    """Single-flight waiters whose leader abandoned the build must retry
    (one becomes the new leader) instead of being stranded."""
    cache = BuildCache()
    key = ("orders", 1)

    async def scenario():
        release = asyncio.Event()

        async def doomed_leader():
            await release.wait()
            raise DeadlineExceeded("deadline exceeded", deadline_ms=1)

        async def healthy_builder():
            return _entry()

        leader = asyncio.ensure_future(
            cache.get_or_build(key, doomed_leader))
        await asyncio.sleep(0)  # leader installs the in-flight future
        waiter = asyncio.ensure_future(
            cache.get_or_build(key, healthy_builder))
        await asyncio.sleep(0)
        release.set()
        with pytest.raises(DeadlineExceeded):
            await leader
        entry, hit, shared = await waiter
        assert entry.n_entries == 4

    asyncio.run(scenario())
    assert cache.builds == 1
    assert cache.open_circuits() == 0
    assert len(cache) == 1


def test_engine_classifies_circuit_shed_requests(workload):
    engine = ServeEngine(circuit_threshold=1,
                         circuit_reset_seconds=3600.0)
    engine.register("orders", workload.r)
    doom = FaultPlan((FaultSpec(kind="capacity-overflow", point="capacity",
                                repeat=9),))
    with pytest.raises(UnrecoveredFaultError):
        probe(engine, workload, faults=doom)
    with pytest.raises(CircuitOpen) as excinfo:
        probe(engine, workload)
    assert excinfo.value.context["relation_id"] == "orders"
    assert engine.circuit_shed == 1
    assert engine.cache.circuit_shed == 1
    assert engine.admission.inflight == 0
    # A probe of an unaffected relation is not shed.
    engine.register("other", workload.r)
    outcome = engine.probe_sync(
        ProbeRequest(relation_id="other", probe=workload.s))
    assert outcome.result.output_count > 0


# --------------------------------------------------- server drain + wire

@contextlib.asynccontextmanager
async def serving(**kwargs):
    server = ServeServer(**kwargs)
    await server.start()
    loop_task = asyncio.ensure_future(server.serve_until_shutdown())
    try:
        yield server
    finally:
        await server.close()
        with contextlib.suppress(Exception):
            await loop_task


@contextlib.asynccontextmanager
async def connected(server):
    client = ServeClient(port=server.port)
    await client.connect()
    try:
        yield client
    finally:
        await client.close()


def test_deadline_over_the_wire_is_a_typed_error():
    async def scenario():
        async with serving() as server, connected(server) as client:
            await client.register("orders", BUILD_SPEC)
            warm = await client.probe("orders", PROBE_SPEC)
            assert warm.ok
            reply = await client.probe(
                "orders", PROBE_SPEC, morsel_tuples=64,
                deadline_ms=0.000001)
            assert (reply.error or {}).get("kind") == "DeadlineExceeded"
            assert reply.error["context"]["deadline_ms"] == 0.000001
            # The connection survives; the failure is accounted.
            assert (await client.ping()).get("type") == "pong"
            stats = await client.stats()
            assert stats["deadline_exceeded"] == 1

    asyncio.run(scenario())


def test_invalid_deadline_is_a_protocol_error():
    async def scenario():
        async with serving() as server, connected(server) as client:
            await client.register("orders", BUILD_SPEC)
            for bad in (0, -5, "soon"):
                reply = await client.probe("orders", PROBE_SPEC,
                                           deadline_ms=bad)
                assert (reply.error or {}).get("kind") == "ProtocolError"
            assert (await client.ping()).get("type") == "pong"

    asyncio.run(scenario())


def test_health_verb_reports_liveness_and_circuits():
    async def scenario():
        async with serving() as server, connected(server) as client:
            await client.register("orders", BUILD_SPEC)
            await client.probe("orders", PROBE_SPEC)
            health = await client.health()
            metrics = health["metrics"]
            assert health["ok"] is True
            assert metrics["serve.health.cache_entries"] == 1
            assert metrics["serve.health.open_circuits"] == 0
            assert metrics["serve.health.inflight"] == 0
            assert metrics["serve.health.completed"] == 1
            assert metrics["serve.health.deadline_exceeded"] == 0
            assert health["circuits"] == {}
            assert health["draining"] is False
            assert health["disconnects"] == 0
            assert "workers" in health

    asyncio.run(scenario())


def test_health_goes_unhealthy_while_a_circuit_is_open():
    async def scenario():
        engine = ServeEngine(circuit_threshold=1,
                             circuit_reset_seconds=3600.0)
        async with serving(engine=engine) as server:
            async with connected(server) as client:
                await client.register("orders", BUILD_SPEC)
                doomed = await client.probe(
                    "orders", PROBE_SPEC,
                    faults=[{"kind": "capacity-overflow",
                             "point": "capacity", "repeat": 9}])
                assert (doomed.error or {}).get("kind") == \
                    "UnrecoveredFaultError"
                shed = await client.probe("orders", PROBE_SPEC)
                assert (shed.error or {}).get("kind") == "CircuitOpen"
                assert shed.error["context"]["retry_in_seconds"] > 0
                health = await client.health()
                assert health["ok"] is False
                assert health["metrics"]["serve.health.open_circuits"] == 1
                assert health["circuits"]["orders@1"]["state"] == "open"

    asyncio.run(scenario())


def test_draining_server_refuses_new_probes_typed():
    async def scenario():
        async with serving() as server, connected(server) as client:
            await client.register("orders", BUILD_SPEC)
            server.draining = True
            refused = await client.probe("orders", PROBE_SPEC)
            assert (refused.error or {}).get("kind") == "ServeError"
            assert "draining" in refused.error["message"]
            assert refused.error["context"]["draining"] is True
            assert server.drain_refusals == 1
            health = await client.health()
            assert health["draining"] is True
            server.draining = False
            again = await client.probe("orders", PROBE_SPEC)
            assert again.ok

    asyncio.run(scenario())


def test_drain_cancels_stragglers_with_typed_errors():
    """Shutdown with a wedged in-flight probe: after drain_seconds its
    cancel token fires and the client still gets a typed error line.
    Every connection handler finishes: the loop reports no exception,
    not even while ``asyncio.run`` tears it down."""
    loop_errors = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context))
        async with serving(drain_seconds=0.05) as server:
            async with connected(server) as client:
                await client.register("orders", BUILD_SPEC)

                async def wedged_probe(request, emit=None):
                    # Cooperative stand-in for a long request: honors the
                    # cancel token, never finishes on its own.
                    for _ in range(2000):
                        if request.cancel is not None \
                                and request.cancel.cancelled:
                            raise RequestCancelled(
                                "request cancelled: "
                                f"{request.cancel.reason}",
                                reason=request.cancel.reason)
                        await asyncio.sleep(0.005)
                    raise AssertionError("drain never cancelled us")

                server.engine.probe = wedged_probe
                victim = asyncio.ensure_future(
                    client.probe("orders", PROBE_SPEC,
                                 trace_id="drain-victim"))
                while not server._cancel_tokens:
                    await asyncio.sleep(0.005)
                server.shutdown()
                reply = await victim
                return reply, server

    reply, server = asyncio.run(scenario())
    assert (reply.error or {}).get("kind") == "RequestCancelled"
    assert reply.error["context"]["reason"] == "server drain"
    assert server.force_cancelled == 0
    assert loop_errors == []


def test_shutdown_completes_with_a_client_that_stopped_reading():
    """A client that pipelines requests and never reads its replies
    leaves the server's transport full; shutdown must still finish."""
    from repro.serve.protocol import encode_message

    async def scenario():
        server = ServeServer(drain_seconds=0.05)
        await server.start()
        loop_task = asyncio.ensure_future(server.serve_until_shutdown())
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect((server.host, server.port))
        _reader, writer = await asyncio.open_connection(sock=sock)
        writer.write(encode_message({"op": "stats"}) * 20000)
        for _ in range(1000):
            if any(w.transport.get_write_buffer_size()
                   for w in server._connections.values()):
                break
            await asyncio.sleep(0.01)
        else:
            raise AssertionError("the server's output never backed up")
        closing = asyncio.ensure_future(server.close())
        done, _ = await asyncio.wait({closing}, timeout=10)
        hung = closing not in done
        if hung:  # free the handlers so the test fails instead of hanging
            for w in server._connections.values():
                w.transport.abort()
        await closing
        await loop_task
        writer.transport.abort()
        return server, hung

    server, hung = asyncio.run(scenario())
    assert not hung, "shutdown waited forever on a stalled client"
    assert not server._connections


def test_midstream_disconnect_releases_the_slot_and_daemon_survives():
    """Regression: a client that vanishes after the first chunk must not
    leak its admission slot or take the daemon down."""
    from repro.serve.protocol import encode_message

    async def scenario():
        async with serving() as server:
            async with connected(server) as client:
                await client.register("orders", BUILD_SPEC)
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            writer.write(encode_message({
                "op": "probe", "request_id": "gone",
                "relation_id": "orders", "probe": PROBE_SPEC,
                "morsel_tuples": 64}))
            await writer.drain()
            first = await asyncio.wait_for(reader.readline(), timeout=30)
            assert b'"chunk"' in first
            writer.transport.abort()
            for _ in range(200):
                if (server.disconnects
                        and server.engine.admission.inflight == 0):
                    break
                await asyncio.sleep(0.05)
            assert server.disconnects == 1
            assert server.engine.admission.inflight == 0
            # The daemon is still fully alive for other clients.
            async with connected(server) as client:
                assert (await client.ping()).get("type") == "pong"
                reply = await client.probe("orders", PROBE_SPEC)
                assert reply.ok and reply.cache_hit
                health = await client.health()
                assert health["disconnects"] == 1
                assert health["ok"] is True

    asyncio.run(scenario())
