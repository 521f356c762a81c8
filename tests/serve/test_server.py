"""Daemon over a real loopback socket: protocol, concurrency, artifact."""

import asyncio
import contextlib
import json

import numpy as np
import pytest

from repro.api import make_join
from repro.data import zipf as zipf_module
from repro.data.zipf import ZipfWorkload
from repro.exec.serialize import results_from_jsonl_file
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    encode_message,
    relation_from_spec,
)
from repro.serve.server import ServeServer

N = 1024
THETA = 1.0
SEED = 42

BUILD_SPEC = {"generator": "zipf", "n": N, "theta": THETA, "seed": SEED,
              "side": "r"}
PROBE_SPEC = {**BUILD_SPEC, "side": "s"}


def _same_relation(a, b):
    assert a.name == b.name
    for x, y in ((a.keys, b.keys), (a.payloads, b.payloads)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("n,theta,seed", [
    (0, 1.0, 0), (1, 0.5, 3), (4097, 1.0, 7), (65536, 0.0, 2), (N, THETA, SEED),
])
def test_zipf_r_spec_is_generated_r_bit_for_bit(n, theta, seed):
    """The R side skips S's interval search and payloads, yet draws the
    same stream: R equals ``generate().r`` exactly."""
    spec = {"generator": "zipf", "n": n, "theta": theta, "seed": seed,
            "side": "r"}
    want = ZipfWorkload(n, n, theta, seed=seed).generate()
    _same_relation(relation_from_spec(spec), want.r)
    _same_relation(relation_from_spec({**spec, "side": "s"}), want.s)


def test_zipf_r_skips_s_draws_in_chunks_without_changing_r(monkeypatch):
    want = ZipfWorkload(4097, 4097, 1.0, seed=7).generate().r
    monkeypatch.setattr(zipf_module, "_DRAW_CHUNK", 1000)
    _same_relation(ZipfWorkload(4097, 4097, 1.0, seed=7).generate_r(), want)


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


def test_register_and_probe_round_trip_matches_direct_run():
    workload = ZipfWorkload(N, N, THETA, seed=SEED).generate()
    direct = make_join("cbase").run(workload)

    async def scenario():
        async with serving() as server, connected(server) as client:
            registered = await client.register("orders", BUILD_SPEC)
            assert registered["type"] == "registered"
            assert registered["version"] == 1
            assert registered["n_entries"] == N
            reply = await client.probe("orders", PROBE_SPEC,
                                       morsel_tuples=256)
            assert reply.ok
            assert not reply.cache_hit
            assert reply.chunks, "probe streamed no chunks"
            return reply

    reply = asyncio.run(scenario())
    assert reply.summary["count"] == direct.output_count
    assert reply.summary["checksum"] == direct.output_checksum
    assert reply.result["output_count"] == direct.output_count
    assert reply.result["output_checksum"] == direct.output_checksum


def test_concurrent_clients_share_one_single_flight_build():
    async def scenario():
        async with serving() as server:
            async with connected(server) as one, connected(server) as two:
                await one.register("orders", BUILD_SPEC)
                a, b = await asyncio.gather(
                    one.probe("orders", PROBE_SPEC, morsel_tuples=128),
                    two.probe("orders", PROBE_SPEC, morsel_tuples=128))
                stats = await one.stats()
            return a, b, stats

    a, b, stats = asyncio.run(scenario())
    assert a.ok and b.ok
    assert a.summary == b.summary
    assert stats["cache"]["builds"] == 1
    assert stats["completed"] == 2


def test_interleaved_probes_on_one_connection_stay_separated():
    async def scenario():
        async with serving() as server, connected(server) as client:
            await client.register("orders", BUILD_SPEC)
            replies = await asyncio.gather(*[
                client.probe("orders", PROBE_SPEC, morsel_tuples=128,
                             trace_id=f"t{i}")
                for i in range(3)])
            return replies

    replies = asyncio.run(scenario())
    assert all(r.ok for r in replies)
    # Each reply's chunks carry only its own trace id, in morsel order.
    for i, reply in enumerate(replies):
        assert {c["trace_id"] for c in reply.chunks} == {f"t{i}"}
        assert [c["index"] for c in reply.chunks] == \
            list(range(len(reply.chunks)))
    assert len({json.dumps(r.summary) for r in replies}) == 1


def test_malformed_lines_get_typed_errors_and_spare_the_connection():
    async def scenario():
        async with serving() as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                garbled = json.loads(await reader.readline())
                writer.write(encode_message({"op": "no-such-op",
                                             "request_id": "x1"}))
                await writer.drain()
                unknown = json.loads(await reader.readline())
                writer.write(encode_message({
                    "op": "ping", "request_id": "x2",
                    "protocol_version": PROTOCOL_VERSION + 1}))
                await writer.drain()
                mismatched = json.loads(await reader.readline())
                writer.write(encode_message({"op": "ping",
                                             "request_id": "x3"}))
                await writer.drain()
                pong = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return garbled, unknown, mismatched, pong

    garbled, unknown, mismatched, pong = asyncio.run(scenario())
    assert garbled["type"] == "error"
    assert garbled["error"]["kind"] == "ProtocolError"
    assert unknown["type"] == "error"
    assert unknown["error"]["context"]["op"] == "no-such-op"
    assert unknown["request_id"] == "x1"
    assert mismatched["type"] == "error"
    assert mismatched["error"]["context"]["expected_version"] == \
        PROTOCOL_VERSION
    # The connection survived all three bad requests.
    assert pong == {"type": "pong", "request_id": "x3"}


def test_probe_failures_come_back_as_typed_error_lines():
    async def scenario():
        async with serving() as server, connected(server) as client:
            unknown = await client.probe("nobody", PROBE_SPEC)
            await client.register("orders", BUILD_SPEC)
            doomed = await client.probe(
                "orders", PROBE_SPEC,
                faults=[{"kind": "worker-crash", "point": "task",
                         "repeat": 9}])
            recovered = await client.probe(
                "orders", PROBE_SPEC,
                faults=[{"kind": "worker-crash", "point": "task"}])
            clean = await client.probe("orders", PROBE_SPEC)
            return unknown, doomed, recovered, clean

    unknown, doomed, recovered, clean = asyncio.run(scenario())
    assert unknown.error["kind"] == "ServeError"
    assert "register" in unknown.error["message"]
    assert doomed.error["kind"] == "UnrecoveredFaultError"
    assert doomed.error["report"]["recovered"] is False
    assert recovered.ok and clean.ok
    assert recovered.summary == clean.summary
    assert len(recovered.result["faults"]) == 1


def test_invalidate_and_shutdown_round_trip():
    async def scenario():
        async with serving() as server, connected(server) as client:
            await client.register("orders", BUILD_SPEC)
            await client.probe("orders", PROBE_SPEC)
            dropped = await client.invalidate("orders")
            gone = await client.probe("orders", PROBE_SPEC)
            again = await client.register("orders", BUILD_SPEC)
            rebuilt = await client.probe("orders", PROBE_SPEC)
            bye = await client.shutdown()
            return dropped, gone, again, rebuilt, bye

    dropped, gone, again, rebuilt, bye = asyncio.run(scenario())
    assert dropped["type"] == "invalidated"
    assert dropped["dropped"] == 1
    # Invalidation deregisters the relation outright, cache included.
    assert gone.error["kind"] == "ServeError"
    assert again["version"] == 1
    assert rebuilt.ok and not rebuilt.cache_hit
    assert bye["type"] == "bye"


def test_trace_artifact_round_trips_served_results(tmp_path):
    trace_path = tmp_path / "serve-trace.jsonl"

    async def scenario():
        async with serving(trace_path=trace_path) as server:
            async with connected(server) as client:
                await client.register("orders", BUILD_SPEC)
                cold = await client.probe("orders", PROBE_SPEC)
                warm = await client.probe("orders", PROBE_SPEC)
            return server.traced_results, cold, warm

    traced, cold, warm = asyncio.run(scenario())
    assert traced == 2
    results = results_from_jsonl_file(trace_path)
    assert len(results) == 2
    for result, reply in zip(results, (cold, warm)):
        assert result.meta["served"] is True
        assert result.output_count == reply.summary["count"]
        assert result.trace is not None
    assert results[0].meta["cache_hit"] is False
    assert results[1].meta["cache_hit"] is True


def test_oversized_request_line_gets_a_typed_error(capfd, caplog):
    """A line over the reader's 64 KiB limit is answered, not dropped."""
    keys = list(range(40000))  # a ~460 KB inline register line

    async def scenario():
        async with serving() as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            writer.write(encode_message({
                "op": "register", "request_id": "huge",
                "relation_id": "huge",
                "relation": {"generator": "inline", "keys": keys,
                             "payloads": keys}}))
            await writer.drain()
            reply = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=30))
            # The daemon hangs up on that connection after the reply.
            assert await asyncio.wait_for(reader.read(), timeout=30) == b""
            writer.close()
            async with connected(server) as client:
                assert (await client.ping()).get("type") == "pong"
            return reply

    reply = asyncio.run(scenario())
    assert reply["type"] == "error"
    assert reply["error"]["kind"] == "ProtocolError"
    assert "limit" in reply["error"]["message"]
    assert capfd.readouterr().err == ""
    assert [r for r in caplog.records if r.levelname != "DEBUG"] == []
