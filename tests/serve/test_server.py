"""ReproServer: dispatch, pipelining, in-band shedding, crash recovery.

The synchronous core (``handle_batch``) carries most of the coverage;
one end-to-end test drives the real asyncio socket path with
``asyncio.run`` inside a plain pytest function (no pytest-asyncio
dependency).
"""

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.counters import counter_names
from repro.errors import AdmissionRejected
from repro.replication.chain import ChainCluster, ChainCounters
from repro.serve import AdmissionConfig, ReproServer, ServeClient
from repro.serve.procedures import _encode_int
from repro.serve.protocol import ReplyReader, encode_command


def make_server(**kw):
    kw.setdefault("groups", 2)
    kw.setdefault("shards_per_group", 2)
    kw.setdefault("f", 1)
    return ReproServer(**kw)


def _proc_result(reply):
    """Decode a PROC reply: fresh result (bulk json) or RESUMED replay."""
    if reply[0] == "bulk":
        return json.loads(reply[1])
    return json.loads(reply[1].split(" ", 1)[1])


def one(server, *argv):
    """Run a single command, return the decoded reply tuple."""
    replies, _close = server.handle_batch([list(argv)])
    reader = ReplyReader()
    reader.feed(replies[0])
    return reader.pop()


class TestDispatch:
    def test_ping_put_get_round_trip(self):
        server = make_server()
        assert one(server, b"PING") == ("simple", "PONG")
        assert one(server, b"PUT", b"17", b"hello") == ("simple", "OK")
        kind, value = one(server, b"GET", b"17")
        assert kind == "bulk"
        assert value.rstrip(b"\x00") == b"hello"

    def test_missing_key_reads_as_null(self):
        server = make_server()
        assert one(server, b"GET", b"404") == ("bulk", None)

    def test_del_removes_the_key(self):
        server = make_server()
        one(server, b"PUT", b"5", b"x")
        assert one(server, b"DEL", b"5") == ("simple", "OK")
        assert one(server, b"GET", b"5") == ("bulk", None)

    def test_quit_closes_the_connection(self):
        server = make_server()
        replies, close = server.handle_batch([[b"QUIT"]])
        assert close is True

    def test_unknown_verb_and_bad_arity_are_in_band_errors(self):
        server = make_server()
        kind, code, _msg = one(server, b"FROB")
        assert (kind, code) == ("error", "ERR")
        kind, code, msg = one(server, b"PUT", b"1")
        assert (kind, code) == ("error", "ERR")
        assert "argument" in msg
        kind, code, _msg = one(server, b"PUT", b"abc", b"v")
        assert (kind, code) == ("error", "ERR")
        assert server.protocol_errors == 3

    def test_info_reports_topology(self):
        server = make_server(groups=3)
        kind, payload = one(server, b"INFO")
        doc = json.loads(payload)
        assert doc["groups"] == 3
        assert "incr" in doc["procedures"]
        assert doc["durable"] is True


class TestPipelining:
    def test_batch_replies_match_command_order(self):
        server = make_server()
        batch = [[b"PUT", b"%d" % i, b"v%d" % i] for i in range(4)]
        batch += [[b"GET", b"%d" % i] for i in range(4)]
        replies, close = server.handle_batch(batch)
        assert not close
        reader = ReplyReader()
        reader.feed(b"".join(replies))
        for _ in range(4):
            assert reader.pop() == ("simple", "OK")
        for i in range(4):
            kind, value = reader.pop()
            assert value.rstrip(b"\x00") == b"v%d" % i

    def test_window_overflow_sheds_in_band_and_keeps_answering(self):
        server = make_server(admission=AdmissionConfig(max_inflight=2))
        batch = [[b"PUT", b"%d" % i, b"x"] for i in range(4)]
        batch.append([b"PING"])  # reads/introspection are never shed
        replies, _close = server.handle_batch(batch)
        reader = ReplyReader()
        reader.feed(b"".join(replies))
        decoded = [reader.pop() for _ in range(5)]
        assert decoded[0] == ("simple", "OK")
        assert decoded[1] == ("simple", "OK")
        assert decoded[2][0] == "error" and decoded[2][1] == "RETRY-AFTER"
        assert decoded[3][0] == "error"
        assert decoded[4] == ("simple", "PONG")
        assert server.admission.rejected_overload == 2


class TestDegradation:
    def test_open_breaker_maps_to_retry_after(self):
        server = make_server()
        server.cluster.groups[0].trip_breaker()
        server.cluster.groups[1].trip_breaker()
        kind, code, _msg = one(server, b"PUT", b"1", b"x")
        assert (kind, code) == ("error", "RETRY-AFTER")
        for group in server.cluster.groups:
            group.close_breaker()
        assert one(server, b"PUT", b"1", b"x") == ("simple", "OK")


class TestDurableProcedures:
    def test_proc_runs_and_replays_exactly_once(self):
        server = make_server()
        one(server, b"PUT", b"10", _encode_int(100))
        kind, payload = one(server, b"PROC", b"incr", b"j0", b"10", b"7")
        assert (kind, json.loads(payload)) == ("bulk", 107)
        # same pid again: the stored result, marked RESUMED
        kind, text = one(server, b"PROC", b"incr", b"j0", b"10", b"7")
        assert kind == "simple" and text.startswith("RESUMED")
        assert json.loads(text.split(" ", 1)[1]) == 107
        kind, payload = one(server, b"PROCRESULT", b"j0")
        assert json.loads(payload) == 107

    def test_crash_mid_procedure_recovers_inside_the_request(self):
        server = make_server()
        one(server, b"PUT", b"20", _encode_int(100))
        one(server, b"PUT", b"21", _encode_int(100))
        server.store.device.schedule_crash(20)
        kind, payload = one(
            server, b"PROC", b"transfer", b"x0", b"20", b"21", b"30"
        )
        if kind == "bulk":
            result = json.loads(payload)
        else:
            assert payload.startswith("RESUMED")
            result = json.loads(payload.split(" ", 1)[1])
        assert result == {"src": 70, "dst": 130}
        assert server.crashes_recovered >= 1
        kind, value = one(server, b"GET", b"20")
        assert int(value.rstrip(b"\x00")) == 70
        kind, value = one(server, b"GET", b"21")
        assert int(value.rstrip(b"\x00")) == 130

    def test_crash_verb_resumes_pending_procedures(self):
        server = make_server()
        one(server, b"PUT", b"10", _encode_int(0))
        # park a mid-flight incr in the log, as a crashed run would
        server.store.begin("hang0", "incr", ["10", "5"])
        kind, text = one(server, b"CRASH")
        assert kind == "simple" and text.startswith("RECOVERED 1")
        kind, payload = one(server, b"PROCRESULT", b"hang0")
        assert json.loads(payload) == 5

    def test_metrics_exposes_all_blocks(self):
        server = make_server()
        one(server, b"PUT", b"1", b"x")
        kind, payload = one(server, b"METRICS")
        doc = json.loads(payload)
        for block in ("server", "admission", "gateway", "procedures",
                      "cluster", "procedure_log_device", "net"):
            assert block in doc, block
        assert doc["gateway"]["writes"] >= 1
        assert doc["server"]["requests"] >= 2


class TestClusterMetrics:
    """The ``cluster`` block carries every declared chain counter, live."""

    def _check(self, server, groups):
        one(server, b"PUT", b"1", b"x")
        for gid, group in enumerate(groups):
            for k, name in enumerate(counter_names(ChainCounters)):
                setattr(group.counters, name, getattr(group.counters, name) + 10 * gid + k + 1)
        block = server.metrics()["cluster"]
        for name in counter_names(ChainCounters):
            assert block[name] == getattr(server.cluster, name), name
            assert block[name] == sum(getattr(g.counters, name) for g in groups), name
        assert block["committed"] >= len(groups) + 1

    def test_single_chain(self):
        cluster = ChainCluster(f=1, heap_mb=2, value_size=64)
        self._check(ReproServer(cluster=cluster), [cluster])

    def test_sharded_cluster(self):
        server = make_server()
        self._check(server, server.cluster.groups)

    def test_cluster_without_counters_raises(self):
        server = make_server()
        server.cluster = SimpleNamespace(sim=server.cluster.sim, degraded=False)
        with pytest.raises(AttributeError):
            server.metrics()


class TestAsyncioEndToEnd:
    def test_socket_path_pipelines_and_recovers(self):
        async def scenario():
            server = make_server()
            host, port = await server.start()
            try:
                client = await ServeClient.connect(host, port)
                try:
                    assert await client.execute("PING") == ("simple", "PONG")
                    # pipelined burst over the real socket
                    cmds = [["PUT", i, _encode_int(i)] for i in range(6)]
                    cmds += [["GET", i] for i in range(6)]
                    replies = await client.pipeline(cmds)
                    for i, reply in enumerate(replies[6:]):
                        assert int(reply[1].rstrip(b"\x00")) == i
                    # durable procedure + kill the log mid-flight
                    server.store.device.schedule_crash(20)
                    result = _proc_result(
                        await client.proc("incr", "e2e0", 3, 9)
                    )
                    assert result == 12
                    assert server.crashes_recovered >= 1
                    # retried pid resumes instead of re-executing
                    reply = await client.proc("incr", "e2e0", 3, 9)
                    assert reply[0] == "simple"
                    assert reply[1].startswith("RESUMED")
                    assert _proc_result(reply) == 12
                    value = await client.get(3)
                    assert int(value.rstrip(b"\x00")) == 12
                    # degradation surfaces as a typed client error
                    for group in server.cluster.groups:
                        group.trip_breaker()
                    with pytest.raises(AdmissionRejected) as exc:
                        await client.put(4, b"nope")
                    assert exc.value.retry_after_ns > 0
                    for group in server.cluster.groups:
                        group.close_breaker()
                    await client.put(4, b"yes")
                    metrics = json.loads(await client.metrics())
                    assert metrics["admission"]["rejected_degraded"] >= 1
                finally:
                    await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_protocol_error_is_answered_before_close(self):
        async def scenario():
            server = make_server()
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"*nope\r\n")
                await writer.drain()
                data = await reader.read(4096)
                assert data.startswith(b"-ERR")
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestRawWire:
    def test_encode_command_matches_server_expectations(self):
        server = make_server()
        from repro.serve.protocol import ProtocolReader

        reader = ProtocolReader()
        reader.feed(encode_command(["PUT", 9, b"raw"]))
        replies, _ = server.handle_batch(reader.pop_all())
        assert replies[0] == b"+OK\r\n"
