"""The benchmark's three workloads.

Each workload builds the program from its public API, feeds it inputs
generated from the run's seed, measures it, and checks its outputs.  One
*rep* is one fresh instance: set-up, then optionally the deterministic
simulation window alone, or the full measured phase (window first, then
more of the same stream until the host deadline) followed by the
correctness gate.  README.md says why each workload exists.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import random
import resource
import time
from collections import deque
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from measure import GateFailure, HostSpeed, compare_oracle, digest, padded_equal
from tracing import Tracer, wrap

#: virtual clients of the single-node workloads (closed loop)
CLIENTS = 4
#: connections of the served workload, one request outstanding on each.
#: The server runs one request at a time, so a request waits for the
#: others' requests: with an even number of others (here 2) its latency
#: has a middle mode for the median to sit in; with one other, half the
#: GETs wait behind a PUT and half behind a GET, and the median jumps
#: between the two modes run to run.
CONNECTIONS = 3

#: ``Rep.mode`` values
SETUP, WINDOW, MEASURE = "setup", "window", "measure"


READ, WRITE, UNCLASSED, FAILED = "read", "write", "unclassed", "failed"

#: a measured phase runs past its deadline until each latency class has
#: this many samples, so that p90 keeps 10 beyond it on a slow host
MIN_SAMPLES = 120


@dataclasses.dataclass
class Phase:
    """Host-side samples of one measured phase: ``(class, latency_s)`` per
    op, in completion order.  Times are in reference-host seconds once
    their segment is scaled (:meth:`scale`)."""

    ops: List[Tuple[str, float]] = dataclasses.field(default_factory=list)
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: timed segments, in reference-host seconds and in host seconds
    wall_s: float = 0.0
    host_s: float = 0.0
    first_error: Optional[str] = None

    @property
    def committed(self) -> int:
        return self.attempted - self.failed

    @property
    def sampled(self) -> bool:
        return min(self.counts.get(READ, 0), self.counts.get(WRITE, 0)) >= MIN_SAMPLES

    def record(self, klass: str, latency_s: float) -> None:
        self.ops.append((klass, latency_s))
        self.counts[klass] = self.counts.get(klass, 0) + 1

    def fail(self, what: str) -> None:
        self.failed += 1
        self.record(FAILED, float("inf"))
        if self.first_error is None:
            self.first_error = what

    def scale(self, first: int, factor: float, host_s: float) -> None:
        """Close a timed segment of ``host_s`` host seconds holding
        ``ops[first:]``: scale it by the host-speed ``factor``."""
        ops = self.ops
        for i in range(first, len(ops)):
            klass, latency = ops[i]
            ops[i] = (klass, latency * factor)
        self.wall_s += host_s * factor
        self.host_s += host_s

    def samples(self, klass: str) -> List[float]:
        return [lat for k, lat in self.ops if k == klass]


@dataclasses.dataclass
class Window:
    """The deterministic simulated results of the first ops of a phase."""

    fingerprint: str
    ops: int
    sim_ns: float
    write_lat_ns: List[float]
    #: counter deltas over the window (public accessors only)
    counters: Dict[str, float]
    #: the process's peak resident set once the window is done: a fixed
    #: amount of work, unlike the whole timed phase
    peak_rss_mb: float


@dataclasses.dataclass
class Rep:
    setup_s: float
    window: Optional[Window] = None
    phase: Optional[Phase] = None
    problems: List[str] = dataclasses.field(default_factory=list)


def _recording(tracer: Optional[Tracer]):
    return tracer.recording() if tracer is not None else contextlib.nullcontext()


def _stop(deadline: float, phase: Phase, tracer: Optional[Tracer]) -> bool:
    """A measured phase takes new work until its deadline and until it
    has enough latency samples; a traced run also stops when its span
    store is nearly full."""
    if tracer is not None and tracer.nearly_full:
        return True
    return time.perf_counter() >= deadline and phase.sampled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _nvm_counts(stats) -> Dict[str, int]:
    return {f"nvm.{f.name}": getattr(stats, f.name) for f in dataclasses.fields(stats)}


# -- single-node workloads ------------------------------------------------------


class _RecordingKV:
    """The KV surface TPC-C uses, recording the writes of one transaction."""

    def __init__(self, kv):
        self._kv = kv
        self.heap = kv.heap
        self.tree = kv.tree
        self.value_size = kv.value_size
        self.writes: Dict[int, Optional[bytes]] = {}
        self.user_bytes = 0

    def get(self, key):
        return self._kv.get(key)

    def put(self, key, value):
        existed = self._kv.put(key, value)
        self.writes[key] = value
        self.user_bytes += len(value)
        return existed

    def delete(self, key):
        removed = self._kv.delete(key)
        self.writes[key] = None
        return removed

    def drain(self):
        self._kv.drain()


class SingleNode:
    """A kamino-dynamic stack driven by ``runtime.run_online``.

    The op stream is run in chunks of :attr:`CHUNK` ops; each chunk is one
    ``run_online`` call on a reset context, so all four virtual clients
    start together and the chunk's simulated duration is its own.  The
    first :attr:`WINDOW` ops form the simulation window.
    """

    name: str
    ENGINE = "kamino-dynamic"
    ALPHA: float
    HEAP_MB: int
    VALUE_SIZE: int
    CHUNK: int
    WINDOW: int
    READ_KINDS: frozenset
    #: op kinds timed but left out of both latency classes
    UNCLASSED_KINDS: frozenset = frozenset()
    #: run the measured phase as whole windows of ops, each on a freshly
    #: loaded store, for a workload whose ops cost more as its store grows
    FRESH_WINDOWS = False

    def __init__(self, seed: int, tracer: Optional[Tracer] = None):
        self.seed = seed
        self.tracer = tracer
        self.oracle: Dict[int, Optional[bytes]] = {}
        self.read_mismatches = 0
        #: what the checks of the stores already replaced found
        self.problems: List[str] = []
        self.user_bytes = 0
        self.dependent_waits = 0
        self.phase = Phase()
        #: set while the measured phase runs
        self._speed: Optional[HostSpeed] = None
        self._nvm_total: Dict[str, float] = {}
        self._busy_total: Dict[str, float] = {}
        self._execute = self._execute_plain
        if tracer is not None:
            self._execute = wrap(self._execute_plain, tracer, tracer.name_id("harness.execute"))

    # -- workload specifics -----------------------------------------------------

    def inputs(self) -> Iterator[object]:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def kind_of(self, op) -> str:
        raise NotImplementedError

    def apply(self, op) -> Tuple[object, Dict[int, Optional[bytes]]]:
        """Run one op; returns ``(read result, writes)``."""
        raise NotImplementedError

    def verify_read(self, op, result) -> bool:
        return True

    def extra_checks(self) -> List[str]:
        return []

    @classmethod
    def input_digest(cls, seed: int) -> str:
        wl = cls(seed)
        return digest(islice(wl.inputs(), cls.WINDOW))

    # -- lifecycle ----------------------------------------------------------------

    def build(self) -> None:
        from repro.runtime.context import ExecutionContext

        self.ctx = ExecutionContext.create(
            self.ENGINE,
            value_size=self.VALUE_SIZE,
            heap_mb=self.HEAP_MB,
            alpha=self.ALPHA,
            lock_mode="uncontended",
        )
        self.kv = self.ctx.kv
        self.load()
        self.kv.drain()
        self._reset_accounting()

    def _engine_factory(self):
        from repro.runtime import make_engine

        return make_engine(self.ENGINE, alpha=self.ALPHA)

    def _execute_plain(self, op) -> None:
        phase = self.phase
        phase.attempted += 1
        if self.tracer is not None:
            self.tracer.op = phase.attempted
        start = time.perf_counter()
        try:
            result, writes = self.apply(op)
        except Exception as exc:  # boundary: an op that raises is a failed op
            phase.fail(f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        kind = self.kind_of(op)
        if kind in self.READ_KINDS:
            phase.record(READ, elapsed)
            if not self.verify_read(op, result):
                self.read_mismatches += 1
        else:
            phase.record(UNCLASSED if kind in self.UNCLASSED_KINDS else WRITE, elapsed)
        self.oracle.update(writes)

    def _reset_accounting(self) -> None:
        """Fold the context's counters into running totals, then zero the
        context (clock, servers, device stats) for the next chunk."""
        ctx = self.ctx
        for key, value in _nvm_counts(ctx.device.stats).items():
            self._nvm_total[key] = self._nvm_total.get(key, 0) + value
        for name, snap in ctx.resources.snapshot().items():
            key = f"runtime.busy_ns.{name}"
            self._busy_total[key] = self._busy_total.get(key, 0) + snap.busy_ns
        ctx.reset()

    def _chunk(self, ops: List[object]):
        from repro.runtime import online

        self._reset_accounting()
        # run_online builds its VirtualClients internally; a subclass
        # swapped in for the call reads back the clients' count of
        # dependent transactions (a public attribute) when they finish
        base = online.VirtualClients
        owner = self

        class Counted(base):
            __slots__ = ()

            def run(self) -> None:
                super().run()
                owner.dependent_waits += self.dependent_waits

        online.VirtualClients = Counted
        first = len(self.phase.ops)
        start = time.perf_counter()
        try:
            result = online.run_online(
                self.ctx, ops, self._execute, CLIENTS, kind_of=self.kind_of, workload=self.name
            )
        finally:
            online.VirtualClients = base
        if self._speed is not None:
            self.phase.scale(first, self._speed.factor(), time.perf_counter() - start)
        return result

    def counters(self) -> Dict[str, float]:
        self._reset_accounting()
        engine = self.ctx.engine
        backup = engine.backup
        locks = engine.locks.stats
        out: Dict[str, float] = dict(self._nvm_total)
        out.update(self._busy_total)
        out.update(
            {
                "tx.backup_hits": backup.hits,
                "tx.backup_misses": backup.misses,
                "tx.backup_evictions": backup.evictions,
                "tx.lock_acquires": locks.write_acquires + locks.read_acquires,
                "tx.dependent_waits": self.dependent_waits,
                "sim.events": self.ctx.events.processed,
                "user_bytes": self.user_bytes,
            }
        )
        media = self.ctx.device.media
        if media is not None and media.tree is not None:
            tree = media.tree.stats()
            for key in ("leaf_updates", "node_hashes", "batches"):
                out[f"integrity.{key}"] = tree[key]
        return out

    def window(self, ops: Iterator[object]) -> Optional[Window]:
        """Run the first :attr:`WINDOW` ops; None if a traced run's span
        store fills up first."""
        sim_ns = 0.0
        count = 0
        write_lat: List[float] = []
        parts: List[object] = []
        not_writes = self.READ_KINDS | self.UNCLASSED_KINDS
        before = self.counters()
        for _ in range(self.WINDOW // self.CHUNK):
            if self.tracer is not None and self.tracer.nearly_full:
                return None
            res = self._chunk(list(islice(ops, self.CHUNK)))
            sim_ns += res.duration_ns
            count += res.ops
            for kind in sorted(res.latencies_by_kind):
                if kind not in not_writes:
                    write_lat.extend(res.latencies_by_kind[kind])
            parts.append((res.duration_ns, res.latencies_ns))
        counters = _delta(self.counters(), before)
        parts.append(sorted(counters.items()))
        return Window(digest(parts), count, sim_ns, write_lat, counters, peak_rss_mb())

    def measure(self, seconds: float) -> Optional[Window]:
        ops = self.inputs()
        gc.collect()
        self._speed = HostSpeed()
        with _recording(self.tracer):
            deadline = time.perf_counter() + seconds
            window = self.window(ops)
            while not _stop(deadline, self.phase, self.tracer):
                if not self.FRESH_WINDOWS:
                    self._chunk(list(islice(ops, self.CHUNK)))
                elif self.tracer is None:
                    self._reload()
                    self.window(ops)
                else:
                    break  # spans would record the next store's load
        self._speed = None
        return window

    def _reload(self) -> None:
        """Check the store, then load a fresh one; neither is timed."""
        self.problems += self.check()
        self.oracle = {}
        self.build()
        gc.collect()

    def check(self) -> List[str]:
        """Crash with every unflushed line lost, recover, and compare the
        reopened store with the oracle of acknowledged writes."""
        from repro.kvstore import KVStore
        from repro.nvm import CrashPolicy
        from repro.tx import reopen_after_crash

        self.kv.drain()
        device = self.ctx.device
        device.crash(CrashPolicy.DROP_ALL)
        heap, _engine, _report = reopen_after_crash(device, self._engine_factory)
        kv = KVStore.open(heap)
        problems: List[str] = []
        try:
            kv.tree.check_invariants()
        except AssertionError as exc:
            problems.append(f"B+Tree invariants broken after recovery: {exc}")
        stored = {key: heap.read_blob(ptr) for key, ptr in kv.tree.items()}
        problems += compare_oracle(stored, self.oracle)
        if self.read_mismatches:
            problems.append(f"{self.read_mismatches} reads returned a value other than the last write")
        return problems + self.extra_checks()


class YCSBGuarded(SingleNode):
    name = "ycsb-a-guarded"
    ALPHA = 0.5
    HEAP_MB = 48
    VALUE_SIZE = 1008
    NRECORDS = 2000
    CHUNK = 1000
    # 3000 ops hold about 1500 updates: p99 keeps 10 samples beyond it
    WINDOW = 3000
    READ_KINDS = frozenset({"read"})

    def __init__(self, seed: int, tracer: Optional[Tracer] = None):
        super().__init__(seed, tracer)
        from repro.workloads import YCSBWorkload

        self.workload = YCSBWorkload("A", self.NRECORDS, self.VALUE_SIZE, seed=seed)

    def inputs(self):
        return self.workload.run_ops(1 << 62)

    def load(self) -> None:
        for op in self.workload.load_ops():
            self.kv.put(op.key, op.value)
            self.oracle[op.key] = op.value

    def build(self) -> None:
        super().build()
        # after load, no faults injected: the tree only does its upkeep
        self.ctx.device.attach_media(seed=0, tree="streamed")
        self._reset_accounting()

    def kind_of(self, op) -> str:
        return op.kind

    def apply(self, op):
        from repro.workloads import UPDATE, YCSBWorkload

        result = YCSBWorkload.execute(self.kv, op)
        if op.kind == UPDATE:
            self.user_bytes += len(op.value)
            return result, {op.key: op.value}
        return result, {}

    def verify_read(self, op, result) -> bool:
        expected = self.oracle.get(op.key)
        return result is not None and expected is not None and padded_equal(result, expected)

    def extra_checks(self) -> List[str]:
        bad = self.ctx.device.media.bad_lines()
        return [f"integrity tree scan after recovery: {len(bad)} bad lines"] if bad else []


class TPCCOverflow(SingleNode):
    name = "tpcc-overflow"
    ALPHA = 0.01
    HEAP_MB = 24
    VALUE_SIZE = 64
    # small chunks: a traced chunk must fit in the span store's headroom
    CHUNK = 50
    # 1200 txs hold about 1100 writing txs: p99 keeps 10 samples beyond it
    WINDOW = 1200
    # order-status is read-only too, but it costs a tenth of a stock-level
    # and the two come in equal numbers: mixed, their median falls in the
    # gap between the two modes and jumps between them run to run
    READ_KINDS = frozenset({"stock_level"})
    UNCLASSED_KINDS = frozenset({"order_status"})
    # new-orders grow the tables, and every transaction costs more on
    # larger tables: over 3600 transactions on one store the read median
    # rose from 16 to 21 ms.  On one store, a faster host or program
    # would run more transactions and so read slower; fresh windows give
    # every run the same store sizes.
    FRESH_WINDOWS = True

    def inputs(self):
        from repro.workloads.tpcc import MIX

        rng = random.Random(self.seed)
        # TPC-C's card deck (clause 5.2.4.2): every 100 transactions hold
        # the mix exactly, shuffled.  Drawn independently, the share of
        # payments among writes wanders around 47% and the write median
        # jumps between the payment and new-order modes.
        deck = [name for name, weight in MIX for _ in range(round(weight * 100))]
        while True:
            rng.shuffle(deck)
            for profile in deck:
                # TPCCLite draws warehouse, district, items and amounts
                # from the op's own seed
                yield profile, rng.getrandbits(62)

    def load(self) -> None:
        from repro.workloads import TPCCLite

        rec = _RecordingKV(self.kv)
        TPCCLite(seed=self.seed).load(rec)
        self.oracle.update(rec.writes)

    def kind_of(self, op) -> str:
        return op[0]

    def apply(self, op):
        from repro.workloads import TPCCLite

        profile, op_seed = op
        rec = _RecordingKV(self.kv)
        result = getattr(TPCCLite(seed=op_seed), "do_" + profile)(rec)
        self.user_bytes += rec.user_bytes
        return result, rec.writes


# -- served workload ------------------------------------------------------------


class Served:
    """YCSB-A through ``ReproServer`` over loopback TCP.

    The server's own ``handle_command`` is wrapped on the instance to
    keep the oracle in the order the server executes commands, and to
    check each GET reply against it at that moment.
    """

    name = "served-ycsb"
    NRECORDS = 2000
    VALUE_SIZE = 64
    LOAD_BATCH = 64
    #: requests per connection in one timed segment; the connections
    #: meet between segments while the host's speed is sampled
    ROUND = 100
    # 2400 requests hold about 1200 PUTs: p99 keeps 10 samples beyond it
    WINDOW = 2400  # a multiple of ROUND * CONNECTIONS

    def __init__(self, seed: int, tracer: Optional[Tracer] = None):
        from repro.workloads import YCSBWorkload

        self.seed = seed
        self.tracer = tracer
        self.workload = YCSBWorkload("A", self.NRECORDS, self.VALUE_SIZE, seed=seed)
        self.oracle: Dict[int, Optional[bytes]] = {}
        self.read_mismatches = 0
        self.user_bytes = 0
        self.writes = 0
        self.phase = Phase()
        self._speed: Optional[HostSpeed] = None
        self._requests = 0

    @classmethod
    def input_digest(cls, seed: int) -> str:
        wl = cls(seed)
        return digest(
            [list(wl.workload.load_ops()), list(wl.workload.run_ops(cls.WINDOW))]
        )

    def _hook(self, server) -> None:
        handle = server.handle_command

        def recording(argv, session="conn0", batch_index=0):
            self._requests += 1
            if self.tracer is not None:
                self.tracer.op = self._requests
            reply, close = handle(argv, session, batch_index)
            verb = argv[0].upper() if argv else b""
            if verb == b"PUT" and reply.startswith(b"+OK"):
                self.oracle[int(argv[1])] = bytes(argv[2])
            elif verb == b"GET":
                expected = self.oracle.get(int(argv[1]))
                header, _, rest = reply.partition(b"\r\n")
                if expected is None or not header.startswith(b"$") or not padded_equal(
                    rest[: int(header[1:])], expected
                ):
                    self.read_mismatches += 1
            return reply, close

        server.handle_command = recording

    def counters(self) -> Dict[str, float]:
        cluster = self.server.cluster
        out: Dict[str, float] = {}
        lock_acquires = dependent = 0
        for group in cluster.groups:
            for node in group.chain:
                for key, value in _nvm_counts(node.device.stats).items():
                    out[key] = out.get(key, 0) + value
                stats = node.engine.locks.stats
                lock_acquires += stats.write_acquires + stats.read_acquires
                dependent += stats.dependent_waits + stats.conflict_waits
        gateway = self.server.gateway.stats()
        admission = self.server.admission.stats()
        out.update(
            {
                "tx.lock_acquires": lock_acquires,
                "tx.dependent_waits": dependent,
                "sim.events": cluster.sim.processed,
                "sim.now_ns": cluster.sim.now,
                "replication.msgs": cluster.net.stats.sent,
                "replication.delivered": cluster.net.stats.delivered,
                "replication.retransmissions": cluster.retransmissions,
                "cluster.map_refreshes": gateway["map_refreshes"],
                "serve.gateway_retries": gateway["internal_retries"],
                "serve.admission_rejects": admission["rejected_degraded"]
                + admission["rejected_overload"]
                + admission["shed_after_wait"]
                + admission["queue_overflow"],
                "user_bytes": self.user_bytes,
                "writes": self.writes,
            }
        )
        return out

    def _stream(self) -> List[Callable[[], object]]:
        """Per-connection op sources: op ``i`` of the stream goes to
        connection ``i % CONNECTIONS`` whatever the timing."""
        ops = self.workload.run_ops(1 << 62)
        queues = [deque() for _ in range(CONNECTIONS)]

        def source(conn: int):
            def next_op():
                if not queues[conn]:
                    for i, op in enumerate(islice(ops, 64 * CONNECTIONS)):
                        queues[i % CONNECTIONS].append(op)
                return queues[conn].popleft()

            return next_op

        return [source(i) for i in range(CONNECTIONS)]

    async def _client(self, client, next_op, count: int) -> None:
        from repro.workloads import READ as YCSB_READ

        phase = self.phase
        for _ in range(count):
            op = next_op()
            cmd = ["GET", op.key] if op.kind == YCSB_READ else ["PUT", op.key, op.value]
            phase.attempted += 1
            start = time.perf_counter()
            (reply,) = await client.pipeline([cmd])
            elapsed = time.perf_counter() - start
            if reply[0] == "error":
                phase.fail(f"{reply[1]} {reply[2]}")
                continue
            if op.kind == YCSB_READ:
                phase.record(READ, elapsed)
            else:
                phase.record(WRITE, elapsed)
                self.writes += 1
                self.user_bytes += len(op.value)

    async def _round(self, clients, sources) -> None:
        """:attr:`ROUND` requests on every connection: one timed segment."""
        first = len(self.phase.ops)
        start = time.perf_counter()
        await asyncio.gather(
            *(self._client(c, s, self.ROUND) for c, s in zip(clients, sources))
        )
        if self._speed is not None:
            self.phase.scale(first, self._speed.factor(), time.perf_counter() - start)

    async def _rep(self, mode: str, seconds: float) -> Rep:
        from repro.serve import ReproServer, ServeClient

        speed = HostSpeed()
        start = time.perf_counter()
        self.server = server = ReproServer(groups=2, shards_per_group=2, f=1, seed=0)
        self._hook(server)
        host, port = await server.start()
        clients = []
        try:
            for _ in range(CONNECTIONS):
                clients.append(await ServeClient.connect(host, port))
            load = [["PUT", op.key, op.value] for op in self.workload.load_ops()]
            for i in range(0, len(load), self.LOAD_BATCH):
                replies = await clients[0].pipeline(load[i : i + self.LOAD_BATCH])
                bad = [r for r in replies if r[0] == "error"]
                if bad:
                    raise GateFailure(f"load refused: {bad[0]}")
            rep = Rep(setup_s=(time.perf_counter() - start) * speed.factor())
            if mode == SETUP:
                return rep
            sources = self._stream()
            gc.collect()
            before = self.counters()
            lat_mark = [len(g.write_latencies_ns) for g in server.cluster.groups]
            if mode == MEASURE:
                self._speed = HostSpeed()
            with _recording(self.tracer if mode == MEASURE else None):
                deadline = time.perf_counter() + seconds
                for _ in range(self.WINDOW // (self.ROUND * CONNECTIONS)):
                    await self._round(clients, sources)
                rep.window = self._window(before, lat_mark)
                while mode == MEASURE and not _stop(deadline, self.phase, self.tracer):
                    await self._round(clients, sources)
            self._speed = None
            if mode == MEASURE:
                rep.phase = self.phase
            return rep
        finally:
            for client in clients:
                await client.close()
            await server.stop()

    def _window(self, before: Dict[str, float], lat_mark: List[int]) -> Window:
        delta = _delta(self.counters(), before)
        write_lat = [
            lat
            for g, mark in zip(self.server.cluster.groups, lat_mark)
            for lat in g.write_latencies_ns[mark:]
        ]
        return Window(
            digest([write_lat, sorted(delta.items())]),
            self.WINDOW,
            delta["sim.now_ns"],
            write_lat,
            delta,
            peak_rss_mb(),
        )

    def rep(self, mode: str, seconds: float) -> Rep:
        rep = asyncio.run(self._rep(mode, seconds))
        if mode == MEASURE:
            rep.problems = self.check()
        return rep

    def check(self) -> List[str]:
        cluster = self.server.cluster
        cluster.drain()
        problems: List[str] = []
        try:
            cluster.assert_replicas_consistent()
        except AssertionError as exc:
            problems.append(f"replicas diverge: {exc}")
        problems += compare_oracle(cluster.merged_tail_state(), self.oracle)
        if self.read_mismatches:
            problems.append(f"{self.read_mismatches} GETs returned a value other than the last PUT")
        return problems


def single_node_rep(wl: SingleNode, mode: str, seconds: float) -> Rep:
    speed = HostSpeed()
    start = time.perf_counter()
    wl.build()
    rep = Rep(setup_s=(time.perf_counter() - start) * speed.factor())
    if mode == WINDOW:
        rep.window = wl.window(wl.inputs())
    elif mode == MEASURE:
        rep.window = wl.measure(seconds)
        rep.phase = wl.phase
        rep.problems = wl.problems + wl.check()
    return rep


WORKLOADS = {cls.name: cls for cls in (YCSBGuarded, TPCCOverflow, Served)}


def run_rep(name: str, seed: int, mode: str, seconds: float, tracer: Optional[Tracer] = None) -> Rep:
    """Build one fresh instance of workload ``name`` and run it in ``mode``."""
    wl = WORKLOADS[name](seed, tracer)
    if isinstance(wl, Served):
        return wl.rep(mode, seconds)
    return single_node_rep(wl, mode, seconds)
