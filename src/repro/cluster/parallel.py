"""Process-parallel simulation of independent shard groups.

A :class:`~repro.cluster.sharded.ShardedCluster` shares one event
timeline across its groups so migrations and the nemesis can couple
them.  But the steady-state case — no migration in flight, every client
op routed by the shard map to exactly one group — has *zero* cross-group
traffic: each group's chain evolves as an independent deterministic
simulation.  This module exploits that: it partitions the client op
streams by owning group (the same consistent-hash
:class:`~repro.cluster.router.ShardMap` the live cluster would use),
simulates each group as its own single-chain cluster in a worker
process, and merges the results deterministically:

* per-group committed/aborted/retransmission counters sum;
* per-replica :class:`~repro.nvm.stats.NVMStats` fold through
  ``NVMStats.merge`` in (group, replica) order;
* transport :class:`~repro.sim.network.NetStats` fold per group tag;
* logical KV states union (disjoint by construction — the map routed
  each key to exactly one group);
* the cluster's simulated makespan is the **max** of the group
  timelines (they run concurrently in simulated time too).

Because each group job is seeded purely by ``(seed, gid)`` and the fold
walks groups in id order, the merged report is byte-identical for 1 or
N workers — the invariance `tests/cluster/test_parallel_shards.py`
pins.  The trade: this models an *uncoupled* epoch (between
migrations), which is exactly when fanning out is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..nvm.stats import NVMStats
from ..parallel import fan_out
from ..replication.chain import KAMINO
from ..sim.network import NetStats
from .placement import PlacementService


@dataclass
class GroupRunResult:
    """What one shard group's worker simulation produced."""

    gid: int
    committed: int = 0
    aborted: int = 0
    retransmissions: int = 0
    sim_time_ns: float = 0.0
    events: int = 0
    nvm: NVMStats = field(default_factory=NVMStats)
    net: NetStats = field(default_factory=NetStats)
    state: Dict[int, bytes] = field(default_factory=dict)


@dataclass
class ShardedRunReport:
    """Deterministic merge of every group's result (group-id order)."""

    groups: List[GroupRunResult] = field(default_factory=list)
    committed: int = 0
    aborted: int = 0
    retransmissions: int = 0
    sim_time_ns: float = 0.0
    events: int = 0
    nvm: NVMStats = field(default_factory=NVMStats)
    net: NetStats = field(default_factory=NetStats)
    state: Dict[int, bytes] = field(default_factory=dict)

    def assert_matches(self, other: "ShardedRunReport") -> None:
        """Byte-level equality oracle for worker-count invariance."""
        assert self.committed == other.committed, "committed diverged"
        assert self.aborted == other.aborted, "aborted diverged"
        assert self.retransmissions == other.retransmissions, "retx diverged"
        assert self.sim_time_ns == other.sim_time_ns, "sim time diverged"
        assert self.events == other.events, "event counts diverged"
        assert self.nvm == other.nvm, "merged NVMStats diverged"
        assert self.net == other.net, "merged NetStats diverged"
        assert self.state == other.state, "merged KV state diverged"


def _run_group_job(job) -> GroupRunResult:
    """Simulate one shard group to quiescence (module-level: pickles).

    A fresh single-chain cluster is built from plain parameters; the
    seed mixes the run seed with the group id so every group's RNG
    stream is fixed regardless of which process runs it.
    """
    (gid, streams, f, mode, heap_mb, value_size, seed) = job
    # local import: keep module import light for the router-only users
    from ..replication.chain import ChainCluster
    from ..replication.client import run_clients

    cluster = ChainCluster(
        f=f, mode=mode, heap_mb=heap_mb, value_size=value_size,
        seed=seed * 1_000_003 + gid,
    )
    if any(streams):
        run_clients(cluster, [s for s in streams if s])
    cluster.drain()
    cluster.assert_replicas_consistent()
    result = GroupRunResult(
        gid=gid,
        committed=cluster.committed,
        aborted=cluster.aborted,
        retransmissions=cluster.retransmissions,
        sim_time_ns=cluster.sim.now,
        events=cluster.sim.processed,
        nvm=NVMStats.merge(node.device.stats for node in cluster.chain),
        net=cluster.net.stats.snapshot(),
        state=cluster.kv_states()[0],
    )
    return result


def run_sharded_parallel(
    streams: Sequence[Sequence],
    groups: int = 2,
    shards_per_group: int = 2,
    f: int = 1,
    mode: str = KAMINO,
    heap_mb: int = 2,
    value_size: int = 128,
    seed: int = 0,
    vnodes: int = 32,
    workers: int = 0,
    placement: Optional[PlacementService] = None,
) -> ShardedRunReport:
    """Partition ``streams`` by shard group and simulate the groups in
    parallel; returns the deterministically merged report.

    ``streams`` are per-client :class:`~repro.workloads.ycsb.Op` lists
    (the same shape :func:`~repro.replication.client.run_clients`
    takes).  Each op is routed by the bootstrap shard map — the worker
    count never changes which group owns a key, so the merge is
    byte-identical for ``workers=0`` and ``workers=N``.
    """
    if placement is None:
        placement = PlacementService.bootstrap(groups, shards_per_group, vnodes=vnodes)
    shard_map = placement.map
    # per-group, per-client partitions preserving each client's op order
    partitions: List[List[List]] = [
        [[] for _ in streams] for _ in range(groups)
    ]
    for cid, stream in enumerate(streams):
        for op in stream:
            partitions[shard_map.group_for(op.key)][cid].append(op)
    jobs = [
        (gid, partitions[gid], f, mode, heap_mb, value_size, seed)
        for gid in range(groups)
    ]
    results = fan_out(_run_group_job, jobs, workers)

    report = ShardedRunReport(groups=results)
    for result in results:  # gid order == job order (ordered fan-out)
        report.committed += result.committed
        report.aborted += result.aborted
        report.retransmissions += result.retransmissions
        report.sim_time_ns = max(report.sim_time_ns, result.sim_time_ns)
        report.events += result.events
        report.state.update(result.state)
    report.nvm = NVMStats.merge(result.nvm for result in results)
    report.net = NetStats.merge(result.net for result in results)
    return report
