"""Crash-state exploration for the replication chain (§5.2–§5.3).

The in-place replica engine (``intent-only``) cannot recover alone — its
intent logs only *identify* incomplete write ranges; repairing them
takes a chain neighbour.  So its crash sweep runs here, over a live
:class:`~repro.replication.chain.ChainCluster`, instead of the
standalone heap explorer.  Two complementary sweeps:

* **Event-boundary interventions** — run the deterministic event
  simulation for exactly ``k`` events, then hit one replica with a
  §5.3 quick reboot (crash + in-place repair + replay) or a §5.2
  fail-stop (remove + re-stitch the chain), for every ``k`` and every
  replica.  This enumerates the protocol's message-loss windows:
  forwards in flight, unacknowledged tails, half-propagated cleanups.
* **Device-op crashes** — arm a power failure on one replica's NVM
  device so it fires *inside* transaction execution mid-chain, leaving
  a RUNNING intent-log slot; quick reboot must then repair exactly the
  logged ranges from the predecessor (Figure 9, case 1).

After an intervention the driver **settles** the chain
(:func:`repro.replication.recovery.settle`): each surviving replica
re-forwards its in-flight window to its successor (the protocol
messages are idempotent — ``applied_seq`` filters replays), modelling
the timeout-driven retransmission a deployment would run, then drains
the simulator.  The oracle then demands:

1. every replica's logical KV state is identical
   (:meth:`ChainCluster.assert_replicas_consistent`);
2. quick reboots lose nothing: the final state equals the undisturbed
   baseline run's;
3. fail-stops lose at most unacked work: every write whose tail ack had
   been delivered to the head before the failure is still present.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ReplicationError
from ..nvm.device import CrashPolicy
from ..replication.chain import KAMINO, ChainCluster
from ..replication.recovery import fail_stop, quick_reboot, settle
from ..sweep import (
    Failure,
    Report,
    Verdict,
    count_ops,
    crash_during,
    sample_points,
    sweep,
)

QUICK_REBOOT = "quick_reboot"
FAIL_STOP = "fail_stop"
COORDINATOR_CRASH = "crash_coordinator"


@dataclass(frozen=True)
class ChainScenario:
    """One chain intervention experiment.

    ``after_events`` pauses the simulation at that event count before
    intervening; ``device_crash_after`` instead arms a device fail-point
    on the replica (counted in its mutating NVM ops) and lets the crash
    interrupt execution wherever it lands.
    """

    mode: str = KAMINO
    intervention: str = QUICK_REBOOT
    replica: int = 1
    after_events: int = 0
    device_crash_after: Optional[int] = None
    policy: CrashPolicy = CrashPolicy.DROP_ALL
    survival: float = 0.5
    double_reboot: bool = False

    def describe(self) -> str:
        parts = [f"mode={self.mode}", f"{self.intervention} r{self.replica}"]
        if self.device_crash_after is not None:
            parts.append(f"device_crash_after={self.device_crash_after}")
        else:
            parts.append(f"after_events={self.after_events}")
        parts.append(f"policy={self.policy.value}")
        if self.double_reboot:
            parts.append("double_reboot")
        return ", ".join(parts)


class ChainCrashExplorer:
    """Sweeps quick-reboot / fail-stop interventions over a small chain."""

    def __init__(self, mode: str = KAMINO, f: int = 2, n_writes: int = 6):
        self.mode = mode
        self.f = f
        self.n_writes = n_writes
        self._baseline: Optional[Dict[int, bytes]] = None

    # -- deterministic cluster construction ----------------------------------

    def _build(self) -> Tuple[ChainCluster, Dict[int, bytes]]:
        """Fresh cluster with the write script submitted; returns it plus
        the seq -> expected-value map (distinct keys, one put each)."""
        cluster = ChainCluster(f=self.f, mode=self.mode, heap_mb=2, value_size=64)
        expected: Dict[int, bytes] = {}
        for i in range(self.n_writes):
            value = bytes([i + 1]) * 16
            cluster.submit_write("put", (i, value), keys=(i,))
            # distinct keys admit in order, so seq = i+1; stores are
            # zero-padded to the fixed record size
            expected[i + 1] = value.ljust(64, b"\x00")
        return cluster, expected

    def baseline(self) -> Dict[int, bytes]:
        """Head KV state of an undisturbed run (the convergence target)."""
        if self._baseline is None:
            cluster, _expected = self._build()
            cluster.drain()
            cluster.assert_replicas_consistent()
            self._baseline = cluster.kv_states()[0]
        return self._baseline

    def count_events(self) -> int:
        cluster, _expected = self._build()
        cluster.run()
        return cluster.sim.processed

    def points(self) -> Tuple[int, int]:
        """The event boundaries to intervene at: after 0 .. all events."""
        return 0, self.count_events()

    def count_device_ops(self, replica: int) -> int:
        """Mutating NVM ops the replica performs while the chain runs."""
        cluster, _expected = self._build()
        return count_ops(cluster.chain[replica].device, cluster.drain)

    # -- judging -------------------------------------------------------------

    def _judge(
        self,
        cluster: ChainCluster,
        scenario: ChainScenario,
        expected: Dict[int, bytes],
        acked_before: List[int],
        baseline: Dict[int, bytes],
    ) -> Optional[str]:
        try:
            cluster.assert_replicas_consistent()
        except AssertionError as exc:
            return f"replica divergence: {exc}"
        state = cluster.kv_states()[0]
        if scenario.intervention == QUICK_REBOOT:
            if state != baseline:
                missing = sorted(set(baseline) - set(state))
                return f"quick reboot lost committed work (missing keys {missing[:10]})"
            return None
        # fail-stop: anything acked to the client must survive the view change
        for seq in acked_before:
            key = seq - 1
            if state.get(key) != expected[seq]:
                return f"acked write seq={seq} (key {key}) lost across fail-stop"
        return None

    # -- one scenario --------------------------------------------------------

    def trial(self, scenario: ChainScenario) -> Optional[Verdict]:
        """Run one intervention and judge the chain; ``None`` if a device
        fail point lies beyond the run (nothing to check)."""
        cluster, expected = self._build()
        if scenario.device_crash_after is not None:
            node = cluster.chain[scenario.replica]
            if not crash_during(node.device, cluster.drain,
                                scenario.device_crash_after, scenario.policy,
                                scenario.survival):
                return None
        else:
            cluster.sim.run(max_events=scenario.after_events)
        problem = self._intervene(cluster, scenario, expected)
        return Verdict(Failure(scenario, (problem,)) if problem else None)

    def _intervene(self, cluster: ChainCluster, scenario: ChainScenario,
                   expected: Dict[int, bytes]) -> Optional[str]:
        """Repair, settle and judge; the first problem found, if any."""
        baseline = self.baseline() if scenario.intervention == QUICK_REBOOT else {}
        acked_before = sorted(cluster._tail_acked)
        try:
            if scenario.intervention == QUICK_REBOOT:
                quick_reboot(
                    cluster, scenario.replica, scenario.policy, scenario.survival
                )
                if scenario.double_reboot:
                    # a second power failure before the chain moves on:
                    # repair must be idempotent
                    quick_reboot(
                        cluster, scenario.replica, scenario.policy, scenario.survival
                    )
            else:
                fail_stop(cluster, scenario.replica)
        except Exception as exc:
            return f"repair raised {type(exc).__name__}: {exc}"
        try:
            settle(cluster)  # the timeout-driven retransmission
        except Exception as exc:
            return f"post-repair drain raised {type(exc).__name__}: {exc}"
        return self._judge(cluster, scenario, expected, acked_before, baseline)

    def replay(self, scenario: ChainScenario) -> Optional[Failure]:
        verdict = self.trial(scenario)
        return verdict and verdict.failure

    # -- the sweep -----------------------------------------------------------

    def explore(
        self,
        max_points: Optional[int] = None,
        interventions: Tuple[str, ...] = (QUICK_REBOOT, FAIL_STOP),
        replicas: Optional[List[int]] = None,
        device_crashes: bool = True,
        max_device_points: Optional[int] = 6,
        double_reboot: bool = True,
        workers: int = 0,
    ) -> Report:
        """Sweep interventions at every event boundary (sampled by
        ``max_points``) for every replica, plus device-op crash points on
        one mid replica.  ``workers`` fans the scenario replays over a
        process pool; the ordered fold keeps the report byte-identical
        for any worker count."""
        first, last = self.points()
        report = Report(f"chain-{self.mode}", "kv", n_ops=last - first + 1)
        n_replicas = len(self._build()[0].chain)
        if replicas is None:
            replicas = list(range(n_replicas))
        scenarios: List[ChainScenario] = []
        for k in sample_points(first, last, max_points):
            for idx in replicas:
                for intervention in interventions:
                    base = ChainScenario(mode=self.mode, intervention=intervention,
                                         replica=idx, after_events=k)
                    scenarios.append(base)
                    if intervention == QUICK_REBOOT and double_reboot:
                        scenarios.append(replace(base, double_reboot=True))
        if device_crashes and n_replicas > 2:
            mid = 1  # first non-head replica: in-place + intent log
            n_ops = self.count_device_ops(mid)
            for p in sample_points(0, n_ops - 1, max_device_points):
                scenarios.append(
                    ChainScenario(
                        mode=self.mode,
                        intervention=QUICK_REBOOT,
                        replica=mid,
                        device_crash_after=p,
                    )
                )
        self.baseline()  # cached before the fan-out pickles the explorer
        sweep(report, self, scenarios, workers)
        return report


@dataclass(frozen=True)
class MigrationScenario:
    """One crash experiment inside an online shard-migration window.

    The sweep pauses a 2-group sharded run at ``after_events`` event
    boundaries *counted from the migration's start* and either
    power-fails the migration coordinator (volatile migration state
    dies; the durable cursor must resume it) or quick-reboots one
    replica of one group while the copy traffic is in flight.
    """

    mode: str = KAMINO
    intervention: str = COORDINATOR_CRASH
    group: int = 0
    replica: int = 0
    after_events: int = 0
    double: bool = False

    def describe(self) -> str:
        parts = [f"mode={self.mode}", f"after_events={self.after_events}"]
        if self.intervention == COORDINATOR_CRASH:
            parts.append("crash_coordinator" + (" x2" if self.double else ""))
        else:
            parts.append(f"{self.intervention} g{self.group}:r{self.replica}")
        return ", ".join(parts)


class MigrationCrashExplorer:
    """Sweeps crash points inside an active shard migration.

    Builds a deterministic two-group :class:`~repro.cluster.sharded.
    ShardedCluster`, preloads it, starts migrating one group-0 shard to
    group 1, and keeps overwriting the same keys on a staggered timer so
    client writes land during every migration phase (copy tap, catch-up,
    hand-off parking, post-flip).  Each scenario replays that script up
    to an event boundary, intervenes, drains, and demands:

    1. every group's replicas converge;
    2. the migration *terminates* (resumed from the durable cursor, not
       wedged) and does not abort;
    3. placement is respected — after the flip + purge, each key lives
       only on its owning group;
    4. **zero lost committed transactions**: every write whose ack was
       delivered before the crash is present in the merged tail state
       with its acked value.
    """

    def __init__(self, mode: str = KAMINO, f: int = 1, n_keys: int = 10,
                 shards_per_group: int = 2):
        self.mode = mode
        self.f = f
        self.n_keys = n_keys
        self.shards_per_group = shards_per_group

    # -- deterministic cluster construction ----------------------------------

    def _build(self):
        """Fresh sharded cluster, preloaded and mid-migration; returns
        it plus the live key -> last-acked-value map (updated by the
        staggered overwrite callbacks as their acks arrive)."""
        # local import: the checker stays importable without the cluster
        from ..cluster.sharded import ShardedCluster

        cluster = ShardedCluster(
            groups=2, shards_per_group=self.shards_per_group,
            f=self.f, mode=self.mode, heap_mb=2, value_size=64,
        )
        acked: Dict[int, bytes] = {}
        for i in range(self.n_keys):
            value = bytes([i + 1]) * 16
            cluster.submit_write("put", (i, value), keys=(i,))
            acked[i] = value.ljust(64, b"\x00")
        cluster.drain()
        shard = cluster.map.shards_of(0)[0]
        cluster.migrate_shard(shard, dst_group=1)
        for i in range(self.n_keys):
            value = bytes([0x41 + i]) * 16

            def fire(key=i, val=value):
                def on_ack(result, _latency, key=key, val=val):
                    if not isinstance(result, ReplicationError):
                        acked[key] = val.ljust(64, b"\x00")

                cluster.submit_write("put", (key, val), keys=(key,),
                                     callback=on_ack)

            cluster.sim.schedule(10_000.0 + i * 30_000.0, fire)
        return cluster, acked

    def count_events(self) -> int:
        """Events in the migration window of an undisturbed run."""
        cluster, _acked = self._build()
        before = cluster.sim.processed
        cluster.drain()
        return cluster.sim.processed - before

    def points(self) -> Tuple[int, int]:
        """The migration window's event boundaries: after 0 .. all."""
        return 0, self.count_events()

    # -- one scenario --------------------------------------------------------

    def _intervene(self, cluster, scenario: MigrationScenario) -> Optional[str]:
        try:
            if scenario.intervention == COORDINATOR_CRASH:
                cluster.crash_coordinator()
                if scenario.double:
                    # a second power failure before the resumed copy
                    # moves: recovery must be idempotent
                    cluster.crash_coordinator()
            else:
                quick_reboot(cluster.groups[scenario.group], scenario.replica)
        except Exception as exc:
            return f"intervention raised {type(exc).__name__}: {exc}"
        try:
            for group in cluster.groups:
                settle(group)
            cluster.drain()
            for group in cluster.groups:
                settle(group)
            cluster.drain()
        except Exception as exc:
            return f"post-crash drain raised {type(exc).__name__}: {exc}"
        return None

    def trial(self, scenario: MigrationScenario) -> Verdict:
        cluster, acked = self._build()
        cluster.sim.run(max_events=scenario.after_events)
        problem = self._intervene(cluster, scenario) or self._judge(cluster, acked)
        return Verdict(Failure(scenario, (problem,)) if problem else None)

    def replay(self, scenario: MigrationScenario) -> Optional[Failure]:
        return self.trial(scenario).failure

    # -- judging -------------------------------------------------------------

    def _judge(self, cluster, acked: Dict[int, bytes]) -> Optional[str]:
        try:
            cluster.assert_replicas_consistent()
        except AssertionError as exc:
            return f"replica divergence: {exc}"
        if cluster.active_migrations:
            return (
                f"migration wedged (shards {cluster.active_migrations} never "
                "terminated)"
            )
        if cluster.migration_failures:
            return "migration aborted: " + "; ".join(cluster.migration_failures)
        try:
            cluster.assert_placement_respected()
        except AssertionError as exc:
            return f"placement violated: {exc}"
        merged = cluster.merged_tail_state()
        for key in sorted(acked):
            if merged.get(key) != acked[key]:
                return f"acked write to key {key} lost across the migration crash"
        return None

    # -- the sweep -----------------------------------------------------------

    def explore(
        self,
        max_points: Optional[int] = None,
        double: bool = True,
        reboots: bool = True,
        workers: int = 0,
    ) -> Report:
        """Sweep coordinator crashes (and optionally per-group replica
        quick reboots) at every event boundary of the migration window,
        sampled down by ``max_points``.  ``workers`` fans the replays
        over a process pool with an ordered, byte-identical fold."""
        first, last = self.points()
        report = Report(f"chain-{self.mode}-migration", "kv", n_ops=last - first + 1)
        scenarios: List[MigrationScenario] = []
        for k in sample_points(first, last, max_points):
            base = MigrationScenario(mode=self.mode, after_events=k)
            scenarios.append(base)
            if double:
                scenarios.append(replace(base, double=True))
            if reboots:
                # the heads carry the copy traffic on both sides
                scenarios += [
                    replace(base, intervention=QUICK_REBOOT, group=group)
                    for group in (0, 1)
                ]
        sweep(report, self, scenarios, workers)
        return report


def explore_nemesis(
    mode: str = KAMINO,
    scenarios=None,
    seeds: int = 5,
    f: int = 2,
    workers: int = 0,
) -> Report:
    """Run the nemesis fault corpus and fold the verdicts into a kernel
    :class:`~repro.sweep.Report`, so `repro check` surfaces both sweeps
    with one summary format; each failure names its own scenario and
    seed.  ``scenarios=None`` runs the full built-in corpus.  ``workers``
    fans the seeded runs over a process pool; every run is
    seed-deterministic, so the folded report does not depend on the
    worker count."""
    # local import: repro.faults pulls in the replication stack, and the
    # checker must stay importable without it
    from ..faults import run_corpus

    report = Report(f"chain-{mode}-nemesis", "kv")
    for run, result in run_corpus(scenarios, seeds=seeds, mode=mode, f=f,
                                  workers=workers):
        failure = Failure(run, tuple(result.problems)) if result.problems else None
        report.add(Verdict(failure))
    return report
