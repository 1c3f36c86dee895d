"""Exhaustive crash-state exploration for a single heap + engine.

The explorer turns "does this engine recover correctly?" into a finite
enumeration:

1. **Count** the workload's mutating device operations by arming an
   unreachably large fail-point budget and reading back how much of it
   ticked away (:meth:`NVMDevice.scheduled_crash_remaining`).  Setup is
   excluded — the countdown is armed after setup commits and its backup
   sync drains — so every numbered point lands inside a step transaction
   or the trailing sync drain, the window recovery must handle.
2. **Record the ledger**: one uncrashed golden run, observing the
   logical state after setup and after every step
   (:class:`~repro.check.oracle.Ledger`).
3. For every crash point (or an evenly-spaced sample in quick mode),
   **replay** the workload with the fail-point armed, let the power
   failure fire, recover with :func:`~repro.tx.recovery.reopen_after_crash`,
   and judge the recovered heap with the ledger oracle, the workload's
   structure validators, and (for backup engines) main/backup agreement.
4. **Prune** redundant states: the device records a digest of the
   pre-resolution crash image (durable bytes + dirty-line overlay) at
   crash time; two points with equal digests behave identically under
   every crash policy, so only the first is explored.  Points separated
   only by reads, or by a fence that persisted nothing new, collapse.
5. **Nest**: for each novel crash state, re-crash at every mutating
   operation *of recovery itself* (and its post-recovery sync drain),
   then recover again — recovery must be idempotent under its own power
   failures (paper §3: "both directions are idempotent").

RANDOM-policy sampling replays surviving-word lotteries with distinct
device seeds, covering torn writes beyond the all-or-nothing policies.

**Media-corruption mode** (``Scenario.media`` + ``corrupt_lines``)
additionally rots the durable image *between the crash and recovery*:
seeded bit flips land in the heap and backup-mirror bytes while the
machine is "off", exactly when no code can observe them happening.  The
oracle is then *detect-or-repair, never silent corruption*: with
``media="protected"`` recovery must either repair every flipped line
(checksum scrub against the surviving copy) and satisfy the usual
ledger/validator battery, or degrade with a typed
:class:`~repro.errors.MediaError` — recovered state that silently
disagrees with the ledger is a failure, and so is any line still
detectably bad after the post-recovery scrub.  With
``media="unprotected"`` the same flips go undetected, which is how the
checker demonstrates the failure class the sidecar exists to close.

**Adversarial mode** (``Scenario.stale_lines`` + ``tree``) goes one step
further: instead of random flips, changed live lines (and their backup
partners) are replayed with their setup-time bytes *and the matching
stale CRCs forged into the sidecar* — consistent multi-line corruption
that per-line checksums verify clean.  Checksum-only configurations
demonstrably serve stale state (the must-fail leg); with
``tree="streamed"``/``"eager"`` the persistent integrity tree's root
still disputes the replayed lines, and the same detect-or-repair oracle
passes: root-verified repair from a surviving copy, or a typed degrade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    MediaError,
    PoolCorruptionError,
    RecoveryError,
)
from ..nvm.device import CrashPolicy, NVMDevice
from ..nvm.latency import CACHE_LINE
from ..runtime.registry import EngineInfo, engine_info, registered_engines
from ..sweep import (
    Failure,
    Report,
    Verdict,
    count_ops,
    crash_during,
    portable,
    sample_points as _sample_points,
    sweep,
)
from ..tx.recovery import reopen_after_crash, verify_backup_consistency
from .oracle import Ledger, OracleViolation, check_against_ledger
from .workload import CANNED_WORKLOADS, CheckWorkload, build_stack

_LINE_SHIFT = CACHE_LINE.bit_length() - 1


@dataclass(frozen=True)
class Scenario:
    """One fully-determined crash experiment — the unit of replay.

    ``crash_after`` counts completed mutating device operations from the
    end of setup: the power fails just before operation
    ``crash_after + 1`` (0 = before the first one).  ``nested_after``
    additionally crashes recovery itself, counted the same way from the
    start of the reopen.
    """

    engine: str
    workload: str = "pairs"
    crash_after: int = 1
    policy: CrashPolicy = CrashPolicy.DROP_ALL
    survival: float = 0.5
    device_seed: int = 0
    nested_after: Optional[int] = None
    nested_policy: CrashPolicy = CrashPolicy.DROP_ALL
    #: "off" | "protected" | "unprotected" — attach a media-fault model
    media: str = "off"
    #: seeded bit flips injected into heap+backup between crash and recovery
    corrupt_lines: int = 0
    corrupt_seed: int = 0
    #: "off" | "streamed" | "eager" — maintain the persistent integrity
    #: tree (requires media="protected")
    tree: str = "off"
    #: adversarial consistent corruption: replay this many live main
    #: lines (plus their backup partners) with setup-time bytes AND the
    #: matching stale CRCs, between the crash and recovery
    stale_lines: int = 0

    def changed_fields(self) -> List[Tuple[str, Any]]:
        """The identifying fields, then every field off its default — what
        :meth:`describe` and :func:`~repro.check.repro_snippet` render."""
        return [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name in ("engine", "workload", "crash_after", "policy")
            or getattr(self, f.name) != f.default
        ]

    def describe(self) -> str:
        return ", ".join(
            f"{name}={getattr(value, 'value', value)}"
            for name, value in self.changed_fields()
        )


class CrashExplorer:
    """Sweeps every crash state of one engine running one workload.

    Args:
        engine: registered engine name (resolved via the runtime
            registry; the same factory rebuilds the engine for
            recovery, like a restart with the same binary).
        workload: canned workload name, or pass ``workload_factory``.
        workload_factory: zero-arg callable returning a fresh
            :class:`CheckWorkload`; overrides ``workload``.
        engine_factory: override the registry factory (tests inject
            deliberately broken engines this way).
        device_seed: base seed; RANDOM samples perturb it.
    """

    def __init__(
        self,
        engine: str,
        workload: str = "pairs",
        workload_factory: Optional[Callable[[], CheckWorkload]] = None,
        engine_factory: Optional[Callable[[], Any]] = None,
        device_seed: int = 0,
    ):
        self.engine_name = engine
        if engine_factory is not None:
            self._engine_factory = engine_factory
        else:
            info: EngineInfo = engine_info(engine)
            self._engine_factory = info.factory
        if workload_factory is None:
            if workload not in CANNED_WORKLOADS:
                raise ValueError(
                    f"unknown workload '{workload}'; choose from {sorted(CANNED_WORKLOADS)}"
                )
            workload_factory = CANNED_WORKLOADS[workload]
        self.workload_name = workload
        self._workload_factory = workload_factory
        self.device_seed = device_seed
        self._ledger: Optional[Ledger] = None

    @property
    def _portable(self) -> bool:
        """Whether replays can fan out (closure factories cannot)."""
        return portable(self)

    # -- replay primitives ---------------------------------------------------

    def _fresh(
        self, seed: int, media: str = "off", tree: str = "off"
    ) -> Tuple[Any, Any, NVMDevice, CheckWorkload]:
        heap, engine, device = build_stack(
            self._engine_factory, seed=seed, media=media, tree=tree
        )
        workload = self._workload_factory()
        workload.setup(heap)
        heap.drain()
        return heap, engine, device, workload

    @staticmethod
    def _stale_snapshot(device: NVMDevice, heap: Any, scenario: Scenario):
        """Setup-time line images for the stale-replay adversary.

        Captured right after setup drains (so every image is a
        legitimately persisted state with a CRC the sidecar once
        vouched for), covering the live main lines and their
        backup-mirror partners."""
        media = device.media
        if media is None or scenario.stale_lines <= 0:
            return None
        region = heap.region
        live = heap.allocator.live_ranges()
        spans = [(region.offset + off, size) for off, size in live]
        images = media.snapshot_lines(spans)
        main_lines = sorted(images)
        partner: Dict[int, int] = {}
        backup = region.pool.regions.get("backup")
        if backup is not None and backup.size >= region.size:
            images.update(
                media.snapshot_lines(
                    [(backup.offset + off, size) for off, size in live]
                )
            )
            for line in main_lines:
                rel = (line << _LINE_SHIFT) - region.offset
                partner[line] = (backup.offset + rel) >> _LINE_SHIFT
        return {"images": images, "main": main_lines, "partner": partner}

    @staticmethod
    def _inject_stale(device: NVMDevice, scenario: Scenario, snap) -> None:
        """Replay stale-but-consistent line images into the crashed
        durable state: seeded live main lines that changed since setup
        get their setup-time bytes back *with the matching stale CRC
        forged in the sidecar*, and so do their backup partners — a
        consistent multi-line replay that per-line checksums verify
        clean.  Only the integrity tree still disputes it."""
        media = device.media
        if media is None or snap is None or scenario.stale_lines <= 0:
            return
        durable = device._durable
        images = snap["images"]
        changed = []
        for line in snap["main"]:
            base = line << _LINE_SHIFT
            if bytes(durable[base : base + CACHE_LINE]) != images[line]:
                changed.append(line)
        if not changed:
            return
        rng = random.Random(scenario.corrupt_seed ^ 0x5A1E)
        chosen = sorted(rng.sample(changed, min(scenario.stale_lines, len(changed))))
        targets = list(chosen)
        partner = snap["partner"]
        for line in chosen:
            p = partner.get(line)
            if p is not None and p in images:
                targets.append(p)
        media.replay_stale(images, targets)

    @staticmethod
    def _inject_corruption(device: NVMDevice, heap: Any, scenario: Scenario) -> None:
        """Rot the crashed durable image: seeded bit flips into the heap
        and its backup mirror, while the machine is "off"."""
        media = device.media
        if media is None or scenario.corrupt_lines <= 0:
            return
        # target the *live* allocations (and their backup-mirror image) —
        # rot in free space is unobservable and proves nothing
        region = heap.region
        live = heap.allocator.live_ranges()
        spans = [(region.offset + off, size) for off, size in live]
        backup = region.pool.regions.get("backup")
        if backup is not None and backup.size >= region.size:
            spans += [(backup.offset + off, size) for off, size in live]
        if not spans:
            spans = [(region.offset, region.size)]
        media.inject_flips(
            scenario.corrupt_lines,
            ranges=spans,
            rng=random.Random(scenario.corrupt_seed),
        )

    @staticmethod
    def _run_steps(heap: Any, workload: CheckWorkload, done: List[int]) -> None:
        for i in range(workload.n_steps):
            workload.step(heap, i)
            done.append(i)
        heap.drain()

    def _recover(self, device: NVMDevice) -> None:
        heap, _engine, _report = reopen_after_crash(device, self._engine_factory)
        heap.drain()

    def count_ops(self) -> int:
        """Mutating device operations between end-of-setup and quiescence."""
        heap, _engine, device, workload = self._fresh(self.device_seed)
        return count_ops(device, partial(self._run_steps, heap, workload, []))

    def points(self) -> Tuple[int, int]:
        """The crash-point span: one point per counted mutating op."""
        return 0, self.count_ops() - 1

    def golden_ledger(self) -> Ledger:
        """Uncrashed run recording the logical state after every step
        (cached: it ships to worker processes with the explorer)."""
        if self._ledger is None:
            heap, _engine, _device, workload = self._fresh(self.device_seed)
            ledger = Ledger(workload=self.workload_name)
            ledger.states.append(workload.observe(heap))
            for i in range(workload.n_steps):
                workload.step(heap, i)
                ledger.states.append(workload.observe(heap))
            heap.drain()
            self._ledger = ledger
        return self._ledger

    # -- one scenario --------------------------------------------------------

    def _crash(self, scenario: Scenario) -> Optional[Tuple[NVMDevice, CheckWorkload, int]]:
        """Run the workload until ``scenario``'s fail point fires, then rot
        the crashed image as the scenario asks.  Returns the crashed
        device, the workload and the steps completed before the crash;
        ``None`` if the point lies beyond the workload."""
        heap, _engine, device, workload = self._fresh(
            scenario.device_seed, media=scenario.media, tree=scenario.tree
        )
        snap = self._stale_snapshot(device, heap, scenario)
        done: List[int] = []
        run = partial(self._run_steps, heap, workload, done)
        if not crash_during(device, run, scenario.crash_after, scenario.policy,
                            scenario.survival):
            return None
        self._inject_corruption(device, heap, scenario)
        self._inject_stale(device, scenario, snap)
        return device, workload, len(done)

    def trial(self, scenario: Scenario) -> Optional[Verdict]:
        """Run one scenario and judge the recovered heap; ``None`` if the
        fail point never fired (nothing was checked)."""
        crashed = self._crash(scenario)
        if crashed is None:
            return None
        device, workload, steps_done = crashed
        nested = scenario.nested_after is not None
        verdict = Verdict(fingerprint=device.last_crash_fingerprint, nested=nested)
        if nested:
            try:
                crashed_again = crash_during(
                    device, partial(self._recover, device), scenario.nested_after,
                    scenario.nested_policy, scenario.survival,
                )
            except (MediaError, PoolCorruptionError):
                # the first recovery hit the rot and degraded with a typed
                # error before the nested fail-point fired — detection, not
                # silence, so the scenario passes under "protected".
                # PoolCorruptionError covers self-validating metadata
                # (pool header, allocator tables) parsing the rot before
                # the post-open scrub could mark the line.
                device.cancel_scheduled_crash()
                if scenario.media == "protected":
                    return verdict
                raise
            if not crashed_again:
                return verdict
            verdict = replace(verdict, crashes=2)
        violation = self._judge(device, workload, self.golden_ledger(), steps_done,
                                scenario.media)
        if violation is None:
            return verdict
        return replace(verdict, failure=Failure(scenario, (str(violation),), violation))

    def replay(self, scenario: Scenario) -> Tuple[Optional[Failure], Optional[str]]:
        """Run one scenario; returns (failure-or-None, crash fingerprint),
        with a ``None`` fingerprint when the fail point never fired."""
        verdict = self.trial(scenario)
        return (verdict.failure, verdict.fingerprint) if verdict else (None, None)

    def _judge(
        self,
        device: NVMDevice,
        workload: CheckWorkload,
        ledger: Ledger,
        steps_done: int,
        media_mode: str = "off",
    ) -> Optional[OracleViolation]:
        """Final (un-crashed) recovery + the full oracle battery.

        In media mode the contract is detect-or-repair: a typed
        :class:`MediaError` out of recovery or observation is an accepted
        degrade (the corruption was *caught*), silent disagreement with
        the ledger is the failure being hunted, and — under
        ``"protected"`` — so is any line left detectably bad after the
        post-recovery scrub.
        """
        try:
            heap, engine, _report = reopen_after_crash(device, self._engine_factory)
        except MediaError as exc:
            if media_mode != "off":
                return None  # typed detection — never served silently
            return OracleViolation(
                kind="recovery",
                message=f"recovery raised {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except PoolCorruptionError as exc:
            media = getattr(device, "media", None)
            if media_mode == "protected" and media is not None and media.faulty:
                # self-validating metadata (pool header, allocator
                # tables) caught the injected rot and refused to mount —
                # fail-stop detection, not silence
                return None
            return OracleViolation(
                kind="recovery",
                message=f"recovery raised {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except Exception as exc:  # recovery itself must never fail
            return OracleViolation(
                kind="recovery",
                message=f"recovery raised {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        try:
            observed = workload.observe(heap)
        except MediaError as exc:
            if media_mode != "off":
                return None  # typed degrade on read, not silent garbage
            return OracleViolation(
                kind="validator",
                message=f"recovered heap unreadable: {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except Exception as exc:
            return OracleViolation(
                kind="validator",
                message=f"recovered heap unreadable: {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        violation = check_against_ledger(ledger, observed, steps_done)
        if violation is not None:
            return violation
        try:
            workload.validate(heap)
            heap.drain()
            verify_backup_consistency(heap)
        except AssertionError as exc:
            return OracleViolation(
                kind="validator",
                message=str(exc) or "structure validator failed",
                steps_completed=steps_done,
                observed=observed,
            )
        except MediaError as exc:
            if media_mode != "off":
                return None  # typed degrade while validating — detected
            return OracleViolation(
                kind="validator",
                message=f"{type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except RecoveryError as exc:
            return OracleViolation(
                kind="backup",
                message=str(exc),
                steps_completed=steps_done,
            )
        media = device.media
        if media_mode == "protected" and media is not None:
            silent = [ln for ln in media.bad_lines() if ln not in media.lost]
            if silent:
                return OracleViolation(
                    kind="media",
                    message=(
                        "silent corruption survived recovery + scrub: "
                        f"lines {silent[:8]}"
                    ),
                    steps_completed=steps_done,
                )
        return None

    # -- the sweep -----------------------------------------------------------

    def explore(
        self,
        max_points: Optional[int] = None,
        random_samples: int = 1,
        survival: float = 0.5,
        nested: bool = True,
        max_nested_points: Optional[int] = 4,
        progress: Optional[Callable[[str], None]] = None,
        media: str = "off",
        corrupt_lines: int = 2,
        tree: str = "off",
        stale_lines: int = 0,
        workers: int = 0,
    ) -> Report:
        """Sweep crash points; returns the coverage + failure report.

        Args:
            max_points: cap on outer crash points (evenly sampled when
                the workload has more); ``None`` = exhaustive.
            random_samples: RANDOM-policy lotteries per novel state
                (0 disables torn-write sampling).
            nested: also crash inside recovery at every novel state.
            max_nested_points: cap on nested points per outer state.
            media: ``"protected"``/``"unprotected"`` additionally rots
                ``corrupt_lines`` seeded durable bits (heap + backup)
                between each crash and its recovery; the oracle becomes
                detect-or-repair, never silent corruption.
            corrupt_lines: bit flips injected per scenario in media mode.
            tree: ``"streamed"``/``"eager"`` maintains the persistent
                integrity tree (``media="protected"`` only).
            stale_lines: adversarial consistent corruption — replay this
                many changed live lines (plus backup partners) with
                setup-time bytes and forged matching CRCs between each
                crash and its recovery.  Checksum-only protection
                verifies the replay clean; only a tree catches it.
            workers: fan scenario replays over this many processes
                (0/1 = serial).  Each replay builds its own stack, so
                the report is byte-identical for any worker count; only
                wall-clock changes.

        The sweep runs in three deterministic phases — base points
        (pruned by crash fingerprint), RANDOM lotteries for the novel
        states, nested recovery crashes — so the batches are wide
        enough to fan out.
        """
        first, last = self.points()
        report = Report(self.engine_name, self.workload_name, n_ops=last - first + 1)
        self.golden_ledger()  # cached before the fan-out pickles the explorer
        bases = [
            Scenario(
                engine=self.engine_name,
                workload=self.workload_name,
                crash_after=point,
                policy=CrashPolicy.DROP_ALL,
                device_seed=self.device_seed,
                media=media,
                corrupt_lines=corrupt_lines if media != "off" else 0,
                corrupt_seed=(self.device_seed * 1000 + point) if media != "off" else 0,
                tree=tree if media == "protected" else "off",
                stale_lines=stale_lines if media != "off" else 0,
            )
            for point in _sample_points(first, last, max_points)
        ]
        novel = sweep(report, self, bases, workers, prune=True, progress=progress)
        lotteries = [
            replace(
                base,
                policy=CrashPolicy.RANDOM,
                survival=survival,
                device_seed=self.device_seed + 1 + sample,
            )
            for base in novel
            for sample in range(random_samples)
        ]
        sweep(report, self, lotteries, workers)
        if nested:
            nested_scenarios = [
                scenario
                for base in novel
                for scenario in self._nested_scenarios(base, max_nested_points)
            ]
            sweep(report, self, nested_scenarios, workers)
        return report

    def _nested_scenarios(
        self,
        base: Scenario,
        max_nested_points: Optional[int],
    ) -> List[Scenario]:
        """The crash-during-recovery scenarios nested under ``base``: one
        per sampled mutating op of recovery on its crash image."""
        crashed = self._crash(base)
        if crashed is None:
            return []
        device = crashed[0].clone_durable(seed=self.device_seed)
        try:
            n_recovery_ops = count_ops(device, partial(self._recover, device))
        except (MediaError, PoolCorruptionError):
            # recovery on this image degrades with a typed error before
            # quiescing; there is no op timeline to nest crashes into
            return []
        return [
            replace(base, nested_after=q)
            for q in _sample_points(0, n_recovery_ops - 1, max_nested_points)
        ]


def replay_scenario(
    scenario: Scenario,
    workload_factory: Optional[Callable[[], CheckWorkload]] = None,
    engine_factory: Optional[Callable[[], Any]] = None,
) -> Optional[Failure]:
    """Re-run one scenario from scratch — the repro-snippet entry point."""
    explorer = CrashExplorer(
        scenario.engine,
        workload=scenario.workload,
        workload_factory=workload_factory,
        engine_factory=engine_factory,
        device_seed=scenario.device_seed,
    )
    return explorer.replay(scenario)[0]


def sweep_registry(
    workloads: Sequence[str] = ("pairs",),
    engines: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 0,
    **explore_kwargs: Any,
) -> List[Report]:
    """Run the explorer over every standalone-recoverable registered engine.

    Engines declaring ``needs_chain_repair`` (the in-place chain replica)
    cannot recover alone and are swept by
    :class:`repro.check.chain.ChainCrashExplorer` instead; deliberately
    unsafe baselines (``recoverable=False``) are skipped.  ``workers``
    fans each explorer's scenario replays over a process pool; the
    reports are byte-identical for any worker count.
    """
    reports: List[Report] = []
    for name, info in registered_engines().items():
        if engines is not None and name not in engines:
            continue
        caps = info.capabilities
        if not caps.recoverable or caps.needs_chain_repair:
            continue
        for workload in workloads:
            explorer = CrashExplorer(name, workload=workload)
            reports.append(
                explorer.explore(progress=progress, workers=workers, **explore_kwargs)
            )
    return reports
