"""The crash-exploration kernel every explorer is an adapter over.

It owns what the engine, chain, migration and serve explorers share:
the op-budget counter, the sampler, the ordered fan-out, one failure /
verdict / report triple with its fold, and the greedy minimizer.  An
adapter supplies ``points()``, ``trial(scenario)`` (a :class:`Verdict`,
or ``None`` when the fail point never fired), shrink candidates and a
repro snippet; see docs/CHECKING.md §5.  Imports stop at
:mod:`repro.nvm.device` and :mod:`repro.parallel`, so ``repro.serve``
can use the kernel without importing ``repro.check``.
"""

from __future__ import annotations

import pickle
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import DeviceCrashedError
from .nvm.device import CrashPolicy, NVMDevice
from .parallel import fan_out, resolve_workers

#: fail-point budget no sane counted run exhausts
OP_BUDGET = 1_000_000


def count_ops(
    device: NVMDevice, run: Callable[[], Any], budget: int = OP_BUDGET
) -> int:
    """Mutating operations (not reads) ``run()`` performs on ``device``;
    :class:`RuntimeError` if it exhausts ``budget``."""
    device.schedule_crash(budget, CrashPolicy.DROP_ALL)
    with suppress(DeviceCrashedError):
        run()
    remaining = device.scheduled_crash_remaining()
    device.cancel_scheduled_crash()
    if remaining is None:
        raise RuntimeError("the run exceeded the fail-point budget")
    return budget - remaining


def crash_during(
    device: NVMDevice,
    run: Callable[[], Any],
    after: int,
    policy: CrashPolicy = CrashPolicy.DROP_ALL,
    survival: float = 0.5,
) -> bool:
    """Whether a fail point armed ``after`` mutating operations out
    fires inside ``run()`` (if not, it is disarmed again)."""
    device.schedule_crash(after, policy, survival)
    try:
        run()
    except DeviceCrashedError:
        return True
    device.cancel_scheduled_crash()
    return False


def sample_points(lo: int, hi: int, limit: Optional[int]) -> List[int]:
    """All integers lo..hi, or an evenly spaced sample hitting both ends.

    A countdown of ``n`` device ops spans points ``0 .. n-1``
    (``crash_after=p`` fires just before op ``p+1``); ``k`` processed
    events span ``0 .. k``."""
    n = hi - lo + 1
    if n <= 0:
        return []
    if limit is None or n <= limit:
        return list(range(lo, hi + 1))
    if limit == 1:
        return [lo]
    step = (n - 1) / (limit - 1)
    return sorted({lo + round(i * step) for i in range(limit)})


@dataclass
class Failure:
    """A scenario whose recovered state an oracle rejected."""

    scenario: Any
    problems: Tuple[str, ...]
    #: the structured oracle verdict, for adapters that have one
    violation: Any = None

    def __str__(self) -> str:
        return f"{self.scenario.describe()}: {'; '.join(self.problems)}"


@dataclass(frozen=True)
class Verdict:
    """What one replay whose fail point fired found."""

    failure: Optional[Failure] = None
    #: digest of the crash image; equal digests prune in :func:`sweep`
    fingerprint: Optional[str] = None
    #: the replay also crashed inside recovery
    nested: bool = False
    #: power failures the replay went through
    crashes: int = 1


@dataclass
class Report:
    """What one sweep covered and found."""

    engine: str
    workload: str
    n_ops: int = 0
    states_explored: int = 0
    states_pruned: int = 0
    nested_explored: int = 0
    not_fired: int = 0
    crashes_observed: int = 0
    failures: List[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, verdict: Optional[Verdict]) -> None:
        """Count one replay's verdict (``None``: it never fired)."""
        if verdict is None:
            self.not_fired += 1
            return
        if verdict.nested:
            self.nested_explored += 1
        else:
            self.states_explored += 1
        self.crashes_observed += verdict.crashes
        if verdict.failure is not None:
            self.failures.append(verdict.failure)

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"{self.engine:>16} x {self.workload:<6} "
            f"ops={self.n_ops:<4} explored={self.states_explored:<5} "
            f"pruned={self.states_pruned:<5} nested={self.nested_explored:<5} {status}"
        )


def portable(explorer: Any) -> bool:
    """Whether ``explorer`` pickles (closure-built ones do not)."""
    try:
        pickle.dumps(explorer)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def replay_all(
    explorer: Any, scenarios: Sequence[Any], workers: int = 0
) -> List[Optional[Verdict]]:
    """``explorer.trial`` over ``scenarios``, in scenario order, so a
    fold is byte-identical for any worker count.  The pool pickles the
    explorer with whatever it caches (golden ledger, baseline)."""
    if resolve_workers(workers) > 1 and len(scenarios) > 1 and not portable(explorer):
        workers = 0
    return fan_out(explorer.trial, scenarios, workers)


def sweep(
    report: Report,
    explorer: Any,
    scenarios: Sequence[Any],
    workers: int = 0,
    prune: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Any]:
    """Replay ``scenarios`` and fold their verdicts into ``report``;
    returns the ones that fired and were not pruned.  ``prune`` counts
    a repeated crash fingerprint as pruned: equal durable bytes and
    dirty overlay resolve identically under every policy."""
    seen = set()
    novel = []
    for scenario, verdict in zip(scenarios, replay_all(explorer, scenarios, workers)):
        if progress is not None:
            progress(f"{report.engine}/{report.workload}: {scenario.describe()}")
        if verdict is not None and prune:
            if verdict.fingerprint in seen:
                report.states_pruned += 1
                continue
            seen.add(verdict.fingerprint)
        report.add(verdict)
        if verdict is not None:
            novel.append(scenario)
    return novel


def minimize(
    failure: Failure,
    shrink: Callable[[Any], Iterable[Any]],
    replay: Callable[[Any], Optional[Failure]],
    budget: Optional[int] = None,
) -> Failure:
    """Greedy shrinking: replay ``shrink(scenario)``'s candidates in
    order, restart from the first that still fails, stop when none does
    or ``budget`` replays are spent.  No candidate is replayed twice."""
    tried = set()
    while True:
        for candidate in shrink(failure.scenario):
            key = repr(candidate)
            if key in tried:
                continue
            if budget is not None and len(tried) >= budget:
                return failure
            tried.add(key)
            smaller = replay(candidate)
            if smaller is not None:
                failure = smaller
                break
        else:
            return failure
