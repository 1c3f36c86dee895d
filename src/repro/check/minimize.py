"""Shrinking failing scenarios to their simplest reproduction.

A sweep can surface dozens of failing crash points for one underlying
bug.  The minimizer reduces a failure along four axes, cheapest first:

1. **Drop the nested crash** — if the outer crash alone fails, the
   recovery re-entry was noise.
2. **Simplify the policy** — a RANDOM (torn-write lottery) failure that
   also fails under deterministic ``DROP_ALL`` needs no seed to replay.
3. **Drop the rot** — a media failure that also fails without the
   injected corruption (or with one corruption kind, or one line) keeps
   only what is load-bearing.
4. **Find the earliest failing point** — scan crash points upward from 0
   and stop at the first that still fails (the bug's first observable
   trigger; later points usually fail for the same reason).

The candidates feed the kernel's greedy :func:`repro.sweep.minimize`,
which restarts from each candidate that still fails.  Every candidate
is judged by an actual replay, so the result is a real, self-contained
failure — the emitted snippet re-runs it with nothing but the public
API.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterator, Optional

from ..nvm.device import CrashPolicy
from ..sweep import Failure, minimize
from .explorer import CrashExplorer, Scenario
from .workload import CheckWorkload


def _shrink(scenario: Scenario) -> Iterator[Scenario]:
    """Simpler variants of ``scenario``, cheapest axis first."""
    if scenario.nested_after is not None:
        yield replace(scenario, nested_after=None)
    if scenario.policy is CrashPolicy.RANDOM:
        yield replace(scenario, policy=CrashPolicy.DROP_ALL, device_seed=0)
    if scenario.media != "off":
        # if it fails without the rot, the media corruption was noise;
        # else drop each injection axis separately, then try the
        # single-flip / single-replay version of the same failure
        yield replace(scenario, media="off", corrupt_lines=0, stale_lines=0,
                      tree="off")
        if scenario.stale_lines > 0 and scenario.corrupt_lines > 0:
            # one of the two corruption kinds may carry the failure
            yield replace(scenario, corrupt_lines=0)
            yield replace(scenario, stale_lines=0)
        if scenario.corrupt_lines > 1:
            yield replace(scenario, corrupt_lines=1)
        if scenario.stale_lines > 1:
            yield replace(scenario, stale_lines=1)
    for point in range(scenario.crash_after):
        yield replace(scenario, crash_after=point)


def minimize_failure(
    failure: Failure,
    workload_factory: Optional[Callable[[], CheckWorkload]] = None,
    engine_factory: Optional[Callable[[], Any]] = None,
) -> Failure:
    """Shrink ``failure`` to the simplest scenario that still fails."""
    scenario = failure.scenario
    explorer = CrashExplorer(
        scenario.engine,
        workload=scenario.workload,
        workload_factory=workload_factory,
        engine_factory=engine_factory,
        device_seed=scenario.device_seed,
    )
    return minimize(
        failure, _shrink, lambda candidate: explorer.replay(candidate)[0]
    )


def repro_snippet(failure: Failure) -> str:
    """A paste-into-a-test reproduction of ``failure``: the scenario's
    identifying fields plus every field off its default.

    The snippet is self-contained for registry engines and canned
    workloads; failures injected through custom factories need the
    factory supplied at replay time.
    """
    changed = failure.scenario.changed_fields()
    args = [f"    {name}={_source(value)}," for name, value in changed]
    return "\n".join([
        "# crash-consistency failure reproduction",
        f"# {failure.violation}",
        "from repro.check import Scenario, replay_scenario",
        "from repro.nvm.device import CrashPolicy",
        "",
        "failure = replay_scenario(Scenario(",
        *args,
        "))",
        "assert failure is not None, 'no longer reproduces'",
    ])


def _source(value: Any) -> str:
    if isinstance(value, CrashPolicy):
        return f"CrashPolicy.{value.name}"
    return repr(value)
