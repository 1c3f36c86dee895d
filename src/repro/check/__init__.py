"""Systematic crash-consistency checking (library / pytest / CLI).

The checker makes the paper's central correctness claim — atomic
in-place updates survive a power failure at *any* instant, including
during recovery itself — mechanically testable:

* :class:`CrashExplorer` enumerates every mutating-device-op crash point
  of an instrumented workload on one engine, prunes states whose durable
  bytes + dirty-line overlay it has already seen, re-crashes inside
  recovery (nested crashes), and judges each recovered heap with
  semantic oracles (committed-transaction ledger, structure validators,
  backup agreement).
* :class:`ChainCrashExplorer` does the same for the replication chain's
  fail-stop and quick-reboot modes (§5.2–§5.3), where the in-place
  replica engine needs a neighbour to repair.
* :class:`ServeCrashExplorer` (re-exported from :mod:`repro.serve`)
  sweeps the serving layer's durable-procedure frame log: a crash at any
  frame-persist boundary — or nested inside the recovery — must lose no
  committed step and apply none twice.
* :func:`minimize_failure` / :func:`repro_snippet` shrink any failure to
  the earliest, simplest crash point and print a self-contained replay.

All of them are adapters over the crash-exploration kernel,
:mod:`repro.sweep`, whose :class:`Failure` / :class:`Report` they return.

Entry points: ``repro check`` (CLI), the ``assert_engine_crash_consistent``
pytest fixture (:mod:`repro.check.pytest_plugin`), or the classes below.
See ``docs/CHECKING.md`` for the state-space model and oracle contract.
"""

from ..serve.explorer import ServeCrashExplorer, ServeScenario
from ..sweep import Failure, Report
from .chain import (
    COORDINATOR_CRASH,
    FAIL_STOP,
    QUICK_REBOOT,
    ChainCrashExplorer,
    ChainScenario,
    MigrationCrashExplorer,
    MigrationScenario,
)
from .explorer import (
    CrashExplorer,
    Scenario,
    replay_scenario,
    sweep_registry,
)
from .minimize import minimize_failure, repro_snippet
from .oracle import Ledger, OracleViolation, check_against_ledger
from .workload import (
    CANNED_WORKLOADS,
    CheckWorkload,
    KVWorkload,
    ListWorkload,
    PairsWorkload,
    RingWorkload,
    build_stack,
)

__all__ = [
    "CANNED_WORKLOADS",
    "COORDINATOR_CRASH",
    "FAIL_STOP",
    "QUICK_REBOOT",
    "Report",
    "ChainCrashExplorer",
    "ChainScenario",
    "CheckWorkload",
    "CrashExplorer",
    "Failure",
    "KVWorkload",
    "Ledger",
    "ListWorkload",
    "MigrationCrashExplorer",
    "MigrationScenario",
    "OracleViolation",
    "PairsWorkload",
    "RingWorkload",
    "Scenario",
    "ServeCrashExplorer",
    "ServeScenario",
    "build_stack",
    "check_against_ledger",
    "minimize_failure",
    "replay_scenario",
    "repro_snippet",
    "sweep_registry",
]
