"""Atomicity engines: undo, copy-on-write, no-logging, and Kamino-Tx.

Engines self-register with :mod:`repro.runtime.registry` via the
``@register_engine`` decorator; importing this package pulls in every
builtin module, which is how the registry's lazy loader materialises
them.  :func:`make_engine` and ``ENGINE_FACTORIES`` are re-exported here
for compatibility — the registry is the single source of truth.
"""

from ..runtime.registry import make_engine, registered_engines
from .backup import BACKUP_REGION, BackupStrategy, BackupSyncer, FullBackup
from .base import (
    AtomicityEngine,
    IntentKind,
    RecoveryReport,
    Transaction,
    TxState,
    run_transaction,
)
from .cow import CoWEngine
from .dynamic import DynamicBackup, kamino_dynamic
from .finegrained import FineGrainedKaminoEngine, kamino_finegrained
from .intent_log import ENTRY_SIZE, IntentEntry, LogManager, SlotState, TxLog
from .kamino import KaminoEngine, kamino_simple
from .locks import LockStats, ObjectLockTable
from .nvtraverse import NVTraverseEngine, nvtraverse
from .recovery import reopen_after_crash, verify_backup_consistency
from .striped_locks import StripedLockTable
from .undo import NoLoggingEngine, UndoLogEngine

__all__ = [
    "AtomicityEngine",
    "BACKUP_REGION",
    "BackupStrategy",
    "BackupSyncer",
    "CoWEngine",
    "DynamicBackup",
    "ENGINE_FACTORIES",
    "ENTRY_SIZE",
    "FineGrainedKaminoEngine",
    "FullBackup",
    "IntentEntry",
    "IntentKind",
    "KaminoEngine",
    "LockStats",
    "LogManager",
    "NVTraverseEngine",
    "NoLoggingEngine",
    "ObjectLockTable",
    "RecoveryReport",
    "SlotState",
    "StripedLockTable",
    "Transaction",
    "TxLog",
    "TxState",
    "UndoLogEngine",
    "kamino_dynamic",
    "kamino_finegrained",
    "kamino_simple",
    "nvtraverse",
    "make_engine",
    "reopen_after_crash",
    "run_transaction",
    "verify_backup_consistency",
]

def __getattr__(name):
    """Legacy view of the registry (name -> factory), computed on demand.

    A static snapshot would miss registrations the registry defers past
    the bootstrap import (the replication package's in-place engine).
    Prefer :func:`repro.runtime.registry.registered_engines`, which also
    carries each engine's capabilities.
    """
    if name == "ENGINE_FACTORIES":
        return {info.name: info.factory for info in registered_engines().values()}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
