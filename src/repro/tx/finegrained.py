"""Kamino-Tx with fine-grained (striped) object locking.

The baseline Kamino engines are already *logically* fine-grained — the
lock table holds one entry per object offset — but every entry shares a
single mutex/condition, so concurrent clients serialise through the
table even when their write sets are disjoint.  This engine swaps in a
:class:`~repro.tx.striped_locks.StripedLockTable` over the dynamic
(α-sized) backup: disjoint transactions take disjoint stripe mutexes
and proceed truly in parallel, the *Persistent HyTM fast-path
fine-grained locking* design point (PAPERS.md).

Everything durable is inherited unchanged from
:class:`~repro.tx.kamino.KaminoEngine`: the intent log, the in-place
stores, the commit record, the asynchronous backup sync, and recovery.
Locks are volatile, so under a single uncontended client this engine is
**bit-identical** to ``kamino-dynamic`` — same durable bytes, same
``NVMStats``, same crash fingerprints — which the differential test
(``tests/tx/test_finegrained_differential.py``) pins.  The win is pure
software-serialisation cost, modelled by the ``kamino-finegrained``
cost profile and measured by the contended-YCSB battery.

Deadlock discipline: incremental single-lock acquisition keeps the
baseline's timeout escape; any batch acquisition goes through the
table's canonical ascending-offset order
(:meth:`~repro.tx.striped_locks.StripedLockTable.acquire_write_many`),
and the commit/sync paths touch offsets in sorted order so pending
marks and releases follow the same global order.
"""

from __future__ import annotations

from ..runtime.registry import EngineCapabilities, register_engine
from .base import Transaction
from .dynamic import DynamicBackup
from .intent_log import SlotState
from .kamino import KaminoEngine, _SyncTask
from .striped_locks import StripedLockTable


class FineGrainedKaminoEngine(KaminoEngine):
    """Kamino-Tx-Dynamic with a striped per-object lock table.

    Args:
        alpha: backup capacity fraction (as in ``kamino-dynamic``).
        stripes: number of independent lock-table stripes.
        Remaining keyword arguments are forwarded to
        :class:`~repro.tx.kamino.KaminoEngine`.
    """

    name = "kamino-finegrained"

    def __init__(self, alpha: float = 0.5, stripes: int = 16, **kwargs):
        backup = kwargs.pop("backup", None)
        if backup is None:
            backup = DynamicBackup(alpha=alpha)
        lock_timeout = kwargs.get("lock_timeout", 10.0)
        super().__init__(backup=backup, **kwargs)
        self.stripes = stripes
        self.locks = StripedLockTable(stripes, timeout=lock_timeout)
        self.locks.set_resolver(self._resolve_pending)

    def commit(self, tx: Transaction) -> None:
        """Identical to the base commit except lock-table traffic follows
        the canonical ascending-offset order (sorted write set)."""
        log = self._txlog(tx)
        if not tx.intents and not tx.deferred_frees:
            log.release()
            self._release_reads(tx)
            return
        self._apply_deferred_frees(tx)
        log.make_durable()
        self._phase("edit_orig")
        self._flush_modified_ranges(tx)
        self._phase("flush_data")
        log.set_state(SlotState.COMMITTED)  # durable commit point
        self._phase("commit_record")
        for off in sorted(tx.write_set):
            self.locks.mark_pending(tx.txid, off)
        self._release_reads(tx)
        task = _SyncTask(log, list(log.entries), set(tx.write_set))
        self._queue.append(task)
        if self.eager_sync:
            self.sync_pending()

    def _release_reads(self, tx: Transaction) -> None:
        for off in sorted(tx.read_set - tx.write_set):
            self.locks.release_read(tx.txid, off)

    def _release_writes(self, tx: Transaction) -> None:
        for off in sorted(tx.write_set):
            self.locks.release_write(tx.txid, off)


@register_engine(
    "kamino-finegrained",
    capabilities=EngineCapabilities(
        description=(
            "kamino-dynamic with a striped per-object lock table: disjoint "
            "write sets never serialise on lock-table internals"
        ),
        copies_in_critical_path=False,
        has_backup=True,
        locks_released_after_sync=True,
        cost_profile="kamino-finegrained",
        options=("alpha", "stripes"),
    ),
)
def kamino_finegrained(
    alpha: float = 0.5, stripes: int = 16, **kwargs
) -> FineGrainedKaminoEngine:
    """Kamino-Tx with fine-grained striped locking over an α-sized backup."""
    return FineGrainedKaminoEngine(alpha=alpha, stripes=stripes, **kwargs)
