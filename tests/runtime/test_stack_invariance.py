"""The naive and the optimized stack simulate identically, end to end.

The invariance contract (docs/INTERNALS.md §8) says the fast paths change
wall time only.  The differential suites check that device by device and
batch by batch; this test checks it on whole online multi-client runs:

* naive side: :class:`~repro.nvm.reference.ReferenceNVMDevice`, every
  device and engine lock taken (``lock_mode="locked"``), per-entry backup
  sync (``coalesce_sync=False``);
* optimized side: the numpy device when importable (else pure python),
  device mutex and engine-side locks elided (``lock_mode="uncontended"``,
  the only place the engine's ``set_lock_mode`` runs under the online
  scheduler), coalesced backup sync.

Both sides must report the same simulated duration, op count, per-op
latencies, ``NVMStats`` and crash-state fingerprint.
"""

import itertools

import pytest

from repro.heap import PersistentHeap
from repro.kvstore import KVStore
from repro.nvm import PmemPool, ReferenceNVMDevice
from repro.nvm.backend import HAVE_NUMPY
from repro.runtime import ExecutionContext, run_online
from repro.runtime.registry import engine_info, make_engine
from repro.tx.base import Transaction
from repro.workloads import TPCCLite, YCSBWorkload

NCLIENTS = 4
FANOUT = 32
YCSB = {"value_size": 256, "heap_mb": 8}
TPCC = {"value_size": 64, "heap_mb": 24}
NRECORDS = 120
NOPS = 240
TPCC_OPS = 60
#: engine -> construction kwargs for the YCSB-A leg
YCSB_ENGINES = {
    "kamino-simple": {},
    "kamino-dynamic": {"alpha": 0.5},
    "kamino-finegrained": {},
    "undo": {},
    "cow": {},
    "nvtraverse": {},
}


def _sync_kwargs(engine_name: str, coalesce_sync: bool) -> dict:
    """``coalesce_sync`` for the engines that own a backup (and the knob)."""
    if engine_info(engine_name).capabilities.has_backup:
        return {"coalesce_sync": coalesce_sync}
    return {}


def _optimized(engine_name, value_size, heap_mb, **engine_kwargs):
    Transaction._ids = itertools.count(1)  # txids land in durable slot headers
    return ExecutionContext.create(
        engine_name,
        value_size=value_size,
        heap_mb=heap_mb,
        fanout=FANOUT,
        coalesce_flushes=True,
        backend="numpy" if HAVE_NUMPY else "pure",
        lock_mode="uncontended",
        **_sync_kwargs(engine_name, True),
        **engine_kwargs,
    )


def _naive(engine_name, pool_bytes, value_size, heap_mb, **engine_kwargs):
    Transaction._ids = itertools.count(1)
    device = ReferenceNVMDevice(pool_bytes, seed=0, coalesce_flushes=True)
    engine = make_engine(engine_name, **_sync_kwargs(engine_name, False), **engine_kwargs)
    heap = PersistentHeap.create(PmemPool.create(device), engine, heap_size=heap_mb << 20)
    kv = KVStore.create(heap, value_size=value_size, fanout=FANOUT)
    return ExecutionContext.attach(device, engine, heap=heap, kv=kv)


def _drive_ycsb(ctx):
    workload = YCSBWorkload("A", NRECORDS, YCSB["value_size"], seed=0)
    workload.load(ctx.kv)
    ctx.reset()
    ops = list(workload.run_ops(NOPS))
    return run_online(
        ctx, ops, lambda op: workload.execute(ctx.kv, op), NCLIENTS, workload="A"
    )


def _drive_tpcc(ctx):
    tpcc = TPCCLite(seed=0)
    tpcc.load(ctx.kv)
    ctx.reset()
    return run_online(
        ctx,
        range(TPCC_OPS),
        lambda _i: tpcc.run_op(ctx.kv),
        NCLIENTS,
        kind_of=lambda _i: "tpcc",
        workload="tpcc",
    )


def _observables(ctx, result):
    return {
        "duration_ns": result.duration_ns,
        "ops": result.ops,
        "latencies_ns": result.latencies_ns,
        "stats": ctx.stats.snapshot(),
        "fingerprint": ctx.device.overlay_fingerprint(),
    }


def _both_sides(engine_name, drive, sizes, **engine_kwargs):
    opt = _optimized(engine_name, **sizes, **engine_kwargs)
    assert opt.device.lock_mode == "uncontended"
    optimized = _observables(opt, drive(opt))
    pool_bytes = opt.device.size
    del opt  # free the first pool before the second is allocated
    ref = _naive(engine_name, pool_bytes, **sizes, **engine_kwargs)
    assert ref.device.lock_mode == "locked"
    naive = _observables(ref, drive(ref))
    return optimized, naive


@pytest.mark.parametrize("engine_name", list(YCSB_ENGINES))
def test_online_ycsb_a_identical_on_both_stacks(engine_name):
    optimized, naive = _both_sides(
        engine_name, _drive_ycsb, YCSB, **YCSB_ENGINES[engine_name]
    )
    assert optimized["ops"] == NOPS
    assert optimized == naive


def test_online_tpcc_identical_on_both_stacks():
    optimized, naive = _both_sides("kamino-simple", _drive_tpcc, TPCC)
    assert optimized["ops"] == TPCC_OPS
    assert optimized == naive
