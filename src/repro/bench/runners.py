"""Shared setup glue for the benchmark scripts.

Builds the full execution context for a named engine, loads a workload,
and runs its operation stream — the part every figure's benchmark has
in common.  Every runner builds its stack as one
:class:`~repro.runtime.context.ExecutionContext` (device + latency model
+ clock + shared resource servers) and uses it directly, so single-client tracing and
multi-client online simulation use the same objects.  Scaled defaults
keep each figure's regeneration in the tens of seconds while preserving
the paper's ratios: record count shrinks from 10 M to a few thousand,
but value size, operation mixes, key skew, and data-structure shapes
are the paper's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..nvm.latency import NVDIMM, LatencyModel
from ..runtime.context import ExecutionContext
from ..runtime.online import run_online
from ..runtime.records import ReplayResult, TxRecord
from ..workloads import TPCCLite, YCSBWorkload
from .harness import replay

#: scaled-down benchmark defaults (paper: 10 M records, 1 KB values)
DEFAULT_RECORDS = 2000
DEFAULT_OPS = 4000
DEFAULT_VALUE_SIZE = 1024


def _load_ycsb(
    engine_name: str,
    workload_name: str,
    nrecords: int,
    value_size: int,
    seed: int,
    model: LatencyModel,
    coalesce_flushes: bool = False,
    heap_mb: int = 48,
    **engine_kwargs,
) -> Tuple[ExecutionContext, YCSBWorkload]:
    """Build a context and load a YCSB table into it (accounting zeroed)."""
    ctx = ExecutionContext.create(
        engine_name,
        value_size=value_size,
        heap_mb=heap_mb,
        model=model,
        coalesce_flushes=coalesce_flushes,
        **engine_kwargs,
    )
    workload = YCSBWorkload(workload_name, nrecords, value_size, seed=seed)
    workload.load(ctx.kv)
    ctx.reset()
    return ctx, workload


def trace_ycsb(
    engine_name: str,
    workload_name: str,
    nrecords: int = DEFAULT_RECORDS,
    nops: int = DEFAULT_OPS,
    value_size: int = DEFAULT_VALUE_SIZE,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    **engine_kwargs,
) -> List[TxRecord]:
    """Load + trace one YCSB workload on one engine (single client)."""
    ctx, workload = _load_ycsb(
        engine_name, workload_name, nrecords, value_size, seed, model, **engine_kwargs
    )
    ctx.run_ops(
        workload.run_ops(nops),
        lambda op: workload.execute(ctx.kv, op),
        charge=False,
    )
    return ctx.records


def run_ycsb_online(
    engine_name: str,
    workload_name: str,
    nthreads: int,
    nrecords: int = DEFAULT_RECORDS,
    nops: int = DEFAULT_OPS,
    value_size: int = DEFAULT_VALUE_SIZE,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    coalesce_flushes: bool = False,
    sync_lag_ns: float = 0.0,
    heap_mb: int = 48,
    **engine_kwargs,
) -> ReplayResult:
    """Run one YCSB workload online under ``nthreads`` virtual clients.

    Each operation executes functionally at the virtual time its client
    reaches it, charging the context's shared bandwidth/log-management
    servers inline — no trace pass, exact dependent-transaction timing.
    """
    ctx, workload = _load_ycsb(
        engine_name,
        workload_name,
        nrecords,
        value_size,
        seed,
        model,
        coalesce_flushes=coalesce_flushes,
        heap_mb=heap_mb,
        **engine_kwargs,
    )
    ops = list(workload.run_ops(nops))
    return run_online(
        ctx,
        ops,
        lambda op: workload.execute(ctx.kv, op),
        nthreads,
        workload=workload_name,
        sync_lag_ns=sync_lag_ns,
    )


def trace_tpcc(
    engine_name: str,
    nops: int = 600,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    **engine_kwargs,
) -> List[TxRecord]:
    """Load + trace the TPC-C-lite mix on one engine."""
    ctx = ExecutionContext.create(
        engine_name, value_size=64, heap_mb=24, model=model, **engine_kwargs
    )
    tpcc = TPCCLite(seed=seed)
    tpcc.load(ctx.kv)
    ctx.reset()

    def one(_ignored) -> None:
        tpcc.run_op(ctx.kv)

    ctx.run_ops(range(nops), one, kind_of=lambda _i: "tpcc", charge=False)
    return ctx.records


def run_tpcc_online(
    engine_name: str,
    nthreads: int,
    nops: int = 600,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    coalesce_flushes: bool = False,
    sync_lag_ns: float = 0.0,
    **engine_kwargs,
) -> ReplayResult:
    """Run the TPC-C-lite mix online under ``nthreads`` virtual clients."""
    ctx = ExecutionContext.create(
        engine_name,
        value_size=64,
        heap_mb=24,
        model=model,
        coalesce_flushes=coalesce_flushes,
        **engine_kwargs,
    )
    tpcc = TPCCLite(seed=seed)
    tpcc.load(ctx.kv)
    ctx.reset()

    def one(_ignored) -> None:
        tpcc.run_op(ctx.kv)

    return run_online(
        ctx,
        range(nops),
        one,
        nthreads,
        kind_of=lambda _i: "tpcc",
        workload="tpcc",
        sync_lag_ns=sync_lag_ns,
    )


def run_ycsb_matrix(
    engines: Sequence[str],
    workloads: Sequence[str],
    nthreads_list: Sequence[int] = (4,),
    nrecords: int = DEFAULT_RECORDS,
    nops: int = DEFAULT_OPS,
    value_size: int = DEFAULT_VALUE_SIZE,
    model: LatencyModel = NVDIMM,
    engine_kwargs: Optional[Dict[str, dict]] = None,
    online: bool = False,
    coalesce_flushes: bool = False,
) -> Dict[Tuple[str, str, int], ReplayResult]:
    """The full cross product used by Figures 12–15.

    With ``online=False`` (the historical mode) each (engine, workload)
    pair is traced once and the trace replayed per thread count — cheap,
    and exact for independent transactions.  With ``online=True`` each
    cell runs a fresh online simulation, so dependent transactions
    execute at their true virtual times and the flush coalescer
    (``coalesce_flushes``) can be engaged.
    """
    engine_kwargs = engine_kwargs or {}
    results: Dict[Tuple[str, str, int], ReplayResult] = {}
    for engine_name in engines:
        for workload_name in workloads:
            if online:
                for nthreads in nthreads_list:
                    results[(engine_name, workload_name, nthreads)] = run_ycsb_online(
                        engine_name,
                        workload_name,
                        nthreads,
                        nrecords=nrecords,
                        nops=nops,
                        value_size=value_size,
                        model=model,
                        coalesce_flushes=coalesce_flushes,
                        **engine_kwargs.get(engine_name, {}),
                    )
                continue
            records = trace_ycsb(
                engine_name,
                workload_name,
                nrecords=nrecords,
                nops=nops,
                value_size=value_size,
                model=model,
                **engine_kwargs.get(engine_name, {}),
            )
            for nthreads in nthreads_list:
                results[(engine_name, workload_name, nthreads)] = replay(
                    records,
                    nthreads,
                    engine_name,
                    workload=workload_name,
                    model=model,
                )
    return results
