"""Benchmark runner glue: the stack every runner builds and the YCSB matrix."""

import pytest

from repro.bench import run_ycsb_matrix, trace_tpcc
from repro.nvm.latency import DRAM
from repro.runtime import ExecutionContext


class TestBuildStack:
    """``ExecutionContext.create`` builds the full device-to-KV stack."""

    def test_stack_components_wired(self):
        ctx = ExecutionContext.create("kamino-simple", value_size=256, heap_mb=4)
        assert ctx.engine is ctx.heap.engine
        assert ctx.kv.heap is ctx.heap
        assert ctx.engine_name == "kamino-simple"

    def test_engine_kwargs_forwarded(self):
        ctx = ExecutionContext.create(
            "kamino-dynamic", value_size=256, heap_mb=4, alpha=0.25
        )
        assert ctx.engine.name == "kamino-dynamic-25"

    def test_latency_model_applied(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4, model=DRAM)
        assert ctx.device.model is DRAM

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ExecutionContext.create("quantum")


class TestMatrix:
    def test_cross_product_keys(self):
        results = run_ycsb_matrix(
            ["undo"], ["C"], nthreads_list=(1, 2), nrecords=40, nops=60,
            value_size=128,
        )
        assert set(results) == {("undo", "C", 1), ("undo", "C", 2)}
        for result in results.values():
            assert result.ops == 60

    def test_trace_shared_across_thread_counts(self):
        results = run_ycsb_matrix(
            ["kamino-simple"], ["C"], nthreads_list=(1, 4), nrecords=40, nops=60,
            value_size=128,
        )
        # read-only trace: 4 threads must beat 1 thread on the same trace
        assert (
            results[("kamino-simple", "C", 4)].throughput_kops
            > results[("kamino-simple", "C", 1)].throughput_kops
        )


class TestTpccTrace:
    def test_records_produced(self):
        records = trace_tpcc("undo", nops=30)
        assert len(records) == 30
        assert all(r.kind == "tpcc" for r in records)
        assert any(r.write_set for r in records)
