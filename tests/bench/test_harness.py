"""Benchmark harness: trace collection, replay mechanics, shape checks."""

import pytest

from repro.bench import TraceCollector, TxRecord, replay, trace_ycsb
from repro.bench.report import format_table, speedup_note
from repro.bench.tco import CostModel, normalized_ops_per_dollar, provisioned_gb
from repro.nvm.latency import NVDIMM


def small_trace(engine="kamino-simple", workload="A", nops=300):
    return trace_ycsb(engine, workload, nrecords=200, nops=nops, value_size=256, heap_mb=16)


class TestTraceCollector:
    def test_records_one_per_op(self):
        records = small_trace(nops=100)
        assert len(records) == 100

    def test_kamino_trace_splits_crit_and_async(self):
        records = small_trace("kamino-simple")
        updates = [r for r in records if r.kind == "update"]
        assert updates
        assert all(r.async_ns > 0 for r in updates)
        assert all(r.crit_copy_bytes == 0 for r in updates)

    def test_undo_trace_has_no_async_but_copies(self):
        records = small_trace("undo")
        updates = [r for r in records if r.kind == "update"]
        assert all(r.async_ns == 0 for r in updates)
        assert all(r.crit_copy_bytes > 0 for r in updates)

    def test_reads_have_empty_write_sets(self):
        records = small_trace()
        reads = [r for r in records if r.kind == "read"]
        assert reads
        assert all(not r.write_set for r in reads)
        assert all(r.read_set for r in reads)

    def test_kamino_updates_cheaper_critical_path(self):
        k = small_trace("kamino-simple")
        u = small_trace("undo")
        k_up = [r.crit_ns for r in k if r.kind == "update"]
        u_up = [r.crit_ns for r in u if r.kind == "update"]
        assert sum(k_up) / len(k_up) < sum(u_up) / len(u_up)


class TestReplay:
    def test_all_ops_complete(self):
        records = small_trace()
        result = replay(records, 4, "kamino-simple")
        assert result.ops == len(records)
        assert result.duration_ns > 0

    def test_more_threads_more_throughput_read_only(self):
        records = small_trace(workload="C")
        r1 = replay(records, 1, "kamino-simple")
        r8 = replay(records, 8, "kamino-simple")
        assert r8.throughput_kops > 4 * r1.throughput_kops

    def test_single_thread_latency_matches_trace(self):
        records = small_trace(workload="C")
        r = replay(records, 1, "kamino-simple")
        expect = sum(rec.crit_ns for rec in records) / len(records) / 1e3
        assert r.mean_latency_us == pytest.approx(expect, rel=0.1)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            replay([], 0, "undo")

    def test_deterministic(self):
        records = small_trace()
        a = replay(records, 4, "kamino-simple")
        b = replay(records, 4, "kamino-simple")
        assert a.duration_ns == b.duration_ns
        assert a.latencies_ns == b.latencies_ns

    def test_percentiles_monotone(self):
        records = small_trace()
        r = replay(records, 4, "kamino-simple")
        assert (
            r.percentile_latency_us(50)
            <= r.percentile_latency_us(95)
            <= r.percentile_latency_us(99)
        )


class TestPaperShapes:
    """The headline comparisons the evaluation section rests on."""

    def test_kamino_beats_undo_on_write_heavy(self):
        k = replay(small_trace("kamino-simple", "A"), 4, "kamino-simple")
        u = replay(small_trace("undo", "A"), 4, "undo")
        assert k.throughput_kops > 1.2 * u.throughput_kops
        assert k.mean_latency_us < u.mean_latency_us

    def test_parity_on_read_only(self):
        k = replay(small_trace("kamino-simple", "C"), 4, "kamino-simple")
        u = replay(small_trace("undo", "C"), 4, "undo")
        assert k.throughput_kops == pytest.approx(u.throughput_kops, rel=0.05)

    def test_gap_grows_with_threads(self):
        k_recs = small_trace("kamino-simple", "A")
        u_recs = small_trace("undo", "A")
        ratios = []
        for n in (2, 8):
            k = replay(k_recs, n, "kamino-simple")
            u = replay(u_recs, n, "undo")
            ratios.append(k.throughput_kops / u.throughput_kops)
        assert ratios[1] > ratios[0]


class TestTCO:
    def test_provisioning_multiples(self):
        assert provisioned_gb(10, "undo") == 10
        assert provisioned_gb(10, "kamino-simple") == 20
        assert provisioned_gb(10, "kamino-dynamic-30", alpha=0.3) == pytest.approx(13)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            provisioned_gb(10, "raid")

    def test_normalization_base_is_one(self):
        series = {"undo": 100.0, "kamino-simple": 200.0}
        norm = normalized_ops_per_dollar(series, 10, alphas={})
        assert norm["undo"] == 1.0
        assert norm["kamino-simple"] > 1.0

    def test_storage_cost_penalises_full_mirror(self):
        # equal throughput => the mirror's extra NVM must cost it
        series = {"undo": 100.0, "kamino-simple": 100.0}
        norm = normalized_ops_per_dollar(series, 50, alphas={})
        assert norm["kamino-simple"] < 1.0


class TestReport:
    def test_format_table_alignment(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_speedup_note(self):
        note = speedup_note("undo", {"undo": 2.0, "kamino": 5.0})
        assert "2.50x" in note
