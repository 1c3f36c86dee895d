"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ycsb-a-guarded --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric instead, from an untraced half and a traced half of the
measured time.  A table of every metric with its unit and sample count
is printed above it.  The run exits non-zero when a correctness,
determinism or sampling gate fails.  README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"

#: the end-to-end metrics of the result line (BENCHMARK.json lists them
#: with their bounds).  The table also prints ``sim_write_p50_us`` and
#: ``sim_write_p99_us``, which read the same on every seed of some
#: workloads, ``error_rate``, which is 0 on a good run (README.md gives
#: the reasons), and the unscaled throughput with the host's speed.
GATED = (
    "tx_per_s",
    "read_p50_us",
    "read_p90_us",
    "write_p50_us",
    "write_p90_us",
    "setup_s",
    "sim_kops",
    "peak_rss_mb",
)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {src}")


# -- end-to-end metrics ------------------------------------------------------


def end_to_end(reps: list) -> Dict[str, Tuple[float, str, int]]:
    """Every end-to-end metric as ``name -> (value, unit, samples)``.
    ``reps[-1]`` carries the measured phase."""
    from statistics import median

    from measure import percentile

    measured = reps[-1]
    phase = measured.phase
    window = measured.window
    out: Dict[str, Tuple[float, str, int]] = {}
    out["tx_per_s"] = (phase.committed / phase.wall_s, "1/s", phase.committed)
    # the unscaled figure and the host's speed, for the reader
    out["tx_per_s_unscaled"] = (phase.committed / phase.host_s, "1/s", phase.committed)
    out["host_speed"] = (phase.wall_s / phase.host_s, "ratio", phase.committed)
    for kind in ("read", "write"):
        samples = phase.samples(kind)
        for q in (0.5, 0.9):
            value, n = percentile(samples, q, phase.failed)
            out[f"{kind}_p{round(q * 100)}_us"] = (_finite(value, phase.wall_s) * 1e6, "us", n)
    setups = [rep.setup_s for rep in reps]
    out["setup_s"] = (median(setups), "s", len(setups))
    out["sim_kops"] = (window.ops / window.sim_ns * 1e6, "kops", window.ops)
    out.update(sim_write_latency(window))
    # the first instance's window: fresh process, fixed work, no history
    out["peak_rss_mb"] = (reps[0].window.peak_rss_mb, "MB", 1)
    error_rate = phase.failed / phase.attempted if phase.attempted else 0.0
    out["error_rate"] = (error_rate, "ratio", phase.attempted)
    return out


def sim_write_latency(window) -> Dict[str, Tuple[float, str, int]]:
    from measure import percentile

    out = {}
    for q in (0.5, 0.99):
        value, n = percentile(window.write_lat_ns, q)
        out[f"sim_write_p{round(q * 100)}_us"] = (value / 1e3, "us", n)
    return out


def _finite(value: float, stand_in: float) -> float:
    """A percentile that lands on a failed op reads as the whole phase."""
    return stand_in if value == float("inf") else value


# -- per-layer metrics -------------------------------------------------------


def per_layer(untraced, traced, tracer) -> Dict[str, Tuple[float, str, int]]:
    from tracing import HARNESS, LAYERS, by_layer, child_calls, fold, outermost_ns

    folded = fold(tracer)
    layers = by_layer(folded)
    ops = traced.phase.attempted
    # counters over the untraced window: a fixed amount of work, so they
    # repeat exactly for a seed
    c = untraced.window.counters
    n = untraced.window.ops
    out: Dict[str, Tuple[float, str, int]] = {}

    def put(name, value, unit, samples):
        out[name] = (value, unit, samples)

    def self_ns(prefixes) -> float:
        return sum(
            row["self_ns"] for name, row in folded.items() if name.startswith(prefixes)
        )

    def calls(names) -> int:
        return sum(row["calls"] for name, row in folded.items() if name in names)

    out.update(sim_write_latency(untraced.window))
    for layer in LAYERS + (HARNESS,):
        row = layers.get(layer, {"calls": 0, "self_ns": 0})
        put(f"{layer}.self_us_per_op", row["self_ns"] / ops / 1e3, "us", ops)
        if layer != HARNESS:
            put(f"{layer}.calls_per_op", row["calls"] / ops, "count", ops)

    # nvm: device work per op, from NVMStats of the untraced phase
    for field in ("stores", "flushes", "fences"):
        put(f"nvm.{field}_per_op", c.get(f"nvm.{field}", 0) / n, "count", n)
    put("nvm.copy_bytes_per_op", c.get("nvm.copy_bytes", 0) / n, "B", n)
    written = c.get("nvm.store_bytes", 0) + c.get("nvm.copy_bytes", 0)
    put(
        "nvm.bytes_written_per_user_byte",
        written / c["user_bytes"] if c.get("user_bytes") else 0.0,
        "ratio",
        n,
    )
    # heap
    allocs = calls({"heap.heap.PersistentHeap.alloc", "heap.heap.PersistentHeap.alloc_blob"})
    put("heap.allocs_per_op", allocs / ops, "count", ops)
    # tx
    sync_ns = outermost_ns(
        tracer, lambda name: name.startswith("tx.") and name.endswith(".sync_pending")
    )
    put("tx.sync_us_per_op", sync_ns / ops / 1e3, "us", ops)
    hits, misses = c.get("tx.backup_hits"), c.get("tx.backup_misses")
    if hits is None:
        hit_rate = 1.0  # a full mirror holds every copy: no copy-on-miss
    else:
        hit_rate = hits / (hits + misses) if hits + misses else 1.0
    put("tx.backup_hit_rate", hit_rate, "ratio", int((hits or 0) + (misses or 0)))
    put("tx.backup_evictions_per_op", c.get("tx.backup_evictions", 0) / n, "count", n)
    put("tx.lock_acquires_per_op", c.get("tx.lock_acquires", 0) / n, "count", n)
    put("tx.dependent_waits_per_op", c.get("tx.dependent_waits", 0) / n, "count", n)
    # kvstore: heap calls made directly by the store, per store call
    kv_calls = sum(
        row["calls"] for name, row in folded.items() if name.startswith("kvstore.kv.KVStore.")
    )
    heap_calls = child_calls(tracer, "kvstore", "heap")
    put("kvstore.heap_calls_per_op", heap_calls / kv_calls if kv_calls else 0.0, "count", kv_calls)
    # runtime: simulated busy time of the shared servers
    put(
        "runtime.log_mgmt_busy_ns_per_op",
        c.get("runtime.busy_ns.log-mgmt", 0) / n,
        "ns",
        n,
    )
    put(
        "runtime.bandwidth_busy_ns_per_op",
        c.get("runtime.busy_ns.nvm-bandwidth", 0) / n,
        "ns",
        n,
    )
    put("sim.events_per_op", c.get("sim.events", 0) / n, "count", n)
    writes = c.get("writes", 0)
    put(
        "replication.msgs_per_write",
        c.get("replication.msgs", 0) / writes if writes else 0.0,
        "count",
        int(writes),
    )
    put(
        "replication.retransmissions_per_op",
        c.get("replication.retransmissions", 0) / n,
        "count",
        n,
    )
    put("cluster.map_refreshes", c.get("cluster.map_refreshes", 0), "count", n)
    put("serve.parse_us_per_req", self_ns(("serve.protocol.",)) / ops / 1e3, "us", ops)
    put(
        "serve.dispatch_us_per_req",
        self_ns(("serve.server.", "serve.admission.")) / ops / 1e3,
        "us",
        ops,
    )
    put("serve.gateway_us_per_req", self_ns(("serve.gateway.",)) / ops / 1e3, "us", ops)
    put("serve.admission_rejects", c.get("serve.admission_rejects", 0), "count", n)
    put("serve.gateway_retries", c.get("serve.gateway_retries", 0), "count", n)
    for key in ("leaf_updates", "node_hashes"):
        put(f"integrity.{key}_per_op", c.get(f"integrity.{key}", 0) / n, "count", n)
    put("integrity.batches", c.get("integrity.batches", 0), "count", n)
    # the benchmark guarding itself
    wall_ns = tracer.end[tracer.root] - tracer.start[tracer.root]
    harness_ns = layers.get(HARNESS, {"self_ns": 0})["self_ns"]
    untraced_rate = untraced.phase.committed / untraced.phase.wall_s
    traced_rate = traced.phase.committed / traced.phase.wall_s
    put("trace.overhead", traced_rate / untraced_rate, "ratio", ops)
    put("trace.coverage", 1.0 - harness_ns / wall_ns, "ratio", len(tracer))
    return out


# -- one workload ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from measure import GateFailure
    from tracing import Tracer, install
    from workloads import MEASURE, SETUP, WINDOW, WORKLOADS, run_rep

    cls = WORKLOADS[name]
    problems: List[str] = []
    # determinism of inputs: another seed must give other inputs
    if cls.input_digest(seed) == cls.input_digest(seed + 1):
        problems.append(f"seeds {seed} and {seed + 1} generate identical inputs")
    measure_s = seconds / 2 if trace else seconds
    # three fresh set-ups; the first and the last run the simulation
    # window, which must produce identical simulated results
    reps = []
    for mode in (WINDOW, SETUP, MEASURE):
        reps.append(run_rep(name, seed, mode, measure_s))
        gc.collect()
    untraced = reps[-1]
    windows = [reps[0].window, untraced.window]
    traced = tracer = None
    if trace:
        tracer = Tracer()
        installation = install(tracer)
        try:
            traced = run_rep(name, seed, MEASURE, measure_s, tracer)
        finally:
            installation.restore()
        if traced.window is not None:
            windows.append(traced.window)
        stem = f"{name}-seed{seed}"
        path = tracer.dump(OUT_DIR, stem)
        print(f"spans: {len(tracer)} written to {path}")
        if tracer.dropped:
            problems.append(f"span store overflowed: {tracer.dropped} spans dropped")
    fingerprints = sorted({w.fingerprint for w in windows})
    if len(fingerprints) != 1:
        problems.append(f"simulated results differ between identical runs: {fingerprints}")
    for rep in (untraced, traced):
        if rep is not None:
            problems += rep.problems
            if rep.phase.first_error:
                print(f"first failed op: {rep.phase.first_error}")

    try:
        if trace:
            metrics = per_layer(untraced, traced, tracer)
            reported = metrics
        else:
            metrics = end_to_end(reps)
            reported = {k: metrics[k] for k in GATED}
    except GateFailure as exc:
        problems.append(str(exc))
        metrics = reported = {}

    attempted = sum(r.phase.attempted for r in (untraced, traced) if r is not None)
    failed = sum(r.phase.failed for r in (untraced, traced) if r is not None)
    print(f"workload {name}  seed {seed}  measured {seconds:g} s  trace {int(trace)}")
    print(f"simulation window fingerprint {fingerprints[0] if fingerprints else '-'}")
    print(f"{'metric':34s} {'value':>14s} {'unit':>7s} {'samples':>9s}")
    for key, (value, unit, samples) in metrics.items():
        mark = "" if key in reported else "  (table only)"
        print(f"{key:34s} {value:14.6g} {unit:>7s} {samples:9d}{mark}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print()
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            doc = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            doc = None
        if doc is None:
            combined["correct"] = False
            continue
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for key, value in doc["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from all, {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.perf_counter()
    status = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
