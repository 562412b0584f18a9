"""Agent-swarm benchmark for the agent-first data system.

Run from the repository root::

    python3 perfbench/run.py --workload swarm_explore --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same phase untraced, then once more with spans
recorded around each layer's entry points, and reports the per-layer
metrics (and the tracing overhead between the two). Every answer is
checked against an unsharded, serial, row-engine copy of the data;
``ingest_mixed`` also recovers its write-ahead log and checks that every
acknowledged batch survived.

The last line of standard output is one JSON object: ``correct`` (the
run's integrity checks passed: every probe was checked, and on
``ingest_mixed`` recovery matched), ``attempted`` and ``failed``
(probes and writes; a probe fails when it raised, timed out, or its
answer differs from the oracle) and ``metrics``.

Seed 7919 is held out: tune on other seeds, validate claims on it.
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HELD_OUT_SEED = 7919
#: A run still going after this long is hung: dump stacks and exit 1.
WATCHDOG_S = 170

#: name -> unit, measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "probes_per_s": "1/s",
    "probe_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: name -> unit, from the traced run. Failures, tails and write
#: latencies come from its untraced phase: the tails vary too much
#: between runs of this length to bound.
PER_LAYER = {
    "failed_share": "share",
    "slo_share": "share",
    "probe_p90_ms": "ms",
    "probe_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "gateway.queue_wait_ms": "ms",
    "gateway.window_size_mean": "probes",
    "gateway.windows": "count",
    "scheduler.batch_ms": "ms/window",
    "scheduler.wait_ms": "ms/window",
    "scheduler.speculative_runs": "1/probe",
    "plan.plan_select_ms": "ms/probe",
    "plan.plan_select_calls": "1/probe",
    "plan.repeat_sql_share": "share",
    "plan.estimate_cost_ms": "ms/probe",
    "plan.fingerprint_ms": "ms/probe",
    "plan.fingerprint_calls": "1/probe",
    "interpret.self_ms": "ms/probe",
    "satisfice.ms": "ms/probe",
    "optimizer.history_hit_share": "share",
    "engine.run_ms": "ms/probe",
    "engine.run_cpu_ms": "ms/probe",
    "engine.runs": "1/probe",
    "engine.rows_per_result_row": "ratio",
    "engine.subplan_cache_hit_ratio": "share",
    "steering.ms": "ms/probe",
    "memstore.search_ms": "ms/probe",
    "memstore.remember_ms": "ms/probe",
    "memstore.artifacts": "count",
    "wal.append_ms": "ms/call",
    "wal.commit_ms": "ms/call",
    "wal.checkpoint_ms": "ms/call",
    "wal.bytes_per_user_byte": "ratio",
    "wal.recover_ms": "ms",
    "shard.pump_ms": "ms/probe",
    "shard.scatter_share": "share",
    "shard.placement_imbalance": "ratio",
    "plan.wall_share": "share",
    "interpret.wall_share": "share",
    "scheduler.wall_share": "share",
    "engine.wall_share": "share",
    "steering.wall_share": "share",
    "memstore.wall_share": "share",
    "wal.wall_share": "share",
    "shard.wall_share": "share",
    "trace.overhead": "share",
    "trace.unattributed_share": "share",
    "loadgen.lag_ms": "ms",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    # CI legs set REPRO_* overrides; the benchmark measures the defaults.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [SRC, ROOT]
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    faulthandler.cancel_dump_traceback_later()
    # A traced run also measured the end-to-end metrics (its untraced
    # phase): the table shows them, the result line carries its own set.
    units = PER_LAYER if args.trace else END_TO_END
    shown = {**END_TO_END, **PER_LAYER} if args.trace else END_TO_END
    print(f"{'metric':<34} {'value':>14}  unit")
    for name, unit in shown.items():
        print(f"{name:<34} {result['metrics'][name]:>14.6g}  {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.stats import percentile
    from perfbench.workloads import (
        SETUP_BUDGET_S, SETUP_MAX_REPEATS, SETUP_MIN_REPEATS, setup,
    )

    inputs = workload.inputs(seed)
    # The inputs live as long as the run: keep them out of the collector's
    # way so the system under test pays only for its own garbage.
    gc.collect()
    gc.freeze()
    setup_times: list[float] = []
    served = None
    while len(setup_times) < SETUP_MIN_REPEATS or (
        len(setup_times) < SETUP_MAX_REPEATS and sum(setup_times) < SETUP_BUDGET_S
    ):
        if served is not None:
            _discard(served)
        gc.collect()
        start = time.perf_counter()
        served = setup(workload, inputs, OUT_DIR)
        setup_times.append(time.perf_counter() - start)
    print("config " + json.dumps(config_stamp(workload, served, inputs, seed, seconds, trace)))

    phase = measure(workload, served, inputs, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    integrity = verify(workload, served, inputs, phase)
    phases = [phase]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "probes_per_s": phase["answered"] / phase["wall_s"],
        "probe_p50_ms": percentile(phase["latencies"], 50),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        traced_served = setup(workload, inputs, OUT_DIR)
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = measure(workload, traced_served, inputs, seconds)
        finally:
            tracer.restore()
        tracer.dump(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl"))
        traced_integrity = verify(workload, traced_served, inputs, traced)
        integrity = {**integrity, "ok": integrity["ok"] and traced_integrity["ok"]}
        phases.append(traced)
        metrics.update(
            layers.layer_metrics(
                tracer.spans, traced["drive"].samples, traced["wall_s"], traced["counters"]
            )
        )
        drive = phase["drive"]
        samples = drive.samples
        writes = [w for w in drive.writes if w.error is None]
        metrics.update({
            "failed_share": sum(not s.correct for s in samples) / len(samples),
            "slo_share": sum(
                s.correct and s.latency_ms <= workload.slo_ms for s in samples
            ) / len(samples),
            "probe_p90_ms": percentile(phase["latencies"], 90),
            "probe_p99_ms": percentile(phase["latencies"], 99),
            "write_p50_ms": percentile([w.latency_ms for w in writes], 50),
            "write_p99_ms": percentile([w.latency_ms for w in writes], 99),
            "wal.recover_ms": integrity.get("recover_ms", 0.0),
            "trace.overhead": traced["cpu_per_probe"] / phase["cpu_per_probe"] - 1.0,
            "loadgen.lag_ms": drive.lag_ms,
        })
    print("checks " + json.dumps(integrity))
    attempted = sum(len(p["drive"].samples) + len(p["drive"].writes) for p in phases)
    failed = sum(
        sum(not s.correct for s in p["drive"].samples)
        + sum(w.error is not None for w in p["drive"].writes)
        for p in phases
    )
    return {
        "correct": integrity["ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def measure(workload, served, inputs, seconds: float) -> dict:
    """One measured phase: drive the load, then read the counters."""
    gc.collect()
    cpu_start = time.process_time()
    start = time.perf_counter()
    drive = asyncio.run(workload.drive(served, inputs, seconds))
    end = max((s.end for s in drive.samples), default=time.perf_counter())
    cpu = time.process_time() - cpu_start
    answered = [s for s in drive.samples if s.response is not None]
    return {
        "drive": drive,
        "wall_s": end - start,
        "answered": len(answered),
        "latencies": [s.latency_ms for s in answered],
        "cpu_per_probe": cpu / max(1, len(answered)),
        "counters": read_counters(served, drive),
    }


def read_counters(served, drive) -> dict:
    """Counters the systems publish, read once after a phase."""
    series = served.system.metrics().as_dict()

    def total(name: str) -> float:
        metric = series.get(name)
        return sum(item["value"] for item in metric["series"]) if metric else 0.0

    hits = total("repro_engine_subplan_cache_hits")
    misses = total("repro_engine_subplan_cache_misses")
    counters = {
        "subplan_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "speculative_runs": total("repro_scheduler_speculative_executions_total"),
        "memstore_artifacts": sum(len(system.memory) for system in served.systems),
        "user_bytes": sum(w.user_bytes for w in drive.writes if w.error is None),
        "scatter_share": 0.0,
        "placement_imbalance": 0.0,
    }
    if len(served.systems) > 1:
        stats = served.system.stats()
        sent = max(1, len(drive.samples))
        counters["scatter_share"] = (
            stats["matchmaker"]["units_enqueued"] / stats["shards"] / sent
        )
        per_shard = [shard["probes_streamed"] for shard in stats["per_shard"]]
        mean = sum(per_shard) / len(per_shard)
        counters["placement_imbalance"] = max(per_shard) / mean if mean else 0.0
    return counters


def verify(workload, served, inputs, phase) -> dict:
    """Close the system, check durability (WAL workloads) and answers."""
    from perfbench.workloads import check_answers, check_durability

    drive = phase["drive"]
    if served.wal_dir is not None:
        integrity = check_durability(served, drive.writes)
    else:
        served.close()
        integrity = {"ok": True}
    check_answers(drive.samples, workload.oracle(inputs), drive.writes)
    integrity["probes_checked"] = sum(s.correct is not None for s in drive.samples)
    integrity["ok"] = integrity["ok"] and integrity["probes_checked"] == len(drive.samples)
    return integrity


def config_stamp(workload, served, inputs, seed: int, seconds: float, trace: bool) -> dict:
    """The resolved configuration, so a changed default shows."""
    from repro.engine.columnar import resolve_engine

    system = served.systems[0]
    wal = served.db.catalog.wal
    return {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "sizes": workload.sizes(inputs),
        "engine": resolve_engine(system.optimizer.engine),
        "dispatch_backend": system.scheduler.backend,
        "workers": system.scheduler.workers,
        "gateway_max_batch": system.gateway.max_batch,
        "gateway_max_wait_s": system.gateway.max_wait,
        "qos": system.qos is not None,
        "maintenance": system.maintenance.enabled,
        "wal": wal is not None,
        "wal_fsync": wal.fsync if wal is not None else None,
        "read_replicas": len(system.replicas.replicas) if system.replicas else 0,
        "shards": len(served.systems),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
    }


def _discard(served) -> None:
    """Close a set-up that is not measured and free its WAL directory."""
    served.close()
    if served.wal_dir is not None:
        served.db.catalog.wal.close()
        shutil.rmtree(served.wal_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
