"""Per-layer metrics from spans around each layer's public entry points.

:func:`install` wraps the entry points; :func:`layer_metrics` folds the
recorded spans, plus counters the system publishes, into the per-layer
metrics. Times are self times (children on the same thread excluded),
summed over every thread and divided by the probes answered, unless the
unit says otherwise. ``<layer>.wall_share`` is a layer's summed self
time over the phase's wall-clock; threads overlap, so shares can sum
past 1.
"""

from __future__ import annotations

import os
from collections import defaultdict

from repro.core.interpreter import ProbeInterpreter
from repro.core.satisfice import Satisficer
from repro.core.scheduler import ProbeScheduler
from repro.core.steering import CostAdvisor, JoinDiscovery, WhyNotDiagnoser
from repro.core.system import AgentFirstDataSystem
from repro.db.database import Database
from repro.engine.executor import Executor
from repro.memstore.store import AgenticMemoryStore
from repro.plan.cost import estimate_cost
from repro.plan.fingerprint import fingerprints
from repro.shard.system import ShardedSystem
from repro.txn.wal import WriteAheadLog

from perfbench.spans import Tracer, self_times

#: Span name -> layer whose ``wall_share`` it counts towards.
LAYER_OF = {
    "plan.plan_select": "plan",
    "plan.estimate_cost": "plan",
    "plan.fingerprint": "plan",
    "interpret": "interpret",
    "satisfice": "interpret",
    "scheduler.run_batch": "scheduler",
    "engine.run": "engine",
    "steering.pre_execution_feedback": "steering",
    "steering.observe_probe": "steering",
    "steering.diagnose": "steering",
    "steering.related_tables": "steering",
    "memstore.search": "memstore",
    "memstore.remember": "memstore",
    "wal.append": "wal",
    "wal.commit": "wal",
    "wal.checkpoint": "wal",
    "shard.pump": "shard",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (undo with ``tracer.restore()``)."""
    tracer.wrap(Database, "plan_select", "plan.plan_select", note=lambda args, _: args[1])
    tracer.wrap_function("repro", estimate_cost, "plan.estimate_cost")
    tracer.wrap_function("repro", fingerprints, "plan.fingerprint")
    tracer.wrap(ProbeInterpreter, "interpret", "interpret")
    tracer.wrap(Satisficer, "decide", "satisfice")
    tracer.wrap(
        ProbeScheduler,
        "run_batch",
        "scheduler.run_batch",
        note=lambda args, _: tuple(id(probe) for probe in args[1]),
    )
    tracer.wrap(Executor, "run", "engine.run")
    tracer.wrap(CostAdvisor, "pre_execution_feedback", "steering.pre_execution_feedback")
    tracer.wrap(CostAdvisor, "observe_probe", "steering.observe_probe")
    tracer.wrap(WhyNotDiagnoser, "diagnose", "steering.diagnose")
    tracer.wrap(JoinDiscovery, "related_tables", "steering.related_tables")
    tracer.wrap(AgenticMemoryStore, "search", "memstore.search")
    tracer.wrap(AgenticMemoryStore, "remember", "memstore.remember")
    tracer.wrap(
        WriteAheadLog, "append", "wal.append",
        note=lambda _, token: token.length if token is not None else 0,
    )
    tracer.wrap(WriteAheadLog, "commit_window", "wal.commit")
    tracer.wrap(
        WriteAheadLog, "write_checkpoint", "wal.checkpoint",
        note=lambda _, path: os.path.getsize(path) if path else 0,
    )
    tracer.wrap(ShardedSystem, "pump", "shard.pump")
    # The window envelope: the gateway serves every admission window
    # through this call (it supports serve-path wrappers), so what its
    # span does not cover with layer spans is unattributed time.
    tracer.wrap(AgentFirstDataSystem, "_serve_batch", "serve.window")


def layer_metrics(spans, samples, wall_s: float, counters: dict) -> dict:
    """Per-layer metrics for one traced phase.

    ``samples`` are the phase's probes; ``counters`` holds what was read
    from the systems after the phase (see ``run.read_counters``).
    """
    selfs = self_times(spans)
    total = defaultdict(float)       # inclusive wall, per name
    own = defaultdict(float)         # self wall
    own_cpu = defaultdict(float)     # self CPU
    calls = defaultdict(int)
    for span in spans:
        mine = selfs[span.span_id]
        total[span.name] += span.end - span.start
        own[span.name] += mine.wall
        own_cpu[span.name] += mine.cpu
        calls[span.name] += 1

    answered = [s for s in samples if s.response is not None]
    probes = max(1, len(answered))

    def per_probe_ms(*names: str) -> float:
        return 1000.0 * sum(own[name] for name in names) / probes

    def mean_ms(name: str) -> float:
        return 1000.0 * total[name] / calls[name] if calls[name] else 0.0

    sent_at = {id(s.probe): s.sent for s in samples}
    queue_waits = []
    batches = [span for span in spans if span.name == "scheduler.run_batch"]
    for span in batches:
        for probe_id in span.info or ():
            if probe_id in sent_at:
                queue_waits.append(span.start - sent_at[probe_id])
    batch_waits = [selfs[span.span_id].wait for span in batches]

    selects = sorted(
        (span for span in spans if span.name == "plan.plan_select"),
        key=lambda span: span.start,
    )
    seen: set[str] = set()
    repeats = 0
    for span in selects:
        repeats += span.info in seen
        seen.add(span.info)

    outcomes = [o for s in answered for o in s.response.outcomes]
    result_rows = sum(
        o.result.row_count for o in outcomes if o.executed and o.result is not None
    )
    wal_bytes = sum(s.info or 0 for s in spans if s.name in ("wal.append", "wal.checkpoint"))

    metrics = {
        "gateway.queue_wait_ms": (
            1000.0 * sum(queue_waits) / len(queue_waits) if queue_waits else 0.0
        ),
        "gateway.window_size_mean": (
            sum(len(span.info or ()) for span in batches) / len(batches) if batches else 0.0
        ),
        "gateway.windows": len(batches),
        "scheduler.batch_ms": mean_ms("scheduler.run_batch"),
        "scheduler.wait_ms": (
            1000.0 * sum(batch_waits) / len(batch_waits) if batch_waits else 0.0
        ),
        "scheduler.speculative_runs": counters["speculative_runs"] / probes,
        "plan.plan_select_ms": per_probe_ms("plan.plan_select"),
        "plan.plan_select_calls": calls["plan.plan_select"] / probes,
        "plan.repeat_sql_share": repeats / len(selects) if selects else 0.0,
        "plan.estimate_cost_ms": per_probe_ms("plan.estimate_cost"),
        "plan.fingerprint_ms": per_probe_ms("plan.fingerprint"),
        "plan.fingerprint_calls": calls["plan.fingerprint"] / probes,
        "interpret.self_ms": per_probe_ms("interpret"),
        "satisfice.ms": per_probe_ms("satisfice"),
        "optimizer.history_hit_share": (
            sum(o.status == "from_history" for o in outcomes) / len(outcomes)
            if outcomes else 0.0
        ),
        "engine.run_ms": per_probe_ms("engine.run"),
        "engine.run_cpu_ms": 1000.0 * own_cpu["engine.run"] / probes,
        "engine.runs": calls["engine.run"] / probes,
        "engine.rows_per_result_row": (
            sum(s.response.rows_processed for s in answered) / result_rows
            if result_rows else 0.0
        ),
        "engine.subplan_cache_hit_ratio": counters["subplan_cache_hit_ratio"],
        "steering.ms": per_probe_ms(
            *(name for name, layer in LAYER_OF.items() if layer == "steering")
        ),
        "memstore.search_ms": per_probe_ms("memstore.search"),
        "memstore.remember_ms": per_probe_ms("memstore.remember"),
        "memstore.artifacts": counters["memstore_artifacts"],
        "wal.append_ms": mean_ms("wal.append"),
        "wal.commit_ms": mean_ms("wal.commit"),
        "wal.checkpoint_ms": mean_ms("wal.checkpoint"),
        "wal.bytes_per_user_byte": (
            wal_bytes / counters["user_bytes"] if counters["user_bytes"] else 0.0
        ),
        "shard.pump_ms": per_probe_ms("shard.pump"),
        "shard.scatter_share": counters["scatter_share"],
        "shard.placement_imbalance": counters["placement_imbalance"],
        "trace.unattributed_share": (
            own["serve.window"] / total["serve.window"] if total["serve.window"] else 0.0
        ),
    }
    for layer in LAYERS:
        names = [name for name, owner in LAYER_OF.items() if owner == layer]
        metrics[f"{layer}.wall_share"] = sum(own[name] for name in names) / wall_s
    return metrics
