"""Per-layer figures from the traced run.

:func:`install` wraps each layer's public entry points in spans (see
``LAYERS.md`` for the map); :func:`per_layer` turns the folded spans and the
harvested telemetry counters into the ``per_layer`` metrics of
``BENCHMARK.json``, each per episode.
"""

from __future__ import annotations

from typing import Any

from spans import SpanRecorder

import repro.escape.node
from repro.cluster.harness import ElectionHarness
from repro.cluster.scenarios import ElectionScenario
from repro.escape.ppf import ProbingPatrol
from repro.obs.telemetry import MetricsRegistry
from repro.raft.node import RaftNode
from repro.sim import engines
from repro.statemachine.kvstore import KeyValueStore
from repro.storage.log import ReplicatedLog
from repro.workload.driver import WorkloadDriver

#: Spans whose interval is the scheduler running simulated time.
SCHEDULER_SPANS = ("cluster.bootstrap", "cluster.steady", "cluster.failover")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    network = engines.resolve(None).network_class()
    for owner, attribute, name in (
        (ElectionScenario, "build", "cluster.build"),
        (ElectionScenario, "run", "experiments.episode"),
        (ElectionHarness, "stabilize", "cluster.bootstrap"),
        (ElectionHarness, "run_for", "cluster.steady"),
        (ElectionHarness, "crash_leader_and_measure", "cluster.failover"),
        # Wrapped where the ESCAPE node looks it up, so every node's call
        # during a cluster build is seen.
        (repro.escape.node, "assign_initial_configurations", "escape.sca_assign"),
        (ProbingPatrol, "advance_round", "escape.ppf"),
        (RaftNode, "on_message", "raft.handle"),
        (network, "send", "net.send"),
        (network, "broadcast", "net.send"),
        (ReplicatedLog, "append_command", "storage.append"),
        (ReplicatedLog, "merge_entries", "storage.append"),
        (KeyValueStore, "apply", "statemachine.apply"),
        (WorkloadDriver, "finalize", "workload.finalize"),
    ):
        recorder.wrap(owner, attribute, name)


#: ``name -> (unit, better)`` for every per-layer metric, in output order.
METRICS: dict[str, tuple[str, str]] = {
    "cluster.build_cost": ("ref", "lower"),
    "cluster.bootstrap_cost": ("ref", "lower"),
    "cluster.steady_cost": ("ref", "lower"),
    "cluster.failover_cost": ("ref", "lower"),
    "escape.sca_assign_calls": ("count", "lower"),
    "escape.sca_assign_cost": ("ref", "lower"),
    "escape.ppf_rounds": ("count", "lower"),
    "escape.ppf_cost": ("ref", "lower"),
    "sim.events_executed": ("count", "lower"),
    "sim.events_cancelled": ("count", "lower"),
    "sim.self_cost": ("ref", "lower"),
    "net.sent": ("count", "lower"),
    "net.delivered": ("count", "lower"),
    "net.dropped_fault": ("count", "lower"),
    "net.send_self_cost": ("ref", "lower"),
    "raft.messages_handled": ("count", "lower"),
    "raft.handle_self_cost": ("ref", "lower"),
    "raft.campaigns": ("count", "lower"),
    "raft.votes_granted": ("count", "lower"),
    "raft.elections_won": ("count", "lower"),
    "raft.useful_campaign_ratio": ("ratio", "higher"),
    "storage.append_calls": ("count", "lower"),
    "storage.append_cost": ("ref", "lower"),
    "statemachine.apply_calls": ("count", "lower"),
    "statemachine.apply_cost": ("ref", "lower"),
    "workload.issued": ("count", "higher"),
    "workload.committed": ("count", "higher"),
    "workload.retries": ("count", "lower"),
    "workload.dropped": ("count", "lower"),
    "workload.lost": ("count", "lower"),
    "workload.commit_ratio": ("ratio", "higher"),
    "workload.finalize_cost": ("ref", "lower"),
    "chaos.applied": ("count", "higher"),
    "chaos.skipped": ("count", "lower"),
    "experiments.sweep_overhead_share": ("ratio", "lower"),
    "experiments.report_cost": ("ref", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
    "bench.ref_ms": ("ms", "lower"),
    "bench.wall_episodes_per_s": ("1/s", "higher"),
}


def per_layer(
    recorder: SpanRecorder,
    registry: MetricsRegistry,
    episodes: int,
    experiment_s: float,
    report_s: float,
    ref_s: float,
    disclosure: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric, per episode where it is a count or a cost.

    A cost is wall time in runs of the reference loop (*ref_s* is its mean
    duration over the traced pass), so it reads the same on a fast and a
    slow moment of a shared machine; a layer the workload never reaches
    reads 0.  *experiment_s* is the duration of the ``run_experiment`` call
    (0 outside the sweep workload) and *disclosure* carries the three
    figures the benchmark measures about itself.
    """
    counters: dict[str, Any] = registry.snapshot().to_state()["counters"]

    def count(name: str) -> float:
        return counters.get(name, 0) / episodes

    def cost(total_s: float) -> float:
        return total_s / episodes / ref_s

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    issued = sum(
        counters.get(f"workload.{name}", 0) for name in ("proposed", "dropped", "rejected")
    )
    episode_s = recorder.total_s("experiments.episode")
    values = {
        "cluster.build_cost": cost(recorder.total_s("cluster.build")),
        "cluster.bootstrap_cost": cost(recorder.total_s("cluster.bootstrap")),
        "cluster.steady_cost": cost(recorder.total_s("cluster.steady")),
        "cluster.failover_cost": cost(recorder.total_s("cluster.failover")),
        "escape.sca_assign_calls": recorder.count("escape.sca_assign") / episodes,
        "escape.sca_assign_cost": cost(recorder.total_s("escape.sca_assign")),
        "escape.ppf_rounds": recorder.count("escape.ppf") / episodes,
        "escape.ppf_cost": cost(recorder.total_s("escape.ppf")),
        "sim.events_executed": count("sim.events.executed"),
        "sim.events_cancelled": count("sim.events.cancelled"),
        "sim.self_cost": cost(recorder.self_s(*SCHEDULER_SPANS)),
        "net.sent": count("net.sent"),
        "net.delivered": count("net.delivered"),
        "net.dropped_fault": count("net.dropped.fault"),
        "net.send_self_cost": cost(recorder.self_s("net.send")),
        "raft.messages_handled": recorder.count("raft.handle") / episodes,
        "raft.handle_self_cost": cost(recorder.self_s("raft.handle")),
        "raft.campaigns": count("node.campaigns"),
        "raft.votes_granted": count("node.votes_granted"),
        "raft.elections_won": count("node.elections_won"),
        "raft.useful_campaign_ratio": ratio(
            counters.get("node.elections_won", 0), counters.get("node.campaigns", 0)
        ),
        "storage.append_calls": recorder.count("storage.append") / episodes,
        "storage.append_cost": cost(recorder.total_s("storage.append")),
        "statemachine.apply_calls": recorder.count("statemachine.apply") / episodes,
        "statemachine.apply_cost": cost(recorder.total_s("statemachine.apply")),
        "workload.issued": issued / episodes,
        "workload.committed": count("workload.committed"),
        "workload.retries": count("workload.retries"),
        "workload.dropped": count("workload.dropped"),
        "workload.lost": count("workload.lost"),
        "workload.commit_ratio": ratio(counters.get("workload.committed", 0), issued),
        "workload.finalize_cost": cost(recorder.total_s("workload.finalize")),
        "chaos.applied": count("chaos.applied"),
        "chaos.skipped": count("chaos.skipped"),
        "experiments.sweep_overhead_share": (
            1.0 - episode_s / experiment_s if experiment_s else 0.0
        ),
        "experiments.report_cost": report_s / ref_s,
        **disclosure,
    }
    return {name: values[name] for name in METRICS}
