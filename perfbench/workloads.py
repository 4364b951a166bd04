"""The benchmark's four workloads and what each one measures.

Every workload runs in this process (``workers=1``, no pool) on the
process-default engine, under the paper's conditions: one-way latency
uniform 100-200 ms, heartbeats every 150 ms, Raft election timeouts
1500-3000 ms and SCA baseTime 1500 / k 500 (the scenario defaults).  The
episode seeds are derived from the benchmark's ``--seed``; the episode count
from ``--seconds``, so one seed and one budget always mean the same
episodes and bit-identical simulated results.

* ``failover-raft`` -- ``ElectionScenario("raft", 64)``: vote storms of
  ~9k messages per episode, so per-message dispatch in ``sim``, ``net`` and
  ``raft`` does nearly all the work and the build does none.
* ``failover-escape`` -- ``ElectionScenario("escape", 256)``: the O(n^2)
  SCA build and heartbeat fan-out dominate; one campaign per failover.
* ``serve-chaos`` -- five servers under ``repeated-leader-kill`` (7 leader
  kills per 120 s window) with an open Poisson client loop, alternating
  Raft and ESCAPE: the write path (replication, log, KV store,
  ``WorkloadDriver``, ``ChaosDriver``) carries the load.
* ``lossy-sweep`` -- ``run_experiment("fig11", workers=1, sizes=(10, 50),
  loss_rates=(0.1, 0.2))`` over Raft, Z-Raft and ESCAPE: omission faults,
  PPF rearrangement, Z-Raft and the experiments plane.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Callable

import refloop
import stats

from repro.chaos.availability import AvailabilityObserver
from repro.chaos.driver import ChaosDriver
from repro.chaos.plans import build_plan
from repro.cluster.scenarios import ElectionScenario
from repro.common.rng import paired_seeds
from repro.experiments import run_experiment
from repro.experiments import fig11_message_loss as fig11
from repro.obs.harvest import (
    TelemetryListener,
    harvest_chaos,
    harvest_cluster,
    harvest_workload,
)
from repro.obs.telemetry import MetricsRegistry
from repro.protocols import PAPER_PROTOCOLS, title
from repro.workload.driver import WorkloadDriver
from repro.workload.scenario import ThroughputScenario

LOSSY_SIZES = (10, 50)
LOSSY_LOSS_RATES = (0.1, 0.2)


class BenchFailure(Exception):
    """A correctness check failed; the message names workload and seed."""

    def __init__(self, workload: str, seed: int, message: str) -> None:
        super().__init__(f"{workload} seed {seed}: {message}")


class Capture:
    """Hands the benchmark the objects an episode builds, without editing them.

    Wraps ``ElectionScenario.build`` (every workload builds its cluster
    there) to keep the episode's cluster and harness, and
    ``AvailabilityObserver.finalize`` to keep the serve-chaos window report.
    With a *registry* it also attaches a :class:`TelemetryListener` to every
    node and, at :meth:`take`, harvests the cluster, client workload and
    chaos driver into it -- the counters ``with_telemetry(True)`` records,
    gathered the same way for all four workloads.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry
        self._patched: list[tuple[type, str, Callable[..., Any]]] = []
        self._reset()

    def _reset(self) -> None:
        self.cluster = None
        self.harness = None
        self.report = None
        self.workload: WorkloadDriver | None = None
        self.chaos: ChaosDriver | None = None

    def _patch(self, owner: type, attribute: str, make: Callable) -> None:
        original = vars(owner)[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def install(self) -> None:
        capture = self

        def build(original):
            def wrapper(scenario, seed, extra_listeners=()):
                if capture.registry is not None:
                    extra_listeners = (
                        *extra_listeners, TelemetryListener(capture.registry)
                    )
                cluster, harness = original(scenario, seed, extra_listeners)
                capture.cluster, capture.harness = cluster, harness
                return cluster, harness
            return wrapper

        def finalize(original):
            def wrapper(observer, end_ms):
                capture.report = original(observer, end_ms)
                return capture.report
            return wrapper

        def keep(slot):
            def make(original):
                def wrapper(driver):
                    setattr(capture, slot, driver)
                    return original(driver)
                return wrapper
            return make

        self._patch(ElectionScenario, "build", build)
        self._patch(AvailabilityObserver, "finalize", finalize)
        if self.registry is not None:
            self._patch(WorkloadDriver, "start", keep("workload"))
            self._patch(ChaosDriver, "start", keep("chaos"))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def take(self) -> dict[str, Any]:
        """The finished episode's event count (and, for a serve-chaos window,
        its outage lengths and campaigns); harvests telemetry if recording."""
        if self.cluster is None:
            raise RuntimeError("the episode built no cluster")
        taken: dict[str, Any] = {
            "events": self.cluster.world.scheduler.executed_count
        }
        if self.report is not None:
            taken["outages_ms"] = [
                end - start for start, end in self.report.leaderless_intervals
            ]
            taken["campaigns"] = len(
                self.harness.observer.campaigns_after(self.report.start_ms)
            )
        if self.registry is not None:
            harvest_cluster(self.cluster, self.registry)
            if self.workload is not None:
                harvest_workload(self.workload, self.registry)
            if self.chaos is not None:
                harvest_chaos(self.chaos, self.registry)
        self._reset()
        return taken


class Clock:
    """Times each episode, and the reference loop once per quarter second of them.

    The reference loop runs once before the first episode and then, between
    episodes, once for every :data:`REF_EVERY_S` of episode time since, so
    it samples the machine at the same pace on every workload whether
    episodes take 20 ms or 600 ms.
    """

    REF_EVERY_S = 0.25

    def __init__(self, capture: Capture, on_episode: Callable[[], None] | None = None) -> None:
        self.capture = capture
        self.on_episode = on_episode
        self.wall_s: list[float] = []
        self.ref_s: list[float] = []
        self.events: list[int] = []
        self.taken: list[dict[str, Any]] = []
        self._since_ref = self.REF_EVERY_S
        self._last = self._sweep_started = 0.0
        #: Wall time of the last sweep, and the part of it spent in the
        #: progress callback (reference runs and the benchmark's bookkeeping).
        self.sweep_s = self.callback_s = 0.0

    def _reference(self) -> None:
        while self._since_ref >= self.REF_EVERY_S:
            self.ref_s.append(refloop.timed())
            self._since_ref -= self.REF_EVERY_S

    def _finish(self, wall: float) -> None:
        self.wall_s.append(wall)
        self._since_ref += wall
        self.taken.append(self.capture.take())
        self.events.append(self.taken[-1]["events"])
        if self.on_episode is not None:
            self.on_episode()

    def episode(self, run: Callable[[], Any]) -> Any:
        """Run one episode, after a reference run if one is due."""
        self._reference()
        start = time.perf_counter()
        result = run()
        self._finish(time.perf_counter() - start)
        return result

    # A sweep runs its episodes itself; its progress callback fires after
    # each one, so the reference loop runs there and its time is excluded.
    def sweep_start(self) -> None:
        self._reference()
        self._last = self._sweep_started = time.perf_counter()

    def sweep_progress(self, label: str, done: int, total: int) -> None:
        now = time.perf_counter()
        self._finish(now - self._last)
        self._reference()
        self._last = time.perf_counter()
        self.callback_s += self._last - now

    def sweep_end(self) -> None:
        now = time.perf_counter()
        self.wall_s[-1] += now - self._last
        self.sweep_s = now - self._sweep_started


def _episode(workload: str, seed: int, clock: Clock, run: Callable[[], Any]) -> Any:
    """One timed episode; any error it raises fails the run, naming the seed."""
    try:
        return clock.episode(run)
    except Exception as exc:
        raise BenchFailure(workload, seed, f"{type(exc).__name__}: {exc}") from exc


def episode_count(seconds: float, per_second: float, minimum: int) -> int:
    """Episodes one run holds: ``seconds`` worth at the nominal rate."""
    return max(minimum, math.ceil(seconds * per_second))


class FailoverWorkload:
    """Single-failover ``ElectionScenario`` episodes of one protocol."""

    #: Nominal episodes per second of budget,
    #: measured on a 2-CPU cloud VM under CPython 3.11.
    RATES = {"failover-raft": 10.0, "failover-escape": 2.6}
    SHAPES = {"failover-raft": ("raft", 64), "failover-escape": ("escape", 256)}

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        protocol, size = self.SHAPES[name]
        self.scenario = ElectionScenario(protocol, size)
        self.seeds = paired_seeds(
            episode_count(seconds, self.RATES[name], 20), seed, name
        )

    def run(self, clock: Clock) -> list:
        return [
            _episode(self.name, s, clock, lambda s=s: self.scenario.run(s))
            for s in self.seeds
        ]

    def records(self, outcomes: list) -> list[tuple]:
        return failover_records(outcomes)

    def check(self, outcomes: list, clock: Clock) -> None:
        check_failovers(self.name, outcomes)

    def summary(self, outcomes: list, clock: Clock) -> dict[str, Any]:
        return failover_summary(outcomes)


def failover_records(outcomes: list) -> list[tuple]:
    """The simulated outputs of single-failover measurements, for the digest."""
    return [
        (m.seed, m.converged, m.total_ms, m.detection_ms, m.election_ms,
         m.campaign_count, m.split_vote, m.winner_id, m.winner_term)
        for m in outcomes
    ]


def check_failovers(name: str, outcomes: list) -> None:
    """A converged failover elects someone other than the crashed leader."""
    for m in outcomes:
        crashed = m.extra["crashed_leader"]
        if m.converged and (m.winner_id is None or m.winner_id == crashed):
            raise BenchFailure(name, m.seed, f"winner {m.winner_id} after S{crashed} crashed")
        if m.election_ms < 0 or m.detection_ms < 0:
            raise BenchFailure(name, m.seed, "negative failover phase")


def failover_summary(outcomes: list) -> dict[str, Any]:
    """Simulated-time figures over single-failover measurements."""
    totals = [m.total_ms for m in outcomes]
    pct, value, n = stats.tail(totals)
    return {
        "ok_share": stats.ok_share_episodes(m.converged for m in outcomes),
        "failover_ms_p50": statistics.median(totals),
        "failover_ms_tail": value,
        "failover_tail_pct": pct,
        "failovers": n,
        "campaigns_per_failover": sum(m.campaign_count for m in outcomes) / n,
        "leaderless_ms_per_failover": sum(totals) / n,
        "failed": sum(1 for m in outcomes if not m.converged),
    }


class ServeChaosWorkload:
    """Open-loop client traffic through repeated leader kills."""

    RATE = 1.2
    PROTOCOLS = ("raft", "escape")

    def __init__(self, seed: int, seconds: float) -> None:
        self.name = "serve-chaos"
        self.seeds = paired_seeds(
            episode_count(seconds, self.RATE, 12), seed, self.name
        )
        self.scenarios = [
            ThroughputScenario(
                protocol=self.PROTOCOLS[index % 2],
                cluster_size=5,
                workload="open-poisson",
                plan=build_plan("repeated-leader-kill", seed=episode_seed),
            )
            for index, episode_seed in enumerate(self.seeds)
        ]

    def run(self, clock: Clock) -> list:
        return [
            _episode(self.name, s, clock, lambda sc=sc, s=s: sc.run(s))
            for sc, s in zip(self.scenarios, self.seeds)
        ]

    def records(self, outcomes: list) -> list[tuple]:
        return [
            (m.seed, m.protocol, m.proposed, m.committed, m.retries, m.dropped,
             m.rejected, m.lost, m.outage_count, m.leaderless_ms, m.latencies_ms)
            for m in outcomes
        ]

    def check(self, outcomes: list, clock: Clock) -> None:
        # WorkloadDriver.finalize already replayed the surviving log into a
        # fresh KV store and raised on divergence; here every issued op must
        # land in exactly one outcome.
        for m in outcomes:
            try:
                stats.ok_share_ops(m.issued, m.committed, m.dropped, m.rejected, m.lost)
            except ValueError as exc:
                raise BenchFailure(self.name, m.seed, str(exc)) from None

    def summary(self, outcomes: list, clock: Clock) -> dict[str, Any]:
        outages = [x for taken in clock.taken for x in taken["outages_ms"]]
        campaigns = sum(taken["campaigns"] for taken in clock.taken)
        pct, value, n = stats.tail(outages)
        issued = sum(m.issued for m in outcomes)
        committed = sum(m.committed for m in outcomes)
        latencies = [x for m in outcomes for x in m.latencies_ms]
        return {
            "ok_share": stats.ok_share_ops(
                issued,
                committed,
                sum(m.dropped for m in outcomes),
                sum(m.rejected for m in outcomes),
                sum(m.lost for m in outcomes),
            ),
            "failover_ms_p50": statistics.median(outages),
            "failover_ms_tail": value,
            "failover_tail_pct": pct,
            "failovers": n,
            "campaigns_per_failover": campaigns / n,
            "leaderless_ms_per_failover": sum(m.leaderless_ms for m in outcomes) / n,
            "commit_ms_p50": statistics.median(latencies),
            "commit_ms_p99": stats.percentile(latencies, 99.0),
            "commits": len(latencies),
            "ops_lost_per_failover": sum(m.lost for m in outcomes) / n,
            "failed_share": 1.0 - committed / issued,
            "failed": 0,
        }


class LossySweepWorkload:
    """The paper's message-loss sweep through the user's entry point."""

    RATE = 1.6

    def __init__(self, seed: int, seconds: float) -> None:
        self.name = "lossy-sweep"
        self.seed = seed
        self.runs = episode_count(seconds, self.RATE, 10)
        # Validates the grid the sweep will run, as run_experiment would.
        fig11.build_scenarios(LOSSY_SIZES, LOSSY_LOSS_RATES)
        self.run_result = None
        #: The run_experiment call's wall time without the time spent in the
        #: benchmark's progress callback, and its report-rendering time.
        self.experiment_s = 0.0
        self.report_s = 0.0

    def run(self, clock: Clock) -> list:
        clock.sweep_start()
        try:
            self.run_result = run_experiment(
                "fig11",
                runs=self.runs,
                seed=self.seed,
                workers=1,
                sizes=LOSSY_SIZES,
                loss_rates=LOSSY_LOSS_RATES,
                progress=clock.sweep_progress,
            )
        except Exception as exc:
            raise BenchFailure(self.name, self.seed, f"{type(exc).__name__}: {exc}") from exc
        clock.sweep_end()
        self.experiment_s = clock.sweep_s - clock.callback_s
        self.report_s = self.run_result.profile.get("report", 0.0)
        return [m for cell in self.run_result.result.by_label.values() for m in cell]

    def records(self, outcomes: list) -> list[tuple]:
        return failover_records(outcomes)

    def check(self, outcomes: list, clock: Clock) -> None:
        by_label = self.run_result.result.by_label
        lines = self.run_result.report.splitlines()
        for protocol in PAPER_PROTOCOLS:
            if not any(title(protocol) in line for line in lines):
                raise BenchFailure(self.name, self.seed, f"report has no {protocol} column")
            for size in LOSSY_SIZES:
                for loss in LOSSY_LOSS_RATES:
                    label = fig11.cell_label(protocol, size, loss)
                    if len(by_label.get(label, ())) != self.runs:
                        raise BenchFailure(self.name, self.seed, f"cell {label} is short")
                    row = [str(size), f"{loss * 100:.0f}%"]
                    if sum(1 for line in lines if line.split()[:2] == row) != 1:
                        raise BenchFailure(self.name, self.seed, f"report row for {label} missing")
        check_failovers(self.name, outcomes)

    def summary(self, outcomes: list, clock: Clock) -> dict[str, Any]:
        return failover_summary(outcomes)


def build(name: str, seed: int, seconds: float):
    """Build one workload's scenarios: the set-up the benchmark times."""
    if name == "serve-chaos":
        return ServeChaosWorkload(seed, seconds)
    if name == "lossy-sweep":
        return LossySweepWorkload(seed, seconds)
    return FailoverWorkload(name, seed, seconds)

