"""Run one benchmark workload, or all four, and print the figures as JSON.

    python3 perfbench/run.py --workload failover-raft --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One workload run prints, as its last line, ``{"correct", "attempted",
"failed", "metrics"}``: the ``end_to_end`` metrics of ``BENCHMARK.json``
with ``--trace 0``, the ``per_layer`` ones with ``--trace 1``.  The line
before it, starting with ``detail``, discloses what the gate does not read:
the tail percentile and sample counts, the raw reference and wall timings,
the output digest, the interpreter, CPU count and engine.  ``--all`` runs
every workload untraced in its own process and prints one table.

A correctness failure prints no result, names the workload and seed on
standard error and exits 1; a checkout without the program exits 2.
"""

from __future__ import annotations

import time

# Set-up time is measured from here: before anything of the program loads.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import refloop  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("failover-raft", "failover-escape", "serve-chaos", "lossy-sweep")

#: Fresh processes timed from start to first episode; the median is reported.
SETUP_PROBES = 5

#: Reference-loop time that defines one "reference second" (the loop's
#: typical duration on a 2-CPU cloud VM under CPython 3.11).  Set-up time is
#: reported as wall set-up time scaled by this over the reference time
#: measured in the same process, so machine drift divides out of it too.
REF_NOMINAL_S = 0.017

#: ``name -> (unit, better)`` for every end-to-end metric, in output order.
END_TO_END: dict[str, tuple[str, str]] = {
    "event_cost_norm": ("ref/kevent", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("fraction", "higher"),
    "failover_ms_p50": ("ms", "lower"),
    "failover_ms_tail": ("ms", "lower"),
    "campaigns_per_failover": ("count", "lower"),
    "leaderless_ms_per_failover": ("ms", "lower"),
}

#: Figures only serve-chaos has; printed in ``detail`` and by ``--all``.
SERVING_ONLY: dict[str, str] = {
    "commit_ms_p50": "ms",
    "commit_ms_p99": "ms",
    "ops_lost_per_failover": "count",
    "failed_share": "fraction",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    return args


def _probe(args: argparse.Namespace) -> int:
    """Child process: set up one workload, report how long that took."""
    import workloads

    workloads.build(args.workload, args.seed, args.seconds)
    setup = time.perf_counter() - _STARTED
    ref = min(refloop.timed() for _ in range(5))
    print(json.dumps({"setup_s": setup, "ref_s": ref}))
    return 0


def _setup_samples(args: argparse.Namespace) -> list[dict[str, float]]:
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _pass(workload, traced: bool):
    """Run the workload's episodes once; traced passes record spans."""
    import workloads

    recorder = registry = None
    if traced:
        import layers
        from repro.obs.telemetry import MetricsRegistry
        from spans import SpanRecorder

        registry = MetricsRegistry()
        recorder = SpanRecorder()
    capture = workloads.Capture(registry)
    capture.install()
    if recorder is not None:
        layers.install(recorder)
    clock = workloads.Clock(
        capture, on_episode=recorder.end_episode if recorder else None
    )
    try:
        outcomes = workload.run(clock)
    finally:
        if recorder is not None:
            recorder.restore()
        capture.restore()
    workload.check(outcomes, clock)
    return outcomes, clock, recorder, registry


def _cost(clock) -> float:
    return stats.cost_norm(clock.wall_s, clock.ref_s, sum(clock.events) / 1000.0)


def _run_workload(args: argparse.Namespace) -> tuple[dict, dict]:
    import workloads
    from repro.sim import engines

    probes = _setup_samples(args) if not args.trace else []
    workload = workloads.build(args.workload, args.seed, args.seconds)
    outcomes, clock, _, _ = _pass(workload, traced=False)
    digest = stats.digest(workload.records(outcomes))
    summary = workload.summary(outcomes, clock)
    cost = _cost(clock)
    episodes = len(clock.wall_s)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "episodes": episodes,
        "digest": digest,
        "failover_tail_pct": summary["failover_tail_pct"],
        "failovers": summary["failovers"],
        "bench.ref_ms": statistics.median(clock.ref_s) * 1000.0,
        "bench.wall_episodes_per_s": episodes / sum(clock.wall_s),
        "engine": engines.default_engine_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    detail.update({name: summary[name] for name in SERVING_ONLY if name in summary})
    if "commits" in summary:
        detail["commits"] = summary["commits"]
    result = {"attempted": episodes, "failed": summary["failed"]}

    if not args.trace:
        detail["setup_wall_s"] = [round(p["setup_s"], 4) for p in probes]
        detail["setup_ref_ms"] = [round(p["ref_s"] * 1000, 3) for p in probes]
        metrics = {
            "event_cost_norm": cost,
            "setup_s": statistics.median(
                p["setup_s"] * REF_NOMINAL_S / p["ref_s"] for p in probes
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{name: summary[name] for name in END_TO_END if name in summary},
        }
        result["metrics"] = {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
        return result, detail

    import layers

    traced_workload = workloads.build(args.workload, args.seed, args.seconds)
    traced_outcomes, traced_clock, recorder, registry = _pass(traced_workload, traced=True)
    traced_digest = stats.digest(traced_workload.records(traced_outcomes))
    if traced_digest != digest:
        raise workloads.BenchFailure(
            args.workload, args.seed,
            f"traced digest {traced_digest} differs from untraced {digest}",
        )
    metrics = layers.per_layer(
        recorder,
        registry,
        episodes,
        experiment_s=getattr(traced_workload, "experiment_s", 0.0),
        report_s=getattr(traced_workload, "report_s", 0.0),
        ref_s=statistics.fmean(traced_clock.ref_s),
        disclosure={
            "obs.trace_overhead_ratio": _cost(traced_clock) / cost,
            "bench.ref_ms": detail["bench.ref_ms"],
            "bench.wall_episodes_per_s": detail["bench.wall_episodes_per_s"],
        },
    )
    detail["spans_file"] = _write_spans(args, recorder)
    result["metrics"] = {
        name: {"value": metrics[name], "unit": unit}
        for name, (unit, _) in layers.METRICS.items()
    }
    return result, detail


def _write_spans(args: argparse.Namespace, recorder) -> str:
    """Write the first traced episode's spans as JSON lines; return the path."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for episode, span_id, parent, name, start, end in recorder.kept:
            handle.write(json.dumps({
                "episode": episode, "span": span_id, "parent": parent,
                "name": name, "start": start, "end": end,
            }) + "\n")
    return os.path.relpath(path, ROOT)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, one process each, as one table."""
    columns: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: FAILED (exit {done.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].split(" ", 1)[1])
        status |= 0 if result["correct"] else 1
        columns[name] = {
            **{metric: entry["value"] for metric, entry in result["metrics"].items()},
            **detail,
        }
    rows = [(metric, unit) for metric, (unit, _) in END_TO_END.items()]
    rows += list(SERVING_ONLY.items())
    print(f"{'metric':28} {'unit':11}" + "".join(f"{name:>17}" for name in columns))
    for metric, unit in rows:
        cells = "".join(
            f"{columns[name][metric]:>17.6g}" if metric in columns[name] else f"{'-':>17}"
            for name in columns
        )
        print(f"{metric:28} {unit:11}{cells}")
    for name, column in columns.items():
        print(
            f"{name}: {column['episodes']} episodes, tail = p{column['failover_tail_pct']:g} "
            f"of {column['failovers']} failovers, digest {column['digest']}"
        )
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program to measure under {SRC}\n")
        return 2
    # The benchmark measures the process-default engine, whatever the caller's
    # environment says.
    os.environ.pop("REPRO_ENGINE", None)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return _probe(args)
    if args.all:
        return _run_all(args)
    import workloads

    try:
        result, detail = _run_workload(args)
    except workloads.BenchFailure as exc:
        sys.stderr.write(f"perfbench: FAILED {exc}\n")
        return 1
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": True, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
