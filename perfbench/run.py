"""The benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload table1-paper --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs a fixed amount of work (sized from ``--seconds``) twice,
first untraced and then with every layer wrapped (``layers.py``), and
reports the per-layer metrics, the tracing overhead and the share of time
no layer accounts for.  Either way every output is checked; the last line
of standard output is one JSON object, and the exit code is 1 when a check
failed.  End-to-end timings are host-normalized (see ``calibration.py``).
Human-readable lines above the JSON carry the sample counts, the read/write
split, the error rate, the raw timings and the calibration samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List

from calibration import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("table1-paper", "drift-300", "fleet-read-hot", "fleet-write-durable")
SETUP_REPEATS = 3
#: Fleet rounds per untraced run, at least (set-up time is their median).
MIN_ROUNDS = 2

perf_counter = time.perf_counter


def percentile(values: List[float], fraction: float) -> float:
    from repro.traffic.metrics import percentile as repo_percentile

    return repo_percentile(sorted(values), fraction)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def timing_metrics(setups: List[float], latencies: List[float], units: int, seconds: float, rss_mb: float):
    """The end-to-end metrics from (host-normalized) timings."""
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput_per_s": metric(units / seconds, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000.0, "ms"),
        "latency_p99_ms": metric(percentile(latencies, 0.99) * 1000.0, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def describe(label: str, metrics: Dict[str, Dict[str, Any]]) -> str:
    return f"{label}: " + ", ".join(
        f"{name} {entry['value']:.4g} {entry['unit']}" for name, entry in metrics.items() if name != "peak_rss_mb"
    )


# --------------------------------------------------------------------- #
# Set-up probes: a fresh interpreter builds the workload's initial state
# --------------------------------------------------------------------- #
def setup_probe(workload: str, seed: int) -> None:
    import batch

    if workload == "table1-paper":
        batch.table1_setup(seed)
    else:
        batch.drift_setup(batch.drift_deployment_seed(seed, 0))


def timed_setups(workload: str, seed: int, speed) -> List[tuple]:
    """(seconds, host-speed sample mark) of ``SETUP_REPEATS`` fresh set-ups."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
               "--seed", str(seed)]
    setups = []
    before = speed.sample()
    for _ in range(SETUP_REPEATS):
        begin = perf_counter()
        subprocess.run(command, check=True, timeout=120)
        seconds = perf_counter() - begin
        after = speed.sample()
        setups.append((seconds, (before, after)))
        before = after
    return setups


# --------------------------------------------------------------------- #
# Batch workloads (table1-paper, drift-300)
# --------------------------------------------------------------------- #
def batch_measure(workload: str, seed: int, seconds: int, speed, *, fixed: bool, tracer=None):
    """Run a batch workload: ``table1-paper`` for ``seconds`` (or, when
    ``fixed``, for about that many seconds' worth of networks), ``drift-300``
    for a fixed number of epochs, always: its epochs differ in size by
    position, so every seed runs the same ones."""
    import batch

    if workload == "table1-paper":
        if fixed:
            return batch.table1_measure(seed, units=max(4, 5 * seconds), speed=speed, tracer=tracer)
        return batch.table1_measure(seed, seconds=seconds, speed=speed, tracer=tracer)
    return batch.drift_measure(seed, epochs=max(1, seconds // 3), speed=speed, tracer=tracer)


def normalized_latencies(data, speed) -> List[float]:
    return [latency / speed.factor(*mark) for latency, mark in zip(data["latencies"], data["marks"])]


def run_batch(workload: str, seed: int, seconds: int, speed, report: List[str]) -> Dict[str, Any]:
    setups = timed_setups(workload, seed, speed)
    data = batch_measure(workload, seed, seconds, speed, fixed=False)
    speed.sample()
    latencies = data["latencies"]
    normalized = normalized_latencies(data, speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unit = "network" if workload == "table1-paper" else "epoch"
    report.append(f"{data['attempted']} {unit}s timed in {sum(latencies):.3f} s (p99 over {len(latencies)} samples)")
    if workload == "drift-300":
        report.append(f"events applied per epoch: {data['events']}")
    raw = timing_metrics([s for s, _ in setups], latencies, len(latencies), sum(latencies), rss_mb)
    report.append(describe("raw (unnormalized)", raw))
    return {
        "correct": not data["problems"],
        "attempted": data["attempted"],
        "failed": data["failed"],
        "problems": data["problems"],
        "metrics": timing_metrics(
            [seconds / speed.factor(*mark) for seconds, mark in setups],
            normalized, len(normalized), sum(normalized), rss_mb,
        ),
    }


def trace_batch(workload: str, seed: int, seconds: int, speed, report: List[str]) -> Dict[str, Any]:
    import layers

    plain = batch_measure(workload, seed, seconds, speed, fixed=True)
    tracer = layers.LayerTracer()
    tracer.install()
    traced = batch_measure(workload, seed, seconds, speed, fixed=True, tracer=tracer)
    speed.sample()
    snapshot = traced["trace"]
    traced_seconds = sum(traced["latencies"])
    extras = {
        "overhead_ratio": sum(normalized_latencies(traced, speed)) / sum(normalized_latencies(plain, speed)),
        "unaccounted_share": 1.0 - layers.self_seconds(snapshot) / traced_seconds,
    }
    report.append(
        f"{traced['attempted']} units per pass: untraced {sum(plain['latencies']):.3f} s, traced {traced_seconds:.3f} s"
    )
    return traced_result(snapshot, extras, traced_seconds, [plain, traced], report)


# --------------------------------------------------------------------- #
# Fleet workloads
# --------------------------------------------------------------------- #
def fleet_rounds(workload: str, seed: int, work_dir: str, speed, *, count=None, seconds=None, traced=False):
    """``count`` rounds, or rounds until ``seconds`` of timed requests (at
    least ``MIN_ROUNDS``).  Round ``r`` runs its own trace (seed
    ``fleet.round_seed``): the rare expensive requests of a trace vary in
    number, and more traces per run average that out."""
    import fleet

    rounds = []
    index = 0
    while (count is not None and index < count) or (
        count is None and (index < MIN_ROUNDS or sum(r["elapsed"] for r in rounds) < seconds)
    ):
        spec = fleet.fleet_workload(workload, fleet.round_seed(seed, index))
        trace_out = os.path.join(work_dir, "trace.json") if traced else None
        result = fleet.run_round(spec, os.path.join(work_dir, "round"), speed, trace_out=trace_out)
        if traced:
            with open(trace_out) as handle:
                result["trace"] = json.load(handle)
            os.remove(trace_out)
        rounds.append(result)
        index += 1
    return rounds


def _pool_rounds(rounds, speed) -> Dict[str, Any]:
    """Pooled request samples ``(is_write, seconds, host-normalized seconds)``
    and the error and check counts of ``rounds``; also sets each round's
    ``normalized_elapsed``."""
    samples = []
    for r in rounds:
        r["normalized_elapsed"] = 0.0
        for segment in r["segments"]:
            factor = speed.blended(*segment["mark"], *segment["cpu"])
            r["normalized_elapsed"] += segment["seconds"] / factor
            samples.extend((write, seconds, seconds / factor) for write, seconds in segment["timings"])
    errors = sum(len(r["errors"]) for r in rounds)
    problems = [problem for r in rounds for problem in r["problems"]]
    return {"samples": samples, "errors": errors, "problems": problems,
            "attempted": len(samples) + errors, "failed": errors}


def run_fleet(workload: str, seed: int, seconds: int, work_dir: str, speed, report: List[str]) -> Dict[str, Any]:
    rounds = fleet_rounds(workload, seed, work_dir, speed, seconds=seconds)
    speed.sample()
    counts = _pool_rounds(rounds, speed)
    samples = counts["samples"]
    normalized = [latency for _, _, latency in samples]
    reads = [latency for write, _, latency in samples if not write]
    writes = [latency for write, _, latency in samples if write]
    rss_mb = statistics.median(r["peak_rss_mb"] for r in rounds)
    elapsed = sum(r["elapsed"] for r in rounds)
    report.append(
        f"{len(rounds)} rounds, {counts['attempted']} requests ({len(reads)} reads, {len(writes)} writes) "
        f"timed in {elapsed:.3f} s (p99 over {len(samples)} samples)"
    )
    report.append(
        f"read p50 {statistics.median(reads) * 1000.0:.4g} ms, write p50 {statistics.median(writes) * 1000.0:.4g} ms "
        f"(host-normalized); error rate {counts['errors'] / counts['attempted']:.4f} "
        f"({counts['errors']}/{counts['attempted']})"
    )
    raw = timing_metrics(
        [r["setup_seconds"] for r in rounds], [latency for _, latency, _ in samples], len(samples), elapsed, rss_mb
    )
    report.append(describe("raw (unnormalized)", raw))
    return {
        "correct": not counts["problems"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "problems": counts["problems"],
        "metrics": timing_metrics(
            [r["setup_seconds"] / speed.blended(*r["setup_mark"], *r["setup_cpu"]) for r in rounds],
            normalized,
            len(samples),
            sum(r["normalized_elapsed"] for r in rounds),
            rss_mb,
        ),
    }


def trace_fleet(workload: str, seed: int, seconds: int, work_dir: str, speed, report: List[str]) -> Dict[str, Any]:
    import layers

    count = max(1, seconds // 6)
    plain = fleet_rounds(workload, seed, work_dir, speed, count=count)
    traced = fleet_rounds(workload, seed, work_dir, speed, count=count, traced=True)
    speed.sample()
    passes = [_pool_rounds(plain, speed), _pool_rounds(traced, speed)]
    snapshot = layers.merge(r["trace"] for r in traced)
    counters: Dict[str, float] = {}
    for r in traced:
        for name, value in r["metrics"]["merged"]["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def hit_ratio(prefix: str) -> float:
        hits = counters.get(f"{prefix}.hits", 0)
        total = hits + counters.get(f"{prefix}.misses", 0)
        return hits / total if total else 0.0

    traced_seconds = sum(r["elapsed"] for r in traced)
    waits = [r["metrics"]["merged"]["histograms"].get("server.queue_wait_seconds", {}).get("p99") for r in traced]
    extras = {
        "snapshot_cache_hit_ratio": hit_ratio("cache.snapshot"),
        "route_cache_hit_ratio": hit_ratio("cache.route"),
        "storage_bytes": statistics.mean(r["storage_bytes"] for r in traced),
        "subs_frames": sum(r["frames"] for r in traced),
        "subs_resyncs": sum(r["resyncs"] for r in traced),
        "frontend_s": sum(r["trace"]["cpu_s"] for r in traced) - snapshot["total"].get("host.batch", 0.0),
        "queue_wait_p99_ms": statistics.mean((w or 0.0) * 1000.0 for w in waits),
        "overhead_ratio": sum(r["normalized_elapsed"] for r in traced)
        / sum(r["normalized_elapsed"] for r in plain),
        "unaccounted_share": 1.0 - sum(r["server_cpu_seconds"] for r in traced) / traced_seconds,
    }
    report.append(
        f"{count} rounds per pass: untraced {sum(r['elapsed'] for r in plain):.3f} s, "
        f"traced {traced_seconds:.3f} s (timed requests only)"
    )
    return traced_result(snapshot, extras, traced_seconds, passes, report)


# --------------------------------------------------------------------- #
# Traced results
# --------------------------------------------------------------------- #
def traced_result(snapshot, extras, elapsed: float, passes, report: List[str]) -> Dict[str, Any]:
    import layers

    metrics = layers.per_layer_metrics(snapshot, extras)
    exact = {name: metrics[name]["value"] for name in layers.EXACT_COUNTS}
    report.append("exact counts: " + json.dumps(exact, sort_keys=True))
    shares = {
        name: round(value / elapsed, 4)
        for name, value in sorted(snapshot["self"].items())
        if value
    }
    report.append("self-time shares of the traced time: " + json.dumps(shares))
    problems = [problem for p in passes for problem in p["problems"]]
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    # On SIGTERM, unwind through the ``finally`` blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_dir = os.path.join(os.getcwd(), ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    report: List[str] = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    cpus = sorted(os.sched_getaffinity(0))
    fleet_run = args.workload.startswith("fleet-")
    speed = HostSpeed([cpus[0], cpus[-1]] if fleet_run and len(cpus) > 1 else [cpus[0]])
    try:
        if fleet_run:
            runner = trace_fleet if args.trace else run_fleet
            result = runner(args.workload, args.seed, args.seconds, work_dir, speed, report)
        else:
            runner = trace_batch if args.trace else run_batch
            result = runner(args.workload, args.seed, args.seconds, speed, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it
    report.append(f"host calibration: {speed.summary()}")
    for problem in result["problems"]:
        report.append(f"CHECK FAILED: {problem}")
    for name, entry in result["metrics"].items():
        report.append(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print("\n".join(report))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
