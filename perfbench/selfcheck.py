"""Checks on the benchmark itself, run from the repository root.

    python3 perfbench/selfcheck.py spread --workload W --seeds 10 [--first-seed 0]
    python3 perfbench/selfcheck.py counts --workload W [--seed 0 --other-seed 1]

``spread`` runs the untraced benchmark once per seed and prints, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
next to the metric's bound in ``BENCHMARK.json``.  It exits 1 when a
spread other than ``setup_s`` exceeds a third of its bound.

``counts`` runs the traced benchmark twice on one seed and once on another.
The counts in ``layers.EXACT_COUNTS`` must match exactly between the two
runs of one seed; the other seed shows the checks pass on inputs the
workload was not tuned on.  It exits 1 on a mismatch or a failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; returns (parsed last line, the human-readable lines)."""
    benchmark = load_benchmark()
    command = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {completed.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def spread(args) -> int:
    benchmark = load_benchmark()
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        result, lines = run(args.workload, seed, args.seconds or benchmark["run_seconds"], 0)
        calibration = [line for line in lines if line.startswith("host calibration")]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items())
              + f" | {calibration[0] if calibration else ''}", flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    status = 0
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median
        limit = bounds[name] / 3.0
        verdict = "ok" if share <= limit or name == "setup_s" else "TOO WIDE"
        if verdict != "ok":
            status = 1
        print(f"{name:<18} median {median:.5g}  spread {share:.3f}  (a third of the bound: {limit:.3f}) {verdict}")
    return status


def counts(args) -> int:
    sys.path.insert(0, HERE)
    import layers

    seconds = args.seconds or load_benchmark()["run_seconds"]
    observed = []
    for seed in (args.seed, args.seed, args.other_seed):
        result, lines = run(args.workload, seed, seconds, 1)
        exact = {name: result["metrics"][name]["value"] for name in layers.EXACT_COUNTS}
        observed.append(exact)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + json.dumps(exact, sort_keys=True), flush=True)
        for line in lines:
            if line.startswith(("self-time shares", "host calibration")) or " per pass: " in line:
                print(f"  {line}")
        print("  " + json.dumps({name: round(entry["value"], 6) for name, entry in result["metrics"].items()}))
    mismatched = [name for name in layers.EXACT_COUNTS if observed[0][name] != observed[1][name]]
    if mismatched:
        print(f"counts differ between two runs of seed {args.seed}: {mismatched}")
        return 1
    print(f"all {len(layers.EXACT_COUNTS)} exact counts repeat on seed {args.seed}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    spread_parser = sub.add_parser("spread")
    spread_parser.add_argument("--workload", required=True)
    spread_parser.add_argument("--seeds", type=int, default=10)
    spread_parser.add_argument("--first-seed", type=int, default=0)
    spread_parser.add_argument("--seconds", type=int, default=None)
    counts_parser = sub.add_parser("counts")
    counts_parser.add_argument("--workload", required=True)
    counts_parser.add_argument("--seed", type=int, default=0)
    counts_parser.add_argument("--other-seed", type=int, default=1)
    counts_parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    return spread(args) if args.mode == "spread" else counts(args)


if __name__ == "__main__":
    sys.exit(main())
