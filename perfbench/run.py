"""mpjlab benchmark: verified-run throughput, attack time and exact bit costs.

    python3 perfbench/run.py --workload sweep-bucketing --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Runs cold passes of one workload (each in a fresh interpreter, see
worker.py) for `--seconds` seconds, prints every metric with its unit and
then, as the last line, one JSON result. `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics. README.md in this directory lists them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PASS_TIMEOUT_S = 150
MIN_PASSES = 3        # untraced passes, so set-up time is a median of at least three
MIN_TRACED_PAIRS = 2
TAIL_PERCENTILE = 99
TAIL_SAMPLES_BEYOND = 10


def metric_units(trace: bool) -> dict[str, str]:
    """Name and unit of each reported metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    """One pass in a fresh interpreter; waits for it to end."""
    args = json.dumps({"workload": workload, "seed": seed, "traced": traced})
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), args],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"a {workload} pass ran over {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_passes(passes: list[dict]) -> list[str]:
    """Reasons the passes are not a valid measurement (empty when valid)."""
    problems = []
    if sum(p["ops"] for p in passes) == 0:
        raise BenchmarkError("no operation was checked; refusing a vacuous result")
    if any(p["exact"] != passes[0]["exact"] for p in passes):
        problems.append("exact bit results differ between passes of one seed")
    return problems


def typical_op_ns(passes: list[dict]) -> list[float]:
    """Each operation's mean duration over the passes.

    Every pass runs the same operations in the same order. A shared host
    can switch between a fast and a much slower state for seconds at a
    time; a median or minimum over a few passes then jumps between the two
    states, while the mean moves only with the share of time spent in each.
    """
    return [statistics.fmean(times) for times in zip(*(p["op_ns"] for p in passes))]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a set of untraced passes of one seed."""
    exact = passes[0]["exact"]
    typical = typical_op_ns(passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": len(typical) / (sum(typical) / 1e9),
        "op_p50_us": statistics.median(typical) / 1e3,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "bits_worst_prefix": exact["worst_prefix"],
        "bits_mean_prefix": exact["prefix_sum"] / exact["counted"],
        "bound_ratio": exact["worst_prefix"] / exact["bound"],
    }


def tail_line(passes: list[dict]) -> str:
    typical = sorted(typical_op_ns(passes))
    count = len(typical)
    if count * (100 - TAIL_PERCENTILE) < TAIL_SAMPLES_BEYOND * 100:
        return f"op_p{TAIL_PERCENTILE}_us: not reported, {count} operations are too few"
    p99 = statistics.quantiles(typical, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return f"op_p{TAIL_PERCENTILE}_us {p99 / 1e3} us over {count} operations"


def exact_layers(layers: dict, units: dict[str, str]) -> dict:
    """The per-layer metrics that are not times: equal on every traced pass."""
    return {name: value for name, value in layers.items() if units[name] != "s"}


def per_layer(untraced: list[dict], traced: list[dict], units: dict[str, str]) -> dict[str, float]:
    """Medians of the traced passes' layer times, their exact values, and the
    tracing overhead."""
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced) if units[name] == "s" else value
        for name, value in traced[0]["layers"].items()
    }
    metrics["trace.overhead_share"] = sum(typical_op_ns(traced)) / sum(typical_op_ns(untraced)) - 1
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """Run passes for `seconds` seconds; returns the result object and report lines."""
    units = metric_units(trace)
    deadline = time.monotonic() + seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        untraced.append(run_worker(workload, seed, False))
        if trace:
            traced.append(run_worker(workload, seed, True))
            if time.monotonic() >= deadline and len(traced) >= MIN_TRACED_PAIRS:
                break
        elif time.monotonic() >= deadline and len(untraced) >= MIN_PASSES:
            break

    problems = check_passes(untraced + traced)
    if trace:
        first = exact_layers(traced[0]["layers"], units)
        if any(exact_layers(p["layers"], units) != first for p in traced):
            problems.append("per-layer counts differ between traced passes of one seed")
        metrics = per_layer(untraced, traced, units)
    else:
        metrics = end_to_end(untraced)

    everything = untraced + traced
    attempted = sum(p["ops"] for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    lines = [f"{workload}: seed {seed}, {len(untraced)} untraced and {len(traced)} traced passes"]
    lines += [f"  {name} {metrics[name]} {units[name]}" for name in units]
    lines.append(f"  failed_share {len(failures) / attempted} ({len(failures)} of {attempted})")
    if not trace:
        lines.append("  " + tail_line(untraced))
    for f in failures[:10]:
        lines.append(f"  failure {f['kind']}: {f['message']} {' '.join(f['instances'])}")
    lines += [f"  problem: {p}" for p in problems]
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mpjlab" / "__init__.py").is_file():
        print(f"error: no mpjlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
