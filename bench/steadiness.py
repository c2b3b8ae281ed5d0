"""Measure how steady the end-to-end metrics are across seeds.

    python3 bench/steadiness.py bench/steadiness/set-1.json 101 102 ... 110

Runs every workload once per seed (interleaved, untraced, each in its own
process, with BENCHMARK.json's run_seconds) and writes, per workload and
metric, the values, their median and quartiles (`statistics.quantiles(n=4)`)
and the spread: (q3 - q1) / median, the figure BENCHMARK.json's bounds are
held against.  The ungated pass time in seconds (`wall_s`) is kept beside
the gated metrics for comparison.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """The run's JSON result, plus the ungated pass time in seconds from its
    human-readable `wall_s` line."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wall = next(line.split()[1] for line in lines if line.strip().startswith("wall_s "))
    result["metrics"]["wall_s"] = {"value": float(wall), "unit": "s"}
    return result


def summarize(results: dict, bounds: dict) -> dict:
    """results: workload -> list of run results, in seed order."""
    out = {}
    for workload, runs in results.items():
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds.get(name),
                "within_third_of_bound": spread < bounds[name] / 3 if name in bounds else None,
                "values": values,
            }
        out[workload] = {
            "runs": len(runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": rows,
        }
    return out


def main() -> int:
    path, seeds = Path(sys.argv[1]), [int(s) for s in sys.argv[2:]]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict = {w["name"]: [] for w in spec["workloads"]}
    for seed in seeds:
        for workload in results:
            results[workload].append(run_once(workload, seed, spec["run_seconds"]))
    summary = {
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "machine": f"{os.cpu_count()} CPUs ({platform.machine()}), Python {platform.python_version()}",
        "workloads": summarize(results, bounds),
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, s in summary["workloads"].items():
        for name, row in s["metrics"].items():
            print(f"{workload:9s} {name:12s} median {row['median']:10.4g} spread {row['spread']:.4f}"
                  f" bound {row['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
