"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 0-9 [--trace-seeds 0] [--out FILE]

Every workload in BENCHMARK.json runs for its run_seconds. Every run is its
own `perfbench/run.py` process, started one at a time and waited for. For
each workload and end-to-end metric the summary gives the median and
quartiles over the seeds (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
Traced runs (--trace-seeds) add the per-layer metrics, median over seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", default=None, help="write the JSON summary here")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    trace_seeds = seed_list(args.trace_seeds) if args.trace_seeds else []
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": seeds, "trace_seeds": trace_seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = [run_once(workload, seed, seconds, 1) for seed in trace_seeds]
        entry = {
            "correct": all(r["result"]["correct"] for r in runs + traced),
            "jobs": [r["details"]["jobs"] for r in runs],
            "outcomes": [r["details"]["outcomes"] for r in runs],
            "provenance": runs[0]["details"]["provenance"],
            "end_to_end": {},
            "per_layer": {},
        }
        ok &= entry["correct"]
        for name in bounds:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            print(f"{workload:8s} {name:14s} median {stats['median']:12.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bounds[name]}", flush=True)
        for m in spec["per_layer"] if traced else []:
            entry["per_layer"][m["name"]] = statistics.median(
                r["result"]["metrics"][m["name"]]["value"] for r in traced
            )
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
