"""Benchmark harness: set-up, the timed closed loop, checks and metrics.

Each workload (see workloads.py and BENCHMARK.json) is a closed loop with
one client: jobs run back to back in this single process, with no extra
threads. The seed fixes the whole job list; jobs are generated one at a
time as the loop reaches them, outside the timed region. setup_s is the
time from process start to the first timed job: imports, shared state such
as family construction, and one untimed warm-up job that fills the module
caches. The timed loop then runs jobs until their summed wall time reaches
--seconds, and checks every job's outputs outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 runs every job both
untraced and traced (alternating which goes first), requires identical
outcomes, and prints the per-layer metrics, counts and self times per
traced job; spans go to perfbench/out/.
The last stdout line is the result object; the line before it holds
details and provenance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import chamberflow

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFUSAL_NAMES = {cls.__name__ for cls in workloads.REFUSALS}


def parse_args(argv, names):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(lib_path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    found[lib_path.name] = int(getter())
                    break
    return found


def provenance(blas_env) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "chamberflow": chamberflow.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env_pinned": {var: os.environ.get(var) for var in blas_env},
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def tail(times: list) -> tuple:
    """(value, percentile, jobs beyond): the highest order statistic with at
    least ten jobs above it, but never below the median. Runs of at most
    twenty jobs have no such statistic above the median and report the
    order statistic just above it (the median itself for an odd count); a
    lower one would read as a tail faster than the typical job, and an
    extreme one (min or max) swings from run to run."""
    ordered = sorted(times)
    k = max(len(ordered) - 10, len(ordered) // 2 + 1)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def run_job(workload, ctx, job, tracer=None):
    """Run one job; returns (outputs or None, seconds, exception class name or None)."""
    if tracer is not None:
        tracer.install(job["index"])
    start = time.perf_counter()
    out, error = None, None
    try:
        out = workload.run(ctx, job)
    except Exception as exc:  # the loop goes on; evaluate() records the job
        error = type(exc).__name__
        if not isinstance(exc, workloads.REFUSALS):
            traceback.print_exc(limit=4, file=sys.stderr)
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return out, elapsed, error


def evaluate(workload, ctx, job, out, error) -> dict:
    """Untimed outcome of one job: status, refusals, result count, problem."""
    record = {"index": job["index"], "status": "failed", "refusals": [], "results": 0, "problem": None}
    if out is None:
        if error in REFUSAL_NAMES:
            record.update(status="refused", refusals=[error])
        else:
            record["problem"] = f"raised {error}"
        return record
    record["refusals"] = list(out["refusals"])
    try:
        record["results"] = workload.check(ctx, job, out)
        record["status"] = "refused" if record["refusals"] else "ok"
    except workloads.CheckFailed as exc:
        record["problem"] = str(exc)
    except Exception as exc:  # a crashing check fails its job, not the run
        record["problem"] = f"check raised {type(exc).__name__}: {exc}"
    return record


def timed_loop(workload, ctx, seed, seconds, tracer):
    """Jobs back to back until their summed wall time reaches `seconds`.

    Returns (records, untraced times, traced times)."""
    records, times, traced_times = [], [], []
    spent = 0.0
    for index in itertools.count():
        if spent >= seconds:
            break
        job = workload.make_job_at(seed, index)
        if tracer is None:
            out, elapsed, error = run_job(workload, ctx, job)
        else:
            traced_first = job["index"] % 2 == 1
            runs = {}
            for traced in (traced_first, not traced_first):
                runs[traced] = run_job(workload, ctx, job, tracer if traced else None)
            out, elapsed, error = runs[False]
            traced_out, traced_elapsed, traced_error = runs[True]
            traced_times.append(traced_elapsed)
            spent += traced_elapsed
        spent += elapsed
        times.append(elapsed)
        record = evaluate(workload, ctx, job, out, error)
        record["seconds"] = elapsed
        if tracer is not None and record["status"] != "failed":
            same = traced_error == error and (
                out is None or workload.fingerprint(out) == workload.fingerprint(traced_out)
            )
            if not same:
                record.update(status="failed", problem="traced and untraced runs differ")
        records.append(record)
    return records, times, traced_times


def main(start: float, blas_env, argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    ctx = workload.setup()
    warmup = workload.make_warmup()
    warm_out, _, warm_error = run_job(workload, ctx, warmup)
    setup_s = time.perf_counter() - start
    warm_record = evaluate(workload, ctx, warmup, warm_out, warm_error)
    tracer = tracing.Tracer() if args.trace else None
    records, times, traced_times = timed_loop(workload, ctx, args.seed, args.seconds, tracer)
    final_problem = None
    if tracer is not None and tracer.leftover_wrappers():
        final_problem = f"wrappers left installed: {tracer.leftover_wrappers()[:3]}"

    attempted = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    outcomes: dict = {}
    for r in records:
        for label in ["failed"] if r["status"] == "failed" else (r["refusals"] or ["ok"]):
            outcomes[label] = outcomes.get(label, 0) + 1
    results = sum(r["results"] for r in records)
    tail_s, tail_pct, tail_beyond = tail(times)
    correct = failed == 0 and warm_record["status"] != "failed" and final_problem is None

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if tracer is None:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = {
            "setup_s": setup_s,
            "job_s_p50": statistics.median(times),
            "job_s_tail": tail_s,
            "results_per_s": results / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        wanted = [m["name"] for m in spec["per_layer"]]
        values = {"trace.overhead_ratio": statistics.median(traced_times) / statistics.median(times)}
        values.update({name: tracer.metric(name) for name in wanted if name not in values})
    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": attempted,
        "job_s_tail_percentile": tail_pct,
        "job_s_tail_jobs_beyond": tail_beyond,
        "fail_ratio": failed / attempted,
        "outcomes": outcomes,
        "results": results,
        "timed_s": sum(times),
        "import_s": import_s,
        "warmup": warm_record,
        "job_seconds": times,
        "problems": [r for r in records if r["status"] == "failed"][:5],
        "final_problem": final_problem,
        "provenance": provenance(blas_env),
    }
    if tracer is not None:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        details["spans"] = tracer.write_spans(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["traced_jobs"] = tracer.jobs
        details["untraced_job_s_p50"] = statistics.median(times)
        details["traced_job_s_p50"] = statistics.median(traced_times)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n"
    )
    for name in wanted:
        print(f"{args.workload:8s} {name:48s} {values[name]:14.6g} {units[name]}")
    print(f"{args.workload:8s} {'fail_ratio':48s} {details['fail_ratio']:14.6g} failed/attempted")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0
