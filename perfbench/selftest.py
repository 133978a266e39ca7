"""Self-tests of the benchmark harness (not of chamberflow).

    python3 perfbench/selftest.py

Checks that job generation is deterministic for a seed, that a traced and
an untraced run of the same jobs agree on every outcome, result count and
output fingerprint, and that the tracer leaves no wrapper installed.
Exits 1 on the first failed check.
"""

import hashlib
import pickle
import sys

import run

run.bootstrap()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj)).hexdigest()


def test_jobs_are_deterministic():
    for workload in workloads.WORKLOADS.values():
        first, again, other = ([workload.make_job_at(seed, i) for i in range(6)] for seed in (7, 7, 8))
        assert digest(first) == digest(again), f"{workload.name}: same seed, different jobs"
        assert digest(first) != digest(other), f"{workload.name}: seed does not change the jobs"
        assert digest(workload.make_warmup()) == digest(workload.make_warmup())
        assert digest(workload.make_warmup()) not in {digest(job) for job in first}


def test_tail_order_statistic():
    assert harness.tail([float(x) for x in range(1, 41)]) == (30.0, 75.0, 10)
    assert harness.tail([float(x) for x in range(1, 21)]) == (11.0, 55.0, 9)
    assert harness.tail([float(x) for x in range(1, 22)]) == (11.0, 100.0 * 11 / 21, 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3, 1)


def test_traced_runs_agree_and_unwrap():
    import chamberflow

    tracer = tracing.Tracer()
    original = chamberflow.build_schottky
    tracer.install(0)
    assert chamberflow.build_schottky is not original, "install did not rebind the package name"
    tracer.uninstall()
    assert chamberflow.build_schottky is original
    for workload in workloads.WORKLOADS.values():
        ctx = workload.setup()
        for job in (workload.make_job_at(3, i) for i in range(2)):
            plain_out, _, plain_error = harness.run_job(workload, ctx, job)
            traced_out, _, traced_error = harness.run_job(workload, ctx, job, tracer)
            plain = harness.evaluate(workload, ctx, job, plain_out, plain_error)
            traced = harness.evaluate(workload, ctx, job, traced_out, traced_error)
            assert plain["status"] != "failed", (workload.name, plain)
            for key in ("status", "refusals", "results"):
                assert plain[key] == traced[key], (workload.name, key, plain, traced)
            if plain_out is not None:
                assert workload.fingerprint(plain_out) == workload.fingerprint(traced_out)
            assert tracer.leftover_wrappers() == [], tracer.leftover_wrappers()
    assert tracer.metric("flag_boundary.boundary_margin_estimate.calls") > 0
    assert tracer.metric("torus_density.points") > 0


def main() -> int:
    for test in (test_jobs_are_deterministic, test_tail_order_statistic, test_traced_runs_agree_and_unwrap):
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
