"""The benchmark harness in ``perfbench/`` still runs against the package.

The harness calls mvcode's public API from outside the package, so a
deletion or rename there would otherwise surface only when the benchmark
runs.  Everything here runs at the harness's seconds-long SMOKE size.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, Untraced  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_builds_at_smoke_size(workload):
    jobs = workloads.build(workload, 0, workloads.SMOKE)
    assert jobs and all(isinstance(job, workloads.Job) for job in jobs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reproduces_untraced(workload):
    # the traced pass goes through TracedScheme proxies; a report that reads
    # a scheme attribute the proxy does not forward would differ here
    jobs = workloads.build(workload, 0, workloads.SMOKE)
    for job in jobs:
        plain = job.run(Untraced())
        traced = job.run(Tracer())
        assert job.check(plain) == [] and job.check(traced) == [], job.name
        assert plain == traced, job.name


def test_layer_microbenchmarks_find_no_problems():
    loops, problems = layers.microbenchmarks(Tracer(), 0, 4)
    assert loops > 0 and problems == []


def test_probe_jobs_pass_their_checks():
    tracer = Tracer()
    problems = {}
    for job in workloads.probe(0, workloads.SMOKE):
        found = job.check(job.run(tracer))
        if found:
            problems[job.name] = found
    assert problems == {}
