"""mvcode benchmark: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports mvcode from ``src/`` there
and refuses to run without it.  Workloads (see ``workloads.py``):

  certify         exhaustive requirement-A runs of the RS-backed schemes and
                  replication, then a bridged quorum verify through the CLI
  binning-verify  exhaustive requirement-A run of the binning scheme
  sampled         codebook seed survey, Monte-Carlo verifies, epsilon estimate
  interactive     adversarial schedule searches, replays, quick CLI commands

``--trace 0`` repeats whole passes over the workload's jobs while the
next pass is expected to end within ``--seconds`` (a pass longer than
that runs once) and reports the end-to-end metrics: ``setup_s``, the
median time of five fresh processes that import mvcode and build the
workload's schemes, codebooks and inputs; ``wall_s``, the median pass
time; ``peak_rss_mb``.  Both times are in seconds at a nominal machine
speed (see ``speed.py``); the raw seconds are on the line before the
result.

``--trace 1`` runs one untraced pass, one traced pass, a probe that calls
every layer, and the layer microbenchmarks, and reports the per-layer
metrics (see ``layers.py``) and the tracing overhead.  The traced pass
must reproduce the untraced pass's results exactly.

Each job's output is checked; a job that raises or fails its check counts
in ``failed``.  ``--smoke`` shrinks every workload to K=4 for a quick
check of the harness itself (``smoke.py`` runs all of them).  The last
line of output is the result; the line before it records the machine.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvcode"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
RAISED = object()
WORKLOADS = ("certify", "binning-verify", "sampled", "interactive")


def _import_package():
    """Import mvcode from this checkout only, never from an installed copy."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: mvcode sources not found at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import mvcode

    if Path(mvcode.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"error: imported mvcode from {mvcode.__file__}, not {PACKAGE}")


def _git_commit():
    """The checked-out commit read from .git, or None outside a repository."""
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
    return None


def machine_facts():
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _git_commit(),
    }


def measure_setup(args):
    """Median set-up time of fresh processes, in seconds at nominal speed,
    and their raw wall times.

    Each child samples the machine speed at its start and end (see
    ``setup_only``) and reports it on stdout.
    """
    from speed import normalised_short

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    normalised, raw = [], []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms and
        # quantises the measurement.  The child bounds itself with an alarm.
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        out, _ = child.communicate()
        wall = perf_counter() - start
        if child.returncode != 0:
            raise subprocess.CalledProcessError(child.returncode, command)
        raw.append(wall)
        normalised.append(normalised_short(wall, json.loads(out)))
    return statistics.median(normalised), raw


def setup_only(args):
    """Body of a set-up child: import mvcode and build the workload, then
    print the reference-loop samples taken at its start and end."""
    from speed import reference_durations

    signal.alarm(SETUP_TIMEOUT_S)
    samples = reference_durations()
    _import_package()
    import workloads

    workloads.build(args.workload, args.seed, workloads.SMOKE if args.smoke else workloads.ANCHOR)
    print(json.dumps(samples + reference_durations()))
    return 0


def run_pass(jobs, calls):
    """Run every job once: (pass seconds, per-job seconds, results)."""
    results, job_s = [], []
    start = perf_counter()
    for job in jobs:
        job_start = perf_counter()
        try:
            results.append(job.run(calls))
        except Exception:
            traceback.print_exc()
            results.append(RAISED)
        job_s.append(perf_counter() - job_start)
    return perf_counter() - start, job_s, results


def count_failures(jobs, results):
    failed = 0
    for job, result in zip(jobs, results):
        problems = ["raised"] if result is RAISED else job.check(result)
        if problems:
            failed += 1
            print(f"check failed: {job.name}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def run_untraced(args, jobs, setup):
    from speed import SpeedSampler
    from tracing import Untraced

    passes, normalised, attempted, failed = [], [], 0, 0
    start = perf_counter()
    while True:
        with SpeedSampler() as sampler:
            wall, job_s, results = run_pass(jobs, Untraced())
        passes.append(wall)
        normalised.append(sampler.normalised(wall))
        attempted += len(jobs)
        failed += count_failures(jobs, results)
        if perf_counter() - start + wall > args.seconds:
            break
    setup_s, setup_raw_s = setup
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(normalised), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"raw_setup_s": setup_raw_s, "raw_passes_s": passes, "passes_s": normalised,
              "raw_last_pass_job_s": dict(zip((j.name for j in jobs), job_s))}
    return attempted, failed, metrics, detail


def run_traced(args, jobs, size):
    import layers
    import workloads
    from tracing import Tracer, Untraced

    untraced_wall, _, untraced = run_pass(jobs, Untraced())
    tracer = Tracer()
    traced_wall, job_s, traced = run_pass(jobs, tracer)
    failed = count_failures(jobs, untraced) + count_failures(jobs, traced)
    for job, plain, seen in zip(jobs, untraced, traced):
        if plain is RAISED or seen is RAISED or plain != seen:
            failed += 1
            print(f"check failed: {job.name}: traced result differs", file=sys.stderr)

    probe = workloads.probe(args.seed, size)
    _, _, probe_results = run_pass(probe, tracer)
    failed += count_failures(probe, probe_results)
    loops, problems = layers.microbenchmarks(tracer, args.seed, size.K)
    for problem in problems:
        print(f"check failed: microbenchmark {problem}", file=sys.stderr)
    failed += len(problems)

    attempted = 2 * len(jobs) + len(probe) + loops
    metrics = layers.layer_metrics(tracer, traced_wall, untraced_wall)
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "traced_job_s": dict(zip((j.name for j in jobs), job_s))}
    return attempted, failed, metrics, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at K=4 to check the harness")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 60:
        parser.error("--seed must lie in [0, 2^60)")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    _import_package()
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.ANCHOR
    setup = None if args.trace else measure_setup(args)
    jobs = workloads.build(args.workload, args.seed, size)
    if args.trace:
        attempted, failed, metrics, detail = run_traced(args, jobs, size)
    else:
        attempted, failed, metrics, detail = run_untraced(args, jobs, setup)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "smoke": args.smoke, "machine": machine_facts(), **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
