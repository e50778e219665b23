"""The four workloads: what each job calls and how its output is checked.

Every job calls mvcode's public API.  ``build`` is the set-up a user pays
before the first job (schemes, codebook tables, generated inputs); the
returned jobs then run against it.  Each job returns a comparable result,
and ``check`` turns that result into a list of problems (empty when
right).  Pins hold only at the anchor with seed 0; every other seed gets
the checks that hold for any seed.
"""

import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from mvcode import (
    CorrelationModel,
    adversarial_schedule_search,
    estimate_epsilon,
    make_scheme,
    partial_update_crash_schedule,
    quorum_bridge,
    run_simulation,
    sample_tuple,
    seed_search,
    verify_definition_2,
    verify_requirement_A,
)
from mvcode import cli
from mvcode.binning import sample_tuples

ZERO_ERROR = ("replication", "mds", "delta", "rs-update")
EPSILON = Fraction(1, 4)


@dataclass(frozen=True)
class Size:
    """Problem size.  ``ANCHOR`` is the README anchor; ``SMOKE`` is a
    seconds-long version of every workload for checking the harness."""

    K: int
    survey_tuples: int
    trials: int

    @property
    def anchor(self):
        return self == ANCHOR


ANCHOR = Size(K=8, survey_tuples=1000, trials=20000)
SMOKE = Size(K=4, survey_tuples=100, trials=2000)

# Values at the anchor that later changes to the package must not move.
# Exhaustive results do not depend on the seed; the rest hold at seed 0.
PIN_EXHAUSTIVE_ATTEMPTS = 1548288
PIN_LATEST_ONLY_FAILURES = 442368
PIN_BINNING_FAILURES = 864
PIN_BRIDGED_ATTEMPTS = 1244160
PIN_SURVEY_FAILURES = (336, 336, 0)
PIN_MC_BINNING_FAILURES = 5
PIN_ESTIMATE_FAILURES = 5
PIN_WITNESS_EVENTS = {(4, "latest-only"): 7, (6, "latest-only"): 9}


@dataclass
class Job:
    name: str
    run: Callable  # (calls) -> comparable result; calls is Untraced or Tracer
    check: Callable  # (result) -> list of problems


def live_cells(n: int, nu: int, c: int) -> int:
    """(state, c-subset) pairs whose members share a version, counted
    directly on bitmask rows so the check does not reuse the package."""
    count = 0
    for code in range(1 << (n * nu)):
        rows = [(code >> (i * nu)) & ((1 << nu) - 1) for i in range(n)]
        for T in combinations(range(n), c):
            shared = (1 << nu) - 1
            for t in T:
                shared &= rows[t]
            count += shared != 0
    return count


def _materialize(scheme):
    """Build a binning scheme's codebook tables now, as set-up."""
    codebook = scheme.codebook
    for server in range(scheme.n):
        for version in range(1, scheme.model.nu + 1):
            codebook.index_table(server, version)
    return scheme


def _expect(problems, ok, text):
    if not ok:
        problems.append(text)


# ---------------------------------------------------------------------------
# Job factories


def _verify_job(name, scheme, size, seed, *, mode="exhaustive", pin=None,
                pin_any_seed=False):
    model = scheme.model
    cells = live_cells(scheme.n, model.nu, scheme.c)

    def run(calls):
        with calls.span("verifier"):
            report = verify_requirement_A(
                calls.wrap(scheme), mode=mode, trials=size.trials, seed=seed
            )
        calls.note("verifier.attempts", report.attempts)
        return report

    def check(report):
        problems = []
        if mode == "exhaustive":
            want = cells * model.tuple_count()
            _expect(problems, report.attempts == want,
                    f"attempts {report.attempts} != cells x tuples {want}")
            if size.anchor:
                _expect(problems, report.attempts == PIN_EXHAUSTIVE_ATTEMPTS,
                        f"attempts {report.attempts} != pinned")
        else:
            _expect(problems, report.attempts == report.tuples_checked == size.trials,
                    f"trials {report.attempts} != {size.trials}")
        _expect(problems, 0 <= report.failure_count <= report.attempts,
                f"failure count {report.failure_count} out of range")
        if scheme.name in ZERO_ERROR:
            _expect(problems, report.failure_count == 0,
                    f"{report.failure_count} failures on a zero-error scheme")
        if pin is not None and size.anchor and (seed == 0 or pin_any_seed):
            _expect(problems, report.failure_count == pin,
                    f"failures {report.failure_count} != pinned {pin}")
        return problems

    return Job(name, run, check)


def _cli_job(name, argv, span, expect_code=0, pins=None):
    def run(calls):
        out = io.StringIO()
        with calls.span(span), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        problems = []
        _expect(problems, code == expect_code, f"exit code {code} != {expect_code}")
        if pins:
            fields = _report_fields(text)
            for key, want in pins.items():
                _expect(problems, fields.get(key) == want,
                        f"{key}={fields.get(key)} != {want}")
        return problems

    return Job(name, run, check)


def _report_fields(text):
    """key=value pairs of the verification report block in CLI output.

    Only the report's own lines are read, not the verdict line after it,
    so a change to the verdict wording does not count as a failure.
    """
    fields = {}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("mvc-verification "):
            for report_line in lines[i + 1 : i + 3]:
                for token in report_line.split():
                    key, _, value = token.partition("=")
                    fields[key] = value
            break
    return fields


def _search_job(model, name, n, q, size, seed):
    inner = make_scheme(name, model, n, 2 * q - n)

    def run(calls):
        scheme = calls.bridged(inner, q, q)
        with calls.span("sim.search"):
            return adversarial_schedule_search(scheme, q, q, f=1, depth=12, seed=seed)

    def check(witness):
        problems = []
        if name in ZERO_ERROR:
            _expect(problems, witness is None, "witness found for a zero-error scheme")
            return problems
        if witness is not None:
            trace = run_simulation(quorum_bridge(inner, q, q), witness)
            _expect(problems, not trace.consistent, "witness replays consistent")
        pin = PIN_WITNESS_EVENTS.get((n, name))
        if seed == 0 and size.anchor and pin is not None:
            events = None if witness is None else len(witness.events)
            _expect(problems, events == pin, f"witness events {events} != pinned {pin}")
        return problems

    return Job(f"search:{name}:n{n}", run, check)


def _replay_job(model, name, seed):
    schedule = partial_update_crash_schedule()
    overlap = schedule.c_w + schedule.c_r - schedule.n
    inner = make_scheme(name, model, schedule.n, overlap)
    versions = sample_tuple(model, seed)

    def run(calls):
        scheme = calls.bridged(inner, schedule.c_w, schedule.c_r)
        with calls.span("sim.replay"):
            return run_simulation(scheme, schedule, versions)

    def check(trace):
        problems = []
        _expect(problems, len(trace.reads) == 1, "replay lost its read")
        if name in ZERO_ERROR:
            _expect(problems, trace.consistent, "zero-error scheme read inconsistently")
        elif seed == 0:
            _expect(problems, not trace.consistent, "latest-only replay read consistently")
        return problems

    return Job(f"replay:{name}", run, check)


# ---------------------------------------------------------------------------
# Workloads


def build(workload: str, seed: int, size: Size) -> list:
    """Set up one workload and return its jobs, in run order."""
    model = CorrelationModel(K=size.K, radius=1, nu=2)
    if workload == "certify":
        jobs = [
            _verify_job(
                f"verify-A:{name}",
                make_scheme(name, model, 4, 2),
                size,
                seed,
                pin=PIN_LATEST_ONLY_FAILURES if name == "latest-only" else None,
                pin_any_seed=True,
            )
            for name in (*ZERO_ERROR, "latest-only")
        ]
        pins = {"failures": "0"}
        if size.anchor:
            pins["attempts"] = str(PIN_BRIDGED_ATTEMPTS)
        argv = ["verify", "--scheme", "mds", "--c-w", "3", "--c-r", "3",
                "--mode", "exhaustive"]
        if not size.anchor:
            argv += ["--K", str(size.K)]
        jobs.append(_cli_job("cli:verify-bridged", argv, "cli.verify", pins=pins))
        return jobs

    if workload == "binning-verify":
        scheme = _materialize(
            make_scheme("binning", model, 4, 2, epsilon=EPSILON, seed=seed)
        )
        return [
            _verify_job("verify-A:binning", scheme, size, seed, pin=PIN_BINNING_FAILURES)
        ]

    if workload == "sampled":
        tuples = sample_tuples(model, size.survey_tuples, seed)
        codebook_seeds = [3 * seed + i for i in range(3)]
        cells = live_cells(4, model.nu, 2)
        binning = _materialize(
            make_scheme("binning", model, 4, 2, epsilon=EPSILON, seed=seed)
        )

        def survey(calls):
            with calls.span("binning.survey"):
                report = seed_search(
                    model, 4, 2, EPSILON, codebook_seeds, tuples, stop_at_target=False
                )
            calls.note("binning.survey.decodes", sum(s.decodes for s in report.surveys))
            return report

        def check_survey(report):
            problems = []
            got = [s.seed for s in report.surveys]
            _expect(problems, got == codebook_seeds, f"surveyed seeds {got}")
            for s in report.surveys:
                _expect(problems, s.cells == cells, f"seed {s.seed}: {s.cells} cells")
                _expect(problems, s.decodes == s.cells * len(tuples),
                        f"seed {s.seed}: decodes {s.decodes} != cells x tuples")
            if seed == 0 and size.anchor:
                fails = tuple(s.failures for s in report.surveys)
                _expect(problems, fails == PIN_SURVEY_FAILURES,
                        f"survey failures {fails} != pinned")
            return problems

        def estimate(calls):
            with calls.span("verifier"):
                est = estimate_epsilon(calls.wrap(binning), trials=size.trials, seed=seed)
            calls.note("verifier.attempts", est.trials)
            return est

        def check_estimate(est):
            problems = []
            _expect(problems, est.trials == size.trials, f"trials {est.trials}")
            _expect(problems, est.wilson_lower <= est.rate <= est.wilson_upper,
                    "rate outside its Wilson interval")
            if seed == 0 and size.anchor:
                _expect(problems, est.failures == PIN_ESTIMATE_FAILURES,
                        f"estimate failures {est.failures} != pinned")
            return problems

        return [
            Job("seed-search", survey, check_survey),
            _verify_job("verify-A-mc:mds", make_scheme("mds", model, 4, 2), size, seed,
                        mode="monte-carlo"),
            _verify_job("verify-A-mc:binning", binning, size, seed,
                        mode="monte-carlo", pin=PIN_MC_BINNING_FAILURES),
            Job("estimate-epsilon:binning", estimate, check_estimate),
        ]

    if workload == "interactive":
        jobs = [_search_job(model, name, 4, 3, size, seed) for name in (*ZERO_ERROR, "latest-only")]
        jobs += [_search_job(model, name, 6, 5, size, seed) for name in ("mds", "latest-only")]
        jobs += [_replay_job(model, name, seed) for name in ("mds", "latest-only")]
        anchor_k = str(size.K)
        jobs += [
            _cli_job("cli:cost", ["cost", "-n", "4", "-c", "2", "--nu", "2", "--K",
                                  anchor_k, "--radius", "1"], "cli.cost"),
            _cli_job("cli:cost-K64", ["cost", "--K", "64"], "cli.cost"),
            _cli_job("cli:bound", ["bound", "--sweep", "32,64,128", "-n", "8", "-c", "8",
                                   "--nu", "2", "--delta", "1/16"], "cli.bound"),
            _cli_job("cli:example1", ["example1"], "cli.example1"),
        ]
        return jobs

    raise ValueError(f"unknown workload {workload!r}")


def probe(seed: int, size: Size) -> list:
    """Small calls into every layer, run after each traced pass.

    A workload leaves some layers idle (``certify`` never reaches
    ``binning``); the probe makes every per-layer metric a measurement on
    every workload instead of an empty zero.
    """
    model = CorrelationModel(K=size.K, radius=1, nu=2)
    small = Size(size.K, survey_tuples=20, trials=300)
    jobs = [
        _verify_job(f"probe:verify-A-mc:{name}",
                    make_scheme(name, model, 4, 2, **({"epsilon": EPSILON, "seed": seed}
                                                      if name == "binning" else {})),
                    small, seed, mode="monte-carlo")
        for name in (*ZERO_ERROR, "binning", "latest-only")
    ]
    inner = make_scheme("mds", model, 4, 2)

    def bridged(calls):
        with calls.span("verifier"):
            report = verify_definition_2(calls.bridged(inner, 3, 3), 3, 3,
                                         mode="monte-carlo", trials=small.trials, seed=seed)
        calls.note("verifier.attempts", report.attempts)
        return report

    def check_bridged(report):
        problems = []
        _expect(problems, report.attempts == small.trials, f"trials {report.attempts}")
        _expect(problems, report.failure_count == 0, "bridged mds failed")
        return problems

    tuples = sample_tuples(model, small.survey_tuples, seed)
    cells = live_cells(4, model.nu, 2)

    def survey(calls):
        with calls.span("binning.survey"):
            report = seed_search(model, 4, 2, EPSILON, [seed], tuples, stop_at_target=False)
        calls.note("binning.survey.decodes", report.best.decodes)
        return report

    def check_survey(report):
        want = cells * len(tuples)
        return [] if report.best.decodes == want else [f"decodes {report.best.decodes} != {want}"]

    jobs += [
        Job("probe:verify-D2-mc:mds", bridged, check_bridged),
        Job("probe:survey", survey, check_survey),
        _search_job(model, "mds", 4, 3, size, seed),
        _search_job(model, "latest-only", 4, 3, size, seed),
        _replay_job(model, "mds", seed),
    ]
    k = str(size.K)
    jobs += [
        _cli_job("probe:cli:cost", ["cost", "--K", k], "cli.cost"),
        _cli_job("probe:cli:bound", ["bound", "--sweep", "32,64,128"], "cli.bound"),
        _cli_job("probe:cli:example1", ["example1"], "cli.example1"),
        _cli_job("probe:cli:sim", ["sim", "--scheme", "mds", "--K", k], "cli.sim_replay"),
        _cli_job("probe:cli:verify", ["verify", "--scheme", "mds", "--K", "4",
                                      "--mode", "exhaustive"], "cli.verify",
                 pins={"failures": "0"}),
    ]
    return jobs
