"""Every input the CLI accepts answers: a generated check over the flag table.

Hypothesis draws argv for every subcommand from ``cli._PARAMS``, one value
strategy per row, mixing ordinary values with extremes (n up to 65,536, nu,
K and radius at the edges of their ranges, epsilon down to 2^-67108864,
seeds and seed counts near 2^64) and values past each limit.  Work flags are
drawn only where their own limit or ``--cap`` bounds the work: verify, sim
and binning always get a small ``--cap``, verify always gets a few
``--trials``, and seed counts near 2^64 are drawn only past their limit.
Beside the draw, which picks at most two extremes per argv, a fixed list
runs every (flag, extreme) pair once, so each extreme is exercised.

The cases run one after another in one child interpreter under a 2 GiB
address-space limit, each under an alarm.  Every exit is 0-3; a refusal
(2 or 3) prints nothing on stdout and exactly one ``error:`` line that names
a flag, a limit or a cap and no interpreter message; an answer (0 or 1)
comes before the alarm.
"""

import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvcode.binning import _CODEBOOK_KINDS
from mvcode.cli import _COMMANDS, _FORMATS, _PARAMS
from mvcode.schemes import scheme_names
from mvcode.sim import partial_update_crash_schedule, schedule_to_text
from mvcode.verifier import _MODES

_ALARM_S = 10
_SCHEDULE = "<schedule>"  # replaced by the path of a bundled-replay file

def _n(got):
    return max(1, got.get("n", 4))


# Per flag: a strategy of ordinary values and a list of extremes, each a
# function of the values drawn before it (the table's order puts n before
# the quorums, K before radius and seed before seeds).
_VALUES = {
    "scheme": (lambda got: st.sampled_from(scheme_names()), lambda got: ["binning"]),
    "n": (lambda got: st.integers(1, 6), lambda got: [0, -1, 9, 65536, 65537]),
    "c": (
        lambda got: st.integers(1, min(4, _n(got))),
        lambda got: [0, _n(got), _n(got) + 1],
    ),
    **{
        field: (
            # two such quorums overlap
            lambda got: st.integers(_n(got) // 2 + 1, _n(got)),
            lambda got: [0, 1, _n(got) - 1, _n(got), _n(got) + 1],
        )
        for field in ("c_w", "c_r")
    },
    "nu": (lambda got: st.integers(1, 3), lambda got: [0, -1, 22]),
    "K": (lambda got: st.integers(1, 16), lambda got: [0, 1, 16, 17, 64, 4096]),
    "radius": (
        lambda got: st.integers(0, 2),
        lambda got: [got.get("K", 8), got.get("K", 8) + 1, -1],
    ),
    "delta": (
        lambda got: st.sampled_from(["0", "1/16", "1/8", "1/2", "1"]),
        lambda got: ["3/2", "-1/4", "2^-15000", "1e-1000", "1e-99999",
                     "2^-99999999999", "1/0"],
    ),
    "epsilon": (
        lambda got: st.sampled_from(["1/4", "0.1", "2^-20", "1/3"]),
        lambda got: ["2^-15000", "2^-67108864", "2^-67108865", "0", "1", "2",
                     "2^1000", "1e-1000", "1e-99999", "1e-99999999",
                     "2^-99999999999", "1/0", "3^-2", "1/" + "3" * 1001],
    ),
    "seed": (lambda got: st.integers(0, 3), lambda got: [2**64 - 1, 2**64, -1]),
    "mode": (lambda got: st.sampled_from(_MODES), lambda got: list(_MODES)),
    "cap": (
        lambda got: st.sampled_from([100, 4096, 1 << 16]), lambda got: [0, 1, -1]
    ),
    "fmt": (lambda got: st.sampled_from(_FORMATS), lambda got: list(_FORMATS)),
    "trials": (lambda got: st.integers(1, 50), lambda got: [0, -1]),
    "sweep": (
        lambda got: st.lists(
            st.sampled_from([1, 2, 8, 16, 64, 1000]), min_size=1, max_size=3
        ).map(lambda ks: ",".join(map(str, ks))),
        lambda got: ["0", "8,-3", ","],
    ),
    "schedule": (
        lambda got: st.just(_SCHEDULE), lambda got: ["/nonexistent.sched"]
    ),
    "search": (lambda got: st.integers(0, 12), lambda got: [-1, 13]),
    "crashes": (lambda got: st.integers(0, 2), lambda got: [-1, _n(got)]),
    # a seed count is work no cap bounds: near 2^64 only past its limit
    "seeds": (
        lambda got: st.integers(1, 3),
        lambda got: [0, -1, (1 << 64) - got.get("seed", 0) + 1, 1 << 64],
    ),
    "kind": (lambda got: st.sampled_from(_CODEBOOK_KINDS), lambda got: ["linear"]),
}
# Flags a command always takes here, so that the work stays bounded: the
# cap bounds exhaustive walks, searches and surveys, and the trial count a
# Monte-Carlo verify.
_ALWAYS = {"verify": {"cap", "trials"}, "sim": {"cap"}, "binning": {"cap"}}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    fields = [p.field for p in _PARAMS if command in p.commands]
    given = {f for f in fields if not draw(st.integers(0, 2))} | _ALWAYS.get(
        command, set()
    )
    if draw(st.integers(0, 9)):  # mostly flags that go together
        if command == "sim" and "search" in given:
            given = given - {"c", "schedule"} | {"c_w", "c_r"}
        elif command == "sim":
            given -= {"n", "c", "c_w", "c_r", "crashes"}
        if given & {"c_w", "c_r"}:
            given = given - {"c"} | {"c_w", "c_r"}
    wild = draw(st.sets(st.sampled_from(sorted(given)), max_size=2)) if given else ()
    got, argv = {}, [command]
    for param in _PARAMS:
        if param.field in given:
            ordinary, extremes = _VALUES[param.field]
            if param.field in wild:
                value = draw(st.sampled_from(extremes(got)))
            else:
                value = draw(ordinary(got))
            got[param.field] = value
            argv += [param.flag, str(value)]
    return argv


_CHILD = f"""
import io, json, resource, signal, sys, time, traceback
from contextlib import redirect_stderr, redirect_stdout
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from mvcode.cli import main

class Alarm(BaseException):
    pass

def ring(signum, frame):
    raise Alarm

signal.signal(signal.SIGALRM, ring)
reply = sys.stdout
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    status, crash = None, None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, {_ALARM_S})
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(json.loads(line))
            except SystemExit as exc:
                status = exc.code
        signal.setitimer(signal.ITIMER_REAL, 0)
    except Alarm:
        crash = "no answer within the alarm"
    except BaseException:
        signal.setitimer(signal.ITIMER_REAL, 0)
        crash = traceback.format_exc()
    reply.write(json.dumps(dict(
        status=status, crash=crash, out=out.getvalue(), err=err.getvalue(),
        seconds=time.perf_counter() - start,
    )) + "\\n")
    reply.flush()
"""


class _Child:
    """One interpreter that runs ``main`` on each argv it is sent; started
    again after a case that crashed or rang the alarm."""

    def __init__(self):
        self.proc = None

    def run(self, argv):
        if self.proc is None:
            src = str(Path(__file__).resolve().parents[1] / "src")
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _CHILD],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], _ALARM_S + 20)
        line = self.proc.stdout.readline() if ready else ""
        result = json.loads(line) if line else dict(crash="the child did not answer")
        if result["crash"]:
            self.close()
        return result

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


@pytest.fixture(scope="module")
def child():
    runner = _Child()
    yield runner
    runner.close()


@pytest.fixture(scope="module")
def schedule_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("schedule") / "replay.sched"
    path.write_text(schedule_to_text(partial_update_crash_schedule()))
    return str(path)


# A refusal names one of these; none names an interpreter message.
_NAMES = re.compile(
    r"--[a-z]|\b(?:{})\b|limit|cap".format(
        "|".join(re.escape(p.flag.lstrip("-")) for p in _PARAMS)
    )
)
_INTERPRETER = re.compile(r"Traceback|[A-Z][a-z]+Error|integer string conversion")


def _check_answers(child, argv):
    """``argv`` answers in the child, or is refused in one named line."""
    result = child.run(argv)
    assert result["crash"] is None, (argv, result["crash"])
    status, err = result["status"], result["err"]
    assert status in (0, 1, 2, 3), (argv, status)
    if status in (2, 3):
        assert result["out"] == "", argv
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err)
        assert _NAMES.search(errors[0]), (argv, errors[0])
        assert not _INTERPRETER.search(err), (argv, err)


def test_every_flag_has_a_value_strategy():
    assert set(_VALUES) == {param.field for param in _PARAMS}


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=_argv())
def test_every_accepted_input_answers(argv, child, schedule_path):
    argv = [schedule_path if arg == _SCHEDULE else arg for arg in argv]
    _check_answers(child, argv)


# Work flags at ordinary values, for the commands that always take them.
_WORK = {"cap": 4096, "trials": 5}
# The flags an extreme needs beside it to reach the code that reads it: a
# quorum's partner, and the quorums of a search and of its crash budget.
_BESIDE = {
    "c_w": {"c_r": 4},
    "c_r": {"c_w": 4},
    "search": {"c_w": 3, "c_r": 3},
    "crashes": {"search": 4, "c_w": 3, "c_r": 3},
}


def _extreme_cases():
    """Each (flag, extreme) pair of ``_VALUES`` once, under a command that
    takes the flag (verify for the flags every command takes), with the
    command's work flags at ordinary values and every other flag at its
    default; the radius extremes also at K = 4096."""
    cases = []
    for param in _PARAMS:
        command = "verify" if "verify" in param.commands else param.commands[0]
        for before in ({}, {"K": 4096}) if param.field == "radius" else ({},):
            for value in _VALUES[param.field][1](before):
                got = {f: _WORK[f] for f in _ALWAYS.get(command, ())}
                got.update(_BESIDE.get(param.field, {}), **before)
                got[param.field] = value
                argv = [command]
                for p in _PARAMS:
                    if p.field in got:
                        argv += [p.flag, str(got[p.field])]
                cases.append(argv)
    return cases


@pytest.mark.parametrize(
    "argv", _extreme_cases(), ids=lambda argv: " ".join(a[:16] for a in argv)
)
def test_every_extreme_answers(argv, child):
    _check_answers(child, argv)
