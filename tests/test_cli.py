"""CLI tests: flag and config parsing, the round-trip identity, every
subcommand's output shape and exit code, byte-level determinism, and the
README's library example."""

import ast
import csv
import io
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcode
from mvcode.cli import (
    _COMMANDS,
    _PARAMS,
    RunConfig,
    UsageError,
    _build_parser,
    _config_values,
    format_rational,
    main,
    parse_rational,
)
from mvcode.sim import partial_update_crash_schedule, schedule_to_text


def _config_from_text(text):
    """A --config file's text as the RunConfig it yields with no flags."""
    return RunConfig(**_config_values(text))


def _config_text(cfg):
    """cfg as config-file text: one key=value line per field that is set."""
    lines = []
    for flag, attr, *_ in _PARAMS:
        value = getattr(cfg, attr)
        if value is not None:
            shown = format_rational(value) if isinstance(value, Fraction) else value
            lines.append(f"{flag.lstrip('-')}={shown}")
    return "\n".join(lines)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).parent / "golden"


def _csv_rows(text):
    # tables follow the echo lines; csv starts at the header row
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("scheme,"))
    return list(csv.reader(io.StringIO("\n".join(lines[start:]))))


# ---------------------------------------------------------------------------
# Golden transcripts: the README commands, byte for byte.  Each file holds
# the command line, the exit code and the full stdout it produced.


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("*.txt")), ids=lambda p: p.stem
)
def test_golden_transcript(path, capsys):
    command, status, expected = path.read_text().split("\n", 2)
    assert command.startswith("$ mvcode ") and status.startswith("exit ")
    code, out, _ = _run(capsys, *shlex.split(command[len("$ mvcode "):]))
    assert (code, out) == (int(status[len("exit "):]), expected)


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# The package root holds what the benchmark harness and the README import
# from it, plus the errors those calls raise; the rest stays in submodules.
_ROOT_NAMES = {
    "BinningCodebook", "BoundParams", "CorrelationModel", "DecodingError",
    "EnumerationCapExceeded", "MvcScheme", "RateAllocation", "SystemState",
    "adversarial_schedule_search", "estimate_epsilon", "lower_bound_general",
    "make_scheme", "partial_update_crash_schedule", "quorum_bridge",
    "run_simulation", "sample_tuple", "seed_search", "verify_definition_2",
    "verify_requirement_A",
}


def test_package_root_exports_the_audited_names():
    assert set(mvcode.__all__) == _ROOT_NAMES
    for name in mvcode.__all__:
        assert getattr(mvcode, name) is not None, name


def _own_definitions(tree):
    """Top-level functions and classes, and the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member


def test_src_defines_only_what_something_calls():
    # code only tests call belongs in the tests (tests/oracles.py)
    repo = Path(__file__).resolve().parents[1]
    package = sorted((repo / "src" / "mvcode").glob("*.py"))
    texts = {
        path: path.read_text()
        for path in [*package, *sorted((repo / "perfbench").glob("*.py"))]
    }
    texts[repo / "README.md"] = (repo / "README.md").read_text()
    uncalled = []
    for path in package:
        lines = texts[path].splitlines()
        for node in _own_definitions(ast.parse(texts[path])):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            outside = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            named = re.compile(rf"\b{node.name}\b")
            others = (text for other, text in texts.items() if other != path)
            if not any(named.search(text) for text in (outside, *others)):
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert uncalled == []


# ---------------------------------------------------------------------------
# Parsing


def test_rational_parser_accepts_three_forms():
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("2^-20") == Fraction(1, 2**20)
    assert parse_rational("2^3") == 8
    with pytest.raises(ValueError):
        parse_rational("3^-2")
    with pytest.raises(ValueError):
        parse_rational("a quarter")


def test_every_help_default_is_the_value_a_run_takes(capsys):
    # each "(default X)" of a flag's help against the value a run given no
    # flags echoes: the `params` line of `cost`, and for --crashes the crash
    # budget of the witness a `sim --search` finds
    _, out, _ = _run(capsys, "cost")
    taken = dict(word.split("=", 1) for word in out.splitlines()[0].split()[1:])
    argv = ["sim", "--search", "12", "--c-w", "3", "--c-r", "3", "--scheme", "latest-only"]
    _, out, _ = _run(capsys, *argv)
    schedule = next(line for line in out.splitlines() if line.startswith("schedule "))
    taken["crashes"] = dict(word.split("=") for word in schedule.split()[1:])["f"]
    checked = []
    for p in _PARAMS:
        match = re.search(r"\(default (\S+)\)", p.help)
        if match is None:
            continue
        word = match.group(1)
        try:
            word = format_rational(parse_rational(word))  # 2^24 as the run echoes it
        except ValueError:
            pass
        assert taken[p.flag.lstrip("-")] == word, p.flag
        checked.append(p.flag)
    assert len(checked) == 12 and "--crashes" in checked, checked


def test_zero_denominator_exits_two(tmp_path, capsys):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    for flag in ("--epsilon", "--delta"):
        with pytest.raises(SystemExit) as err:
            main(["cost", flag, "1/0"])
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text("epsilon=1/0\n")
    code, _, err = _run(capsys, "cost", "--config", str(path))
    assert code == 2
    assert err.startswith("error: bad value for epsilon: zero denominator")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--delta", "-1/4"], "delta must lie in [0, 1], got -1/4"),
        (["cost", "--epsilon", "-1/4"],
         "epsilon must lie strictly between 0 and 1, got -1/4"),
        (["cost", "--K", "4", "--delta", "-0.5e0"],
         "delta must lie in [0, 1], got -1/2"),
        (["verify", "--eps", "-2"],
         "epsilon must lie strictly between 0 and 1, got -2"),
    ],
)
def test_a_negative_rational_word_meets_its_limit(argv, message, capsys):
    """argparse reads a lone -1/4 as an option; it must still reach the
    flag's own limit, as --delta=-1/4 does."""
    for words in (argv, argv[:-2] + [f"{argv[-2]}={argv[-1]}"]):
        code, out, err = _run(capsys, *words)
        assert (code, out, err) == (2, "", f"error: {message}\n"), words


def test_a_refused_run_leaves_the_parser_for_the_next(capsys):
    """The parser is built once per process: runs refused by argparse and
    by a limit leave the next run's output byte-identical to its golden."""
    for refused in (["verify", "--mode", "sideways"], ["cost", "--nu", "0"]):
        try:
            code = main(refused)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
    capsys.readouterr()
    command, status, expected = (GOLDEN / "cost.txt").read_text().split("\n", 2)
    code, out, _ = _run(capsys, *shlex.split(command[len("$ mvcode "):]))
    assert (code, out) == (int(status[len("exit "):]), expected)
    assert _build_parser() is _build_parser()


def test_format_rational_round_trips():
    for f in (
        Fraction(1, 4), Fraction(3), Fraction(7, 64), Fraction(1, 2**20),
        Fraction(1, 2**64), Fraction(1, 2**15000),
    ):
        assert parse_rational(format_rational(f)) == f


def test_format_rational_shortens_past_a_64_bit_denominator():
    assert format_rational(Fraction(1, 2**64 - 1)) == "1/18446744073709551615"
    assert format_rational(Fraction(1, 2**63)) == "1/9223372036854775808"
    assert format_rational(Fraction(1, 2**64)) == "2^-64"
    assert format_rational(Fraction(3, 2**16002)) == "3*2^-16002"
    assert format_rational(Fraction(1, 3 * 2**70)) == "1/3*2^-70"
    assert format_rational(Fraction(1, 3**50)) == f"1/{3**50}"


def test_format_rational_of_a_scaled_value_matches_the_built_one():
    values = [Fraction(0), Fraction(3), Fraction(-12), Fraction(1, 4), Fraction(5, 7)]
    values += [Fraction(2**70, 3), Fraction(1, 3 * 2**70), Fraction(7, 2**63)]
    for x in values:
        for shift in (0, 1, 2, 5, 62, 63, 64, 65, 200):
            assert format_rational(x, shift) == format_rational(x / 2**shift)


def test_config_text_round_trip_is_identity():
    for cfg in (
        RunConfig(),
        RunConfig(scheme="binning", c=3, n=6, epsilon=Fraction(1, 8), seed=11),
        RunConfig(c_w=3, c_r=3, delta=Fraction(1, 16), K=64),
    ):
        assert _config_from_text(_config_text(cfg)) == cfg


_CONFIG_VALUES = (
    "0", "1", "2", "3", "8", "-1", "1/4", "1/0", "0/0", "0.5", "2^-3", "2^3",
    "3^2", "mds", "binning", "auto", "exhaustive", "text", "csv", "x",
)


@st.composite
def _config_texts(draw):
    """A valid config's text with up to three key=value lines inserted, over
    the real keys (and one unknown) and small, odd and malformed values;
    a later line overrides an earlier one."""
    bases = (RunConfig(), RunConfig(c_w=3, c_r=3, delta=Fraction(1, 16)))
    lines = _config_text(draw(st.sampled_from(bases))).splitlines()
    keys = st.sampled_from([flag.lstrip("-") for flag, *_ in _PARAMS] + ["colour"])
    value = st.one_of(st.sampled_from(_CONFIG_VALUES), st.text(max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        line = f"{draw(keys)}={draw(value)}"
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=30), _config_texts()))
def test_config_text_rejects_or_round_trips(text):
    try:
        cfg = _config_from_text(text)
    except ValueError:
        return
    assert _config_from_text(_config_text(cfg)) == cfg


def _run_script(script, timeout=None):
    """``script`` in a fresh interpreter that imports mvcode from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# Commands that neither draw a binning codebook nor judge a binning read
# view, with their exit codes: numpy serves binning alone.  latest-only
# fails its verifies, its replay and its search by design.
_NUMPY_FREE = (
    (["cost"], 0),
    (["cost", "--K", "64"], 0),
    (["bound", "--sweep", "32,64"], 0),
    (["example1"], 0),
    (["sim", "--scheme", "mds"], 0),
    (["sim", "--scheme", "latest-only"], 1),
    (["sim", "--search", "12", "--c-w", "3", "--c-r", "3", "--scheme", "latest-only"], 1),
    (["sim", "--search", "8", "-n", "6", "--c-w", "5", "--c-r", "5", "--crashes", "1"], 0),
    (["verify", "--K", "2", "--mode", "exhaustive"], 0),  # 12 tuples
    *(
        (
            ["verify", "--scheme", name, "--mode", "monte-carlo", "--trials", "200"],
            1 if name == "latest-only" else 0,
        )
        for name in ("replication", "mds", "delta", "rs-update", "latest-only")
    ),
    # the anchor's exhaustive verifies judge 2,304 tuples per view
    *(
        (
            ["verify", "--scheme", name, "--mode", "exhaustive"],
            1 if name == "latest-only" else 0,
        )
        for name in ("replication", "mds", "delta", "rs-update", "latest-only")
    ),
    (["verify", "--c-w", "3", "--c-r", "3", "--mode", "exhaustive"], 0),
    (["verify", "--scheme", "mds", "--mode", "monte-carlo", "--trials", "2000"], 0),
)


def test_quick_commands_run_without_numpy():
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "import mvcode\n"
        "from mvcode.cli import main\n"
        + "".join(
            f"assert main({argv!r}) == {code}, {argv!r}\n"
            for argv, code in _NUMPY_FREE
        )
    )
    done = _run_script(script)
    assert done.returncode == 0, done.stderr


# One run of each subcommand, with its exit code.  The package needs only
# numpy; mpmath, hypothesis and pytest are test extras.  CI runs the same
# commands from the console script after ``pip install .`` with no extras.
_RUNTIME_ONLY = (
    (["cost"], 0),
    (["verify", "--K", "2", "--mode", "exhaustive"], 0),
    (["bound", "--sweep", "32,64"], 0),
    (["sim"], 0),
    (["binning", "--seeds", "1", "--trials", "50"], 0),
    (["example1"], 0),
)


def test_every_subcommand_runs_without_the_test_extras():
    assert {argv[0] for argv, _ in _RUNTIME_ONLY} == set(_COMMANDS)
    script = (
        "import sys\n"
        "for name in ('mpmath', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "from mvcode.cli import main\n"
        + "".join(
            f"assert main({argv!r}) == {code}, {argv!r}\n"
            for argv, code in _RUNTIME_ONLY
        )
    )
    done = _run_script(script)
    assert done.returncode == 0, done.stderr


# Each ran away, ran out of memory or failed to print its result before
# cost came from closed forms, shortened its long rationals and took each
# binning width from one integer rule and each huge log from its top bits,
# and built each power of two as a shift.
_LARGE_COST_INPUTS = (
    ["--nu", "40"],
    ["-n", "65536", "--K", "4"],
    ["--K", "1000000"],
    ["-n", "8000", "--K", "4"],
    ["--epsilon", "2^-15000"],
    ["--nu", "3000"],
    ["--nu", "100000"],
    ["--epsilon", "2^-65536001"],
)


def _run_limited(argv, limit=2 << 30):
    """``main(argv)`` in a child process under an address-space limit, 2
    GiB by default, and a 2-s timeout."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from mvcode.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    return _run_script(script, timeout=2)


@pytest.mark.parametrize("flags", _LARGE_COST_INPUTS, ids=" ".join)
def test_cost_answers_large_inputs_quickly(flags):
    done = _run_limited(["cost", *flags])
    assert done.returncode == 0, done.stderr
    row = next(
        line for line in done.stdout.splitlines() if line.startswith("binning ")
    )
    assert int(row.split()[3]) > 0
    if flags == ["-n", "8000", "--K", "4"]:
        assert "union-bound share 2^-16002;" in row


def test_cost_prints_the_union_share_without_building_two_to_the_nu_n():
    # epsilon / 2^(nu*n) at nu*n = 6,553,600,000 ran out of memory
    argv = ["cost", "--nu", "100000", "-n", "65536", "-c", "65536", "--K", "100000"]
    done = _run_limited(argv)
    assert done.returncode == 0, done.stderr
    assert "union-bound share 2^-6553600002;" in done.stdout


def test_config_rejects_conflicts_and_unknowns():
    with pytest.raises(UsageError, match="not both"):
        RunConfig(c=2, c_w=3, c_r=3)
    with pytest.raises(UsageError, match="together"):
        RunConfig(c_w=3)
    with pytest.raises(UsageError, match="not both"):
        RunConfig(radius=1, delta=Fraction(1, 8))
    with pytest.raises(UsageError, match="unknown config key"):
        _config_from_text("verbosity=3")
    with pytest.raises(UsageError, match="malformed"):
        _config_from_text("n")
    with pytest.raises(UsageError, match="bad value"):
        _config_from_text("epsilon=half")


def test_quorum_overlap_is_the_effective_decode_size():
    assert RunConfig(c_w=3, c_r=3, n=4).effective_c == 2
    with pytest.raises(UsageError, match="overlap"):
        RunConfig(c_w=2, c_r=2, n=5).effective_c


def test_delta_converts_by_flooring(capsys):
    code, out, _ = _run(capsys, "cost", "--delta", "1/8")
    assert code == 0
    assert "derived-radius delta=1/8 K=8 radius=floor(1/8*8)=1" in out
    assert "radius=1" in out.splitlines()[0]


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_scheme_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["cost", "--scheme", "carrier-pigeon"])
    assert err.value.code == 2
    capsys.readouterr()
    path = tmp_path / "run.cfg"
    path.write_text("scheme=carrier-pigeon\n")
    code, out, err = _run(capsys, "cost", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: scheme must be one of binning, delta, ")


def test_half_quorum_pair_exits_two(capsys):
    code, _, err = _run(capsys, "cost", "--c-w", "3")
    assert code == 2
    assert "error:" in err


def test_quorum_outside_one_to_n_names_its_flag(tmp_path, capsys):
    for c_w, c_r, flag, got in (
        ("5", "4", "c-w", "5"),
        ("0", "4", "c-w", "0"),
        ("3", "9", "c-r", "9"),
        ("3", "-1", "c-r", "-1"),
    ):
        code, _, err = _run(
            capsys, "verify", "--c-w", c_w, "--c-r", c_r, "-n", "4"
        )
        assert code == 2
        assert err == f"error: {flag} must lie in [1, n=4], got {got}\n"
    path = tmp_path / "run.cfg"
    path.write_text("n=4\nc-w=3\nc-r=5\n")
    code, _, err = _run(capsys, "verify", "--config", str(path))
    assert code == 2
    assert err == "error: c-r must lie in [1, n=4], got 5\n"


def test_c_and_n_outside_their_range_name_their_flag(capsys):
    for argv, message in (
        (("-c", "5"), "c must lie in [1, n=4], got 5"),
        (("-c", "0"), "c must lie in [1, n=4], got 0"),
        (("-n", "3", "-c", "4"), "c must lie in [1, n=3], got 4"),
        (("-n", "0"), "n must be at least 1, got 0"),
    ):
        code, out, err = _run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n"


def test_seed_and_trials_outside_their_range_name_their_flag(tmp_path, capsys):
    # a search refuses a bad seed before it runs, with empty stdout
    mds = ("sim", "--search", "4", "--scheme", "mds", "-n", "4", "--c-w", "3")
    lo = ("sim", "--search", "8", "--scheme", "latest-only", "-n", "2", "--K", "4")
    negative = "seed must lie in [0, 2^64), got -1"
    for argv, message in (
        ((*mds, "--c-r", "3", "--seed", "-1"), negative),
        ((*lo, "--c-w", "2", "--c-r", "2", "--seed", "-1"), negative),
        (("cost", "--seed", "-1"), negative),
        (("cost", "--seed", str(2**64)), f"seed must lie in [0, 2^64), got {2**64}"),
        (
            ("verify", "--K", "4", "--mode", "exhaustive", "--trials", "-3"),
            "trials must be at least 1, got -3",
        ),
        (("binning", "--trials", "0"), "trials must be at least 1, got 0"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n"
    path = tmp_path / "run.cfg"
    for text, message in (
        ("seed=-2\n", "seed must lie in [0, 2^64), got -2"),
        ("trials=0\n", "trials must be at least 1, got 0"),
    ):
        path.write_text(text)
        code, out, err = _run(capsys, "verify", "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, _, _ = _run(capsys, "cost", "--seed", str(2**64 - 1))
    assert code == 0


def test_model_flags_outside_their_range_name_flag_limit_and_value(tmp_path, capsys):
    for argv, message in (
        (("cost", "--radius", "9"), "radius must lie in [0, K=8], got 9"),
        (("cost", "--K", "4", "--radius", "-1"), "radius must lie in [0, K=4], got -1"),
        (("cost", "--K", "0"), "K must be at least 1, got 0"),
        (("cost", "--nu", "0"), "nu must be at least 1, got 0"),
        (("cost", "--delta", "2"), "delta must lie in [0, 1], got 2"),
        (("bound", "--sweep", "4,8", "--radius", "6"), "radius must lie in [0, K=4], got 6"),
        (("verify", "--K", "-2"), "K must be at least 1, got -2"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv  # refused before any work
        assert err == f"error: {message}\n"
    path = tmp_path / "run.cfg"
    for text, message in (
        ("radius=9\n", "radius must lie in [0, K=8], got 9"),
        ("K=0\n", "K must be at least 1, got 0"),
        ("nu=-1\n", "nu must be at least 1, got -1"),
        ("delta=3/2\n", "delta must lie in [0, 1], got 3/2"),
    ):
        path.write_text(text)
        code, out, err = _run(capsys, "cost", "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, _, _ = _run(capsys, "cost", "--K", "3", "--radius", "3")
    assert code == 0


def test_bound_sweep_refuses_values_below_one(capsys):
    for sweep, low in (("0", "0"), ("8,-3", "-3")):
        with pytest.raises(SystemExit) as exit_:
            main(["bound", "--sweep", sweep])
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out) == (2, "")
        assert f"sweep values must be at least 1, got {low}\n" in captured.err
        assert "K must be positive" not in captured.err


def test_config_file_feeds_flags(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("# job\nscheme=mds\nn=4\nc=2\nepsilon=1/4\n")
    code, out, _ = _run(capsys, "cost", "--config", str(path))
    assert code == 0 and "scheme=mds" in out
    # flags override the file
    code, out, _ = _run(capsys, "cost", "--config", str(path), "--nu", "1")
    assert code == 0 and "nu=1" in out.splitlines()[0]
    bad = tmp_path / "bad.cfg"
    bad.write_text("colour=green\n")
    code, _, err = _run(capsys, "cost", "--config", str(bad))
    assert code == 2 and "unknown config key" in err


# Every parameter as flags and as config lines, each off its default; the
# quorum pair only goes together.
_FLAGS_AND_KEYS = (
    (("--scheme", "delta"), "scheme=delta"),
    (("-n", "5"), "n=5"),
    (("-c", "3"), "c=3"),
    (("--c-w", "4", "--c-r", "3"), "c-w=4\nc-r=3"),
    (("--nu", "3"), "nu=3"),
    (("--K", "12"), "K=12"),
    (("--radius", "2"), "radius=2"),
    (("--delta", "1/4"), "delta=1/4"),
    (("--epsilon", "1/8"), "epsilon=1/8"),
    (("--seed", "5"), "seed=5"),
    (("--mode", "exhaustive"), "mode=exhaustive"),
    (("--cap", "100"), "cap=100"),
    (("--format", "csv"), "format=csv"),
    (("--trials", "7"), "trials=7"),
)


@pytest.mark.parametrize(
    "flags, lines",
    _FLAGS_AND_KEYS,
    ids=[lines.replace("\n", ",") for _, lines in _FLAGS_AND_KEYS],
)
def test_each_parameter_reads_the_same_by_flag_and_by_config_key(
    flags, lines, tmp_path, capsys
):
    path = tmp_path / "run.cfg"
    path.write_text(lines + "\n")
    by_flag = _run(capsys, "cost", *flags)
    assert by_flag == _run(capsys, "cost", "--config", str(path))
    assert by_flag[0] == 0
    assert by_flag[1] != _run(capsys, "cost")[1]


@pytest.mark.parametrize("command", ["verify", "sim"])
def test_text_only_commands_refuse_a_table_format(command, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("format=csv\n")
    for flags in (["--format", "structured"], ["--config", str(path)]):
        code, out, err = _run(capsys, command, *flags)
        assert (code, out) == (2, "")
        assert "--format" in err
        assert "cost, bound, binning and example1" in err


# ---------------------------------------------------------------------------
# cost


def test_cost_reference_rows(capsys):
    code, out, _ = _run(capsys, "cost", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0][:4] == ["scheme", "formula-bits", "ceiling-bits", "measured-bits"]
    by_name = {row[0]: row for row in rows[1:]}
    assert list(by_name) == [
        "replication",
        "mds",
        "delta",
        "rs-update",
        "binning",
        "lower-bound",
    ]
    assert by_name["replication"][1] == "8.0"
    assert by_name["mds"][1] == "8.0"
    assert float(by_name["binning"][1]) < 8.0
    assert float(by_name["lower-bound"][1]) < float(by_name["binning"][1])


def test_cost_single_version_collapses_to_erasure_share(capsys):
    code, out, _ = _run(capsys, "cost", "--nu", "1", "--format", "csv")
    assert code == 0
    by_name = {row[0]: row for row in _csv_rows(out)[1:]}
    assert by_name["mds"][1] == "4.0"  # K/c
    assert by_name["replication"][1] == "8.0"


def test_cost_output_is_byte_identical_across_runs(capsys):
    outputs = []
    for fmt in ("text", "csv", "structured"):
        a = _run(capsys, "cost", "--format", fmt)
        b = _run(capsys, "cost", "--format", fmt)
        assert a == b
        outputs.append(a[1])
    assert len(set(outputs)) == 3  # the three formats do differ


def test_cost_structured_quotes_spaced_values(capsys):
    _, out, _ = _run(capsys, "cost", "--format", "structured")
    bound_line = next(l for l in out.splitlines() if l.startswith("cost scheme=lower-bound"))
    assert 'notes="errorless converse' in bound_line


def test_cost_calls_a_nonpositive_converse_vacuous(capsys):
    # at nu=50 the errorless converse is negative: true, but it bounds nothing
    for fmt in ("text", "csv", "structured"):
        code, out, _ = _run(capsys, "cost", "--nu", "50", "--format", fmt)
        assert code == 0
        row = out.splitlines()[-1]
        assert "-1.108906634017419" in row
        assert "errorless converse; nonpositive, so vacuous at these parameters" in row
        assert "no code can store fewer" not in row


# Each literal ran out of memory, printed the interpreter's digit limit or ran
# on for minutes before the rational parser refused literals it cannot hold
# or print.
_PAST_LIMIT_LITERALS = (
    ("2^-99999999999", "2^k needs k in [-67108864, 1000], got '2^-99999999999'"),
    ("1e-99999", "a decimal exponent needs to lie in [-1000, 1000], got '1e-99999'"),
    (
        "1e-99999999",
        "a decimal exponent needs to lie in [-1000, 1000], got '1e-99999999'",
    ),
    ("1/" + "3" * 1001, "a rational of 1003 characters passes the limit of 1000"),
)


@pytest.mark.parametrize("literal, message", _PAST_LIMIT_LITERALS, ids=lambda v: v[:16])
@pytest.mark.parametrize("key", ["epsilon", "delta"])
def test_rationals_past_the_literal_limits_are_refused_at_parse(
    key, literal, message, tmp_path
):
    done = _run_limited(["cost", f"--{key}", literal])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith(f"error: argument --{key}: {message}\n")
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}={literal}\n")
    done = _run_limited(["cost", "--config", str(path)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: bad value for {key}: {message}\n"


def test_rationals_at_the_literal_limits_print():
    assert format_rational(parse_rational("2^-67108864")) == "2^-67108864"
    assert format_rational(parse_rational("2^1000")) == str(2**1000)
    for literal in ("1e-1000", "1e1000", "0." + "1" * 998, "9" * 1000):
        assert format_rational(parse_rational(literal))
    done = _run_limited(["cost", "--epsilon", "1e-1000"])
    assert done.returncode == 0, done.stderr
    assert "epsilon=1/" in done.stdout.splitlines()[0]


# ---------------------------------------------------------------------------
# verify


def test_verify_certified_scheme_exits_zero(capsys):
    code, out, _ = _run(capsys, "verify", "--scheme", "mds", "--mode", "exhaustive")
    assert code == 0
    assert "passed=yes" in out and "verdict pass" in out


def test_verify_latest_only_fails_with_witnesses(capsys):
    code, out, _ = _run(
        capsys, "verify", "--scheme", "latest-only", "--K", "6", "-n", "3"
    )
    assert code == 1
    assert "passed=no" in out
    assert "witness state=" in out
    assert "verdict fail" in out


def test_verify_sampled_zero_budget_scheme_fails(capsys):
    # latest-only claims zero error, so any sampled failure fails it
    code, out, _ = _run(
        capsys, "verify", "--scheme", "latest-only", "--mode", "monte-carlo"
    )
    assert code == 1
    assert "verdict fail empirical=0.103 budget=0" in out


def test_verify_sampled_verdict_takes_the_wilson_upper_bound(capsys):
    # no failure in five trials, yet the rate's Wilson upper bound, 0.434,
    # is above epsilon = 1/4, though the point estimate 0 is below it
    code, out, _ = _run(
        capsys, "verify", "--scheme", "binning", "--K", "4",
        "--mode", "monte-carlo", "--trials", "5",
    )
    assert code == 1
    assert "failures=0 " in out
    assert "verdict fail empirical=0.0 budget=1/4" in out


def test_verify_binning_exhaustive_judges_the_per_state_rate(capsys):
    # 864 failures, but no state fails more often than epsilon = 1/4
    code, out, _ = _run(capsys, "verify", "--scheme", "binning", "--mode", "exhaustive")
    assert code == 0
    assert "failures=864" in out and "per-state-max=0.007812500" in out
    assert "verdict pass failures=864" in out


def test_verify_quorum_pair_uses_the_bridge(capsys):
    code, out, _ = _run(
        capsys, "verify", "--scheme", "mds", "--K", "6", "--c-w", "3", "--c-r", "3"
    )
    assert code == 0
    assert "note wrapped mds for quorum reads (overlap c=2)" in out


def test_verify_cap_falls_back_to_sampling(capsys):
    code, out, _ = _run(capsys, "verify", "--cap", "100", "--trials", "400")
    assert code == 0
    assert "warning" in out and "mode=monte-carlo" in out


def test_verify_forced_exhaustive_over_cap_exits_three(capsys):
    code, _, err = _run(
        capsys, "verify", "--cap", "100", "--mode", "exhaustive"
    )
    assert code == 3
    assert "cap" in err


def test_negative_cap_is_a_usage_error(capsys):
    for mode in ("exhaustive", "auto"):
        code, _, err = _run(
            capsys, "verify", "--scheme", "mds", "--mode", mode, "--cap", "-1"
        )
        assert code == 2
        assert "cap must be nonnegative, got -1" in err
    with pytest.raises(UsageError, match="cap must be nonnegative"):
        _config_from_text("cap=-1")


def test_epsilon_outside_zero_one_is_a_usage_error(capsys):
    # every scheme, not only binning, which reads epsilon
    for scheme in ("mds", "binning"):
        for value in ("2", "0", "1"):
            code, _, err = _run(
                capsys, "verify", "--scheme", scheme, "--epsilon", value,
                "--mode", "monte-carlo", "--trials", "10",
            )
            assert code == 2
            assert f"epsilon must lie strictly between 0 and 1, got {value}" in err
    with pytest.raises(UsageError, match="epsilon must lie strictly"):
        _config_from_text("epsilon=3/2")


# ---------------------------------------------------------------------------
# bound


def test_bound_sweep_gap_shrinks_toward_asymptote(capsys):
    code, out, _ = _run(
        capsys,
        "bound",
        "-c", "8", "-n", "8",
        "--delta", "1/16",
        "--epsilon", "2^-20",
        "--sweep", "32,64,128",
        "--format", "structured",
    )
    assert code == 0
    gaps = [
        float(part.split("=")[1])
        for line in out.splitlines()
        if line.startswith("bound ")
        for part in line.split()
        if part.startswith("gap-factor=")
    ]
    assert len(gaps) == 3
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 2.0
    assert all(g >= 9 / 8 for g in gaps)
    assert "gap-factor-limit=(c+nu-1)/c=9/8" in out


def test_bound_prints_no_gap_factor_for_a_nonpositive_bound(capsys):
    code, out, _ = _run(
        capsys, "bound", "--sweep", "8,12", "-n", "4", "-c", "4",
        "--nu", "4", "--radius", "0",
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line[:1].isdigit()]
    assert [row[0] for row in rows] == ["8", "12"]
    assert float(rows[0][2]) < 0 and rows[0][5] == "-"
    assert rows[1][2].startswith("0.3265")
    assert float(rows[1][5]) == pytest.approx(float(rows[1][3]) / float(rows[1][2]))


def test_bound_radius_tracks_delta_across_sweep(capsys):
    _, out, _ = _run(
        capsys,
        "bound",
        "--delta", "1/16",
        "--sweep", "32,64",
        "--format", "csv",
    )
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert lines[0].startswith("32,2,") and lines[1].startswith("64,4,")


# ---------------------------------------------------------------------------
# sim


def test_sim_bundled_replay_verdicts(capsys):
    code, out, _ = _run(capsys, "sim")
    assert code == 0
    assert "trace consistent=yes" in out
    assert "bundled partial-update replay" in out
    code, out, _ = _run(capsys, "sim", "--scheme", "latest-only")
    assert code == 1
    assert "trace consistent=no" in out


def test_sim_replays_schedule_files(tmp_path, capsys):
    path = tmp_path / "replay.sched"
    path.write_text(schedule_to_text(partial_update_crash_schedule()))
    code, out, _ = _run(capsys, "sim", "--schedule", str(path))
    assert code == 0
    _, bundled, _ = _run(capsys, "sim")
    assert out.splitlines()[-4:] == bundled.splitlines()[-4:]  # same trace
    broken = tmp_path / "broken.sched"
    broken.write_text("schedule n=2 c-w=1 c-r=1 f=0\nwrite-start time=0 version=7")
    code, _, err = _run(capsys, "sim", "--schedule", str(broken))
    assert code == 2 and "bad schedule file" in err


def test_more_servers_than_gf_2_16_points_is_a_usage_error(tmp_path, capsys):
    message = (
        "error: n must be at most 65536, the evaluation points of GF(2^16), "
        "got 70000\n"
    )
    assert _run(capsys, "cost", "-n", "70000", "--K", "4") == (2, "", message)
    path = tmp_path / "big.sched"
    path.write_text("schedule n=70000 c-w=69999 c-r=69999 f=0 seed=0\n")
    assert _run(capsys, "sim", "--schedule", str(path)) == (2, "", message)


def test_sim_replay_takes_its_quorums_from_the_schedule(tmp_path, capsys):
    code, out, _ = _run(capsys, "sim", "--scheme", "mds")
    params, schedule = out.splitlines()[:2]
    assert params.startswith("params scheme=mds nu=2 ")
    assert " n=" not in params and " c=" not in params
    assert schedule.endswith("n=6 c-w=5 c-r=5 f=1 events=13")
    for flags in (
        ("-n", "5"),
        ("-c", "2"),
        ("--c-w", "3", "--c-r", "3", "-n", "5"),
        ("--scheme", "mds", "--crashes", "3"),
    ):
        code, out, err = _run(capsys, "sim", *flags)
        assert (code, out) == (2, ""), flags
        assert "from the schedule" in err
    assert err.endswith("drop crashes\n")
    # a search takes the crash budget, 0 when unset
    search = ("sim", "--search", "2", "-n", "3", "--c-w", "2", "--c-r", "2")
    for flags in ((), ("--crashes", "1")):
        code, out, _ = _run(capsys, *search, *flags)
        assert (code, out.splitlines()[-1]) == (0, "search none-found depth=2")
    code, _, err = _run(capsys, *search, "--crashes", "2")
    assert code == 2 and "crashes must lie in [0, n - max(c-w, c-r) = 1]" in err
    path = tmp_path / "run.cfg"
    path.write_text("n=5\n")
    code, _, err = _run(capsys, "sim", "--config", str(path))
    assert code == 2 and "drop n" in err
    # the default c=2 does not apply to a schedule of one server
    path = tmp_path / "one.sched"
    path.write_text("schedule n=1 c-w=1 c-r=1 f=0\nwrite-start time=0 version=1")
    code, out, _ = _run(capsys, "sim", "--schedule", str(path))
    assert code == 0 and "trace consistent=yes" in out


def test_sim_search_finds_latest_only_witness(capsys):
    code, out, _ = _run(
        capsys,
        "sim", "--search", "6",
        "--scheme", "latest-only",
        "--K", "6", "-n", "2", "--c-w", "2", "--c-r", "2",
    )
    assert code == 1
    assert "search witness-events=6" in out
    assert "trace consistent=no" in out


def test_sim_search_certified_scheme_finds_nothing(capsys):
    code, out, _ = _run(
        capsys,
        "sim", "--search", "8",
        "--scheme", "mds",
        "--K", "6", "-n", "2", "--c-w", "2", "--c-r", "2",
    )
    assert code == 0
    assert "search none-found depth=8" in out


def test_sim_search_requires_quorums(capsys):
    code, _, err = _run(capsys, "sim", "--search", "6")
    assert code == 2 and "--c-w" in err


def test_sim_search_refuses_a_schedule_file(capsys):
    code, out, err = _run(
        capsys,
        "sim", "--search", "3", "--schedule", "/nonexistent",
        "--c-w", "3", "--c-r", "3",
    )
    assert (code, out) == (2, "")
    assert err == "error: --search builds its own schedule; drop --schedule\n"


def test_sim_search_refuses_past_the_cap_before_reading():
    # 1.08e11 (receipt sets, crash set) pairs, counted in closed form
    argv = ["sim", "--search", "12", "-n", "30", "--c-w", "29", "--c-r", "29",
            "--crashes", "1"]
    done = _run_limited(argv)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: enumeration would visit about 108269583688 elements, "
        "cap is 16777216\n"
    )


def test_sim_search_honours_the_cap(capsys):
    # the n=4 search reads 1,280 pairs
    search = ("sim", "--search", "12", "-n", "4", "--c-w", "3", "--c-r", "3",
              "--crashes", "1")
    code, out, err = _run(capsys, *search, "--cap", "1279")
    assert (code, out) == (3, "")
    assert err == "error: enumeration would visit about 1280 elements, cap is 1279\n"
    code, out, _ = _run(capsys, *search, "--cap", "1280")
    assert code == 0 and "search none-found depth=12" in out


def test_sim_search_flags_name_themselves(capsys):
    search = ("sim", "-n", "3", "--c-w", "2", "--c-r", "2")
    for flags, message in (
        (("--search", "2", "--crashes", "2"),
         "crashes must lie in [0, n - max(c-w, c-r) = 1], got 2"),
        (("--search", "2", "--crashes", "-1"),
         "crashes must lie in [0, n - max(c-w, c-r) = 1], got -1"),
        (("--search", "-1"), "search must lie in [0, 12], got -1"),
        (("--search", "13"), "search must lie in [0, 12], got 13"),
    ):
        assert _run(capsys, *search, *flags) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# binning and example1


def test_binning_survey_meets_budget(capsys):
    code, out, _ = _run(
        capsys, "binning", "--trials", "60", "--seeds", "2"
    )
    assert code == 0
    assert "verdict pass best-seed=" in out
    assert any(line.startswith("0 ") for line in out.splitlines())


def test_binning_kind_reaches_the_linear_codebook(capsys):
    code, out, _ = _run(
        capsys, "binning", "--kind", "linear", "--seeds", "1", "--trials", "50"
    )
    assert code == 0
    assert "search kind=linear seeds=1 tuples-per-cell=50" in out
    assert any(line.startswith("0     672    33600 ") for line in out.splitlines())


def test_sim_search_sizes_its_row_table_by_the_versions_it_writes():
    # a table of all 2^22 row patterns ran out of memory under the limit
    argv = ["sim", "--search", "12", "--c-w", "3", "--c-r", "3", "--nu", "22"]
    done = _run_limited(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "search none-found depth=12"


@pytest.mark.parametrize("scheme", ["replication", "mds", "delta"])
def test_monte_carlo_verify_answers_at_65536_servers(scheme):
    # the state mask took 15 s to build at n=65,536, and the generator then
    # built every server's rows
    argv = ["verify", "--scheme", scheme, "-n", "65536", "--mode", "monte-carlo"]
    done = _run_limited([*argv, "--trials", "5"])
    assert done.returncode == 0, done.stderr
    assert "attempts=5" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--K", "16384", "--mode", "monte-carlo", "--trials", "3",
         "--cap", "100"],
        ["sim", "--scheme", "mds", "--K", "16384"],
    ],
    ids=" ".join,
)
def test_large_messages_encode_and_decode_block_by_block(argv):
    # a padded_K-square inverse per holder tuple gave no answer within 40 s
    done = _run_limited(argv)
    assert done.returncode == 0, done.stderr


def test_monte_carlo_verify_at_k_100000_fits_in_512_mib():
    # a lane per tuple of padded_K bits held K x padded_K bits per tuple, so
    # this peaked at 1,968 MB; with a lane per (tuple, block) pair it peaks
    # at about 18 MB (ru_maxrss of a fresh child)
    argv = ["verify", "--K", "100000", "--mode", "monte-carlo", "--trials", "5",
            "--cap", "100"]
    done = _run_limited(argv, limit=512 << 20)
    assert done.returncode == 0, done.stderr
    assert "attempts=5" in done.stdout


def test_delta_verify_answers_with_the_radius_at_k_4096():
    # ball rank and unrank took a fresh big binomial per bit position and
    # gave no answer within 60 s
    argv = ["verify", "--scheme", "delta", "--K", "4096", "--radius", "4096",
            "--mode", "monte-carlo", "--trials", "2"]
    done = _run_limited(argv)
    assert done.returncode == 0, done.stderr
    assert "attempts=2" in done.stdout


def test_monte_carlo_verify_answers_at_nu_100000():
    # each row's versions were read by a shift of the 32*nu-bit row per
    # version: 4.5 s at nu=30,000
    argv = ["verify", "--nu", "100000", "--mode", "monte-carlo", "--trials", "5"]
    done = _run_limited(argv)
    assert done.returncode == 0, done.stderr
    assert "attempts=5" in done.stdout


def test_sim_search_answers_at_nu_100000():
    # the receipt bits were laid out at nu bits per server, though a search
    # to depth 12 writes at most 11 versions: 5.2 s and 123 MB at nu=10,000
    done = _run_limited(["sim", "--search", "12", "--c-w", "3", "--c-r", "3",
                         "--nu", "100000"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "search none-found depth=12"


def test_binning_seed_count_names_its_flag(capsys):
    for seeds in ("0", "-2"):
        code, out, err = _run(capsys, "binning", "--seeds", seeds)
        assert (code, out) == (2, "")  # refused before any work
        assert err == f"error: seeds must be at least 1, got {seeds}\n"


def test_binning_seed_range_stops_at_two_to_the_64(capsys):
    # the first seed passes, so the survey used to exit 0 before reaching 2^64
    last = str((1 << 64) - 1)
    argv = ("binning", "--K", "4", "--seed", last, "--epsilon", "2^-40")
    code, out, err = _run(capsys, *argv, "--seeds", "3")
    assert (code, out) == (2, "")  # refused before any work
    assert err == "error: seeds must lie in [1, 2^64 - seed = 1], got 3\n"
    code, out, _ = _run(capsys, *argv, "--seeds", "1")
    assert code == 0 and f"best-seed={last}" in out


def test_binning_seed_count_builds_no_seed_list():
    # a list of 10^9 seeds ran out of memory under the limit before any work
    done = _run_limited(["binning", "--K", "4", "--seeds", "1000000000"])
    assert done.returncode == 0, done.stderr
    assert "search kind=random-uniform seeds=1000000000 " in done.stdout


def test_binning_prints_a_seed_count_past_the_index_range():
    # len() of a range of 2^64 - 1 seeds raised OverflowError after the survey
    done = _run_limited(["binning", "--K", "4", "--seeds", str((1 << 64) - 1)])
    assert (done.returncode, done.stderr) == (0, "")
    assert "search kind=random-uniform seeds=18446744073709551615 " in done.stdout


def test_verify_prints_work_past_4300_digits():
    # 2^(nu*n) states at n=8000 made str() of the work raise ValueError
    argv = ["verify", "--scheme", "mds", "-n", "8000", "-c", "1", "--trials", "5"]
    done = _run_limited(argv)
    assert done.returncode == 0, done.stderr
    assert "needs 2^16024.14 decode attempts, over the cap of 16777216" in done.stdout
    assert "states=5 subsets=5 tuples=5 attempts=5" in done.stdout
    done = _run_limited([*argv, "--mode", "exhaustive"])
    assert done.returncode == 3
    assert done.stderr == (
        "error: enumeration would visit about 2^16024.14 elements, "
        "cap is 16777216\n"
    )


def test_binning_verify_draws_entries_wider_than_a_limb_quickly():
    # 2^-500000 makes each codebook entry about 250,000 bits, once built
    # one 64-bit limb at a time (quadratic in the limbs, about 12 s)
    argv = ["verify", "--scheme", "binning", "--epsilon", "2^-500000"]
    done = _run_limited(argv)
    assert done.returncode == 0, done.stderr
    assert "verdict pass failures=0" in done.stdout


def test_binning_refuses_index_tables_past_the_limit_before_drawing_them():
    # 2^-10000000 makes each entry 5,000,011 bits: 2,048 of them ran out of
    # memory under the limit
    done = _run_limited(["verify", "--scheme", "binning", "--epsilon", "2^-10000000"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: binning index tables of 4*2*2^8 entries of 5000011 bits hold "
        "10240022528 bits, over the limit of 2^30\n"
    )


# Each listed every subset before it picked Monte-Carlo, and ran out of
# memory under the limit or out of time.
_WIDE_MONTE_CARLO = (
    ["-n", "30", "-c", "15"],
    ["-n", "300", "-c", "150"],
    ["-n", "40", "--c-w", "30", "--c-r", "30"],
)


@pytest.mark.parametrize("flags", _WIDE_MONTE_CARLO, ids=" ".join)
def test_monte_carlo_verify_counts_subsets_without_listing_them(flags):
    argv = ["verify", "--scheme", "mds", *flags, "--mode", "monte-carlo"]
    done = _run_limited([*argv, "--trials", "3"])
    assert done.returncode == 0, done.stderr
    assert "attempts=3" in done.stdout


def test_delta_monte_carlo_verify_answers_at_K_64():
    # the batch ranked and unranked all 679,121 members of the step's ball
    # and ran out of time
    argv = ["verify", "--scheme", "delta", "--K", "64", "--radius", "4"]
    done = _run_limited([*argv, "--mode", "monte-carlo", "--trials", "3000"])
    assert done.returncode == 0, done.stderr
    assert "attempts=3000" in done.stdout
    assert "verdict pass" in done.stdout


def test_binning_survey_is_held_to_the_cap(capsys):
    # 2^24 states x 66 reading sets x 2 tuples ran on past the cap
    done = _run_limited(["binning", "-n", "12", "--seeds", "1", "--trials", "2"])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: enumeration would visit about 2214592512 elements, "
        "cap is 16777216\n"
    )
    # 10^8 tuples were sampled before the survey checked the cap
    done = _run_limited(["binning", "--trials", "100000000", "--seeds", "1"])
    assert done.returncode == 3 and done.stdout == "", done.stderr
    # 256 states x 6 reading sets x 2 tuples; the survey ignored --cap
    code, out, err = _run(capsys, "binning", "--cap", "1000", "--trials", "2")
    assert (code, out) == (3, "")
    assert err == "error: enumeration would visit about 3072 elements, cap is 1000\n"
    code, out, _ = _run(capsys, "binning", "--cap", "3072", "--trials", "2")
    assert code == 0 and "tuples-per-cell=2" in out


def test_binning_decode_plan_limit_names_itself(capsys):
    code, out, err = _run(
        capsys, "verify", "--scheme", "binning", "--K", "16", "--radius", "8",
        "--mode", "monte-carlo", "--trials", "20", "--cap", "100000000000",
    )
    assert code == 3
    assert "decode plan's fixed limit, which --cap does not raise, is 16777216" in err


def test_binning_index_table_limit_names_itself(capsys):
    for argv in (
        ("verify", "--scheme", "binning", "--K", "20", "--mode", "monte-carlo"),
        ("binning", "--K", "20"),
        ("binning", "--kind", "linear", "--K", "20"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == ""  # refused before any work
        assert "K <= 16" in err and "K=20" in err and "cap" not in err
    code, _, _ = _run(capsys, "cost", "--K", "64")
    assert code == 0


def test_example1_exclusions_hold_at_reference_flip_rate(capsys):
    code, out, _ = _run(capsys, "example1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "params delta=1/20 format=csv"
    start = next(i for i, l in enumerate(lines) if l.startswith("versions,"))
    rows = list(csv.reader(io.StringIO("\n".join(lines[start + 1 : start + 4]))))
    assert [row[0] for row in rows] == ["1,3", "2,3", "1,3"]
    assert all(row[4] == "yes" for row in rows)
    assert all(float(row[5]) > 0 for row in rows)
    assert "verdict pass rows=3" in out


def test_example1_flags_failures_at_high_flip_rate(capsys):
    # past the middle-row threshold the second exclusion flips sign
    code, out, _ = _run(capsys, "example1", "--delta", "1/5")
    assert code == 1
    assert "verdict fail" in out
