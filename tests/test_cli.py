"""CLI tests: flag and config parsing, the round-trip identity, every
subcommand's output shape and exit code, and byte-level determinism."""

import csv
import io
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcode.cli import (
    _CONFIG_FIELDS,
    RunConfig,
    UsageError,
    config_from_text,
    format_rational,
    main,
    parse_rational,
)
from mvcode.sim import partial_update_crash_schedule, schedule_to_text


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


def test_format_rational_round_trips():
    for f in (Fraction(1, 4), Fraction(3), Fraction(7, 64), Fraction(1, 2**20)):
        assert parse_rational(format_rational(f)) == f


def test_config_text_round_trip_is_identity():
    for cfg in (
        RunConfig(),
        RunConfig(scheme="binning", c=3, n=6, epsilon=Fraction(1, 8), seed=11),
        RunConfig(c_w=3, c_r=3, delta=Fraction(1, 16), K=64),
    ):
        assert config_from_text(cfg.to_text()) == cfg


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
    lines = draw(st.sampled_from(bases)).to_text().splitlines()
    keys = st.sampled_from([spec.key for spec in _CONFIG_FIELDS] + ["colour"])
    value = st.one_of(st.sampled_from(_CONFIG_VALUES), st.text(max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        line = f"{draw(keys)}={draw(value)}"
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=30), _config_texts()))
def test_config_text_rejects_or_round_trips(text):
    try:
        cfg = config_from_text(text)
    except ValueError:
        return
    assert config_from_text(cfg.to_text()) == cfg


def test_runs_without_mpmath():
    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from mvcode.cli import main\n"
        "assert main(['cost']) == 0\n"
        "assert main(['bound', '--sweep', '32,64']) == 0\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr


def test_config_rejects_conflicts_and_unknowns():
    with pytest.raises(UsageError, match="not both"):
        RunConfig(c=2, c_w=3, c_r=3)
    with pytest.raises(UsageError, match="together"):
        RunConfig(c_w=3)
    with pytest.raises(UsageError, match="not both"):
        RunConfig(radius=1, delta=Fraction(1, 8))
    with pytest.raises(UsageError, match="unknown config key"):
        config_from_text("verbosity=3")
    with pytest.raises(UsageError, match="malformed"):
        config_from_text("n")
    with pytest.raises(UsageError, match="bad value"):
        config_from_text("epsilon=half")


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


def test_unknown_scheme_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["cost", "--scheme", "carrier-pigeon"])
    assert err.value.code == 2


def test_half_quorum_pair_exits_two(capsys):
    code, _, err = _run(capsys, "cost", "--c-w", "3")
    assert code == 2
    assert "error:" in err


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


def test_binning_index_table_limit_names_itself(capsys):
    code, _, err = _run(
        capsys, "verify", "--scheme", "binning", "--K", "20", "--mode", "monte-carlo"
    )
    assert code == 3
    assert "K <= 16" in err and "cap" not in err


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
