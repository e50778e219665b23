"""Mutant registry: small deliberate faults that named tests must catch.

Each mutant is a file, a snippet occurring in it exactly once, the
snippet's replacement, and the tests that must fail once it is in place.
``tests/test_mutants.py`` checks in tier-1 that every snippet still occurs
exactly once and every listed test still exists.

    python tests/mutants.py [NAME ...]

first runs every listed test on a temporary copy of src/ and tests/ (each
must pass), then applies each mutant (or the named ones) to a fresh copy,
runs each of its tests there, and exits nonzero if any mutant survives:
one of its tests passes, or cannot be run.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant(
        "packer-reversed",
        "src/mvcode/schemes.py",
        "for value, width in self._fields(server, got, versions):",
        "for value, width in reversed(list(self._fields(server, got, versions))):",
        ("tests/test_schemes.py::test_every_encode_is_pinned_bit_for_bit",),
    ),
    Mutant(
        "delta-step-width-of-one-gap",
        "src/mvcode/schemes.py",
        "yield self._index(diff, b - a), self._step_bits(b - a)",
        "yield self._index(diff, b - a), self._step_bits(1)",
        (
            "tests/test_schemes.py::test_every_encode_is_pinned_bit_for_bit",
            "tests/test_schemes.py::test_delta_widths_depend_only_on_gaps",
        ),
    ),
    Mutant(
        "rs-update-sentinel-strict",
        "src/mvcode/schemes.py",
        "if record_cost >= self.symbol_vector_bits:",
        "if record_cost > self.symbol_vector_bits:",
        (
            "tests/test_schemes.py::test_every_encode_is_pinned_bit_for_bit",
            "tests/test_schemes.py::"
            "test_pinned_rs_update_encodes_store_a_tied_step_whole",
        ),
    ),
    Mutant(
        "verdict-strict",
        "src/mvcode/verifier.py",
        "passed = failures * budget.denominator <= budget.numerator * attempts",
        "passed = failures * budget.denominator < budget.numerator * attempts",
        (
            "tests/test_verifier.py::test_per_state_verdict_is_exact_at_the_budget",
            "tests/test_verifier.py::test_verdict_names_the_rule_it_applies",
        ),
    ),
    Mutant(
        "run-cache-key-without-target",
        "src/mvcode/schemes.py",
        '("at", server, received, target),',
        '("at", server, received),',
        (
            "tests/test_verifier.py::test_mds_exhaustive_counts_frozen",
            "tests/test_cli.py::test_golden_transcript[verify-mds-exhaustive]",
        ),
    ),
    Mutant(
        "binning-width-without-the-ceiling-correction",
        "src/mvcode/binning.py",
        "return -(-(A + f + (N > (D << f))) // self.c)",
        "return -(-(A + f) // self.c)",
        (
            "tests/test_binning.py::test_reference_widths_frozen",
            "tests/test_differential.py::test_index_widths_are_exact_at_integer_rates",
        ),
    ),
    Mutant(
        "runner-counts-two-rows",
        "src/mvcode/binning.py",
        "np.bincount(row, minlength=b - a)",
        "np.bincount(row, minlength=2)",
        ("tests/test_binning.py::test_batch_matches_the_loop_past_one_limb",),
    ),
    Mutant(
        "state-mask-takes-bit-30",
        "src/mvcode/verifier.py",
        "top_mask = sum(1 << 32 * word + 31 for word in range(n * nu))",
        "top_mask = sum(1 << 32 * word + 30 for word in range(n * nu))",
        (
            "tests/test_differential.py::"
            "test_monte_carlo_blocks_match_the_per_trial_engine[mds]",
            "tests/test_cli.py::"
            "test_golden_transcript[verify-latest-only-monte-carlo]",
        ),
    ),
    Mutant(
        "subset-code-radix-off-by-one",
        "src/mvcode/model.py",
        "code = code * span + j",
        "code = code * (span + 1) + j",
        (
            "tests/test_differential.py::test_subset_draws_match_random_sample[4-2]",
            "tests/test_differential.py::"
            "test_monte_carlo_blocks_match_the_per_trial_engine[latest-only]",
            "tests/test_cli.py::"
            "test_golden_transcript[verify-latest-only-monte-carlo]",
        ),
    ),
    Mutant(
        "failing-trials-unsorted",
        "src/mvcode/verifier.py",
        "failing.sort()",
        "pass",
        (
            "tests/test_differential.py::"
            "test_monte_carlo_blocks_match_the_per_trial_engine[latest-only]",
            "tests/test_differential.py::"
            "test_monte_carlo_blocks_match_the_per_trial_engine[binning]",
            "tests/test_cli.py::"
            "test_golden_transcript[verify-latest-only-monte-carlo]",
        ),
    ),
    Mutant(
        "search-merge-sentinel-below-the-top-index",
        "src/mvcode/sim.py",
        "key=lambda got: got + (top,),",
        "key=lambda got: got + (top - 1,),",
        (
            "tests/test_differential.py::"
            "test_search_tries_an_arrival_set_before_its_prefix_with_a_crash",
        ),
    ),
    Mutant(
        "search-fewer-writes-skip-inclusive",
        "src/mvcode/sim.py",
        "if (got[-1] if got else -1) < newest:",
        "if (got[-1] if got else -1) <= newest:",
        (
            "tests/test_sim.py::test_every_search_witness_is_pinned",
            "tests/test_differential.py::"
            "test_search_matches_the_per_node_read_search_on_uneven_quorums",
            "tests/test_cli.py::test_golden_transcript[sim-search]",
        ),
    ),
    Mutant(
        "search-need-popcount-inclusive",
        "src/mvcode/sim.py",
        ".bit_count() < c_w:",
        ".bit_count() <= c_w:",
        (
            "tests/test_sim.py::test_every_search_witness_is_pinned",
            "tests/test_differential.py::"
            "test_search_tells_apart_reads_that_differ_only_in_need",
            "tests/test_cli.py::test_golden_transcript[sim-search]",
        ),
    ),
    Mutant(
        "newest-held-precheck-inclusive",
        "src/mvcode/model.py",
        "if len(held) - held.count(frozenset()) < k:",
        "if len(held) - held.count(frozenset()) <= k:",
        (
            "tests/test_differential.py::test_newest_version_reads_match_their_scans[4-2]",
            "tests/test_differential.py::test_latest_complete_version_counts_holders[4-2]",
        ),
    ),
    Mutant(
        "bridge-holders-in-the-order-of-T",
        "src/mvcode/verifier.py",
        "found = newest_held(sorted(T), per_server, self.overlap)",
        "found = newest_held(T, per_server, self.overlap)",
        (
            "tests/test_differential.py::"
            "test_read_views_from_rows_match_the_state_based_views[mds]",
            "tests/test_differential.py::test_every_read_outcome_is_pinned",
        ),
    ),
    Mutant(
        "definition-2-threshold-from-the-rows-of-T",
        "src/mvcode/verifier.py",
        "threshold = latest_common_version(rows) if c_w is None else complete",
        "threshold = (\n"
        "                latest_common_version(rows)\n"
        "                if c_w is None\n"
        "                else latest_complete_version(rows, min(c_w, len(rows)))\n"
        "            )",
        (
            "tests/test_verifier.py::test_bridged_mds_passes_definition_2",
            "tests/test_cli.py::test_golden_transcript[verify-mds-bridged-exhaustive]",
        ),
    ),
    Mutant(
        "requirement-A-threshold-over-every-server",
        "src/mvcode/verifier.py",
        "threshold = latest_common_version(rows) if c_w is None else complete",
        "threshold = latest_common_version(per_server) if c_w is None else complete",
        (
            "tests/test_verifier.py::test_mds_exhaustive_counts_frozen",
            "tests/test_cli.py::test_golden_transcript[verify-mds-exhaustive]",
        ),
    ),
    Mutant(
        "log-from-the-top-16-bits",
        "src/mvcode/bounds.py",
        "shift = max(value.bit_length() - 512, 0)",
        "shift = max(value.bit_length() - 16, 0)",
        ("tests/test_differential.py::test_log2_exact_matches_mpmath",),
    ),
)


def _copy_tree(into: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "pyproject.toml", into)


def exit_codes(tests, mutant: Mutant | None = None) -> dict[str, int]:
    """pytest's exit status for each of ``tests``, run alone in a copy of
    the tree with ``mutant`` applied (none: the tree as it is): 0 passed,
    1 failed, and anything else did not run the test."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.snippet) != 1:
                raise ValueError(f"{mutant.name}: snippet does not occur exactly once")
            target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        return {
            test: subprocess.run(
                command + [test], cwd=copy, env=env, capture_output=True
            ).returncode
            for test in tests
        }


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({test for mutant in chosen for test in mutant.tests})
    broken = {test: code for test, code in exit_codes(tests).items() if code}
    if broken:
        print(f"not passing without a mutant (exit status): {broken}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        passing = [t for t, code in exit_codes(mutant.tests, mutant).items() if code != 1]
        survived += bool(passing)
        print(f"{mutant.name}: " + (f"SURVIVED {passing}" if passing else "killed"))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
