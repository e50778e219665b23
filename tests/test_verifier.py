"""Verifier tests: exhaustive certification, quorum bridging, Monte-Carlo
estimation, and the frozen failure pattern of the latest-only strawman."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from mvcode.model import (
    CorrelationModel,
    EnumerationCapExceeded,
    Message,
    SystemState,
    VersionTuple,
    enumerate_possible_set,
    iter_states,
    latest_common_version,
    latest_complete_version,
    newest_held,
    sample_tuple,
)
from mvcode.schemes import (
    _RAISED,
    _WRONG,
    Decoded,
    DecodingError,
    MvcScheme,
    StoredSymbol,
    make_scheme,
)
from mvcode.sim import partial_update_crash_schedule, run_simulation
from mvcode.verifier import (
    _HOLDER_MEMO_ROWS,
    EpsilonEstimate,
    QuorumBridge,
    VerificationReport,
    Witness,
    _Cell,
    _exhaustive_run,
    _worst_state,
    estimate_epsilon,
    quorum_bridge,
    verdict,
    verify_definition_2,
    verify_requirement_A,
    wilson_interval,
)


def _mds_reference():
    return make_scheme("mds", CorrelationModel(8, 1, 2), 4, 2)


def _latest_only_small():
    return make_scheme("latest-only", CorrelationModel(6, 1, 2), 3, 2)


def _definition_2_in_states(scheme, c_w, c_r, states, witness_cap=200):
    """verify_definition_2's exhaustive engine over the given states only."""
    return _exhaustive_run(
        scheme,
        c_r,
        c_w,
        states,
        list(enumerate_possible_set(scheme.model)),
        witness_cap,
    )


# ---------------------------------------------------------------------------
# Requirement A, exhaustive


def test_mds_exhaustive_counts_frozen():
    report = verify_requirement_A(_mds_reference())
    assert report.mode == "exhaustive"
    assert report.passed and report.failure_count == 0
    assert report.states_checked == 256
    assert report.subsets_checked == 6
    assert report.tuples_checked == 2304
    # 672 (state, subset) pairs share a version; each judged on every tuple
    assert report.attempts == 672 * 2304
    assert report.empirical_error == 0.0
    assert report.per_state_max_error == 0.0
    assert report.failures == ()


@pytest.mark.parametrize(
    "name,K,radius,nu,n,c",
    [
        ("replication", 6, 1, 2, 4, 2),
        ("delta", 8, 1, 2, 3, 2),
        ("rs-update", 6, 2, 2, 3, 2),
        ("mds", 5, 1, 3, 3, 2),
    ],
)
def test_zero_error_schemes_pass_exhaustively(name, K, radius, nu, n, c):
    scheme = make_scheme(name, CorrelationModel(K, radius, nu), n, c)
    report = verify_requirement_A(scheme)
    assert report.mode == "exhaustive"
    assert report.passed, report.failures[:3]


def test_latest_only_fails_exactly_at_mixed_newest_states():
    # Keeping only the newest symbol decodes iff everyone contacted agrees
    # on what the newest version is; every mixed cell fails on every tuple.
    scheme = _latest_only_small()
    report = verify_requirement_A(scheme, witness_cap=50)
    assert not report.passed

    model = scheme.model
    expected = 0
    for code in range(1 << (model.nu * scheme.n)):
        sets = []
        for i in range(scheme.n):
            block = code >> ((scheme.n - 1 - i) * model.nu)
            sets.append(
                frozenset(
                    u for u in range(1, model.nu + 1) if (block >> (u - 1)) & 1
                )
            )
        state = SystemState(tuple(sets))
        for T in combinations(range(scheme.n), scheme.c):
            if latest_common_version([state.per_server[t] for t in T]) is None:
                continue
            newest = {max(state.per_server[t]) for t in T}
            if len(newest) > 1:
                expected += model.tuple_count()
    assert report.failure_count == expected == 10752
    assert report.empirical_error == pytest.approx(10752 / 37632)
    assert report.per_state_max_error == 1.0
    assert report.state_averaged_error == pytest.approx(0.203125)

    assert len(report.failures) == 50
    for witness in report.failures:
        sets = [frozenset(s) for s in witness.state]
        rows = [sets[t] for t in witness.subset]
        assert frozenset.intersection(*rows)  # guard was live
        assert len({max(r) for r in rows}) > 1  # and the newest versions mix
        assert witness.reason == "returned NULL under a live guard"


def test_report_text_round_trips_the_verdict():
    report = verify_requirement_A(_latest_only_small(), witness_cap=3)
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "mvc-verification mode=exhaustive passed=no"
    assert "states=64 subsets=3 tuples=448" in lines[1]
    assert "failures=10752" in lines[2]
    witness_lines = [l for l in lines if l.startswith("witness ")]
    assert len(witness_lines) == 3
    assert all("reason=returned NULL" in l for l in witness_lines)
    # hex-encoded tuple content: two digits per version at K=6
    assert "versions=00,00" in witness_lines[0]

    clean = verify_requirement_A(_mds_reference()).to_text()
    assert clean.splitlines()[0] == "mvc-verification mode=exhaustive passed=yes"


# ---------------------------------------------------------------------------
# Mode selection


def test_auto_switches_to_monte_carlo_over_the_cap():
    scheme = make_scheme("replication", CorrelationModel(12, 2, 3), 4, 2)
    with pytest.warns(RuntimeWarning, match="falling back to Monte-Carlo"):
        report = verify_requirement_A(scheme, trials=200, seed=2)
    assert report.mode == "monte-carlo"
    assert report.tuples_checked == 200
    assert report.passed


def test_exhaustive_over_the_cap_raises():
    scheme = make_scheme("replication", CorrelationModel(12, 2, 3), 4, 2)
    with pytest.raises(EnumerationCapExceeded):
        verify_requirement_A(scheme, mode="exhaustive")
    with pytest.raises(EnumerationCapExceeded):
        verify_requirement_A(_mds_reference(), mode="exhaustive", cap=100)


def test_explicit_monte_carlo_mode_and_rules():
    report = verify_requirement_A(
        _latest_only_small(), mode="monte-carlo", trials=500, seed=3
    )
    assert report.mode == "monte-carlo"
    assert report.tuples_checked == report.attempts == 500
    assert report.empirical_error == report.failure_count / 500
    assert 0 < report.failure_count < 500
    again = verify_requirement_A(
        _latest_only_small(), mode="monte-carlo", trials=500, seed=3
    )
    assert again == report
    with pytest.raises(ValueError):
        verify_requirement_A(_mds_reference(), mode="sideways")
    with pytest.raises(ValueError):
        verify_requirement_A(_mds_reference(), mode="monte-carlo", trials=0)


# ---------------------------------------------------------------------------
# Quorum contract and the bridge


def test_bridged_mds_passes_definition_2():
    inner = make_scheme("mds", CorrelationModel(6, 1, 2), 4, 2)
    report = verify_definition_2(quorum_bridge(inner, 3, 3), 3, 3)
    assert report.mode == "exhaustive"
    assert report.passed
    assert report.attempts == 540 * 448


def test_raw_subset_scheme_fails_definition_2():
    # Without the bridge, a contacted server that holds nothing starves the
    # whole read even though a complete version exists elsewhere.
    inner = make_scheme("mds", CorrelationModel(6, 1, 2), 4, 2)
    report = verify_definition_2(inner, 3, 3, witness_cap=10)
    assert not report.passed
    for witness in report.failures:
        sets = [frozenset(s) for s in witness.state]
        assert not frozenset.intersection(*(sets[t] for t in witness.subset))


def test_synchronous_quorums_are_trivial():
    scheme = make_scheme("replication", CorrelationModel(6, 1, 2), 3, 3)
    report = verify_definition_2(scheme, 3, 3)
    assert report.passed


def test_definition_2_monte_carlo_agrees():
    inner = make_scheme("mds", CorrelationModel(6, 1, 2), 4, 2)
    report = verify_definition_2(
        quorum_bridge(inner, 3, 3), 3, 3, mode="monte-carlo", trials=400, seed=9
    )
    assert report.mode == "monte-carlo"
    assert report.passed


def test_bridge_validation():
    inner = make_scheme("mds", CorrelationModel(6, 1, 2), 4, 2)
    with pytest.raises(ValueError):
        quorum_bridge(inner, 2, 2)  # c_w + c_r = n: no overlap
    with pytest.raises(ValueError):
        quorum_bridge(inner, 3, 2)  # overlap 1 below the scheme's subset size
    with pytest.raises(ValueError):
        quorum_bridge(inner, 5, 3)
    bridge = quorum_bridge(inner, 3, 3)
    assert bridge.overlap == 2
    assert bridge.c == 3  # decode contract takes read quorums
    assert bridge.name == "quorum-bridge(mds)"
    assert bridge.worst_case_cost() == inner.worst_case_cost()
    assert bridge.error_budget == 0


def test_bridge_claims_the_inner_error_budget():
    # a bridged binning scheme is judged by the budget its codebook was
    # sized for, not by the zero budget of an exact code
    inner = make_scheme(
        "binning", CorrelationModel(6, 1, 2), 4, 2, epsilon=Fraction(1, 4), seed=0
    )
    assert quorum_bridge(inner, 3, 3).error_budget == inner.error_budget
    assert inner.error_budget == Fraction(1, 4)


def _fig1_state() -> SystemState:
    # A write of version 2 reached two servers and stalled; version 1 is
    # complete at five of six, one server has nothing yet.
    return SystemState(
        (frozenset({1}),) * 3 + (frozenset({1, 2}),) * 2 + (frozenset(),)
    )


def test_partial_write_replay_bridged_mds_decodes():
    model = CorrelationModel(6, 1, 2)
    report = _definition_2_in_states(
        quorum_bridge(make_scheme("mds", model, 6, 4), 5, 5), 5, 5, [_fig1_state()]
    )
    assert report.passed
    assert report.states_checked == 1
    assert report.attempts == 6 * 448


def test_partial_write_replay_latest_only_fails():
    model = CorrelationModel(6, 1, 2)
    report = _definition_2_in_states(
        quorum_bridge(make_scheme("latest-only", model, 6, 4), 5, 5), 5, 5,
        [_fig1_state()], witness_cap=4,
    )
    assert not report.passed
    assert report.failure_count == 6 * 448  # every read quorum, every tuple
    assert report.per_state_max_error == 1.0


def test_bridge_decode_delegates_to_the_best_subset():
    model = CorrelationModel(6, 1, 2)
    bridge = quorum_bridge(make_scheme("mds", model, 6, 4), 5, 5)
    state = _fig1_state()
    vt = VersionTuple((Message(0x2D, 6), Message(0x2F, 6)))
    T = (0, 1, 2, 3, 4)
    symbols = {
        t: bridge.encode(t, tuple(sorted(state.per_server[t])), vt) for t in T
    }
    decoded = bridge.decode(T, [state.per_server[t] for t in T], symbols)
    assert decoded is not None
    assert decoded.version >= 1
    assert decoded.message == vt.version(decoded.version)
    empty = [frozenset()] * len(T)
    assert bridge.decode(T, empty, {t: StoredSymbol.empty() for t in T}) is None


def _lowest_holders(T, rows, k):
    """(holders, their rows) of the quorum rule over sorted T, or None."""
    per_server = dict(zip(T, rows))
    found = newest_held(sorted(T), per_server, k)
    return None if found is None else (found[1], [per_server[t] for t in found[1]])


def test_bridge_holders_match_the_quorum_rule_in_any_order_of_T():
    # each read asked twice, once in a shuffled order, so the memo of holder
    # positions answers both a miss and a hit for T in any order
    rng = random.Random(5)
    model = CorrelationModel(4, 1, 3)
    for _ in range(200):
        n = rng.randint(1, 7)
        c_w, c_r = rng.randint(1, n), rng.randint(1, n)
        overlap = c_w + c_r - n
        if overlap < 1:
            continue
        bridge = quorum_bridge(
            make_scheme("mds", model, n, rng.randint(1, overlap)), c_w, c_r
        )
        for _ in range(30):
            T = rng.sample(range(n), c_r)
            rows = [frozenset(rng.sample((1, 2, 3), rng.randint(0, 3))) for _ in T]
            want = _lowest_holders(T, rows, overlap)
            assert bridge._holders(T, rows) == want, (T, rows, overlap)
            order = rng.sample(range(c_r), c_r)
            shuffled = [T[i] for i in order], [rows[i] for i in order]
            assert bridge._holders(*shuffled) == want, (T, rows, overlap)


def test_bridge_holder_memo_stays_within_its_row_bound():
    # every pattern of seven rows over versions {1, 2}: 16,384 keys hold
    # 114,688 rows, past the bound
    bridge = quorum_bridge(make_scheme("mds", CorrelationModel(4, 1, 2), 7, 3), 3, 7)
    T = tuple(range(7))
    sets = [frozenset(s) for s in ((), (1,), (2,), (1, 2))]
    patterns = [list(rows) for rows in product(sets, repeat=7)]
    for i, rows in enumerate(patterns):
        for _ in range(2):  # a miss, then a hit
            assert bridge._holders(T, rows) == _lowest_holders(T, rows, 3), rows
        if i % 1024 == 0 or i == len(patterns) - 1:
            assert sum(map(len, bridge._positions)) <= _HOLDER_MEMO_ROWS
    assert 16384 * 7 > _HOLDER_MEMO_ROWS


# ---------------------------------------------------------------------------
# Relabeling symmetry


class _Relabeled(MvcScheme):
    """Server i plays the inner scheme's role perm[i]."""

    def __init__(self, inner: MvcScheme, perm):
        super().__init__(inner.model, inner.n, inner.c)
        self.inner = inner
        self.perm = tuple(perm)
        self.name = inner.name + "-relabeled"

    def encode(self, server, received, versions):
        return self.inner.encode(self.perm[server], received, versions)

    def decode(self, T, rows, symbols):
        moved = sorted(zip((self.perm[t] for t in T), rows))
        return self.inner.decode(
            tuple(t for t, _ in moved),
            [row for _, row in moved],
            {self.perm[t]: symbols[t] for t in T},
        )


@pytest.mark.parametrize("perm", [(1, 2, 0), (2, 0, 1), (0, 2, 1)])
def test_relabeling_preserves_the_verdict(perm):
    base = verify_requirement_A(_latest_only_small(), witness_cap=30)
    moved = verify_requirement_A(
        _Relabeled(_latest_only_small(), perm), witness_cap=30
    )
    assert moved.failure_count == base.failure_count
    assert moved.empirical_error == base.empirical_error
    assert moved.per_state_max_error == base.per_state_max_error
    assert moved.state_averaged_error == base.state_averaged_error
    for witness in moved.failures:
        rows = [frozenset(witness.state[t]) for t in witness.subset]
        assert len({max(r) for r in rows}) > 1


def test_mds_passes_under_relabeling():
    scheme = _Relabeled(make_scheme("mds", CorrelationModel(6, 1, 2), 3, 2), (2, 0, 1))
    assert verify_requirement_A(scheme).passed


# ---------------------------------------------------------------------------
# Epsilon estimation


class _FlakyScheme(MvcScheme):
    """Synthetic scheme failing on a known quarter of the tuple space.

    Stores every received version verbatim; decoding raises whenever the
    target version's content is divisible by four, which a uniform
    marginal hits with probability exactly 1/4.
    """

    name = "flaky"

    def encode(self, server, received, versions):
        got = tuple(sorted(set(received)))
        payload = 0
        for slot, u in enumerate(got):
            payload |= versions.version(u).bits << (slot * self.model.K)
        return StoredSymbol(payload, len(got) * self.model.K)

    def decode(self, T, rows, symbols):
        target = latest_common_version(rows)
        if target is None:
            return None
        t = T[0]
        got = tuple(sorted(rows[0]))
        slot = got.index(target)
        bits = (symbols[t].payload >> (slot * self.model.K)) & (
            (1 << self.model.K) - 1
        )
        if bits % 4 == 0:
            raise DecodingError("synthetic failure")
        return Decoded(target, Message(bits, self.model.K))


def test_estimator_covers_the_known_failure_rate():
    # Guard is live with probability 7/16 (two uniform version sets must
    # intersect), and a quarter of live trials fail: truth is 7/64.
    scheme = _FlakyScheme(CorrelationModel(6, 1, 2), 3, 2)
    estimate = estimate_epsilon(scheme, trials=4000, seed=5)
    truth = 7 / 64
    assert estimate.wilson_lower <= truth <= estimate.wilson_upper
    assert abs(estimate.rate - truth) <= 3 * math.sqrt(truth * (1 - truth) / 4000)
    assert estimate.trials == 4000
    assert estimate.failures == round(estimate.rate * 4000)


class _Misreporting(_FlakyScheme):
    """Reads T's common versions from the verbatim copies, then misreports
    the answer: ``lie`` flips a content bit, claims version nu+1, or
    serves the oldest common version instead of the newest."""

    def __init__(self, model, n, c, lie):
        super().__init__(model, n, c)
        self.lie = lie

    def decode(self, T, rows, symbols):
        common = frozenset.intersection(*rows)
        if not common:
            return None
        version = min(common) if self.lie == "oldest" else max(common)
        slot = sorted(rows[0]).index(version)
        K = self.model.K
        bits = (symbols[T[0]].payload >> (slot * K)) & ((1 << K) - 1)
        if self.lie == "flipped":
            bits ^= 1
        if self.lie == "future":
            version = self.model.nu + 1
        return Decoded(version, Message(bits, K))


@pytest.mark.parametrize(
    "lie,failing_cells,reason",
    [
        ("flipped", 84, "wrong content or version out of range"),
        ("future", 84, "wrong content or version out of range"),
        ("oldest", 12, "decoded version 1 below required 2"),
    ],
)
def test_misreported_decodes_fail_with_their_reason(lie, failing_cells, reason):
    # n=3, c=2, nu=2: 84 (state, subset) cells share a version, and in 12 of
    # them both servers hold {1, 2}; each cell is judged on all 80 tuples
    report = verify_requirement_A(
        _Misreporting(CorrelationModel(4, 1, 2), 3, 2, lie), witness_cap=5
    )
    assert report.attempts == 84 * 80
    assert report.failure_count == failing_cells * 80
    assert len(report.failures) == 5
    assert {w.reason for w in report.failures} == {reason}


def test_monte_carlo_error_is_failures_over_trials():
    scheme = _FlakyScheme(CorrelationModel(6, 1, 2), 3, 2)
    report = verify_requirement_A(scheme, mode="monte-carlo", trials=600, seed=8)
    assert report.empirical_error == report.failure_count / 600
    assert report.failures[0].reason == "decode raised an error"


@pytest.mark.parametrize(
    "codes", [[], [2] * 5, [1, 1, 1, 0], [_WRONG, 2, 2, _RAISED, 1, 2, 0]]
)
def test_cell_tally_counts_each_failing_code(codes):
    """A one-code cell takes the one-count tally, a mixed one the Counter;
    both count the codes below every threshold."""
    cell = _Cell(codes)
    for threshold in range(min(codes, default=0) - 1, 4):
        assert cell.failure_count(threshold) == sum(c < threshold for c in codes)


def test_zero_error_scheme_estimates_zero():
    estimate = estimate_epsilon(
        make_scheme("replication", CorrelationModel(6, 1, 2), 3, 2),
        trials=800,
        seed=1,
    )
    assert estimate.failures == 0 and estimate.rate == 0.0
    assert estimate.wilson_lower == 0.0
    assert estimate.wilson_upper < 0.006
    assert estimate.per_state_max == 0.0


def test_starved_binning_rates_fail_measurably():
    # Cutting six bits from every index drives the error rate far above
    # the budget the nominal allocation was sized for.
    from mvcode.binning import BinningScheme, RateAllocation

    class _Starved(RateAllocation):
        def index_bits(self, received, u):
            return max(1, super().index_bits(received, u) - 6)

    model = CorrelationModel(8, 1, 2)
    scheme = BinningScheme(model, 4, 2, epsilon=Fraction(1, 4), seed=0)
    scheme.allocation = _Starved(model, 4, 2, Fraction(1, 4))
    estimate = estimate_epsilon(scheme, trials=600, seed=7)
    assert estimate.wilson_lower > 0.25

    nominal = BinningScheme(model, 4, 2, epsilon=Fraction(1, 4), seed=0)
    clean = estimate_epsilon(nominal, trials=600, seed=7)
    assert clean.rate < 0.25


def _rates_report(mode, attempts, failures, worst_state):
    rate = failures / attempts
    per_state_max = worst_state[0] / worst_state[1]
    return VerificationReport(
        mode, 1, 1, attempts, attempts, failures, (), rate, per_state_max, rate,
        worst_state,
    )


def test_verdict_names_the_rule_it_applies():
    quarter = Fraction(1, 4)
    for mode in ("exhaustive", "monte-carlo"):
        assert verdict(_rates_report(mode, 100, 0, (0, 100)), 0) == (
            True, "zero-failures", 0,
        )
        assert verdict(_rates_report(mode, 100, 1, (1, 100)), 0) == (
            False, "zero-failures", 1,
        )
    assert verdict(_rates_report("exhaustive", 100, 30, (25, 100)), quarter) == (
        True, "per-state-max", 0.25,
    )
    assert verdict(_rates_report("exhaustive", 100, 1, (1, 2)), quarter) == (
        False, "per-state-max", 0.5,
    )
    # sampled: the Wilson upper bound, so a point estimate under the
    # budget can still fail
    for attempts, failures, ok in ((1000, 200, True), (1000, 230, False), (5, 0, False)):
        upper = wilson_interval(failures, attempts)[1]
        report = _rates_report("monte-carlo", attempts, failures, (1, 1))
        assert report.empirical_error < quarter
        assert verdict(report, quarter) == (ok, "sampled-wilson-upper", upper)
    assert round(wilson_interval(0, 5)[1], 3) == 0.434


def test_per_state_verdict_is_exact_at_the_budget():
    # the float 48/480 is the double 0.1, which lies above 1/10; the counts tie
    tenth = Fraction(1, 10)
    assert verdict(_rates_report("exhaustive", 960, 48, (48, 480)), tenth) == (
        True, "per-state-max", 48 / 480,
    )
    assert verdict(_rates_report("exhaustive", 960, 49, (49, 480)), tenth) == (
        False, "per-state-max", 49 / 480,
    )


def test_worst_state_is_the_first_with_the_highest_exact_rate():
    assert _worst_state([]) is None
    assert _worst_state([(0, 0), (0, 5), (1, 3), (2, 6), (3, 7)]) == (3, 7)
    assert _worst_state([(0, 4), (0, 0), (2, 6), (1, 3)]) == (2, 6)
    assert _worst_state([(0, 0), (0, 4)]) == (0, 0)


def test_trial_validation():
    with pytest.raises(ValueError):
        estimate_epsilon(_latest_only_small(), trials=0)


# ---------------------------------------------------------------------------
# Reports pinned field for field


def _pinned_runs():
    F = frozenset
    latest_only = make_scheme("latest-only", CorrelationModel(6, 1, 2), 3, 2)
    binning = make_scheme(
        "binning", CorrelationModel(5, 1, 2), 3, 2, epsilon=Fraction(1, 2), seed=0
    )
    bridged = quorum_bridge(
        make_scheme("latest-only", CorrelationModel(4, 1, 2), 4, 2), 3, 3
    )
    replay = [
        SystemState((F({1, 2}), F({1, 2}), F({1}), F())),
        SystemState((F({2}), F({1, 2}), F({1}), F({1}))),
        SystemState((F({1}), F({1}), F({2}), F({2}))),
        SystemState((F(), F(), F(), F())),
    ]
    return {
        "A-latest-only": lambda: verify_requirement_A(latest_only, witness_cap=5),
        "A-binning": lambda: verify_requirement_A(binning, witness_cap=5),
        "D2-all": lambda: verify_definition_2(
            bridged, 3, 3, mode="exhaustive", witness_cap=5
        ),
        "D2-states": lambda: _definition_2_in_states(
            bridged, 3, 3, replay, witness_cap=5
        ),
        "D2-monte-carlo": lambda: verify_definition_2(
            bridged, 3, 3, mode="monte-carlo", trials=400, seed=7, witness_cap=5
        ),
    }


_NULL_LIVE = "returned NULL under a live guard"
_RAISED_REASON = "decode raised an error"

# Every field of each report, as the engine produced it when pinned; the
# witnesses are (state, subset, versions, reason) in report order.
_PINNED = {
    "A-latest-only": dict(
        mode="exhaustive", states_checked=64, subsets_checked=3,
        tuples_checked=448, attempts=37632, failure_count=10752,
        failures=[
            (((), (1,), (1, 2)), (1, 2), ("00", v), _NULL_LIVE)
            for v in ("00", "01", "02", "04", "08")
        ],
        empirical_error=0.2857142857142857,
        per_state_max_error=1.0,
        state_averaged_error=0.20312499999999997,
        worst_state=(448, 448),
        worst_cell=(((), (1,), (1, 2)), (1, 2), 448),
    ),
    "A-binning": dict(
        mode="exhaustive", states_checked=64, subsets_checked=3,
        tuples_checked=192, attempts=16128, failure_count=16,
        failures=[
            (((), (1, 2), (1, 2)), (1, 2), ("01", "05"), _RAISED_REASON),
            (((), (1, 2), (1, 2)), (1, 2), ("01", "11"), _RAISED_REASON),
            (((), (1, 2), (1, 2)), (1, 2), ("15", "11"), _RAISED_REASON),
            (((), (1, 2), (1, 2)), (1, 2), ("15", "05"), _RAISED_REASON),
            (((1,), (1, 2), (1, 2)), (1, 2), ("01", "05"), _RAISED_REASON),
        ],
        empirical_error=0.000992063492063492,
        per_state_max_error=0.020833333333333332,
        state_averaged_error=0.0006510416666666667,
        worst_state=(4, 192),
        worst_cell=(((), (1, 2), (1, 2)), (1, 2), 4),
    ),
    "D2-all": dict(
        mode="exhaustive", states_checked=256, subsets_checked=4,
        tuples_checked=80, attempts=43200, failure_count=6400,
        failures=[
            (((), (1,), (1,), (1, 2)), (0, 1, 3), ("0", v), _NULL_LIVE)
            for v in ("0", "1", "2", "4", "8")
        ],
        empirical_error=0.14814814814814814,
        per_state_max_error=0.75,
        state_averaged_error=0.078125,
        worst_state=(240, 320),
        worst_cell=(((), (1,), (1,), (1, 2)), (0, 1, 3), 80),
    ),
    "D2-states": dict(
        mode="exhaustive", states_checked=4, subsets_checked=4,
        tuples_checked=80, attempts=640, failure_count=240,
        failures=[
            (((1, 2), (1, 2), (1,), ()), (0, 2, 3), ("0", v), _NULL_LIVE)
            for v in ("0", "1", "2", "4", "8")
        ],
        empirical_error=0.375,
        per_state_max_error=0.5,
        state_averaged_error=0.1875,
        worst_state=(160, 320),
        worst_cell=(((1, 2), (1, 2), (1,), ()), (0, 2, 3), 80),
    ),
    "D2-monte-carlo": dict(
        mode="monte-carlo", states_checked=205, subsets_checked=4,
        tuples_checked=400, attempts=400, failure_count=26,
        failures=[
            (((1, 2), (), (1,), (1,)), (0, 2, 3), ("5", "d"), _NULL_LIVE),
            (((1,), (2,), (1, 2), (1,)), (0, 2, 3), ("7", "6"), _NULL_LIVE),
            (((1,), (1,), (), (1, 2)), (1, 2, 3), ("f", "b"), _NULL_LIVE),
            (((1,), (), (1, 2), (1,)), (0, 2, 3), ("f", "f"), _NULL_LIVE),
            (((1, 2), (1,), (), (1, 2)), (0, 1, 2), ("4", "0"), _NULL_LIVE),
        ],
        empirical_error=0.065,
        per_state_max_error=1.0,
        state_averaged_error=0.06601626016260162,
        worst_state=(3, 3),
        worst_cell=None,
    ),
}


def test_reports_pinned_field_for_field():
    for run, verify in _pinned_runs().items():
        report = verify()
        got = {f: getattr(report, f) for f in VerificationReport.__dataclass_fields__}
        got["failures"] = [tuple(w) for w in report.failures]
        assert got == _PINNED[run], run


# ---------------------------------------------------------------------------
# Engine keying: every report equals the one of a proxy that keys cells by
# (subset, rows of the subset)


class _RowsKeyed(MvcScheme):
    """Forwards encode and decode and keeps the default read view, so the
    exhaustive engine keys its cells by (T, rows of T)."""

    def __init__(self, inner: MvcScheme):
        super().__init__(inner.model, inner.n, inner.c)
        self.inner = inner
        self.name = inner.name

    def encode(self, server, received, versions):
        return self.inner.encode(server, received, versions)

    def decode(self, T, state, symbols):
        return self.inner.decode(T, state, symbols)


def _fields(report: VerificationReport) -> dict:
    got = {f: getattr(report, f) for f in VerificationReport.__dataclass_fields__}
    got["failures"] = [tuple(w) for w in report.failures]
    return got


_KEYING_SCHEMES = ("replication", "mds", "delta", "rs-update", "latest-only", "binning")


@pytest.mark.parametrize("n,c_w,c_r", [(4, 3, 3), (5, 3, 4)])
@pytest.mark.parametrize("name", _KEYING_SCHEMES)
def test_reports_match_the_rows_keyed_engine(name, n, c_w, c_r):
    extra = dict(epsilon=Fraction(1, 4), seed=0) if name == "binning" else {}
    inner = make_scheme(name, CorrelationModel(3, 1, 2), n, c_w + c_r - n, **extra)
    bridge = quorum_bridge(inner, c_w, c_r)
    runs = {
        "plain": lambda s: verify_requirement_A(s, witness_cap=20),
        "bridged": lambda s: verify_definition_2(
            s, c_w, c_r, mode="exhaustive", witness_cap=20
        ),
    }
    for run, scheme in (("plain", inner), ("bridged", bridge)):
        report = runs[run](scheme)
        assert _fields(report) == _fields(runs[run](_RowsKeyed(scheme))), run
        if name == "latest-only" and run == "bridged":
            assert report.failures  # witnesses are compared too


class _CountingDecodes(_RowsKeyed):
    """Counts the decodes it forwards."""

    def __init__(self, inner: MvcScheme):
        super().__init__(inner)
        self.decodes = 0

    def decode(self, T, state, symbols):
        self.decodes += 1
        return super().decode(T, state, symbols)


def test_bridged_verify_decodes_each_inner_view_once():
    # At the anchor 192 (read quorum, rows) cells reach only 42 distinct
    # (delegated holders, their rows) views; each is decoded once per tuple.
    inner = _CountingDecodes(_mds_reference())
    report = verify_definition_2(
        quorum_bridge(inner, 3, 3), 3, 3, mode="exhaustive"
    )
    assert report.attempts == 1_244_160
    assert report.failure_count == 0
    assert inner.decodes == 42 * 2304


def test_reads_build_no_state(monkeypatch):
    # a read takes T's rows: Monte-Carlo verifies (witnesses included), the
    # per-tuple loop, binning's decode chain and a replay build no state,
    # and an exhaustive run builds only the states it iterates
    built = [0]
    check = SystemState.__post_init__

    def counted(state):
        built[0] += 1
        check(state)

    monkeypatch.setattr(SystemState, "__post_init__", counted)
    model = CorrelationModel(4, 1, 2)
    tuples = list(enumerate_possible_set(model))[:40]
    rows = [frozenset({1, 2}), frozenset({2})]
    for name in ("mds", "latest-only", "binning"):
        scheme = make_scheme(name, model, 4, 2)
        verify_requirement_A(scheme, mode="monte-carlo", trials=3000)
        bridge = quorum_bridge(scheme, 3, 3)
        verify_definition_2(bridge, 3, 3, mode="monte-carlo", trials=3000)
        MvcScheme.cell_codes(scheme, (0, 1), rows, tuples, {})
    replica = quorum_bridge(make_scheme("mds", model, 6, 4), 5, 5)
    assert run_simulation(replica, partial_update_crash_schedule()).consistent
    assert built[0] == 0
    report = verify_definition_2(bridge, 3, 3, mode="exhaustive")
    assert built[0] == report.states_checked == 256


# ---------------------------------------------------------------------------
# Batch cell decoding: every override returns the default loop's codes


_SCHEMES = ("replication", "mds", "delta", "rs-update", "latest-only", "binning")


def _live_views(scheme, subset_size, threshold_of):
    """One (T, state) per distinct live read view, as the engine meets them."""
    seen = set()
    for state in iter_states(scheme.n, scheme.model.nu):
        for T in combinations(range(scheme.n), subset_size):
            if threshold_of(state, T) is None:
                continue
            view = scheme.read_view(T, [state.per_server[t] for t in T])
            if view not in seen:
                seen.add(view)
                yield T, state


@pytest.mark.parametrize(
    "K,radius,nu,n,c,quorums",
    [
        (8, 1, 2, 4, 2, None),  # the anchor
        (4, 1, 2, 5, 3, None),
        (3, 1, 3, 3, 2, None),  # chains of two steps
        (8, 1, 2, 4, 2, (3, 3)),
        (4, 1, 2, 5, 2, (3, 4)),
        (4, 2, 2, 3, 2, None),
        (3, 2, 3, 3, 2, None),  # a two-version step over a radius-3 ball
    ],
)
@pytest.mark.parametrize("name", _SCHEMES)
def test_cell_codes_match_the_default_loop(name, K, radius, nu, n, c, quorums):
    scheme = make_scheme(name, CorrelationModel(K, radius, nu), n, c)
    if quorums is None:
        subset_size = c
        threshold_of = lambda state, T: latest_common_version(
            [state.per_server[t] for t in T]
        )
    else:
        c_w, c_r = quorums
        scheme = quorum_bridge(scheme, c_w, c_r)
        subset_size = c_r
        threshold_of = lambda state, T: latest_complete_version(state.per_server, c_w)
    tuples = list(enumerate_possible_set(scheme.model))
    # each list has its own caches: a cache serves one tuple list
    lists = [(tuples[:size], {}, {}) for size in (1, 2, len(tuples))]
    views = 0
    for T, state in _live_views(scheme, subset_size, threshold_of):
        rows = [state.per_server[t] for t in T]
        for some, batch_cache, loop_cache in lists:
            got = scheme.cell_codes(T, rows, some, batch_cache)
            want = MvcScheme.cell_codes(scheme, T, rows, some, loop_cache)
            assert got == want, (len(some), T, state.key())
            assert all(type(code) is int for code in got)
        views += 1
    assert views > 0
    if (K, n, quorums) == (8, 4, None):
        assert views == 42


@pytest.mark.parametrize("name", ["mds", "delta", "rs-update", "latest-only"])
def test_cell_codes_match_the_default_loop_on_a_corrupted_inverse(name):
    # K=6 pads to two 4-bit blocks at n=4, c=2.  In every holder tuple's
    # block inverse, bit 3 of mask 0 is a message bit in block 0 and a
    # padding bit in block 1, and bit 0 of mask 1 a message bit, so some
    # decodes raise and others return wrong content, on both paths alike.
    scheme = make_scheme(name, CorrelationModel(6, 1, 2), 4, 2)
    code = scheme.generator.code
    for holders in combinations(range(4), 2):
        masks = list(code.inverse(holders))
        masks[0] ^= 1 << 3
        masks[1] ^= 1
        code._cache[holders] = tuple(masks)
    tuples = list(enumerate_possible_set(scheme.model))
    seen = set()
    common = lambda state, T: latest_common_version([state.per_server[t] for t in T])
    for T, state in _live_views(scheme, 2, common):
        rows = [state.per_server[t] for t in T]
        got = scheme.cell_codes(T, rows, tuples, {})
        assert got == MvcScheme.cell_codes(scheme, T, rows, tuples, {})
        seen.update(got)
    assert {_RAISED, _WRONG} <= seen


def test_delta_batch_ranks_only_the_differences_it_decodes(monkeypatch):
    import mvcode.schemes as schemes

    calls = {"ball_rank": 0, "ball_unrank": 0}

    def counted(name):
        real = getattr(schemes, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(schemes, name, call)

    counted("ball_rank")
    counted("ball_unrank")
    model = CorrelationModel(16, 4, 2)
    scheme = make_scheme("delta", model, 3, 2)
    rng = random.Random(0)
    tuples = [sample_tuple(model, rng) for _ in range(64)]
    both = frozenset({1, 2})
    state = SystemState((both, both, both))
    codes = scheme.cell_codes((0, 1), [state.per_server[t] for t in (0, 1)], tuples, {})
    assert codes == [2] * len(tuples)
    diffs = len({vt.version(2).bits ^ vt.version(1).bits for vt in tuples})
    assert 0 < calls["ball_rank"] <= diffs  # not the ball's 2,517 members
    assert 0 < calls["ball_unrank"] <= 2 * diffs
