"""End-to-end acceptance checks, one test per headline criterion.

Each test prints a single PASS line when its criterion holds; the numeric
anchors replace the asymptotic claims with exact finite-size checks at
desk scale.
"""

from fractions import Fraction
from itertools import combinations

from oracles import (
    ball_volume,
    even_parity_monte_carlo,
    even_parity_probability,
    log2_fixed,
    rate_region_check,
    scenario_rates,
)

from mvcode.binning import (
    RateAllocation,
    binary_entropy,
    example1_rate_comparison,
    sample_tuples,
    seed_search,
)
from mvcode.bounds import BoundParams, lower_bound_general
from mvcode.galois import RsCode
from mvcode.model import (
    CorrelationModel,
    SystemState,
    latest_common_version,
)
from mvcode.schemes import make_scheme
from mvcode.sim import (
    adversarial_schedule_search,
    partial_update_crash_schedule,
    run_simulation,
)
from mvcode.verifier import quorum_bridge, verify_definition_2, verify_requirement_A

ANCHOR = dict(n=4, c=2, nu=2, K=8, radius=1)
TABLE_POINT = dict(n=8, c=4, nu=2, K=64, radius=2, epsilon=Fraction(1, 2**20))
ZERO_ERROR_SCHEMES = ("replication", "mds", "delta", "rs-update")


def _anchor_model():
    return CorrelationModel(ANCHOR["K"], ANCHOR["radius"], ANCHOR["nu"])


def test_criterion_1_exhaustive_zero_error_certification():
    model = _anchor_model()
    for name in ZERO_ERROR_SCHEMES:
        scheme = make_scheme(name, model, ANCHOR["n"], ANCHOR["c"])
        report = verify_requirement_A(scheme, mode="exhaustive")
        assert report.mode == "exhaustive"
        assert report.states_checked == 256
        assert report.subsets_checked == 6
        assert report.tuples_checked == 2304  # 2^8 * 9
        assert report.failure_count == 0 and report.passed, name
    print(
        "PASS criterion 1: replication, mds, delta, rs-update certified "
        "error-free over 256 states x 6 subsets x 2304 tuples"
    )


def test_criterion_2_storage_table_reproduction():
    K, c, nu, r, n = (
        TABLE_POINT["K"],
        TABLE_POINT["c"],
        TABLE_POINT["nu"],
        TABLE_POINT["radius"],
        TABLE_POINT["n"],
    )
    eps = TABLE_POINT["epsilon"]
    model = CorrelationModel(K, r, nu)
    reports = {}
    for name in ZERO_ERROR_SCHEMES:
        reports[name] = make_scheme(name, model, n, c).worst_case_cost()
    reports["binning"] = make_scheme(
        "binning", model, n, c, epsilon=eps, seed=0
    ).worst_case_cost()

    # realized maxima never exceed the analytic ceilings
    for name, rep in reports.items():
        assert rep.measured_bits <= rep.guarantee_bits, name

    # cost ordering in the nu < c, small-radius regime
    t = {name: rep.table_bits for name, rep in reports.items()}
    assert t["binning"] < t["delta"] < min(t["mds"], t["replication"])

    # independent big-integer recomputation of every formula value
    vol = ball_volume(r, K)
    logvol = log2_fixed(Fraction(vol))
    m = RsCode.standard(n, c).field.m
    blocks = max(1, K // (c * m))
    record = (blocks - 1).bit_length() + m
    survival = 1 - eps * 2 ** (nu * n)
    arrangements = 10 * 2  # C(c+nu-1, nu) * nu! at c=4, nu=2
    expected = {
        "replication": Fraction(K),
        "mds": Fraction(nu * K, c),
        "delta": Fraction(K, c) + (nu - 1) * logvol,
        "rs-update": Fraction(K, c) + (nu - 1) * min(Fraction(r * record), Fraction(K, c)),
        "binning": (Fraction(K) + (nu - 1) * logvol) / c,
    }
    for name, want in expected.items():
        got = Fraction(t[name])
        assert abs(got - want) <= abs(want) * Fraction(1, 2**40), name
    bound = lower_bound_general(BoundParams(n, c, nu, K, r, eps))
    want_bound = (
        Fraction(K) + (nu - 1) * logvol + log2_fixed(survival) - log2_fixed(Fraction(arrangements))
    ) / (c + nu - 1)
    assert abs(Fraction(bound) - want_bound) <= abs(want_bound) * Fraction(1, 2**40)
    print(
        "PASS criterion 2: storage table reproduced at K=64 c=4 nu=2 n=8; "
        "ordering binning < delta < mds/replication; formulas match "
        "big-integer recomputation to 2^-40"
    )


def test_criterion_3_single_bit_updates_touch_one_symbol():
    checked = 0
    for n in range(2, 7):
        for c in range(1, n + 1):
            for K in range(1, 25):
                scheme = make_scheme(
                    "rs-update", CorrelationModel(K, 1, 2), n, c
                )
                gen = scheme.generator
                m = gen.symbol_bits
                for server in range(n):
                    for k in range(K):
                        vec = gen.rows[server][k]
                        touched = 0
                        while vec:
                            if vec & ((1 << m) - 1):
                                touched += 1
                            vec >>= m
                        assert touched <= 1, (n, c, K, server, k)
                        checked += 1
    # sum over n of n (c choices) * n (servers) * (1+...+24) bit positions
    assert checked == 300 * sum(n * n for n in range(2, 7)) == 27000
    print(
        f"PASS criterion 3: every single-bit flip changes at most one stored "
        f"symbol per server across {checked} (n, c, K, server, bit) cases"
    )


def test_criterion_4_binning_region_and_empirical_error():
    model = _anchor_model()
    n, c = ANCHOR["n"], ANCHOR["c"]
    eps = Fraction(1, 4)
    allocation = RateAllocation(model, n, c, eps)

    per_server = [
        frozenset(u for u in range(1, model.nu + 1) if (mask >> (u - 1)) & 1)
        for mask in range(1 << model.nu)
    ]
    cells = 0
    for combo_id in range((1 << model.nu) ** n):
        sets, rest = [], combo_id
        for _ in range(n):
            sets.append(per_server[rest % (1 << model.nu)])
            rest //= 1 << model.nu
        state = SystemState(tuple(sets))
        for T in combinations(range(n), c):
            if latest_common_version(state, T) is None:
                continue
            chain, totals = scenario_rates(allocation, state, T)
            check = rate_region_check(allocation, totals, chain)
            assert check.satisfied and all(s >= 0 for s in check.slacks), (
                state.key(),
                T,
            )
            cells += 1
    assert cells == 672  # live (state, group) pairs at this anchor

    tuples = sample_tuples(model, 1000, 0)
    report = seed_search(model, n, c, eps, range(10), tuples)
    assert report.achieved
    assert report.best.worst_rate <= 0.25
    print(
        "PASS criterion 4: allocation slack nonnegative on all 672 live "
        "cells; best of 10 seeds hits worst-cell error "
        f"{report.best.worst_rate:.4f} <= 1/4 over 1000 tuples per cell "
        f"(95% Wilson upper {report.best.wilson_upper:.4f})"
    )


def test_criterion_5_even_parity_matches_sampling():
    cases = 0
    for p in (0.1, 0.25, 0.5):
        for w in range(1, 9):
            for M in range(1, 9):
                exact = even_parity_probability(p, w, M)
                sampled = even_parity_monte_carlo(
                    p, w, M, trials=10_000, seed=1000 * w + M
                )
                sigma = (exact * (1 - exact) / 10_000) ** 0.5
                assert abs(sampled - exact) <= 3 * sigma + 1e-12, (p, w, M)
                cases += 1
    assert cases == 192
    print(
        "PASS criterion 5: even-parity formula within 3 standard errors of "
        "Monte-Carlo on all 192 grid cells"
    )


def test_criterion_6_lower_bound_soundness_and_gap():
    # hard soundness: the converse never exceeds any realized cost
    for point in (dict(ANCHOR, epsilon=Fraction(1, 4)), TABLE_POINT):
        model = CorrelationModel(point["K"], point["radius"], point["nu"])
        bound = lower_bound_general(
            BoundParams(
                point["n"], point["c"], point["nu"], point["K"], point["radius"]
            )
        )
        for name in (*ZERO_ERROR_SCHEMES, "binning"):
            extra = (
                dict(epsilon=point["epsilon"], seed=0) if name == "binning" else {}
            )
            rep = make_scheme(
                name, model, point["n"], point["c"], **extra
            ).worst_case_cost()
            assert bound <= rep.measured_bits + 1e-9, (name, point)

    # finite-size shadow of the factor-two claim
    c, nu, n = 8, 2, 8
    gaps = []
    for K in (32, 64, 128):
        r = K // 16
        vol = CorrelationModel(K, r, nu).ball_volume()
        leading = (K + float(log2_fixed(Fraction(vol)))) / c
        bound = lower_bound_general(BoundParams(n, c, nu, K, r))
        gaps.append(leading / bound)
    assert all(g <= 2.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(g > (c + nu - 1) / c for g in gaps)
    print(
        "PASS criterion 6: converse below every measured cost at both "
        f"parameter points; binning gap factors {[round(g, 4) for g in gaps]} "
        "fall toward 9/8"
    )


def test_criterion_7_three_version_exclusions():
    delta = 0.05
    h = binary_entropy(delta)
    h2 = binary_entropy(2 * delta * (1 - delta))
    assert h < h2
    assert 0.5 + 2 * h < 1 + h
    assert 0.5 + h < 1 + h2  # oldest+newest rate sum against its requirement
    report = example1_rate_comparison(Fraction(1, 20))
    assert len(report.rows) == 3
    assert all(row.excluded and row.margin > 0 for row in report.rows)
    print(
        "PASS criterion 7: all three unique-decoding exclusions hold at "
        "flip rate 0.05 with the stated signs"
    )


def test_criterion_8_quorum_bridge_carries_certification():
    model = _anchor_model()
    n = ANCHOR["n"]
    pairs = [
        (c_w, c_r)
        for c_w in range(1, n + 1)
        for c_r in range(1, n + 1)
        if c_w + c_r - n == ANCHOR["c"]
    ]
    assert pairs == [(2, 4), (3, 3), (4, 2)]
    for name in ZERO_ERROR_SCHEMES:
        scheme = make_scheme(name, model, n, ANCHOR["c"])
        base = verify_requirement_A(scheme, mode="exhaustive")
        assert base.passed, name
        for c_w, c_r in pairs:
            bridged = quorum_bridge(scheme, c_w, c_r)
            report = verify_definition_2(bridged, c_w, c_r, mode="exhaustive")
            assert report.passed, (name, c_w, c_r)
    print(
        "PASS criterion 8: every zero-error scheme certified at c=2 also "
        "passes quorum verification at (2,4), (3,3), (4,2) exhaustively"
    )


def test_criterion_9_simulator_verdicts_and_search():
    model = _anchor_model()
    schedule = partial_update_crash_schedule()
    mds6 = quorum_bridge(make_scheme("mds", model, 6, 4), 5, 5)
    latest6 = quorum_bridge(make_scheme("latest-only", model, 6, 4), 5, 5)
    assert run_simulation(mds6, schedule).consistent
    assert not run_simulation(latest6, schedule).consistent

    for name in ZERO_ERROR_SCHEMES:
        scheme = quorum_bridge(make_scheme(name, model, 4, 2), 3, 3)
        witness = adversarial_schedule_search(scheme, 3, 3, f=1, depth=12)
        assert witness is None, name
    print(
        "PASS criterion 9: bundled replay is consistent under mds and "
        "inconsistent under latest-only; depth-12 search finds no witness "
        "against any zero-error scheme"
    )
