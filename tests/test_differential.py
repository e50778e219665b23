"""Differential tests pinning the exact-arithmetic paths to the ones they
replaced: big-integer width ceilings and region signs against the snapped
128-bit mpmath oracle, the decimal logarithms against mpmath, the folded
estimate_epsilon and survey paths against values of the previous
implementation, the direct quorum read rules against brute force, and the
GF(2) mask decode of Reed-Solomon against the GF(2^m) Vandermonde inverse."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from oracles import (
    bridge_subset_scan,
    latest_complete_by_count,
    mpmath_evaluate,
    mpmath_log2,
    snapped_ceil_bits,
    snapped_region_slacks,
    vandermonde_decode,
    vandermonde_interpolate,
)
from mvcode import estimate_epsilon, make_scheme
from mvcode.binning import (
    BinningCodebook,
    RateAllocation,
    RateTerm,
    binning_worst_case_cost,
    empirical_error_survey,
    rate_region_check,
    sample_tuples,
    scenario_rates,
)
from mvcode.bounds import log2_exact
from mvcode.model import (
    CorrelationModel,
    SystemState,
    iter_states,
    latest_complete_version,
)
from mvcode.schemes import DecodingError, MvcScheme
from mvcode.verifier import quorum_bridge

GRID_K = (4, 8, 16, 64, 128)
GRID_NC = ((2, 1), (4, 2), (5, 3))
GRID_EPS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 1000), Fraction(1, 2**20))
HALF_BIT = RateTerm(Fraction(1, 2), Fraction(0), Fraction(0))


def _receipt_sets(nu):
    versions = range(1, nu + 1)
    return [s for size in versions for s in combinations(versions, size)]


def _region_states(n, nu):
    """Server t holds a receipt set with the newest version plus version
    t mod nu + 1, so the decode chains vary and members hold unequal sets."""
    for got in _receipt_sets(nu):
        if nu in got:
            yield SystemState(tuple(frozenset(got) | {t % nu + 1} for t in range(n)))


@pytest.mark.parametrize("K", GRID_K)
def test_rates_ceilings_and_region_match_the_mpmath_oracle(K):
    for radius in range(4):
        for nu in range(1, 5):
            model = CorrelationModel(K, radius, nu)
            for n, c in GRID_NC:
                for eps in GRID_EPS:
                    alloc = RateAllocation(model, n, c, eps)
                    for got in _receipt_sets(nu):
                        for u in got:
                            term = alloc.rate_term(got, u)
                            assert alloc.index_bits(got, u) == snapped_ceil_bits(
                                alloc, term
                            )
                            assert alloc.evaluate(term) == mpmath_evaluate(alloc, term)
                    full = range(1, nu + 1)
                    total = alloc.rate_term(full, 1)
                    for u in full[1:]:
                        total = total.plus(alloc.rate_term(full, u))
                    assert binning_worst_case_cost(alloc) == mpmath_evaluate(
                        alloc, total
                    )
                    T = tuple(range(c))
                    for state in _region_states(n, nu):
                        chain, totals = scenario_rates(alloc, state, T)
                        short = {u: r.minus(HALF_BIT) for u, r in totals.items()}
                        for rates in (totals, short):
                            check = rate_region_check(alloc, rates, chain)
                            want = snapped_region_slacks(alloc, rates, chain)
                            assert check.slacks == want
                            assert check.satisfied == all(s >= 0 for s in want)


def test_log2_exact_matches_mpmath():
    for x in range(1, 3000):
        assert log2_exact(x) == mpmath_log2(x)
    # survival shares 1 - epsilon * 2^(nu*n) of the bounds sit just below 1
    for k in range(1, 31):
        for x in (1 - Fraction(1, 2**k), 1 - Fraction(1, 3**k), 1 - Fraction(7, 8 << k)):
            assert log2_exact(x) == mpmath_log2(x)


def test_sign_is_exact_at_integer_values():
    # radius 0 makes log2(Vol) = 0 and epsilon = 1/4 makes log2(eps) = -2,
    # so these terms are exact rationals, some of them integers
    alloc = RateAllocation(CorrelationModel(8, 0, 2), 4, 2, Fraction(1, 4))
    term = RateTerm(Fraction(3), Fraction(5), Fraction(1))  # 3 + 0 - 2 = 1
    assert [alloc.sign(term, bound) for bound in (0, 1, 2)] == [1, 0, -1]
    assert alloc._ceil_bits(term) == 1


# ---------------------------------------------------------------------------
# Folded engines: values of the previous implementation, which ran its own
# trial loop.

_K6 = CorrelationModel(6, 1, 2)
_SCHEMES = {
    "binning": make_scheme("binning", _K6, 3, 2, epsilon=Fraction(9, 10), seed=0),
    "latest-only": make_scheme("latest-only", _K6, 3, 2),
}

_ESTIMATES = {
    ("binning", 0): (
        500, 3, 0.006, 0.002042596271960236, 0.017490252104053375, 0.25,
    ),
    ("binning", 5): (
        500, 3, 0.006, 0.002042596271960236, 0.017490252104053375, 0.16666666666666666,
    ),
    ("latest-only", 0): (
        500, 58, 0.116, 0.09081365651103794, 0.1470418369634342, 1.0,
    ),
    ("latest-only", 5): (
        500, 54, 0.108, 0.08372280963705037, 0.13825467328480662, 1.0,
    ),
}


# the ids keep the "-False" suffix they had when the key also named a mode
@pytest.mark.parametrize(
    "name,seed", sorted(_ESTIMATES), ids=[f"{n}-{s}-False" for n, s in sorted(_ESTIMATES)]
)
def test_estimate_epsilon_pinned(name, seed):
    est = estimate_epsilon(_SCHEMES[name], trials=500, seed=seed)
    got = (
        est.trials, est.failures, est.rate, est.wilson_lower, est.wilson_upper,
        est.per_state_max,
    )
    assert got == _ESTIMATES[name, seed]


@pytest.mark.parametrize(
    "seed,failures,worst_rate,worst_failures,wilson_upper",
    [(1, 32, 0.1, 4, 0.23051775227522298), (2, 48, 0.15, 6, 0.2907232436648971)],
)
def test_three_version_survey_pinned(
    seed, failures, worst_rate, worst_failures, wilson_upper
):
    # the state order changed at nu = 3; only worst_cell may move, and only
    # between cells tied at the worst failure count
    model = CorrelationModel(4, 2, 3)
    eps = Fraction(9, 10)
    codebook = BinningCodebook.create(model, 2, 1, eps, seed=seed)
    survey = empirical_error_survey(
        codebook, RateAllocation(model, 2, 1, eps), sample_tuples(model, 40, 3)
    )
    assert (survey.kind, survey.seed, survey.trials) == ("random-uniform", seed, 40)
    assert (survey.cells, survey.decodes, survey.failures) == (112, 4480, failures)
    assert (survey.worst_rate, survey.worst_failures) == (worst_rate, worst_failures)
    assert survey.wilson_upper == wilson_upper


# Every ErrorSurvey field as the survey's own plan loop produced it, before
# the survey moved onto the verifier's exhaustive engine: the anchor with
# 1000 tuples per cell, and the three-version point above.
_ANCHOR = (CorrelationModel(8, 1, 2), 4, 2, Fraction(1, 4), 1000, 0)
_THREE_VERSIONS = (CorrelationModel(4, 2, 3), 2, 1, Fraction(9, 10), 40, 3)
_SURVEYS = {
    (_ANCHOR, 0): (
        672, 672000, 336, 0.007, 7, (((), (1,), (1,), ()), (1, 2)),
        0.014378315465766588,
    ),
    (_ANCHOR, 1): (
        672, 672000, 336, 0.007, 7, (((), (1,), (1,), ()), (1, 2)),
        0.014378315465766588,
    ),
    (_ANCHOR, 2): (
        672, 672000, 0, 0.0, 0, (((), (), (1,), (1,)), (2, 3)),
        0.003826758485555124,
    ),
    (_THREE_VERSIONS, 1): (
        112, 4480, 32, 0.1, 4, (((), (1, 2)), (1,)), 0.23051775227522298,
    ),
    (_THREE_VERSIONS, 2): (
        112, 4480, 48, 0.15, 6, (((), (1,)), (1,)), 0.2907232436648971,
    ),
}


@pytest.mark.parametrize(
    "point,seed",
    list(_SURVEYS),
    ids=[f"nu{point[0].nu}-seed{seed}" for point, seed in _SURVEYS],
)
def test_survey_pinned_field_for_field(point, seed):
    model, n, c, eps, trials, tuple_seed = point
    codebook = BinningCodebook.create(model, n, c, eps, seed=seed)
    survey = empirical_error_survey(
        codebook,
        RateAllocation(model, n, c, eps),
        sample_tuples(model, trials, tuple_seed),
    )
    assert (survey.kind, survey.seed, survey.trials) == (
        "random-uniform", seed, trials,
    )
    assert (
        survey.cells, survey.decodes, survey.failures, survey.worst_rate,
        survey.worst_failures, survey.worst_cell, survey.wilson_upper,
    ) == _SURVEYS[point, seed]


class _SubsetRecorder(MvcScheme):
    """Inner scheme whose decode returns the subset it was handed."""

    name = "subset-recorder"

    def encode(self, server, received, versions):
        raise AssertionError("the bridge's subset choice needs no symbols")

    def decode(self, T, state, symbols):
        return T


@pytest.mark.parametrize("n,nu", [(4, 2), (3, 3), (5, 2)])
def test_bridge_delegates_to_the_subset_the_scan_chose(n, nu):
    inner = _SubsetRecorder(CorrelationModel(1, 0, nu), n, 1)
    # every read quorum size c_r, with every overlap 1..c_r it allows
    bridges = [
        (T, quorum_bridge(inner, n - c_r + overlap, c_r))
        for c_r in range(1, n + 1)
        for T in combinations(range(n), c_r)
        for overlap in range(1, c_r + 1)
    ]
    checked = 0
    for state in iter_states(n, nu):
        for T, bridge in bridges:
            want = bridge_subset_scan(state.per_server, T, bridge.overlap)
            assert bridge.decode(T, state, {}) == want, (state.key(), T)
            checked += 1
    assert checked == (1 << (n * nu)) * n * (1 << (n - 1))


@pytest.mark.parametrize("n,nu", [(4, 2), (3, 3)])
def test_latest_complete_version_counts_holders(n, nu):
    for c_w in range(1, n + 1):
        for state in iter_states(n, nu):
            assert latest_complete_version(state, c_w) == latest_complete_by_count(
                state.per_server, c_w, nu
            ), (state.key(), c_w)


# ---------------------------------------------------------------------------
# Reed-Solomon decode: one GF(2) inverse per holder tuple against the
# block-by-block Vandermonde inverse it replaced.


@pytest.mark.parametrize("n,c", [(4, 2), (5, 3)])
@pytest.mark.parametrize("K", [8, 64])
def test_mask_decode_matches_the_vandermonde_oracle(n, c, K):
    scheme = make_scheme("mds", CorrelationModel(K, 1, 2), n, c)
    gen = scheme.generator
    code = gen.code
    rng = random.Random(K * 100 + n)
    # codewords and random stored words, which the solver decodes alike
    for servers in permutations(range(n), c):
        codewords = [
            [gen.apply(s, message) for s in servers]
            for message in (rng.getrandbits(K) for _ in range(4))
        ]
        stored_words = [
            [rng.getrandbits(gen.stored_bits_per_server) for _ in servers]
            for _ in range(8)
        ]
        for vectors in codewords + stored_words:
            holders = list(zip(servers, vectors))
            want = vandermonde_interpolate(gen, holders)
            if want >> K:
                with pytest.raises(DecodingError):
                    scheme._interpolate(holders, 1)
            else:
                assert scheme._interpolate(holders, 1).message.bits == want
        order = code.field.order
        blocks = [[rng.randrange(order) for _ in range(c)] for _ in range(4)]
        symbol_words = [code.encode(block) for block in blocks] + [
            [rng.randrange(order) for _ in range(n)] for _ in range(4)
        ]
        for symbols in symbol_words:
            pairs = [(s, symbols[s]) for s in servers]
            assert code.decode(pairs) == vandermonde_decode(code, pairs)
