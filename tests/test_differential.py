"""Differential tests pinning the exact-arithmetic paths to the ones they
replaced: big-integer width ceilings and region signs against the snapped
128-bit mpmath oracle, the decimal logarithms against mpmath, and the
folded estimate_epsilon and survey paths against values of the previous
implementation."""

from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    mpmath_evaluate,
    mpmath_log2,
    snapped_ceil_bits,
    snapped_region_slacks,
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
from mvcode.model import CorrelationModel, SystemState

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
# trial loop (sampled) and a sweep without the cell cache.

_K6 = CorrelationModel(6, 1, 2)
_SCHEMES = {
    "binning": make_scheme("binning", _K6, 3, 2, epsilon=Fraction(9, 10), seed=0),
    "latest-only": make_scheme("latest-only", _K6, 3, 2),
}

_ESTIMATES = {
    ("binning", 0, False): (
        500, 3, 0.006, 0.002042596271960236, 0.017490252104053375, 0.25,
    ),
    ("binning", 0, True): (
        1680, 20, 0.011904761904761904, 0.0077196319569201735, 0.018316939711412072, 0.05,
    ),
    ("binning", 5, False): (
        500, 3, 0.006, 0.002042596271960236, 0.017490252104053375, 0.16666666666666666,
    ),
    ("binning", 5, True): (1680, 0, 0.0, 0.0, 0.00228136609926718, 0.0),
    ("latest-only", 0, False): (
        500, 58, 0.116, 0.09081365651103794, 0.1470418369634342, 1.0,
    ),
    ("latest-only", 0, True): (
        1680, 480, 0.2857142857142857, 0.26462019580839047, 0.30778610394843825, 1.0,
    ),
    ("latest-only", 5, False): (
        500, 54, 0.108, 0.08372280963705037, 0.13825467328480662, 1.0,
    ),
    ("latest-only", 5, True): (
        1680, 480, 0.2857142857142857, 0.26462019580839047, 0.30778610394843825, 1.0,
    ),
}


@pytest.mark.parametrize("name,seed,sweep", sorted(_ESTIMATES))
def test_estimate_epsilon_pinned(name, seed, sweep):
    est = estimate_epsilon(
        _SCHEMES[name], trials=20 if sweep else 500, seed=seed, sweep_states=sweep
    )
    assert est.sweep == sweep
    got = (
        est.trials, est.failures, est.rate, est.wilson_lower, est.wilson_upper,
        est.per_state_max,
    )
    assert got == _ESTIMATES[name, seed, sweep]


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
