"""Lower-bound formula tests against an independent fixed-point log oracle."""

from fractions import Fraction

import pytest

from oracles import log2_fixed
from mvcode.bounds import (
    BoundParams,
    below_power_of_two,
    gap_factor,
    log2_exact,
    lower_bound_general,
    lower_bound_two_versions,
)
from mvcode.model import hamming_ball_volume

REL_TOL = 2**-40


def close(a: float, b: Fraction) -> bool:
    return abs(Fraction(a) - b) <= abs(b) * REL_TOL


@pytest.mark.parametrize(
    "value",
    [2, 6, 9, 2081, 10**12 + 7, 2**100 + 12345, Fraction(3, 4), Fraction(7, 2**20)],
)
def test_log2_exact_matches_fixed_point_oracle(value):
    expected = (
        log2_fixed(value)
        if isinstance(value, Fraction)
        else log2_fixed(Fraction(value))
    )
    assert close(log2_exact(value), expected)


def test_log2_exact_rejects_nonpositive():
    with pytest.raises(ValueError):
        log2_exact(0)
    with pytest.raises(ValueError):
        log2_exact(Fraction(-1, 2))


def test_general_bound_reference_point():
    # (K + log2 Vol(1,8) - log2(C(3,2)*2!)) / 3 with Vol(1,8) = 9.
    params = BoundParams(n=4, c=2, nu=2, K=8, radius=1)
    expected = (8 + log2_fixed(Fraction(9)) - log2_fixed(Fraction(6))) / 3
    assert close(lower_bound_general(params), expected)
    assert lower_bound_general(params) == pytest.approx(2.8616541669, abs=1e-9)


def test_two_version_bound_reference_point():
    params = BoundParams(n=4, c=2, nu=2, K=8, radius=1)
    expected = (8 + log2_fixed(Fraction(9)) - 1) / 3
    assert close(lower_bound_two_versions(params), expected)


def test_single_version_closed_form():
    # nu=1: (K + log2(1 - eps 2^n) - log2 c) / c.
    params = BoundParams(n=4, c=2, nu=1, K=8, radius=0, epsilon=Fraction(1, 64))
    expected = (8 + log2_fixed(Fraction(3, 4)) - 1) / 2
    assert close(lower_bound_general(params), expected)


def test_epsilon_domain_guard():
    with pytest.raises(ValueError):
        BoundParams(n=4, c=2, nu=2, K=8, radius=1, epsilon=Fraction(1, 256))
    with pytest.raises(ValueError):
        BoundParams(n=4, c=2, nu=2, K=8, radius=1, epsilon=Fraction(-1, 1024))
    ok = BoundParams(n=4, c=2, nu=2, K=8, radius=1, epsilon=Fraction(1, 257))
    assert lower_bound_general(ok) < lower_bound_general(
        BoundParams(n=4, c=2, nu=2, K=8, radius=1)
    )


def test_below_power_of_two_matches_the_fraction_comparison():
    for m in range(6):
        for q in range(1, 2 ** (m + 2)):
            for p in range(q + 1):
                x = Fraction(p, q)
                assert below_power_of_two(x, m) == (x < Fraction(1, 2**m)), (x, m)


def test_epsilon_domain_guard_at_a_huge_exponent():
    # nu*n = 65,536,000: each side of 2^-m is decided, 2^m built only on a
    # bit-length tie
    m = 1000 * 65536

    def params(epsilon):
        return BoundParams(n=65536, c=1, nu=1000, K=8, radius=1, epsilon=epsilon)

    with pytest.raises(ValueError):
        params(Fraction(1, 1 << m))
    assert not below_power_of_two(Fraction(1, 1 << m), m)
    # 1 - epsilon * 2^m
    for ok, survival in (
        (Fraction(1, (1 << m) + 1), Fraction(1, (1 << m) + 1)),
        (Fraction(3, 1 << (m + 2)), Fraction(1, 4)),
    ):
        assert below_power_of_two(ok, m)
        assert params(ok).survival == survival


@pytest.mark.parametrize("c", range(1, 17))
def test_specialized_bound_dominates_general_for_two_versions(c):
    params = BoundParams(n=max(c, 4), c=c, nu=2, K=16, radius=2)
    assert lower_bound_two_versions(params) >= lower_bound_general(params) - 1e-12


def test_bound_monotone_in_K():
    values = [
        lower_bound_general(BoundParams(n=4, c=2, nu=2, K=K, radius=1))
        for K in range(4, 33)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_bound_monotone_in_radius():
    values = [
        lower_bound_general(BoundParams(n=4, c=2, nu=2, K=16, radius=r))
        for r in range(0, 17)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_radius_clamped_at_K():
    a = lower_bound_general(BoundParams(n=4, c=2, nu=2, K=8, radius=8))
    b = lower_bound_general(BoundParams(n=4, c=2, nu=2, K=8, radius=20))
    assert a == b
    assert BoundParams(n=4, c=2, nu=2, K=8, radius=20).ball_volume == 2**8


def test_gap_factor():
    params = BoundParams(n=4, c=2, nu=2, K=8, radius=1)
    bound = lower_bound_general(params)
    assert gap_factor(params, bound) == pytest.approx(1.0)
    assert gap_factor(params, 8.0) > 2.0  # replication is far from optimal


def test_volume_accounting_matches_model():
    params = BoundParams(n=4, c=2, nu=3, K=10, radius=2)
    assert params.ball_volume == hamming_ball_volume(2, 10)
    assert params.survival == 1
