from __future__ import annotations

import random
import signal
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcode.model import (
    CorrelationModel,
    EnumerationCapExceeded,
    Message,
    SystemState,
    VersionTuple,
    ball_rank,
    ball_unrank,
    enumerate_possible_set,
    format_count,
    hamming_ball_volume,
    iter_ball_masks,
    latest_common_version,
    latest_complete_version,
    sample_tuple,
    tuple_sampler,
)

from oracles import ball_index_bits, ball_volume as oracle_ball_volume


class TestHammingBallVolume:
    def test_center_only(self):
        assert hamming_ball_volume(0, 8) == 1

    def test_whole_space(self):
        assert hamming_ball_volume(8, 8) == 256

    def test_radius_one(self):
        assert hamming_ball_volume(1, 4) == 5

    def test_radius_too_large(self):
        with pytest.raises(ValueError):
            hamming_ball_volume(9, 8)

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_matches_pascal_oracle(self, radius, K):
        if radius > K:
            return
        assert hamming_ball_volume(radius, K) == oracle_ball_volume(radius, K)

    def test_each_volume_is_computed_once(self):
        model = CorrelationModel(K=4000, radius=2000, nu=2)
        first = model.ball_volume()
        hits = hamming_ball_volume.cache_info().hits
        assert model.ball_volume() == first
        assert hamming_ball_volume.cache_info().hits == hits + 1

    def test_index_bits(self):
        # Vol(1, 8) = 9 -> 4 bits; Vol(0, 8) = 1 -> 0 bits.
        assert ball_index_bits(1, 8) == 4
        assert ball_index_bits(0, 8) == 0


class TestMessage:
    def test_equality_is_exact(self):
        assert Message(3, 4) == Message(3, 4)
        assert Message(3, 4) != Message(3, 5)

    def test_range_check(self):
        with pytest.raises(ValueError):
            Message(16, 4)

    def test_distance(self):
        assert Message(0b1010, 4).distance_to(Message(0b0110, 4)) == 2


class TestBallRanking:
    @given(st.integers(1, 16), st.integers(0, (1 << 16) - 1))
    def test_round_trip(self, K, raw):
        mask = raw & ((1 << K) - 1)
        assert ball_unrank(ball_rank(mask, K), K) == mask

    def test_weight_layering(self):
        # All weight-w masks rank below every weight-(w+1) mask.
        K = 6
        ranks_by_weight = {}
        for mask in range(1 << K):
            ranks_by_weight.setdefault(mask.bit_count(), []).append(
                ball_rank(mask, K)
            )
        for w in range(K):
            assert max(ranks_by_weight[w]) < min(ranks_by_weight[w + 1])

    def test_dense_in_ball(self):
        # Ranks of a radius-r ball fill exactly range(Vol(r, K)).
        K, r = 5, 2
        ranks = sorted(ball_rank(m, K) for m in iter_ball_masks(K, r))
        assert ranks == list(range(hamming_ball_volume(r, K)))


class TestSampling:
    def test_fixed_seed_is_deterministic(self):
        model = CorrelationModel(K=8, radius=2, nu=3)
        assert sample_tuple(model, 1234) == sample_tuple(model, 1234)

    # Draws computed before the samplers called getrandbits alone: K=64
    # draws multi-word getrandbits, radius 4 = K flips up to K bits.
    PINNED_DRAWS = {
        (8, 1, 2): [(216, 152), (34, 50), (244, 244), (60, 56)],
        (64, 3, 3): [
            (7106521602475165645, 16329893639330072557, 12871129125576640493),
            (10499958131665514997, 10499958127370547445, 9347041020877320437),
            (15921556852572072307, 15921556852605624627, 15921555203338051891),
            (10932295209482665981, 9779373704892530685, 10932296858766819325),
        ],
        (4, 4, 3): [(13, 6, 9), (2, 6, 14), (15, 14, 10), (3, 7, 8)],
        (8, 2, 1): [(216,), (34,), (244,), (60,)],
    }

    @pytest.mark.parametrize("params", PINNED_DRAWS)
    def test_draws_are_pinned(self, params):
        model = CorrelationModel(*params)
        got = [
            tuple(m.bits for m in sample_tuple(model, seed).versions)
            for seed in range(4)
        ]
        assert got == self.PINNED_DRAWS[params]

    def test_sampler_set_up_sums_the_ball_volumes_in_one_pass(self):
        # one ball volume per weight took 8.6 s at K = radius = 4096
        def ring(signum, frame):
            raise TimeoutError("tuple_sampler set-up outran its alarm")

        previous = signal.signal(signal.SIGALRM, ring)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            draw = tuple_sampler(CorrelationModel(4096, 4096, 2))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        first, second = draw(random.Random(0).getrandbits)
        assert max(first, second).bit_length() <= 4096

    def test_radius_zero_keeps_versions_identical(self):
        model = CorrelationModel(K=6, radius=0, nu=4)
        t = sample_tuple(model, 7)
        assert len(set(m.bits for m in t.versions)) == 1

    def test_consecutive_distances_respect_radius(self):
        model = CorrelationModel(K=10, radius=2, nu=3)
        rng = random.Random(99)
        for _ in range(10_000):
            t = sample_tuple(model, rng)
            assert all(d <= 2 for d in t.consecutive_distances())

    def test_full_radius_successor_is_uniform(self):
        # With radius = K the successor covers the whole space; chi-squared
        # goodness of fit over 10^5 draws at 1% significance, the p-value
        # the regularised upper incomplete gamma Q(k/2, x/2) at k = 15
        # degrees of freedom.
        model = CorrelationModel(K=4, radius=4, nu=2)
        rng = random.Random(2024)
        counts = [0] * 16
        for _ in range(100_000):
            t = sample_tuple(model, rng)
            counts[t.version(2).bits] += 1
        expected = sum(counts) / len(counts)
        statistic = sum((k - expected) ** 2 for k in counts) / expected
        dof = len(counts) - 1
        assert mpmath.gammainc(dof / 2, statistic / 2, regularized=True) > 0.01


class TestEnumeration:
    def test_radius_zero_pairs(self):
        model = CorrelationModel(K=2, radius=0, nu=2)
        tuples = list(enumerate_possible_set(model))
        assert len(tuples) == 4
        assert all(t.version(1) == t.version(2) for t in tuples)

    def test_count_small(self):
        model = CorrelationModel(K=3, radius=1, nu=2)
        assert sum(1 for _ in enumerate_possible_set(model)) == 32

    def test_count_three_versions_vs_brute_force(self):
        model = CorrelationModel(K=3, radius=1, nu=3)
        enumerated = set(enumerate_possible_set(model))
        brute = set()
        for a, b, c in product(range(8), repeat=3):
            if (a ^ b).bit_count() <= 1 and (b ^ c).bit_count() <= 1:
                brute.add(VersionTuple(tuple(Message(v, 3) for v in (a, b, c))))
        assert enumerated == brute
        assert len(enumerated) == 128

    def test_counts_match_formula_on_grid(self):
        for K in range(1, 9):
            for radius in range(0, min(K, 2) + 1):
                for nu in (1, 2, 3):
                    model = CorrelationModel(K=K, radius=radius, nu=nu)
                    expected = model.tuple_count()
                    if expected > 1 << 19:
                        continue
                    assert sum(1 for _ in enumerate_possible_set(model)) == expected

    def test_cap_refusal_reports_estimate(self):
        model = CorrelationModel(K=8, radius=2, nu=3)
        with pytest.raises(EnumerationCapExceeded) as err:
            list(enumerate_possible_set(model, cap=1000))
        assert err.value.estimate == model.tuple_count()

    def test_counts_past_64_bits_print_as_magnitudes(self):
        assert format_count((1 << 64) - 1) == str((1 << 64) - 1)
        assert format_count(1 << 64) == "2^64"
        assert format_count(3 << 100) == "2^101.58"
        # str() of a 16,000-bit int raises ValueError past 4300 digits
        err = EnumerationCapExceeded(3 << 16000, 1 << 24)
        assert str(err) == (
            "enumeration would visit about 2^16001.58 elements, cap is 16777216"
        )
        assert err.estimate == 3 << 16000


def _completions(model, fixed, targets=None):
    """Values of ``targets`` (default: the unfixed versions) across every
    admissible tuple agreeing with ``fixed``: a plain filter of the full
    enumeration, with no chain or gap logic of its own."""
    if targets is None:
        targets = [u for u in range(1, model.nu + 1) if u not in fixed]
    return {
        tuple(t.version(u).bits for u in targets)
        for t in enumerate_possible_set(model)
        if all(t.version(u) == w for u, w in fixed.items())
    }


class TestConditionalEnumeration:
    """The chain facts a binning decode plan relies on: a version between
    two known ones lies within one step of both, and a version k steps
    past a known one lies in the ball of radius k*r around it."""

    def test_single_fixed_neighbor(self):
        model = CorrelationModel(K=4, radius=1, nu=2)
        completions = _completions(model, {1: Message(0b0110, 4)})
        assert len(completions) == 5
        assert all((w2 ^ 0b0110).bit_count() <= 1 for (w2,) in completions)

    def test_midpoints_between_two_fixed(self):
        model = CorrelationModel(K=4, radius=1, nu=3)
        fixed = {1: Message(0b0000, 4), 3: Message(0b0011, 4)}
        assert sorted(_completions(model, fixed)) == [(0b0001,), (0b0010,)]

    def test_fix_nothing_equals_full_enumeration(self):
        model = CorrelationModel(K=2, radius=1, nu=2)
        want = {
            (a, b) for a, b in product(range(4), repeat=2) if (a ^ b).bit_count() <= 1
        }
        assert _completions(model, {}) == want

    def test_against_brute_force_filter(self):
        model = CorrelationModel(K=4, radius=1, nu=3)
        w1 = Message(0b1100, 4)
        w3 = Message(0b1101, 4)
        want = {
            (b,)
            for b in range(16)
            if (b ^ w1.bits).bit_count() <= 1 and (b ^ w3.bits).bit_count() <= 1
        }
        assert _completions(model, {1: w1, 3: w3}) == want

    def test_existential_gap(self):
        # Ask only for w3 given w1; w2 is quantified away, so the answer is
        # the ball of composed radius 2*r around w1.
        model = CorrelationModel(K=4, radius=1, nu=3)
        w1 = Message(0b0000, 4)
        got = _completions(model, {1: w1}, targets=[3])
        want = {
            (b3,)
            for b3 in range(16)
            if any(
                (w1.bits ^ b2).bit_count() <= 1 and (b2 ^ b3).bit_count() <= 1
                for b2 in range(16)
            )
        }
        assert got == want
        assert got == {(mask,) for mask in iter_ball_masks(4, 2)}

    def test_inconsistent_fixed_pair_yields_nothing(self):
        model = CorrelationModel(K=4, radius=1, nu=2)
        fixed = {1: Message(0b0000, 4), 2: Message(0b1111, 4)}
        assert _completions(model, fixed) == set()


class TestSystemState:
    def test_latest_complete(self):
        state = SystemState((frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2})))
        assert latest_complete_version(state.per_server, 3) == 2

    def test_incomplete_newer_version(self):
        state = SystemState((frozenset({1, 2}), frozenset({1, 2}), frozenset({1})))
        assert latest_complete_version(state.per_server, 3) == 1

    def test_write_quorum_outside_one_to_n_rejected(self):
        state = SystemState((frozenset({1}), frozenset({1}), frozenset()))
        for c_w in (-1, 0, 4):
            with pytest.raises(ValueError, match="c_w must lie in"):
                latest_complete_version(state.per_server, c_w)
        assert latest_complete_version(state.per_server, 1) == 1

    def test_nothing_complete(self):
        state = SystemState((frozenset({1}), frozenset(), frozenset()))
        assert latest_complete_version(state.per_server, 2) is None

    def test_latest_common(self):
        state = SystemState((frozenset({1, 3}), frozenset({2, 3})))
        assert latest_common_version(state.per_server) == 3

    def test_disjoint_common(self):
        state = SystemState((frozenset({1}), frozenset({2})))
        assert latest_common_version(state.per_server) is None

    def test_single_server(self):
        state = SystemState((frozenset({1, 2}),))
        assert latest_common_version(state.per_server) == 2

    def test_zero_version_rejected_among_many_equal_rows(self):
        # distinct rows are checked once each; the one bad row still counts
        rows = (frozenset({1, 2}),) * 7000 + (frozenset({0, 1}),)
        with pytest.raises(ValueError, match="1-based"):
            SystemState(rows)

    def test_quorum_overlap_gives_common_version(self):
        # Whenever the write and read quorums overlap in c servers, some
        # c-subset of any read set shares the latest complete version.
        from itertools import combinations

        nu = 2
        for n, c_w, c_r in ((4, 3, 3), (5, 3, 4), (5, 4, 4)):
            c = c_w + c_r - n
            assert c >= 1
            subsets = [frozenset(s) for s in _all_subsets(range(1, nu + 1))]
            for assignment in product(subsets, repeat=n):
                state = SystemState(tuple(assignment))
                ls = latest_complete_version(state.per_server, c_w)
                if ls is None:
                    continue
                for T in combinations(range(n), c_r):
                    best = max(
                        (
                            latest_common_version([assignment[t] for t in U]) or 0
                            for U in combinations(T, c)
                        ),
                        default=0,
                    )
                    assert best >= ls


def _all_subsets(items):
    items = list(items)
    out = []
    for mask in range(1 << len(items)):
        out.append({items[i] for i in range(len(items)) if (mask >> i) & 1})
    return out
