"""Random-bin code tests: frozen rate numerics, exact region checks, decoder
equivalence against blind enumeration, and seeded statistical checks."""

import functools
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    even_parity_monte_carlo,
    even_parity_probability,
    log2_fixed,
    rate_region_check,
    rate_term,
    scenario_rates,
    set_plan_decode,
    wilson_upper,
)
from mvcode import binning as binning_module
from mvcode.binning import (
    BinningCodebook,
    BinningScheme,
    PossibleSetOutcome,
    RateAllocation,
    binary_entropy,
    binning_worst_case_cost,
    check_table_bits,
    empirical_error_survey,
    example1_rate_comparison,
    possible_set_decode,
    sample_tuples,
    seed_search,
)
from mvcode.model import (
    DEFAULT_ENUMERATION_CAP,
    CorrelationModel,
    EnumerationCapExceeded,
    Message,
    SystemState,
    VersionTuple,
    enumerate_possible_set,
    hamming_ball_volume,
    iter_states,
    latest_common_version,
    sample_tuple,
)
from mvcode.schemes import _RAISED, DecodingError, MvcScheme, StoredSymbol, make_scheme
from mvcode.verifier import _exhaustive_run, verify_requirement_A

# The reference configuration most frozen numbers below belong to.
REF_MODEL = CorrelationModel(8, 1, 2)
REF_N, REF_C = 4, 2
REF_EPS = Fraction(1, 4)


def ref_allocation() -> RateAllocation:
    return RateAllocation(REF_MODEL, REF_N, REF_C, REF_EPS)


# ---------------------------------------------------------------------------
# Rate allocation


def test_reference_widths_frozen():
    alloc = ref_allocation()

    def rate(got, u):
        return alloc.evaluate(rate_term(alloc, got, u))

    # safety term: nu*n - log2(eps) = 8 + 2 = 10 bits
    assert alloc.union_share == Fraction(1, 1024)
    # first received v1: (8 + 10) / 2 = 9 exactly
    assert rate((1, 2), 1) == 9.0
    assert alloc.index_widths((1, 2)) == {1: 9, 2: 8}
    assert alloc.index_bits((2,), 2) == 12
    assert alloc.storage_bits((1, 2)) == 17
    # v2 after v1: (log2(9) + 1 + 10) / 2; v2 first: (8 + log2(9) + 1 + 10) / 2
    log9 = float(log2_fixed(Fraction(9)))
    assert rate((1, 2), 2) == pytest.approx((log9 + 11) / 2, rel=1e-12)
    assert rate((2,), 2) == pytest.approx((log9 + 19) / 2, rel=1e-12)
    assert alloc.ceiling_slack((1, 2)) == pytest.approx(
        17 - 9 - (log9 + 11) / 2, rel=1e-9
    )


def test_allocation_validation():
    with pytest.raises(ValueError):
        RateAllocation(REF_MODEL, REF_N, REF_C, Fraction(0))
    with pytest.raises(ValueError):
        RateAllocation(REF_MODEL, REF_N, REF_C, Fraction(1))
    with pytest.raises(ValueError):
        RateAllocation(REF_MODEL, 2, 3, REF_EPS)
    alloc = ref_allocation()
    with pytest.raises(ValueError):
        alloc.index_bits((1,), 2)
    with pytest.raises(ValueError):
        alloc.index_bits((0, 1), 1)


@pytest.mark.parametrize(
    "K,radius,nu,n,c",
    [(8, 1, 2, 4, 2), (6, 2, 3, 3, 2), (10, 1, 4, 5, 3), (5, 0, 3, 2, 1)],
)
def test_matrix_columns_is_the_width_ceiling(K, radius, nu, n, c):
    alloc = RateAllocation(CorrelationModel(K, radius, nu), n, c, Fraction(1, 3))
    widest = 0
    for size in range(1, nu + 1):
        for got in combinations(range(1, nu + 1), size):
            for u in got:
                widest = max(widest, alloc.index_bits(got, u))
    assert widest == alloc.matrix_columns


def test_volume_log_subadditivity_exact():
    # log Vol(m*r, K) <= m * log Vol(r, K), as integers: Vol(mr,K) <= Vol(r,K)^m
    for K in range(1, 17):
        for r in range(1, K + 1):
            for m in range(2, K // r + 1):
                assert hamming_ball_volume(m * r, K) <= hamming_ball_volume(r, K) ** m


# ---------------------------------------------------------------------------
# Parity lemma


def test_even_parity_closed_form_values():
    assert even_parity_probability(Fraction(1, 4), 2, 1) == 0.625
    for M in (1, 3, 7):
        assert even_parity_probability(Fraction(1, 2), 3, M) == 0.5**M
    assert even_parity_probability(Fraction(1, 3), 1, 1) == pytest.approx(2 / 3)
    assert even_parity_probability(0.25, 0, 5) == 1.0
    with pytest.raises(ValueError):
        even_parity_probability(Fraction(3, 2), 1, 1)


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)])
@pytest.mark.parametrize("w,M", [(2, 1), (2, 2), (3, 2)])
def test_even_parity_matches_exhaustive_expectation(p, w, M):
    # Sum the probability of every 0/1 matrix whose columns all have even
    # parity; exact rational arithmetic, independent of the closed form.
    total = Fraction(0)
    for bits in range(1 << (w * M)):
        cells = [(bits >> j) & 1 for j in range(w * M)]
        weight = sum(cells)
        prob = p**weight * (1 - p) ** (w * M - weight)
        if all(sum(cells[col * w : (col + 1) * w]) % 2 == 0 for col in range(M)):
            total += prob
    assert even_parity_probability(p, w, M) == pytest.approx(float(total), rel=1e-12)


def test_even_parity_monte_carlo_agrees():
    exact = 0.625
    est = even_parity_monte_carlo(Fraction(1, 4), 2, 1, trials=10_000, seed=11)
    sigma = math.sqrt(exact * (1 - exact) / 10_000)
    assert abs(est - exact) <= 3 * sigma


def test_linear_collision_rate_matches_lemma():
    # Collision of two distinct values under the linear map is an even-parity
    # event on their difference's rows; empirical rate vs 2^-M over fresh
    # matrix draws.
    K, M, draws = 8, 6, 10_000
    model = CorrelationModel(K, 1, 1)
    rng = random.Random(20240817)
    hits = 0
    for trial in range(draws):
        codebook = BinningCodebook("linear", trial, model, 1, M)
        diff = rng.randrange(1, 1 << K)
        if codebook.index_of(0, 1, diff, M) == 0:
            hits += 1
    expected = 2.0**-M
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(hits / draws - expected) <= 3 * sigma


# ---------------------------------------------------------------------------
# Codebooks and bin indices

UNIFORM_CB = BinningCodebook.create(REF_MODEL, REF_N, REF_C, REF_EPS, seed=9)
LINEAR_CB = BinningCodebook.create(
    REF_MODEL, REF_N, REF_C, REF_EPS, kind="linear", seed=9
)


def test_bin_index_trivia():
    zero = Message(0, 8)
    assert LINEAR_CB.index_of(0, 1, zero.bits, 9) == 0
    assert LINEAR_CB.index_of(1, 2, 0xA7, 0) == 0
    w = Message(0x5C, 8)
    assert UNIFORM_CB.index_of(2, 1, w.bits, 9) == UNIFORM_CB.index_of(2, 1, w.bits, 9)
    with pytest.raises(ValueError):
        UNIFORM_CB.index_of(0, 1, w.bits, UNIFORM_CB.capacity + 1)
    with pytest.raises(ValueError):
        UNIFORM_CB.index_of(REF_N, 1, w.bits, 4)


@settings(max_examples=200, deadline=None)
@given(
    linear=st.booleans(),
    server=st.integers(0, REF_N - 1),
    version=st.integers(1, 2),
    bits=st.integers(0, 12),
    value=st.integers(0, 255),
)
def test_truncation_is_a_prefix(linear, server, version, bits, value):
    codebook = LINEAR_CB if linear else UNIFORM_CB
    w = Message(value, 8)
    full = codebook.index_of(server, version, w.bits, codebook.capacity)
    assert codebook.index_of(server, version, w.bits, bits) == full & ((1 << bits) - 1)


@pytest.mark.parametrize("kind", ["random-uniform", "linear"])
def test_index_of_reads_the_decode_table(kind):
    # encodes (index_of) and decodes (index_table) must bin every value
    # alike; two fresh codebooks keep the two from sharing a cache
    encoder, decoder = (
        BinningCodebook.create(REF_MODEL, REF_N, REF_C, REF_EPS, kind=kind, seed=9)
        for _ in range(2)
    )
    for t in range(REF_N):
        for u in (1, 2):
            encoded = [encoder.index_of(t, u, w, encoder.capacity) for w in range(256)]
            assert encoded == decoder.index_table(t, u)


_TABLE_LIMIT = "binning decodes need K <= 16 (index tables of 2^K entries), got K=18"


def test_codebooks_beyond_table_range():
    model = CorrelationModel(18, 1, 2)
    w = Message(0x2ABCD, 18)
    # a random-uniform codebook is its index table, which K=18 cannot have
    uniform = BinningCodebook.create(model, 3, 2, REF_EPS, seed=4)
    with pytest.raises(ValueError) as err:
        uniform.index_of(0, 1, w.bits, uniform.capacity)
    assert str(err.value) == _TABLE_LIMIT
    with pytest.raises(ValueError) as err:
        uniform.index_table(0, 1)
    assert str(err.value) == _TABLE_LIMIT
    # a linear one encodes from its row masks at any K
    codebook = BinningCodebook.create(model, 3, 2, REF_EPS, kind="linear", seed=4)
    full = codebook.index_of(0, 1, w.bits, codebook.capacity)
    assert codebook.index_of(0, 1, w.bits, 5) == full & 31
    again = BinningCodebook.create(model, 3, 2, REF_EPS, kind="linear", seed=4)
    assert again.index_of(0, 1, w.bits, codebook.capacity) == full
    other = BinningCodebook.create(model, 3, 2, REF_EPS, kind="linear", seed=5)
    assert other.index_of(0, 1, w.bits, codebook.capacity) != full
    with pytest.raises(ValueError) as err:
        codebook.index_table(0, 1)
    assert str(err.value) == _TABLE_LIMIT


def test_codebooks_refuse_index_tables_past_the_bit_limit():
    # 4 * 2 tables of 2^8 entries of 2^19 bits fill the limit exactly
    check_table_bits(4, 2, 8, 1 << 19)
    wide = (1 << 19) + 1
    limit = (
        f"binning index tables of 4*2*2^8 entries of {wide} bits hold "
        f"{(8 * wide) << 8} bits, over the limit of 2^30"
    )
    for kind in ("random-uniform", "linear"):
        codebook = BinningCodebook(kind, 0, REF_MODEL, REF_N, wide)
        with pytest.raises(ValueError) as err:
            codebook.index_table(0, 1)
        assert str(err.value) == limit
        assert not codebook._maps  # refused before drawing anything
    uniform = BinningCodebook("random-uniform", 0, REF_MODEL, REF_N, wide)
    with pytest.raises(ValueError) as err:
        uniform.index_of(0, 1, 0xB5, 8)
    assert str(err.value) == limit


def test_unknown_codebook_kind_rejected():
    with pytest.raises(ValueError):
        BinningCodebook("affine", 0, REF_MODEL, REF_N, 12)


# ---------------------------------------------------------------------------
# Possible-set decoding


def test_decode_round_trip_reference_point():
    state = SystemState((frozenset({1, 2}),) * REF_N)
    alloc = ref_allocation()
    vt = VersionTuple((Message(0xB5, 8), Message(0xB7, 8)))
    indices = {
        t: {
            u: UNIFORM_CB.index_of(
                t, u, vt.version(u).bits, alloc.index_bits((1, 2), u)
            )
            for u in (1, 2)
        }
        for t in range(REF_N)
    }
    for T in combinations(range(REF_N), REF_C):
        out = possible_set_decode(UNIFORM_CB, alloc, T, state, indices)
        assert out.status == PossibleSetOutcome.DECODED
        assert out.version == 2 and out.message == vt.version(2)
        assert out.version >= latest_common_version(
            [state.per_server[t] for t in T]
        )


def test_decode_no_common_version():
    state = SystemState((frozenset({1}), frozenset({2}), frozenset(), frozenset()))
    out = possible_set_decode(UNIFORM_CB, ref_allocation(), (0, 1), state, {})
    assert out.status == PossibleSetOutcome.NO_COMMON
    assert out.message is None


def test_decode_missing_index_is_a_usage_error():
    state = SystemState((frozenset({1}),) * REF_N)
    with pytest.raises(ValueError, match="server 0 version 1$"):
        possible_set_decode(UNIFORM_CB, ref_allocation(), (0, 1), state, {0: {}, 1: {}})
    # one index left out of an otherwise complete set is named exactly
    state = SystemState((frozenset({1, 2}),) * REF_N)
    alloc = ref_allocation()
    vt = VersionTuple((Message(0x4D, 8), Message(0x4F, 8)))
    widths = alloc.index_widths((1, 2))
    indices = {
        t: {u: UNIFORM_CB.index_of(t, u, vt.version(u).bits, widths[u]) for u in (1, 2)}
        for t in (1, 3)
    }
    del indices[3][2]
    with pytest.raises(ValueError, match="for server 3 version 2$"):
        possible_set_decode(UNIFORM_CB, alloc, (1, 3), state, indices)


# A K=16, radius-3 plan enumerates 2^16 * Vol(3, 16) = 2^16 * 697 values,
# over the default cap of 2^24.
_OVER_CAP_MODEL = CorrelationModel(16, 3, 2)
_OVER_CAP_ESTIMATE = (1 << 16) * 697


def _decode_over_cap(codebook, alloc):
    state = SystemState((frozenset({1, 2}),) * REF_N)
    with pytest.raises(EnumerationCapExceeded) as err:
        possible_set_decode(codebook, alloc, (0, 1), state, {})
    assert (err.value.estimate, err.value.cap) == (
        _OVER_CAP_ESTIMATE,
        DEFAULT_ENUMERATION_CAP,
    )


def test_decode_enumeration_cap():
    _decode_over_cap(
        BinningCodebook.create(_OVER_CAP_MODEL, REF_N, REF_C, REF_EPS),
        RateAllocation(_OVER_CAP_MODEL, REF_N, REF_C, REF_EPS),
    )


@functools.lru_cache(maxsize=None)
def _admissible_values(model):
    return tuple(
        tuple(m.bits for m in vt.versions) for vt in enumerate_possible_set(model)
    )


def _blind_reference_outcome(codebook, alloc, T, state, indices):
    """Independent decoder: keep every admissible tuple whose indices match
    the stored ones, with no chain or gap logic of its own.  Returns
    (status, version, message, reason) as the decoder reports them."""
    model = codebook.model
    u_L = latest_common_version([state.per_server[t] for t in T])
    if u_L is None:
        return "no-common", None, None, "no version common to T"
    checks = []
    for t in T:
        got = tuple(sorted(state.per_server[t]))
        for u in got:
            if u <= u_L:
                width = alloc.index_bits(got, u)
                checks.append((t, u, width, indices[t][u] & ((1 << width) - 1)))
    finals = {
        values[u_L - 1]
        for values in _admissible_values(model)
        if all(
            codebook.index_of(t, u, values[u - 1], width) == target
            for t, u, width, target in checks
        )
    }
    if len(finals) == 1:
        return "decoded", u_L, Message(next(iter(finals)), model.K), ""
    if finals:
        reason = "stored indices leave the newest common version ambiguous"
    else:
        reason = "no admissible assignment matches the stored indices"
    return "error", None, None, reason


def _blind_reference_decode(codebook, alloc, T, state, indices):
    status, _version, message, _reason = _blind_reference_outcome(
        codebook, alloc, T, state, indices
    )
    return status, message


def test_decoder_matches_blind_enumeration():
    model = CorrelationModel(5, 1, 3)
    n, c = 3, 2
    # epsilon close to 1 keeps indices short so both branches appear
    alloc = RateAllocation(model, n, c, Fraction(9, 10))
    codebook = BinningCodebook.create(model, n, c, alloc.epsilon, seed=21)
    rng = random.Random(77)
    seen = {"decoded": 0, "error": 0}
    gapped = 0
    for trial in range(60):
        state = SystemState(
            tuple(
                frozenset(u for u in range(1, 4) if rng.random() < 0.6)
                for _ in range(n)
            )
        )
        vt = sample_tuple(model, rng)
        indices = {}
        for t in range(n):
            got = tuple(sorted(state.per_server[t]))
            indices[t] = {
                u: codebook.index_of(t, u, vt.version(u).bits, alloc.index_bits(got, u))
                for u in got
            }
        if trial % 3 == 2 and indices[0]:
            u = min(indices[0])
            indices[0][u] ^= 1  # corrupt one stored index
        T = tuple(sorted(rng.sample(range(n), c)))
        if latest_common_version([state.per_server[t] for t in T]) is None:
            continue
        # a reader holding {1, 3} steps over version 2 at the composed radius
        gapped += any(state.per_server[t] == {1, 3} for t in T)
        expected_status, expected_msg = _blind_reference_decode(
            codebook, alloc, T, state, indices
        )
        out = possible_set_decode(codebook, alloc, T, state, indices)
        assert out.status == expected_status
        if expected_status == "decoded":
            assert out.message == expected_msg
        seen[expected_status] += 1
    assert seen["decoded"] > 0 and seen["error"] > 0
    assert gapped > 0


def test_plans_are_built_once_per_reader_view(monkeypatch):
    # The anchor has 42 distinct (reading set, rows) views with a common
    # version; exhaustive verification decodes 96,768 times through them.
    built = []
    build = binning_module._build_plan

    def counting(*args):
        built.append(args[2:])
        return build(*args)

    monkeypatch.setattr(binning_module, "_build_plan", counting)
    scheme = make_scheme("binning", REF_MODEL, REF_N, REF_C, epsilon=REF_EPS, seed=0)
    report = verify_requirement_A(scheme, mode="exhaustive")
    assert len(built) == len(set(built)) == 42
    assert (report.attempts, report.failure_count) == (1548288, 864)
    assert report.per_state_max_error == 0.0078125


def test_cached_plan_still_honours_the_cap():
    codebook = BinningCodebook.create(_OVER_CAP_MODEL, REF_N, REF_C, REF_EPS, seed=9)
    alloc = RateAllocation(_OVER_CAP_MODEL, REF_N, REF_C, REF_EPS)
    _decode_over_cap(codebook, alloc)
    assert len(codebook._plans) == 1
    _decode_over_cap(codebook, alloc)  # the plan is cached now
    assert len(codebook._plans) == 1


class _UnreadTuples:
    """A tuple list that fails on any use."""

    def __len__(self, *_):
        raise AssertionError("tuples read")

    __iter__ = __getitem__ = __len__


def test_batch_honours_the_cap_before_building_arrays(monkeypatch):
    def no_batch(*args):
        raise AssertionError("survivor arrays built")

    monkeypatch.setattr(binning_module, "_run_plan", no_batch)
    codebook = BinningCodebook.create(_OVER_CAP_MODEL, REF_N, REF_C, REF_EPS, seed=9)
    scheme = BinningScheme.over(
        codebook, RateAllocation(_OVER_CAP_MODEL, REF_N, REF_C, REF_EPS)
    )
    state = SystemState((frozenset({1, 2}),) * REF_N)
    for _ in range(2):  # a new plan, then the cached one
        with pytest.raises(EnumerationCapExceeded) as err:
            scheme.cell_codes((0, 1), state.per_server[:2], _UnreadTuples(), {})
        assert (err.value.estimate, err.value.cap) == (
            _OVER_CAP_ESTIMATE,
            DEFAULT_ENUMERATION_CAP,
        )
        assert len(codebook._plans) == 1


def _batch_against_loop(scheme, tuples):
    """Check the batch codes of every live read view against the per-tuple
    loop, and return every code seen."""
    seen, views = set(), set()
    batch_cache, loop_cache = {}, {}
    for state in iter_states(scheme.n, scheme.model.nu):
        for T in combinations(range(scheme.n), scheme.c):
            rows = [state.per_server[t] for t in T]
            view = scheme.read_view(T, rows)
            if latest_common_version(rows) is None or view in views:
                continue
            views.add(view)
            got = scheme.cell_codes(T, rows, tuples, batch_cache)
            want = MvcScheme.cell_codes(scheme, T, rows, tuples, loop_cache)
            assert got == want, (T, state.key())
            seen.update(got)
    return seen


class _FixedWidths(RateAllocation):
    """Test override: hand-picked index widths instead of the rate formula."""

    WIDTHS = {1: 3, 2: 16}

    def index_bits(self, received, u):
        return self.WIDTHS[u]


def test_agreeing_survivors_decode_despite_older_ambiguity():
    # With an unconstrained step (radius = K) and a deliberately short index
    # on the older version, many values of version 1 match its stored index,
    # but they all chain to the same version-2 value: that still counts as
    # success.
    model = CorrelationModel(8, 8, 2)
    alloc = _FixedWidths(model, 1, 1, Fraction(1, 2))
    state = SystemState((frozenset({1, 2}),))
    vt = VersionTuple((Message(0x3C, 8), Message(0xC3, 8)))
    for seed in range(10):
        codebook = BinningCodebook("random-uniform", seed, model, 1, 16)
        indices = {
            0: {
                u: codebook.index_of(
                    0, u, vt.version(u).bits, alloc.index_bits(None, u)
                )
                for u in (1, 2)
            }
        }
        out = possible_set_decode(codebook, alloc, (0,), state, indices)
        if out.status == PossibleSetOutcome.DECODED:
            break
    else:
        pytest.fail("no seed decoded")
    width = alloc.index_bits(None, 1)
    older = [
        w
        for w in range(1 << model.K)
        if codebook.index_of(0, 1, w, width) == indices[0][1]
    ]
    assert len(older) >= 2
    assert (out.version, out.message) == (2, vt.version(2))


class _ShortChainWidths(_FixedWidths):
    """Indices short enough at nu=3 that a two-step chain reaches one newest
    value along several paths, and random indices often match nothing."""

    WIDTHS = {1: 2, 2: 2, 3: 3}


def test_decoder_outcomes_match_the_blind_oracle():
    # Every state and reading set, once with honestly encoded indices of a
    # sampled tuple and once with uniformly random stored indices.
    model = CorrelationModel(4, 1, 3)
    n, c = 3, 2
    alloc = _ShortChainWidths(model, n, c, Fraction(1, 2))
    codebook = BinningCodebook("random-uniform", 5, model, n, 3)
    rng = random.Random(8)
    seen = set()
    for state in iter_states(n, model.nu):
        for T in combinations(range(n), c):
            vt = sample_tuple(model, rng)
            honest = {
                t: {
                    u: codebook.index_of(t, u, vt.version(u).bits, alloc.WIDTHS[u])
                    for u in state.per_server[t]
                }
                for t in range(n)
            }
            noise = {
                t: {u: rng.getrandbits(alloc.WIDTHS[u]) for u in state.per_server[t]}
                for t in range(n)
            }
            for indices in (honest, noise):
                expected = _blind_reference_outcome(codebook, alloc, T, state, indices)
                out = possible_set_decode(codebook, alloc, T, state, indices)
                assert (out.status, out.version, out.message, out.reason) == expected
                seen.add(expected[3] or expected[0])
    assert seen == {
        "decoded",
        "no version common to T",
        "stored indices leave the newest common version ambiguous",
        "no admissible assignment matches the stored indices",
    }


def _honest_indices(codebook, alloc, state, vt):
    return {
        t: {
            u: codebook.index_of(t, u, vt.version(u).bits, alloc.index_bits(got, u))
            for u in got
        }
        for t, got in enumerate(state.per_server)
    }


def _noise_indices(alloc, state, rng):
    return {
        t: {u: rng.getrandbits(alloc.index_bits(got, u)) for u in got}
        for t, got in enumerate(state.per_server)
    }


def _against_the_set_runner(codebook, alloc, T, state, indices):
    expected = set_plan_decode(codebook, alloc, T, state, indices)
    out = possible_set_decode(codebook, alloc, T, state, indices)
    assert (out.status, out.version, out.message, out.reason) == expected
    return expected[3] or expected[0]


@pytest.mark.parametrize("kind", ["linear", "random-uniform"])
def test_runner_matches_the_set_runner_on_every_anchor_view(kind):
    # Honest indices of sampled tuples and uniformly random ones, which at
    # the anchor's 8- to 12-bit widths often name an index no value has.
    codebook = BinningCodebook.create(REF_MODEL, REF_N, REF_C, REF_EPS, kind, seed=0)
    alloc = ref_allocation()
    tuples = sample_tuples(REF_MODEL, 4, 0)
    rng = random.Random(3)
    views, seen = set(), set()
    for state in iter_states(REF_N, REF_MODEL.nu):
        for T in combinations(range(REF_N), REF_C):
            view = (T, tuple(state.per_server[t] for t in T))
            if latest_common_version(view[1]) is None or view in views:
                continue
            views.add(view)
            for vt in tuples:
                indices = _honest_indices(codebook, alloc, state, vt)
                seen.add(_against_the_set_runner(codebook, alloc, T, state, indices))
                indices = _noise_indices(alloc, state, rng)
                seen.add(_against_the_set_runner(codebook, alloc, T, state, indices))
    assert len(views) == 42
    assert {"decoded", "no admissible assignment matches the stored indices"} <= seen


@pytest.mark.parametrize("kind", ["linear", "random-uniform"])
def test_runner_matches_the_set_runner_on_the_blind_oracle_grid(kind):
    model = CorrelationModel(4, 1, 3)
    n, c = 3, 2
    alloc = _ShortChainWidths(model, n, c, Fraction(1, 2))
    codebook = BinningCodebook(kind, 5, model, n, 3)
    rng = random.Random(8)
    seen = set()
    for state in iter_states(n, model.nu):
        for T in combinations(range(n), c):
            vt = sample_tuple(model, rng)
            for indices in (
                _honest_indices(codebook, alloc, state, vt),
                _noise_indices(alloc, state, rng),
            ):
                seen.add(_against_the_set_runner(codebook, alloc, T, state, indices))
    assert len(seen) == 4


@pytest.mark.parametrize("layer", [0, 1])
def test_an_index_no_value_has_leaves_no_survivor(layer):
    # The stored index of one check is replaced by the index just below the
    # honest one, which no value has: its insertion point is the honest
    # index's key, so a lookup that returned it would decode the tuple.
    codebook = BinningCodebook.create(REF_MODEL, REF_N, REF_C, REF_EPS, seed=0)
    alloc = ref_allocation()
    state = SystemState((frozenset({1, 2}),) * REF_N)
    T = (0, 1)
    t, u = T[0], layer + 1
    width = alloc.index_bits((1, 2), u)
    held = {index & ((1 << width) - 1) for index in codebook.index_table(t, u)}
    for vt in sample_tuples(REF_MODEL, 64, 0):
        indices = _honest_indices(codebook, alloc, state, vt)
        honest = indices[t][u]
        if honest == 0 or honest - 1 in held:
            continue
        assert _against_the_set_runner(codebook, alloc, T, state, indices) == "decoded"
        indices[t][u] = honest - 1
        reason = _against_the_set_runner(codebook, alloc, T, state, indices)
        assert reason == "no admissible assignment matches the stored indices"
        return
    pytest.fail("every honest index has a held index just below it")


class _NarrowWidths(_FixedWidths):
    """Indices short enough at the reference model that many reads keep
    several newest values."""

    WIDTHS = {1: 3, 2: 4}


@pytest.mark.parametrize("kind", ["linear", "random-uniform"])
@pytest.mark.parametrize(
    "model,n,c,widths",
    [
        (REF_MODEL, REF_N, REF_C, _NarrowWidths),
        (CorrelationModel(4, 1, 3), 3, 2, _ShortChainWidths),
    ],
)
def test_batch_matches_the_loop_when_reads_are_ambiguous(kind, model, n, c, widths):
    alloc = widths(model, n, c, Fraction(1, 2))
    codebook = BinningCodebook(kind, 3, model, n, max(widths.WIDTHS.values()))
    tuples = list(enumerate_possible_set(model))[::8]
    scheme = BinningScheme.over(codebook, alloc)
    seen = _batch_against_loop(scheme, tuples)
    assert _RAISED in seen and any(code > 0 for code in seen)
    for size in (1, 2):
        _batch_against_loop(scheme, tuples[:size])


def test_zero_radius_forces_equal_versions():
    model = CorrelationModel(8, 0, 3)
    n, c = 3, 2
    alloc = RateAllocation(model, n, c, REF_EPS)
    codebook = BinningCodebook.create(model, n, c, REF_EPS, seed=2)
    w = Message(0x9E, 8)
    vt = VersionTuple((w, w, w))
    state = SystemState((frozenset({1}), frozenset({2, 3}), frozenset({1, 3})))
    indices = {}
    for t in range(n):
        got = tuple(sorted(state.per_server[t]))
        indices[t] = {
            u: codebook.index_of(t, u, w.bits, alloc.index_bits(got, u)) for u in got
        }
    out = possible_set_decode(codebook, alloc, (1, 2), state, indices)
    assert out.status == PossibleSetOutcome.DECODED
    assert out.version == 3 and out.message == w


# ---------------------------------------------------------------------------
# Rate region


def _region_holds_everywhere(model, n, c, epsilon):
    alloc = RateAllocation(model, n, c, epsilon)
    per_server = []
    for mask in range(1 << model.nu):
        per_server.append(
            frozenset(u for u in range(1, model.nu + 1) if (mask >> (u - 1)) & 1)
        )
    for combo_id in range((1 << model.nu) ** n):
        sets = []
        rest = combo_id
        for _ in range(n):
            sets.append(per_server[rest % (1 << model.nu)])
            rest //= 1 << model.nu
        state = SystemState(tuple(sets))
        for T in combinations(range(n), c):
            if latest_common_version([state.per_server[t] for t in T]) is None:
                continue
            chain, totals = scenario_rates(alloc, state, T)
            check = rate_region_check(alloc, totals, chain)
            assert check.satisfied, (state.key(), T, check.slacks)
            assert all(s >= 0 for s in check.slacks)


def test_allocation_satisfies_region_two_versions():
    _region_holds_everywhere(REF_MODEL, REF_N, REF_C, REF_EPS)


def test_allocation_satisfies_region_three_versions():
    _region_holds_everywhere(CorrelationModel(8, 1, 3), 4, 2, REF_EPS)
    _region_holds_everywhere(CorrelationModel(8, 1, 2), 4, 3, Fraction(1, 3))


def test_region_suffix_slack_exactly_zero_when_tight():
    # Both readers hold both versions: the newest version's suffix constraint
    # is met with equality, and the exact arithmetic reports literal zero.
    alloc = ref_allocation()
    state = SystemState((frozenset({1, 2}),) * REF_N)
    chain, totals = scenario_rates(alloc, state, (0, 1))
    check = rate_region_check(alloc, totals, chain)
    assert check.scenario == (1, 2)
    assert check.slacks[1] == 0.0
    assert check.slacks[0] == 10.0  # full sum has the whole safety term spare


def test_region_zero_rates_violated():
    alloc = ref_allocation()
    check = rate_region_check(alloc, {1: 0.0, 2: 0.0}, (1, 2))
    assert not check.satisfied
    assert all(s < 0 for s in check.slacks)
    single = rate_region_check(alloc, {2: 0}, (2,))
    assert not single.satisfied and len(single.slacks) == 1


def test_region_input_validation():
    alloc = ref_allocation()
    with pytest.raises(ValueError):
        rate_region_check(alloc, {}, ())
    with pytest.raises(ValueError):
        rate_region_check(alloc, {1: 1.0, 3: 1.0}, (1, 3))
    with pytest.raises(ValueError):
        scenario_rates(alloc, SystemState((frozenset({1}), frozenset({2}))), (0, 1))


def test_region_accepts_plain_numbers():
    alloc = ref_allocation()
    generous = rate_region_check(alloc, {1: 40.0, 2: 40}, (1, 2))
    assert generous.satisfied


# ---------------------------------------------------------------------------
# Worst-case cost


def test_worst_cost_reference_point():
    # (K + (nu-1) log2 Vol + nu(nu-1)/2 + nu*(nu*n - log2 eps)) / c
    expected = (8 + float(log2_fixed(Fraction(9))) + 1 + 2 * 10) / 2
    assert binning_worst_case_cost(ref_allocation()) == pytest.approx(
        expected, rel=1e-12
    )


def test_worst_cost_single_version_closed_form():
    alloc = RateAllocation(CorrelationModel(8, 1, 1), 4, 2, Fraction(1, 8))
    # (K - log2(eps * 2^-n)) / c = (8 + 4 + 3) / 2
    assert binning_worst_case_cost(alloc) == pytest.approx(7.5, abs=1e-12)


@pytest.mark.parametrize(
    "K,radius,nu,n,c,eps",
    [(8, 1, 2, 4, 2, Fraction(1, 4)), (10, 2, 3, 5, 3, Fraction(1, 7)),
     (6, 1, 4, 3, 2, Fraction(2, 5))],
)
def test_worst_cost_equals_quadratic_form(K, radius, nu, n, c, eps):
    alloc = RateAllocation(CorrelationModel(K, radius, nu), n, c, eps)
    vol = hamming_ball_volume(radius, K)
    closed = (
        Fraction(K)
        + (nu - 1) * log2_fixed(Fraction(vol))
        + Fraction(nu * (nu - 1), 2)
        + nu * (Fraction(nu * n) - log2_fixed(eps))
    ) / c
    assert binning_worst_case_cost(alloc) == pytest.approx(float(closed), rel=1e-10)


def test_cheaper_than_difference_coding_when_balls_are_large():
    # The bin scheme shares each version's log-volume across c servers; the
    # difference scheme pays it at every server.  Once that saving exceeds
    # the safety terms, binning must win outright.
    K, radius, nu, n, c = 64, 6, 2, 8, 4
    model = CorrelationModel(K, radius, nu)
    alloc = RateAllocation(model, n, c, Fraction(1, 4))
    log_vol = math.log2(hamming_ball_volume(radius, K))
    shared_saving = (nu - 1) * (1 - 1 / c) * log_vol
    log_error = nu * n - math.log2(alloc.epsilon)  # the safety summand
    safety = (nu * (nu - 1) / 2 + nu * log_error) / c
    assert shared_saving > safety  # the premise of the claim
    delta_cost = make_scheme("delta", model, n, c).worst_case_cost().measured_bits
    assert binning_worst_case_cost(alloc) < delta_cost


# ---------------------------------------------------------------------------
# Three-version reference comparison


def test_reference_comparison_small_delta():
    report = example1_rate_comparison(0.05)
    assert report.step_entropy == pytest.approx(binary_entropy(0.05))
    assert report.composed_step == pytest.approx(0.095)
    labels = [row.label for row in report.rows]
    assert labels == ["v3", "v2+v3", "v1+v3"]
    assert all(row.excluded for row in report.rows)
    v3 = report.rows[0]
    assert v3.binned_bits == pytest.approx(0.2864, abs=5e-4)
    assert v3.unique_bits == pytest.approx(0.4529, abs=5e-4)
    assert report.middle_row_threshold == pytest.approx(0.110028, abs=1e-5)


def test_reference_comparison_middle_row_flips_past_threshold():
    report = example1_rate_comparison(0.2)
    assert not report.rows[1].excluded  # 1/2 + 2H(d) >= 1 + H(d) here
    assert report.rows[0].excluded and report.rows[2].excluded
    inside = example1_rate_comparison(0.10)
    assert inside.rows[1].excluded


def test_reference_comparison_margin_structure():
    wide = example1_rate_comparison(0.01)
    narrow = example1_rate_comparison(0.08)
    # middle-row margin is 1/2 - H(d): it widens as the flip rate vanishes
    assert wide.rows[1].margin > narrow.rows[1].margin
    assert wide.rows[1].margin == pytest.approx(0.5 - binary_entropy(0.01))
    # newest-version margin is H(d*d) - H(d): it vanishes with the flip rate
    assert wide.rows[0].margin < narrow.rows[0].margin
    assert wide.rows[0].margin == pytest.approx(
        binary_entropy(2 * 0.01 * 0.99) - binary_entropy(0.01)
    )


def test_reference_comparison_domain():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            example1_rate_comparison(bad)


# ---------------------------------------------------------------------------
# Empirical error survey and the scheme adapter


def test_sample_tuples_merge_by_index():
    tuples = sample_tuples(REF_MODEL, 5, 42)
    assert len(tuples) == 5
    for i, vt in enumerate(tuples):
        assert vt == sample_tuple(REF_MODEL, (42 << 32) + i)
        assert REF_MODEL.contains(vt)


def test_scheme_round_trip_and_cost_report():
    scheme = make_scheme("binning", REF_MODEL, REF_N, REF_C, epsilon=REF_EPS, seed=0)
    assert isinstance(scheme, BinningScheme)
    assert scheme.encode(0, (), VersionTuple((Message(0, 8), Message(0, 8)))) == (
        StoredSymbol.empty()
    )
    vt = VersionTuple((Message(0x4D, 8), Message(0x4F, 8)))
    state = SystemState((frozenset({1, 2}),) * REF_N)
    symbols = {t: scheme.encode(t, (1, 2), vt) for t in range(REF_N)}
    assert all(s.bit_length == 17 for s in symbols.values())
    decoded = scheme.decode((1, 3), state.per_server[1::2], symbols)
    assert decoded.version == 2 and decoded.message == vt.version(2)
    assert scheme.decode(
        (0, 1),
        [frozenset(), frozenset()],
        {0: StoredSymbol.empty(), 1: StoredSymbol.empty()},
    ) is None

    report = scheme.worst_case_cost()
    assert report.scheme == "binning"
    assert report.table_bits == pytest.approx(4 + math.log2(9) / 2)
    assert report.measured_bits == 17 and report.guarantee_bits == 17.0
    assert report.framing_bits == 0
    assert any("union-bound share 1/1024" in note for note in report.notes)


# Full-capacity entries of codebooks wider than one 64-bit limb: at the
# reference model with c = 1 and epsilon = 2^-60 the capacity is 81 bits.
_WIDE_EPS = Fraction(1, 2**60)
_WIDE_ENTRIES = {
    0: (0x3B2B730150B2E3C8C450, 0x6FFDFBF6E9528E82F402, 0x5A6E0AA4962457CEAF3C),
    1: (0xEDAB138F4D9F9F0FFAB, 0x12EB77B7F3D2101939893, 0x1AD4A20679176678DA1EF),
    2: (0x4657753825376BCED377, 0x1F4CADE6937DA4EC9EBAB, 0x19562825D27F5D77D2A45),
}


@pytest.mark.parametrize("seed", sorted(_WIDE_ENTRIES))
def test_codebooks_wider_than_a_limb_are_pinned_and_decode(seed):
    codebook = BinningCodebook.create(REF_MODEL, REF_N, 1, _WIDE_EPS, seed=seed)
    assert codebook.capacity == 81
    entries = tuple(
        codebook.index_table(t, u)[w] for t, u, w in ((0, 1, 0), (3, 2, 255), (1, 1, 77))
    )
    assert entries == _WIDE_ENTRIES[seed]

    scheme = BinningScheme(REF_MODEL, REF_N, 1, epsilon=_WIDE_EPS, seed=seed)
    vt = VersionTuple((Message(0xA7, 8), Message(0xA5, 8)))
    state = SystemState((frozenset({1, 2}), frozenset({1}), frozenset(), frozenset({2})))
    for t, want in ((0, 2), (1, 1), (3, 2)):
        symbol = scheme.encode(t, state.per_server[t], vt)
        assert scheme.decode((t,), [state.per_server[t]], {t: symbol}) == (
            want, vt.version(want)
        )


def test_batch_matches_the_loop_past_one_limb():
    scheme = BinningScheme(REF_MODEL, REF_N, 1, epsilon=_WIDE_EPS, seed=0)
    assert scheme.allocation.index_bits((1, 2), 1) > 64
    tuples = list(enumerate_possible_set(REF_MODEL))[::7]
    assert _batch_against_loop(scheme, tuples) == {1, 2}
    for size in (1, 2):
        _batch_against_loop(scheme, tuples[:size])


def test_scheme_rejects_malformed_symbols():
    scheme = make_scheme("binning", REF_MODEL, REF_N, REF_C, epsilon=REF_EPS, seed=0)
    vt = VersionTuple((Message(0x11, 8), Message(0x10, 8)))
    state = SystemState((frozenset({1, 2}),) * REF_N)
    symbols = {t: scheme.encode(t, (1, 2), vt) for t in range(REF_N)}
    padded = StoredSymbol(symbols[0].payload, symbols[0].bit_length + 3)
    with pytest.raises(DecodingError):
        scheme.decode((0, 1), state.per_server[:2], {0: padded, 1: symbols[1]})
    # an index inconsistent with every admissible assignment is an error too
    corrupt = StoredSymbol(symbols[0].payload ^ 0x1FF, symbols[0].bit_length)
    with pytest.raises(DecodingError):
        scheme.decode((0, 1), state.per_server[:2], {0: corrupt, 1: symbols[1]})


def test_survey_counts_match_direct_decoding():
    model = CorrelationModel(6, 1, 2)
    n, c = 3, 2
    eps = Fraction(1, 4)
    scheme = make_scheme("binning", model, n, c, epsilon=eps, seed=3)
    tuples = sample_tuples(model, 40, 5)
    survey = empirical_error_survey(scheme.codebook, scheme.allocation, tuples)

    failures = 0
    cells = 0
    for state in iter_states(n, model.nu):
        for T in combinations(range(n), c):
            rows = [state.per_server[t] for t in T]
            if latest_common_version(rows) is None:
                continue
            cells += 1
            for vt in tuples:
                symbols = {
                    t: scheme.encode(t, state.per_server[t], vt) for t in T
                }
                try:
                    decoded = scheme.decode(T, rows, symbols)
                except DecodingError:
                    failures += 1
                    continue
                if decoded.message != vt.version(decoded.version):
                    failures += 1
    assert survey.cells == cells
    assert survey.failures == failures
    assert survey.decodes == cells * len(tuples)
    assert survey.wilson_upper == pytest.approx(
        float(wilson_upper(survey.worst_failures, survey.trials)), rel=1e-9
    )


def test_reference_point_error_rate_within_budget():
    # Scaled-down version of the acceptance sweep: every (state, reading set)
    # cell at the reference parameters stays within epsilon for this seed.
    alloc = ref_allocation()
    tuples = sample_tuples(REF_MODEL, 120, 2024)
    survey = empirical_error_survey(UNIFORM_CB, alloc, tuples)
    assert survey.cells == 672
    assert survey.worst_rate <= float(REF_EPS)


class _ScaledDown(RateAllocation):
    """Ablation: drop a fixed number of bits from every index."""

    CUT = 3

    def index_bits(self, received, u):
        return max(1, super().index_bits(received, u) - self.CUT)


def _failures_in_state(codebook, allocation, tuples, state):
    """The survey's failure count restricted to one state: the same engine
    over every size-c reading set of that state alone."""
    report = _exhaustive_run(
        BinningScheme.over(codebook, allocation),
        list(combinations(range(codebook.n), allocation.c)),
        None,
        [state],
        tuples,
        0,
    )
    return report.failure_count


def test_reduced_rates_raise_error_rate_and_kinds_agree():
    # A single linear codebook has a fixed failure set (its null spaces), so
    # one seed can land on 0% or 50%; aggregate over seeds before comparing.
    model = CorrelationModel(8, 1, 2)
    n = c = 2
    eps = Fraction(1, 4)
    nominal = RateAllocation(model, n, c, eps)
    starved = _ScaledDown(model, n, c, eps)
    state = SystemState((frozenset({1, 2}),) * n)
    seeds, per_seed = 40, 250
    tuples = sample_tuples(model, seeds * per_seed, 31)
    counts = {}
    for kind in ("random-uniform", "linear"):
        clean = stressed = 0
        for seed in range(seeds):
            codebook = BinningCodebook.create(model, n, c, eps, kind=kind, seed=seed)
            batch = tuples[seed * per_seed : (seed + 1) * per_seed]
            clean += _failures_in_state(codebook, nominal, batch, state)
            stressed += _failures_in_state(codebook, starved, batch, state)
        # nominal widths decode cleanly; three bits less per index does not
        assert stressed > 1000, (kind, stressed)
        assert clean < stressed / 100, (kind, clean, stressed)
        counts[kind] = stressed
    # first-order collision probabilities match across kinds, higher-order
    # terms differ: expect the same magnitude, not the same rate
    assert counts["random-uniform"] < 2 * counts["linear"]
    assert counts["linear"] < 2 * counts["random-uniform"]


def test_seed_search_reports_best_and_stops_at_target():
    model = CorrelationModel(6, 1, 2)
    tuples = sample_tuples(model, 80, 14)
    report = seed_search(model, 3, 2, Fraction(1, 4), range(10), tuples)
    assert report.achieved
    assert report.best.worst_rate <= float(Fraction(1, 4))
    assert report.best == min(report.surveys, key=lambda s: (s.worst_rate, s.seed))
    # stopped at the first passing seed
    assert all(s.worst_rate > report.target for s in report.surveys[:-1])
    again = seed_search(model, 3, 2, Fraction(1, 4), range(10), tuples)
    assert again == report
