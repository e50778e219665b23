"""Differential tests pinning the exact-arithmetic paths to the ones they
replaced: big-integer width ceilings and region signs against the snapped
128-bit mpmath oracle, the decimal logarithms against mpmath, the folded
estimate_epsilon and survey paths against values of the previous
implementation, the direct quorum read rules against brute force, the
GF(2) mask decode of Reed-Solomon against the GF(2^m) Vandermonde inverse,
the generator read block by block and the cells' block lanes against its
padded expansion,
the view-keyed schedule search against the per-node read search, the
per-view Monte-Carlo blocks against the per-trial engine, and the
getrandbits-only tuple and subset draws against randrange and
random.sample."""

import hashlib
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from oracles import (
    bridge_subset_scan,
    latest_complete_by_count,
    latest_only_newest_holders,
    mpmath_evaluate,
    mpmath_log2,
    padded_apply,
    padded_rows,
    padded_solve,
    per_node_read_search,
    per_trial_monte_carlo_run,
    rate_term,
    rate_region_check,
    reference_sample_subset,
    reference_sample_tuple,
    replication_newest_copy,
    scenario_rates,
    schedule_nodes,
    snapped_ceil_bits,
    snapped_region_slacks,
    state_read_view,
    term_minus,
    term_plus,
    term_sign,
    vandermonde_decode,
    vandermonde_interpolate,
)
from mvcode import estimate_epsilon, make_scheme, verifier
from mvcode.binning import (
    BinningCodebook,
    BinningScheme,
    RateAllocation,
    RateTerm,
    binning_worst_case_cost,
    empirical_error_survey,
    sample_tuples,
)
from mvcode.bounds import log2_exact
from mvcode.galois import RsCode, binary_expand_generator
from mvcode.model import (
    CorrelationModel,
    SystemState,
    enumerate_possible_set,
    iter_states,
    latest_complete_version,
    newest_held,
    subset_sampler,
    tuple_sampler,
)
from mvcode.schemes import _RAISED, _WRONG, DecodingError, MvcScheme
from mvcode.sim import _search_pairs, adversarial_schedule_search, schedule_to_text
from mvcode.verifier import (
    QuorumBridge,
    _exhaustive_run,
    _monte_carlo_run,
    quorum_bridge,
)

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
                            term = rate_term(alloc, got, u)
                            assert alloc.index_bits(got, u) == snapped_ceil_bits(
                                alloc, term
                            )
                            assert alloc.evaluate(term) == mpmath_evaluate(alloc, term)
                        steps = [rate_term(alloc, got, u) for u in got]
                        per_step = sum(
                            alloc.index_bits(got, u) - alloc.evaluate(term)
                            for u, term in zip(got, steps)
                        )
                        assert alloc._total(got) == reduce(term_plus, steps)
                        assert alloc.ceiling_slack(got) == pytest.approx(
                            per_step, abs=1e-9
                        )
                    full = range(1, nu + 1)
                    total = rate_term(alloc, full, 1)
                    for u in full[1:]:
                        total = term_plus(total, rate_term(alloc, full, u))
                    assert binning_worst_case_cost(alloc) == mpmath_evaluate(
                        alloc, total
                    )
                    T = tuple(range(c))
                    for state in _region_states(n, nu):
                        chain, totals = scenario_rates(alloc, state, T)
                        short = {u: term_minus(r, HALF_BIT) for u, r in totals.items()}
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
    # values past 512 bits, as nu! * C(c + nu - 1, nu) in the general bound
    huge = [factorial(k) * comb(k + 7, k) for k in (100, 1000, 5000, 20000)]
    huge += [3**5000] + [2**600 + d for d in range(-3, 4)]
    for x in huge:
        assert log2_exact(x) == mpmath_log2(x)
        assert log2_exact(Fraction(1, x)) == mpmath_log2(Fraction(1, x))


def test_index_widths_are_exact_at_integer_rates():
    # radius 0 makes log2(Vol) = 0 and K = 1 with radius 1 makes it 1, and
    # epsilon = 1/4 or 1/32 makes log2(eps) an integer, so every rate is
    # an exact rational and many are integers, where a ceiling is tightest;
    # epsilon = 1/3 puts the same rates just past those integers
    for K, radius in ((8, 0), (1, 1)):
        for nu in range(1, 4):
            model = CorrelationModel(K, radius, nu)
            for c in (1, 2, 3):
                for eps in (Fraction(1, 4), Fraction(1, 32), Fraction(1, 3)):
                    alloc = RateAllocation(model, 3, c, eps)
                    for got in _receipt_sets(nu):
                        widths = alloc.index_widths(got)
                        assert list(widths) == list(got)
                        for previous, u in zip((None,) + got, got):
                            # the least w with (A + log2(N/D))/c <= w
                            A = u - 1 + nu * 3 + (K if previous is None else 0)
                            gap = u - (previous or 1)
                            N = model.ball_volume() ** gap * eps.denominator
                            D = eps.numerator
                            w = 0
                            while not (
                                N <= D << (c * w - A)
                                if c * w >= A
                                else N << (A - c * w) <= D
                            ):
                                w += 1
                            assert widths[u] == w
    # the exact sign the region check uses, at an integer value
    alloc = RateAllocation(CorrelationModel(8, 0, 2), 4, 2, Fraction(1, 4))
    term = RateTerm(Fraction(3), Fraction(5), Fraction(1))  # 3 + 0 - 2 = 1
    assert [term_sign(alloc, term, bound) for bound in (0, 1, 2)] == [1, 0, -1]


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
            got = bridge.decode(T, [state.per_server[t] for t in T], {})
            assert got == want, (state.key(), T)
            checked += 1
    assert checked == (1 << (n * nu)) * n * (1 << (n - 1))


_ALL_SCHEMES = ("replication", "mds", "delta", "rs-update", "latest-only", "binning")


@pytest.mark.parametrize("name", _ALL_SCHEMES)
def test_read_views_from_rows_match_the_state_based_views(name):
    # every anchor state and subset; a bridge's read quorum in every order,
    # since it takes the lowest-indexed holders whatever T's order
    scheme = make_scheme(name, CorrelationModel(8, 1, 2), 4, 2)
    bridges = [quorum_bridge(scheme, c_w, c_r) for c_w, c_r in ((3, 3), (2, 4), (4, 2))]
    reads = [(scheme, T) for T in combinations(range(4), 2)]
    reads += [(b, T) for b in bridges for T in permutations(range(4), b.c_r)]
    for state in iter_states(4, 2):
        for reader, T in reads:
            rows = [state.per_server[t] for t in T]
            want = state_read_view(reader, T, state)
            assert reader.read_view(T, rows) == want, (reader.name, T, state.key())


# sha256 of every decode outcome and cell code below, taken when decode and
# cell_codes still read a whole state; a read of T's rows must match it
_READ_DIGEST = "c94522c7ff11a29c5c4142e9f4dfe657c29e85f8e4d04be39105c72fe4b137e8"


def test_every_read_outcome_is_pinned():
    # every anchor state and subset, each scheme and its three bridges over
    # every order of T, on a fixed tuple sample
    model = CorrelationModel(8, 1, 2)
    tuples = sample_tuples(model, 2, 0)
    digest = hashlib.sha256()
    for name in _ALL_SCHEMES:
        scheme = make_scheme(name, model, 4, 2)
        reads = [(scheme, T) for T in combinations(range(4), 2)]
        for c_w, c_r in ((3, 3), (2, 4), (4, 2)):
            bridge = quorum_bridge(scheme, c_w, c_r)
            reads += [(bridge, T) for T in permutations(range(4), c_r)]
        stored: dict = {}
        cache: dict = {}
        for state in iter_states(4, 2):
            for reader, T in reads:
                rows = [state.per_server[t] for t in T]
                codes = reader.cell_codes(T, rows, tuples, cache)
                outcomes = []
                for i, vt in enumerate(tuples):
                    symbols = {}
                    for t in T:
                        key = (t, state.per_server[t], i)
                        if key not in stored:
                            stored[key] = scheme.encode(t, state.per_server[t], vt)
                        symbols[t] = stored[key]
                    try:
                        outcomes.append(reader.decode(T, rows, symbols))
                    except DecodingError as exc:
                        outcomes.append(("raised", str(exc)))
                digest.update(
                    repr((reader.name, state.key(), T, codes, outcomes)).encode()
                )
    assert digest.hexdigest() == _READ_DIGEST


@pytest.mark.parametrize("n,nu", [(4, 2), (3, 3)])
def test_latest_complete_version_counts_holders(n, nu):
    for c_w in range(1, n + 1):
        for state in iter_states(n, nu):
            rows = state.per_server
            assert latest_complete_version(rows, c_w) == latest_complete_by_count(
                rows, c_w, nu
            ), (state.key(), c_w)


def _held_by_count(T, rows, k, nu):
    """newest_held by brute force: count each version's holders in T."""
    held = [u for u in range(1, nu + 1) if sum(u in rows[t] for t in T) >= k]
    if not held:
        return None
    u = max(held)
    return u, tuple(t for t in T if u in rows[t])[:k]


@pytest.mark.parametrize("n,nu", [(4, 2), (3, 3)])
def test_newest_version_reads_match_their_scans(n, nu):
    model = CorrelationModel(4, 1, nu)
    latest_only = [make_scheme("latest-only", model, n, c) for c in range(1, n + 1)]
    replication = make_scheme("replication", model, n, 1)
    subsets = [T for size in range(1, n + 1) for T in permutations(range(n), size)]
    for state in iter_states(n, nu):
        rows = state.per_server
        for T in subsets:
            where = (state.key(), T)
            for k in range(1, len(T) + 1):
                assert newest_held(T, rows, k) == _held_by_count(T, rows, k, nu), (
                    where, k,
                )
            for scheme in latest_only:
                assert scheme._read_plan(
                    T, [rows[t] for t in T]
                ) == latest_only_newest_holders(rows, T, scheme.c), (where, scheme.c)
            assert replication._newest_copy(
                T, [rows[t] for t in T]
            ) == replication_newest_copy(rows, T), where


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


# ---------------------------------------------------------------------------
# The generator read block by block against the padded_K-bit expansion it
# replaced: flat rows per server and one padded_K-square inverse per holder
# tuple.  The Reed-Solomon cells run on the same block map, one lane per
# (tuple, block) pair, and are checked against the same expansion.


def _lane_slices(values, piece, width, stride):
    """Slice j of ``values`` in the cells' layout, bit by bit: bit
    i*8*stride + b*width is bit b*piece + j of values[i]."""
    out = [0] * piece
    for i, value in enumerate(values):
        for k in range(value.bit_length()):
            if value >> k & 1:
                b, j = divmod(k, piece)
                out[j] |= 1 << (i * 8 * stride + b * width)
    return out


@pytest.mark.parametrize("n", [4, 9, 64])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("K", [8, 10, 16, 64, 65])
def test_block_generator_matches_the_padded_expansion(n, c, K):
    gen = binary_expand_generator(RsCode.standard(n, c), K)
    rng = random.Random(n * 1000 + c * 100 + K)
    servers = range(n) if n < 64 else [0, 1, 63, *rng.sample(range(2, 63), 5)]
    for server in servers:
        assert gen.rows[server] == padded_rows(gen, server)
        for message in [(1 << K) - 1, *(rng.getrandbits(K) for _ in range(4))]:
            assert gen.apply(server, message) == padded_apply(gen, server, message)
    shuffled = [tuple(rng.sample(range(n), c)) for _ in range(12)]
    for holders in [tuple(range(c)), *shuffled]:
        # the only inverse the generator builds has c*m rows
        assert len(gen.code.inverse(holders)) == c * gen.symbol_bits
        words = [[gen.apply(s, rng.getrandbits(K)) for s in holders] for _ in range(3)]
        words += [
            [rng.getrandbits(gen.stored_bits_per_server) for _ in holders]
            for _ in range(3)
        ]
        for vectors in words:
            pairs = list(zip(holders, vectors))
            assert gen.solve(pairs) == padded_solve(gen, pairs)
    m, width = gen.symbol_bits, c * gen.symbol_bits
    both, seen = frozenset({1, 2}), set()
    for name in ("mds", "delta", "rs-update", "latest-only"):
        scheme = make_scheme(name, CorrelationModel(K, 2, 2), n, c)
        stride = scheme._stride
        tuples = [reference_sample_tuple(scheme.model, rng) for _ in range(6)]
        cache = {}
        # encode: the m slices of version 2's vectors, through delta's step
        for server in servers[:6]:
            got = scheme._vectors_at(server, (1, 2), 2, tuples, cache)
            want = [padded_apply(gen, server, vt.version(2).bits) for vt in tuples]
            assert got == _lane_slices(want, m, width, stride), (name, server)
        # decode: codewords and arbitrary words, some with nonzero padding
        for holders in [tuple(range(c)), *shuffled[:4]]:
            vectors = {
                s: [
                    padded_apply(gen, s, vt.version(2).bits)
                    if i % 3 == 0
                    else rng.getrandbits(gen.stored_bits_per_server)
                    for i, vt in enumerate(tuples)
                ]
                for s in holders
            }
            lanes = {s: _lane_slices(vectors[s], m, width, stride) for s in holders}
            scheme._vectors_at = lambda server, *_: lanes[server]
            codes = scheme.cell_codes(holders, [both] * c, tuples, {})
            want = []
            for i, vt in enumerate(tuples):
                bits = padded_solve(gen, [(s, vectors[s][i]) for s in holders])
                want.append(
                    _RAISED if bits >> K else 2 if bits == vt.version(2).bits else _WRONG
                )
            assert codes == want, (name, holders)
            seen.update(codes)
    assert 2 in seen and (_RAISED in seen) == (gen.padded_K > K)


# ---------------------------------------------------------------------------
# Schedule search: view-keyed cells against the per-node read


_SEARCH_CASES = [
    (name, 4, 3, 1, 8)
    for name in ("replication", "mds", "delta", "rs-update", "binning", "latest-only")
] + [("mds", 6, 5, 1, 8), ("latest-only", 6, 5, 1, 8), ("latest-only", 2, 2, 0, 4)]


@pytest.mark.parametrize("name,n,q,f,K", _SEARCH_CASES)
def test_search_matches_the_per_node_read_search(name, n, q, f, K):
    # event for event, including None for the zero-error schemes; the last
    # case is the golden `sim --search` transcript's
    inner = make_scheme(name, CorrelationModel(K, 1, 2), n, 2 * q - n)
    scheme = quorum_bridge(inner, q, q)
    got = adversarial_schedule_search(scheme, q, q, f=f, depth=12)
    want = per_node_read_search(scheme, q, q, f, 12)
    assert (got is None) == (want is None)
    if want is not None:
        assert schedule_to_text(got) == schedule_to_text(want)


class _NeedsServerZero(QuorumBridge):
    """A bridge that decodes only when server 0 responds, so its outcome
    depends on the responder set itself and every witness crashes server 0;
    the default view and per-tuple cell keep the responders."""

    read_view = MvcScheme.read_view
    cell_codes = MvcScheme.cell_codes

    def decode(self, T, state, symbols):
        return super().decode(T, state, symbols) if 0 in T else None


@pytest.mark.parametrize(
    "n,c_w,c_r,f,nu", [(4, 2, 3, 1, 2), (5, 3, 3, 2, 2), (5, 3, 3, 2, 3)]
)
def test_search_matches_the_per_node_read_search_on_crash_witnesses(
    n, c_w, c_r, f, nu
):
    inner = make_scheme("mds", CorrelationModel(4, 1, nu), n, c_w + c_r - n)
    scheme = _NeedsServerZero(inner, c_w, c_r)
    got = adversarial_schedule_search(scheme, c_w, c_r, f=f, depth=12)
    want = per_node_read_search(scheme, c_w, c_r, f, 12)
    assert schedule_to_text(got) == schedule_to_text(want)
    assert [e.server for e in got.events if e.kind == "server-crash"] == [0]


def test_search_matches_the_per_node_read_search_on_uneven_quorums():
    inner = make_scheme("latest-only", CorrelationModel(4, 1, 3), 5, 2)
    scheme = quorum_bridge(inner, 3, 4)
    got = adversarial_schedule_search(scheme, 3, 4, f=1, depth=12)
    want = per_node_read_search(scheme, 3, 4, 1, 12)
    assert len(got.events) == 7
    assert schedule_to_text(got) == schedule_to_text(want)


class _RaisesOnViews(QuorumBridge):
    """A bridge whose decode raises on the chosen read views, each a
    responder set with its rows."""

    read_view = MvcScheme.read_view
    cell_codes = MvcScheme.cell_codes

    def __init__(self, inner, c_w, c_r, failing):
        super().__init__(inner, c_w, c_r)
        self.failing = failing

    def decode(self, T, rows, symbols):
        seen = tuple(tuple(sorted(row)) for row in rows)
        if (tuple(T), seen) in self.failing:
            raise DecodingError("a chosen view")
        return super().decode(T, rows, symbols)


@pytest.mark.parametrize(
    "other,crashes",
    [
        # arrivals (1,2), (2,0), (2,1): the crash witness's (1,1) sorts first
        (((0, 1, 2), ((2,), (2,), (1,))), 1),
        # arrivals (1,1), (2,1), (2,2) extend the crash witness's, and an
        # arrival sorts before a crash
        (((0, 1, 2), ((), (1, 2), (2,))), 0),
    ],
)
def test_search_orders_crash_witnesses_by_their_arrivals(other, crashes):
    # both views are first reached by five events with two writes, one by
    # arrivals (1,1), (2,1) and the crash of server 0
    crash_view = ((1, 2, 3), ((1, 2), (), ()))
    inner = make_scheme("mds", CorrelationModel(4, 1, 2), 4, 2)
    scheme = _RaisesOnViews(inner, 3, 3, {crash_view, other})
    got = adversarial_schedule_search(scheme, 3, 3, f=1, depth=8)
    want = per_node_read_search(scheme, 3, 3, 1, 8)
    assert schedule_to_text(got) == schedule_to_text(want)
    assert len(got.events) == 6
    assert [e.kind for e in got.events].count("server-crash") == crashes


class _NullOnViews(_RaisesOnViews):
    """A bridge whose decode returns NULL on the chosen read views, which
    passes while nothing is complete and fails once something is."""

    def decode(self, T, rows, symbols):
        seen = tuple(tuple(sorted(row)) for row in rows)
        if (tuple(T), seen) in self.failing:
            return None
        return QuorumBridge.decode(self, T, rows, symbols)


def test_search_tells_apart_reads_that_differ_only_in_need():
    # arrivals (1,0), (1,1) leave version 1 incomplete and the NULL read
    # passes; (1,3) completes it with T's rows unchanged, and that read fails
    view = ((0, 1, 2), ((1,), (1,), ()))
    inner = make_scheme("mds", CorrelationModel(4, 1, 2), 4, 2)
    scheme = _NullOnViews(inner, 3, 3, {view})
    got = adversarial_schedule_search(scheme, 3, 3, f=1, depth=8)
    want = per_node_read_search(scheme, 3, 3, 1, 8)
    assert schedule_to_text(got) == schedule_to_text(want)
    arrivals = [(e.version, e.server) for e in got.events if e.server is not None]
    assert arrivals == [(1, 0), (1, 1), (1, 3)]


class _NullOrRaisesOnViews(_NullOnViews):
    """A bridge whose decode returns NULL on one set of read views and
    raises on another."""

    def __init__(self, inner, c_w, c_r, null_views, raising):
        super().__init__(inner, c_w, c_r, null_views)
        self.raising = raising

    def decode(self, T, rows, symbols):
        seen = tuple(tuple(sorted(row)) for row in rows)
        if (tuple(T), seen) in self.raising:
            raise DecodingError("a chosen view")
        return super().decode(T, rows, symbols)


def test_search_tries_an_arrival_set_before_its_prefix_with_a_crash():
    # at four tokens with one write, arrivals (1,1), (1,2), (1,3) complete
    # version 1 and the NULL read fails; (1,1), (1,2) with server 0 crashed
    # raises on its own view.  The longer arrival set sorts first, since an
    # arrival sorts before a crash.
    null_view = ((0, 1, 2), ((), (1,), (1,)))
    raising = ((1, 2, 3), ((1,), (1,), ()))
    inner = make_scheme("mds", CorrelationModel(4, 1, 2), 4, 2)
    scheme = _NullOrRaisesOnViews(inner, 3, 3, {null_view}, {raising})
    got = adversarial_schedule_search(scheme, 3, 3, f=1, depth=8)
    want = per_node_read_search(scheme, 3, 3, 1, 8)
    assert schedule_to_text(got) == schedule_to_text(want)
    arrivals = [(e.version, e.server) for e in got.events if e.kind == "server-arrival"]
    assert arrivals == [(1, 1), (1, 2), (1, 3)]
    assert all(e.kind != "server-crash" for e in got.events)


class _CountsViews(QuorumBridge):
    """A bridge counting the read views the search asks it for."""

    def __init__(self, inner, c_w, c_r):
        super().__init__(inner, c_w, c_r)
        self.views = 0

    def read_view(self, T, state):
        self.views += 1
        return super().read_view(T, state)


@pytest.mark.parametrize("n,f,depth", [(4, 1, 12), (6, 1, 12), (5, 2, 9), (3, 0, 8)])
def test_search_judges_each_distinct_read_once(n, f, depth):
    # a zero-error scheme fails no read, so the search tries every pair of
    # the breadth-first walk and takes the code of each (T, T's rows) once,
    # whatever the latest complete versions of the reads sharing it
    q = n - f
    inner = make_scheme("mds", CorrelationModel(4, 1, 2), n, 2 * q - n)
    scheme = _CountsViews(inner, q, q)
    assert adversarial_schedule_search(scheme, q, q, f=f, depth=depth) is None
    pairs = {(got, crashed) for (got, _, crashed), _ in schedule_nodes(n, 2, f, depth)}
    reads = set()
    for got, crashed in pairs:
        T = tuple(s for s in range(n) if s not in crashed)[:q]
        reads.add((T, tuple(got[t] for t in T)))
    assert scheme.views == len(reads)
    assert _search_pairs(n, 2, f, depth) == len(pairs)


# ---------------------------------------------------------------------------
# Monte-Carlo: per-view blocks against the per-trial engine.  Blocks of 64
# trials make each multi-block count cross block boundaries many times; the
# largest count also runs in blocks of _BLOCK, where a view gathers many
# trials: at n=5, c=2 4097 trials spread over 160 (subset, rows) views,
# about 26 per view, and at n=3 binning's 4097 over at most 48.  At n=64
# views never repeat and subsets take the set branch; n=30, c=6 takes the
# pool branch only because c > 5 grows the set size to 85.  At K=64 a
# bit-slice lane is 8 bytes wide and a step flips up to four bits through
# the partial Fisher-Yates shuffle.  At nu=3 a server's row spans three
# words of the state draw.


def _mc_case(name, n, c, quorums=None, K=None, radius=1, nu=2, **extra):
    model = CorrelationModel(K or (5 if name == "binning" else 4), radius, nu)
    scheme = make_scheme(name, model, n, c, **extra)
    if quorums is None:
        return scheme, c, None
    c_w, c_r = quorums
    return quorum_bridge(scheme, c_w, c_r), c_r, c_w


_TRIALS = (1, 4097)
# name -> (scheme, n, c, quorums, extra, trial counts)
_MC_CASES = {
    **{
        name: (name, 5, 2, None, {}, _TRIALS)
        for name in ("replication", "mds", "delta", "rs-update", "latest-only")
    },
    # codebook seed 1 fails a few dozen of 4097 trials
    "binning": (
        "binning", 3, 2, None, {"epsilon": Fraction(1, 2), "seed": 1},
        (1, 1500, 4097),
    ),
    # several subsets delegate to the same holders, so one bridged view
    # gathers trials of different T
    "bridge(mds)": ("mds", 5, 2, (3, 4), {}, _TRIALS),
    "bridge(latest-only)": ("latest-only", 5, 2, (3, 4), {}, _TRIALS),
    "mds nu=3": ("mds", 5, 2, None, {"nu": 3}, (1, 1000)),
    "latest-only nu=3": ("latest-only", 5, 2, None, {"nu": 3}, (1, 1000)),
    "mds n=64": ("mds", 64, 2, None, {}, (1, 300)),
    "latest-only n=64": ("latest-only", 64, 2, None, {}, (1, 300)),
    "mds n=30 c=6": ("mds", 30, 6, None, {}, (1, 300)),
    "delta K=64": ("delta", 5, 2, None, {"K": 64, "radius": 4}, (1, 300)),
    "rs-update K=64": ("rs-update", 5, 2, None, {"K": 64, "radius": 4}, (1, 300)),
    "bridge(mds) K=64": ("mds", 5, 2, (3, 4), {"K": 64, "radius": 4}, (1, 300)),
}


@pytest.mark.parametrize("case", _MC_CASES)
def test_monte_carlo_blocks_match_the_per_trial_engine(case, monkeypatch):
    name, n, c, quorums, extra, counts = _MC_CASES[case]
    args = _mc_case(name, n, c, quorums, **extra)
    runs = [(64, seed, trials) for seed in (0, 1) for trials in counts]
    runs.append((verifier._BLOCK, 0, counts[-1]))
    wanted = {}
    for block, seed, trials in runs:
        monkeypatch.setattr(verifier, "_BLOCK", block)
        got = _monte_carlo_run(*args, trials, seed, 40)
        if (seed, trials) not in wanted:
            wanted[seed, trials] = per_trial_monte_carlo_run(*args, trials, seed, 40)
        assert got == wanted[seed, trials], (block, trials, seed)
    if "latest-only" in case or name == "binning":
        assert got.failures  # the witnesses were compared too


def test_no_engine_reaches_the_per_tuple_loop(monkeypatch):
    """The schedule search, exhaustive runs over 1, 31 and 32 tuples,
    binning's Monte-Carlo groups and the codebook survey judge every view
    with the scheme's own cell_codes, binning's at every list length; the
    per-tuple default is only the tests' reference."""
    sizes = {"own": [], "loop": [], "binning": []}  # tuple list lengths

    def spy(kind, call):
        def wrapped(*args):
            sizes[kind].append(len(args[-2]))  # each call ends (tuples, cache)
            return call(*args)

        return wrapped

    monkeypatch.setattr(MvcScheme, "cell_codes", spy("loop", MvcScheme.cell_codes))
    monkeypatch.setattr(
        BinningScheme, "cell_codes", spy("binning", BinningScheme.cell_codes)
    )
    model = CorrelationModel(4, 1, 2)
    inner = make_scheme("mds", model, 4, 2)
    inner.cell_codes = spy("own", inner.cell_codes)
    bridged = {
        "mds": quorum_bridge(inner, 3, 3),
        "binning": quorum_bridge(make_scheme("binning", model, 4, 2), 3, 3),
    }
    assert adversarial_schedule_search(bridged["mds"], 3, 3, f=1, depth=8) is None
    adversarial_schedule_search(bridged["binning"], 3, 3, f=1, depth=8)
    assert sizes["own"] and set(sizes["binning"]) == {1}
    tuples = list(enumerate_possible_set(model))
    for scheme in bridged.values():
        for size in (1, 31, 32):
            report = _exhaustive_run(
                scheme,
                3,
                3,
                iter_states(4, 2),
                tuples[:size],
                0,
            )
            assert report.passed and report.attempts
    assert set(sizes["binning"]) == {1, 31, 32}

    scheme, size, c_w = _mc_case(
        "binning", 3, 2, epsilon=Fraction(1, 2), seed=1
    )
    sizes["binning"].clear()
    _monte_carlo_run(scheme, size, c_w, 1500, 0, 0)
    assert min(sizes["binning"]) < 32 <= max(sizes["binning"])
    sizes["binning"].clear()
    tuples = sample_tuples(scheme.model, 5, 0)
    empirical_error_survey(scheme.codebook, scheme.allocation, tuples)
    assert set(sizes["binning"]) == {5}
    assert sizes["loop"] == []


# ---------------------------------------------------------------------------
# Draws: getrandbits alone against the stdlib's randrange and sample.  One
# generator feeds many draws, so a call one draw adds or drops shows in all
# that follow and in the final generator state.


@pytest.mark.parametrize("K", (8, 31, 40, 64))
@pytest.mark.parametrize("radius", ("0", "1", "3", "K"))
def test_tuple_draws_match_the_randrange_reference(K, radius):
    model = CorrelationModel(K, K if radius == "K" else int(radius), 3)
    draw = tuple_sampler(model)
    for seed in range(3):
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(300):
            want_values = tuple(
                m.bits for m in reference_sample_tuple(model, want).versions
            )
            assert draw(got.getrandbits) == want_values
        assert got.getstate() == want.getstate()


# Pool branch while n is at most the stdlib's set size (21, grown for c > 5),
# set branch past it: (30, 6) and (100, 6) sit on either side of the grown
# size, 85.
_SUBSET_CASES = (
    (1, 1), (4, 1), (4, 2), (4, 4), (21, 1), (21, 5), (21, 21), (22, 1),
    (22, 5), (30, 6), (100, 6), (7000, 1), (100, 100), (200, 3), (40, 0),
)


@pytest.mark.parametrize("n, c", _SUBSET_CASES)
def test_subset_draws_match_random_sample(n, c):
    draw, members = subset_sampler(n, c)
    for seed in range(3):
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert members(draw(got.getrandbits)) == reference_sample_subset(
                want, n, c
            )
        assert got.getstate() == want.getstate()


def test_subset_draw_rejects_sizes_outside_the_population():
    for n, c in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            subset_sampler(n, c)
