"""Tests for the storage schemes: stored symbols, round trips, cost accounting."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import ball_index_bits, worst_over_receipt_patterns
from mvcode.bitio import BitReader, BitWriter
from mvcode.model import (
    CorrelationModel,
    Message,
    SystemState,
    VersionTuple,
    enumerate_possible_set,
    iter_states,
    latest_common_version,
    sample_tuple,
)
from mvcode.schemes import (
    CostReport,
    Decoded,
    DecodingError,
    DeltaScheme,
    LatestOnlyScheme,
    MdsMvcScheme,
    MvcScheme,
    ReplicationScheme,
    RsUpdateScheme,
    StoredSymbol,
    make_scheme,
    scheme_names,
)

MODEL = CorrelationModel(K=8, radius=1, nu=2)
HONEST = ("replication", "mds", "delta", "rs-update")
ALL_SCHEMES = HONEST + ("binning", "latest-only")


def build(name, model=MODEL, n=4, c=2):
    return make_scheme(name, model, n, c)


def random_state(rng, n, nu):
    return SystemState(
        tuple(
            frozenset(u for u in range(1, nu + 1) if rng.random() < 0.6)
            for _ in range(n)
        )
    )


# ---------------------------------------------------------------------------
# Bit stream plumbing

@given(
    st.lists(
        st.integers(0, 12).flatmap(
            lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
        ),
        max_size=20,
    )
)
def test_bit_stream_round_trip(chunks):
    writer = BitWriter()
    for value, width in chunks:
        writer.write(value, width)
    reader = BitReader(writer.payload, writer.bit_length)
    for value, width in chunks:
        assert reader.read(width) == value
    assert reader.exhausted


def test_bit_stream_bounds():
    writer = BitWriter()
    with pytest.raises(ValueError):
        writer.write(4, 2)
    writer.write(3, 2)
    reader = BitReader(writer.payload, writer.bit_length)
    with pytest.raises(ValueError):
        reader.read(3)


# ---------------------------------------------------------------------------
# StoredSymbol

def test_stored_symbol_rejects_malformed():
    with pytest.raises(ValueError):
        StoredSymbol(4, 2)


# ---------------------------------------------------------------------------
# Encoding shapes

def tuple_of(*bits):
    return VersionTuple(tuple(Message(b, MODEL.K) for b in bits))


def test_replication_stores_newest_full_copy():
    scheme = build("replication")
    vt = tuple_of(0x12, 0x34)
    assert scheme.encode(0, {1, 2}, vt) == StoredSymbol(0x34, 8)
    assert scheme.encode(0, {1}, vt) == StoredSymbol(0x12, 8)
    assert scheme.encode(0, set(), vt) == StoredSymbol.empty()


def test_mds_concatenates_per_version_vectors():
    scheme = build("mds")
    vt = tuple_of(0x12, 0x34)
    assert scheme.encode(1, set(), vt).bit_length == 0
    assert scheme.encode(1, {2}, vt).bit_length == scheme.symbol_vector_bits
    both = scheme.encode(1, {1, 2}, vt)
    assert both.bit_length == 2 * scheme.symbol_vector_bits
    # ascending version order: low bits hold version 1's vector
    solo = scheme.encode(1, {1}, vt)
    assert both.payload & ((1 << scheme.symbol_vector_bits) - 1) == solo.payload


def test_delta_widths_depend_only_on_gaps():
    model = CorrelationModel(K=8, radius=1, nu=3)
    scheme = make_scheme("delta", model, 4, 2)
    base = 0x5A
    vt = VersionTuple(
        (Message(base, 8), Message(base ^ 0x01, 8), Message(base ^ 0x03, 8))
    )
    full = scheme.encode(0, {1, 2, 3}, vt)
    assert full.bit_length == scheme.symbol_vector_bits + 2 * ball_index_bits(1, 8)
    skip = scheme.encode(0, {1, 3}, vt)
    assert skip.bit_length == scheme.symbol_vector_bits + ball_index_bits(2, 8)
    # identical consecutive versions encode the zero difference
    same = scheme.encode(0, {2, 3}, VersionTuple((vt.version(1),) * 3))
    assert same.bit_length == scheme.symbol_vector_bits + ball_index_bits(1, 8)


def test_delta_rejects_tuple_outside_model():
    scheme = build("delta")
    with pytest.raises(ValueError):
        scheme.encode(0, {1, 2}, tuple_of(0x00, 0x0F))


def test_rs_update_record_shapes():
    scheme = build("rs-update")
    spb = scheme.symbol_vector_bits
    vt_same = tuple_of(0x77, 0x77)
    assert scheme.encode(0, {1, 2}, vt_same).bit_length == spb + scheme._count_bits
    vt_flip = tuple_of(0x77, 0x76)
    one = scheme.encode(0, {1, 2}, vt_flip)
    m = scheme.generator.symbol_bits
    assert (
        one.bit_length
        == spb + scheme._count_bits + scheme._index_bits + m
    )


# Every stored bit of the six schemes, pinned as one sha256 over each
# (payload, bit_length), at every server and receipt set for 32 sampled
# tuples.  The points (K, radius, nu, n, c) are the anchor; nu=3, where delta
# and binning steps span a gap of 2; and one where a two-block record list
# costs exactly one 8-bit vector, so rs-update stores the vector instead.
_PINNED_ENCODE_POINTS = ((8, 1, 2, 4, 2), (8, 1, 3, 4, 2), (16, 2, 2, 4, 2))
_PINNED_ENCODE_DIGEST = (
    "13d55031fa0e8fa1195f8bea64d86c736836b2d7d2084afc37bdb381798106f6"
)


def _pinned_tuples(model):
    rng = random.Random(0)
    return [sample_tuple(model, rng) for _ in range(32)]


def test_every_encode_is_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for K, radius, nu, n, c in _PINNED_ENCODE_POINTS:
        model = CorrelationModel(K, radius, nu)
        tuples = _pinned_tuples(model)
        receipts = [
            got
            for size in range(nu + 1)
            for got in itertools.combinations(range(1, nu + 1), size)
        ]
        for name in ALL_SCHEMES:
            scheme = make_scheme(name, model, n, c)
            for server in range(n):
                for got in receipts:
                    for vt in tuples:
                        symbol = scheme.encode(server, got, vt)
                        digest.update(
                            b"%d %d;" % (symbol.payload, symbol.bit_length)
                        )
    assert digest.hexdigest() == _PINNED_ENCODE_DIGEST


def test_pinned_rs_update_encodes_store_a_tied_step_whole():
    """At the 16-bit point a step changing two blocks takes the all-blocks
    count sentinel and the full vector, since its records would cost
    exactly one vector."""
    model = CorrelationModel(16, 2, 2)
    scheme = make_scheme("rs-update", model, 4, 2)
    gen, spb = scheme.generator, scheme.symbol_vector_bits
    assert 2 * (scheme._index_bits + gen.symbol_bits) == spb
    ties = 0
    for vt in _pinned_tuples(model):
        for server in range(4):
            old, new = (gen.apply(server, vt.version(u).bits) for u in (1, 2))
            if len(scheme._changed_blocks(old, new)) == 2:
                symbol = scheme.encode(server, (1, 2), vt)
                count = symbol.payload >> spb & ((1 << scheme._count_bits) - 1)
                assert (count, symbol.bit_length) == (
                    gen.blocks, 2 * spb + scheme._count_bits
                )
                ties += 1
    assert ties


def test_encode_sees_only_own_versions():
    # Two tuples agreeing exactly on the received set must encode equal.
    rng = random.Random(42)
    model = CorrelationModel(K=8, radius=2, nu=3)
    for name in HONEST + ("latest-only",):
        scheme = make_scheme(name, model, 4, 2)
        for _ in range(20):
            a = sample_tuple(model, rng.getrandbits(32))
            received = tuple(
                u for u in range(1, 4) if rng.random() < 0.7
            ) or (1,)
            other = tuple(
                a.version(u)
                if u in received
                else Message(rng.getrandbits(8), 8)
                for u in range(1, 4)
            )
            b = VersionTuple(other)
            for server in range(4):
                assert scheme.encode(server, received, a) == scheme.encode(
                    server, received, b
                )


# ---------------------------------------------------------------------------
# Decode round trips

def all_states(n, nu):
    universe = list(range(1, nu + 1))
    subsets = [
        frozenset(c)
        for size in range(nu + 1)
        for c in itertools.combinations(universe, size)
    ]
    for combo in itertools.product(subsets, repeat=n):
        yield SystemState(tuple(combo))


@pytest.mark.parametrize("name", HONEST)
def test_decode_round_trip_sampled(name):
    scheme = build(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for trial in range(60):
        state = random_state(rng, 4, 2)
        vt = sample_tuple(MODEL, rng.getrandbits(32))
        symbols = {
            i: scheme.encode(i, state.per_server[i], vt) for i in range(4)
        }
        for T in itertools.combinations(range(4), 2):
            rows = [state.per_server[t] for t in T]
            target = latest_common_version(rows)
            got = scheme.decode(T, rows, symbols)
            if target is None:
                continue
            assert got is not None, (name, state, T)
            assert got.version >= target
            assert got.message == vt.version(got.version)


def test_decode_with_no_common_version_is_none():
    scheme = build("mds")
    state = SystemState((frozenset({1}), frozenset({2}), frozenset(), frozenset()))
    vt = tuple_of(0x01, 0x02)
    symbols = {i: scheme.encode(i, state.per_server[i], vt) for i in range(4)}
    assert scheme.decode((0, 1), state.per_server[:2], symbols) is None
    assert scheme.decode((2, 3), state.per_server[2:], symbols) is None


def test_malformed_symbols_raise():
    scheme = build("mds")
    state = SystemState((frozenset({1, 2}),) * 4)
    vt = tuple_of(0xAB, 0xCD)
    symbols = {i: scheme.encode(i, {1, 2}, vt) for i in range(4)}
    bad = dict(symbols)
    bad[0] = StoredSymbol(symbols[0].payload >> 1, symbols[0].bit_length - 1)
    with pytest.raises(DecodingError):
        scheme.decode((0, 1), state.per_server[:2], bad)

    delta = build("delta")
    vt_near = tuple_of(0xAB, 0xAA)
    dsym = {i: delta.encode(i, {1, 2}, vt_near) for i in range(4)}
    dbad = dict(dsym)
    dbad[1] = StoredSymbol(dsym[1].payload, dsym[1].bit_length + 1)
    with pytest.raises(DecodingError):
        delta.decode((1, 2), state.per_server[1:3], dbad)


def test_delta_rejects_step_index_outside_its_ball():
    # K=8, radius 1: the ball holds 9 points behind a 4-bit index, so 12
    # fits the field but names a weight-2 step the model rules out.
    delta = build("delta")
    state = SystemState((frozenset({1, 2}),) * 4)
    vt = tuple_of(0x10, 0x11)
    symbols = {i: delta.encode(i, {1, 2}, vt) for i in range(4)}
    got = delta.decode((0, 1), state.per_server[:2], symbols)
    assert got == Decoded(2, vt.version(2))
    low = (1 << delta.symbol_vector_bits) - 1
    tampered = {
        i: StoredSymbol(
            (s.payload & low) | 12 << delta.symbol_vector_bits, s.bit_length
        )
        for i, s in symbols.items()
    }
    with pytest.raises(DecodingError):
        delta.decode((0, 1), state.per_server[:2], tampered)


def test_delta_cell_codes_keep_no_tuple_state_on_the_scheme_at_K_64():
    # 2,500 tuples whose two versions every server holds: the batch decode
    # of version 2 from two servers meets about 5,000 distinct steps, and
    # none of them may stay on the scheme once the run's cache is gone
    model = CorrelationModel(64, 4, 2)
    scheme = build("delta", model)
    rng = random.Random(0)
    tuples = [sample_tuple(model, rng) for _ in range(2500)]
    state = SystemState((frozenset({1, 2}),) * 4)

    def dict_sizes():
        return {k: len(v) for k, v in vars(scheme).items() if isinstance(v, dict)}

    before = dict_sizes()
    codes = scheme.cell_codes((0, 1), state.per_server[:2], tuples, {})
    assert codes == [2] * len(tuples)
    assert dict_sizes() == before


def test_latest_only_misses_overwritten_common_version():
    scheme = build("latest-only")
    vt = tuple_of(0x0F, 0xF0)
    state = SystemState(
        (frozenset({1, 2}), frozenset({1}), frozenset({1}), frozenset({1}))
    )
    symbols = {i: scheme.encode(i, state.per_server[i], vt) for i in range(4)}
    # Server 0 overwrote version 1; T={0,1} shares version 1 but cannot
    # assemble two matching symbol vectors.
    assert latest_common_version(state.per_server[:2]) == 1
    assert scheme.decode((0, 1), state.per_server[:2], symbols) is None
    # With both servers on version 2 the same scheme works fine.
    state2 = SystemState((frozenset({1, 2}),) * 4)
    symbols2 = {i: scheme.encode(i, {1, 2}, vt) for i in range(4)}
    got = scheme.decode((0, 1), state2.per_server[:2], symbols2)
    assert got == Decoded(2, vt.version(2))


def test_latest_only_checks_the_length_of_every_symbol_in_T():
    scheme = build("latest-only")
    vt = tuple_of(0x0F, 0xF0)
    state = SystemState((frozenset({1, 2}),) * 4)
    symbols = {i: scheme.encode(i, {1, 2}, vt) for i in range(4)}
    got = scheme.decode((0, 1, 2), state.per_server[:3], symbols)
    assert got == Decoded(2, vt.version(2))
    # server 2 is not among the c = 2 servers decoded from
    wide = symbols[2]
    symbols[2] = StoredSymbol(wide.payload, wide.bit_length + 1)
    with pytest.raises(DecodingError, match="unexpected stored length"):
        scheme.decode((0, 1, 2), state.per_server[:3], symbols)


# ---------------------------------------------------------------------------
# Worst-case cost

def test_cost_reports_at_reference_point():
    repl = build("replication").worst_case_cost()
    assert repl.table_bits == 8 and repl.measured_bits == 8

    mds = build("mds").worst_case_cost()
    assert mds.table_bits == pytest.approx(8.0)
    assert mds.measured_bits == 8 and mds.guarantee_bits == 8

    delta = build("delta").worst_case_cost()
    assert delta.table_bits == pytest.approx(4 + 3.169925001442312)
    assert delta.measured_bits == 4 + ball_index_bits(1, 8) == 8

    upd = build("rs-update").worst_case_cost()
    assert upd.table_bits == pytest.approx(7.0)
    assert upd.measured_bits == upd.guarantee_bits == 9
    assert upd.framing_bits == 2


def test_measured_never_exceeds_guarantee():
    for name in HONEST:
        for model, n, c in [
            (CorrelationModel(8, 1, 2), 4, 2),
            (CorrelationModel(12, 2, 3), 4, 2),
            (CorrelationModel(16, 1, 2), 6, 3),
            (CorrelationModel(64, 2, 2), 8, 4),
        ]:
            report = make_scheme(name, model, n, c).worst_case_cost()
            assert report.measured_bits <= report.guarantee_bits, (name, model)


# Every CostReport field of all six schemes on the grid above, as the cost
# models gave them when they still lived in one module-level function.
_COST_GRID = [((8, 1, 2), 4, 2), ((12, 2, 3), 4, 2), ((16, 1, 2), 6, 3), ((64, 2, 2), 8, 4)]
_PADDED_16 = "message padded 16 -> 18 bits"
_PADDED_64 = "message padded 64 -> 72 bits"
_COSTS = {
    "replication": [
        (8.0, 8.0, 8, 0, ()),
        (12.0, 12.0, 12, 0, ()),
        (16.0, 16.0, 16, 0, ()),
        (64.0, 64.0, 64, 0, ()),
    ],
    "mds": [
        (8.0, 8.0, 8, 0, ()),
        (18.0, 18.0, 18, 0, ()),
        (10.666666666666666, 12.0, 12, 0, (_PADDED_16,)),
        (32.0, 36.0, 36, 0, (_PADDED_64,)),
    ],
    "delta": [
        (7.169925001442312, 8.0, 8, 0, ()),
        (18.607561496354208, 20.0, 20, 0, ()),
        (9.420796174583671, 11.0, 11, 0, (_PADDED_16,)),
        (27.023061249735335, 30.0, 30, 0, (_PADDED_64,)),
    ],
    "rs-update": [
        (7.0, 9.0, 9, 2, ("count framing 2 bits included",)),
        (18.0, 22.0, 22, 4, ("count framing 4 bits included",)),
        (8.333333333333332, 12.0, 12, 2, (_PADDED_16, "count framing 2 bits included")),
        (28.0, 33.0, 33, 3, (_PADDED_64, "count framing 3 bits included")),
    ],
    "latest-only": [
        (4.0, 4.0, 4, 0, ()),
        (6.0, 6.0, 6, 0, ()),
        (5.333333333333333, 6.0, 6, 0, ()),
        (16.0, 18.0, 18, 0, ()),
    ],
    "binning": [
        (5.584962500721156, 17.0, 17, 0, (
            "real-rate total 16.0850 bits", "ceiling slack 0.9150 bits",
            "union-bound share 1/1024", "codebook random-uniform seed 0",
        )),
        (12.303780748177104, 36.0, 36, 0, (
            "real-rate total 34.8038 bits", "ceiling slack 1.1962 bits",
            "union-bound share 1/16384", "codebook random-uniform seed 0",
        )),
        (6.695820947083446, 17.0, 17, 0, (
            "real-rate total 16.3625 bits", "ceiling slack 0.6375 bits",
            "union-bound share 1/16384", "codebook random-uniform seed 0",
        )),
        (18.755765312433834, 29.0, 29, 0, (
            "real-rate total 28.0058 bits", "ceiling slack 0.9942 bits",
            "union-bound share 1/262144", "codebook random-uniform seed 0",
        )),
    ],
}


@pytest.mark.parametrize("name", sorted(_COSTS))
def test_cost_reports_pinned_field_for_field(name):
    for ((K, radius, nu), n, c), pinned in zip(_COST_GRID, _COSTS[name]):
        report = make_scheme(name, CorrelationModel(K, radius, nu), n, c).worst_case_cost()
        got = (
            report.table_bits, report.guarantee_bits, report.measured_bits,
            report.framing_bits, report.notes,
        )
        assert report.scheme == name
        assert got == pinned, (name, K, radius, nu, n, c)


class _NoCost(MvcScheme):
    def encode(self, server, received, versions):
        return StoredSymbol.empty()

    def decode(self, T, state, symbols):
        return None


def test_schemes_without_a_cost_model_say_so():
    with pytest.raises(TypeError, match="no cost model for scheme 'abstract'"):
        _NoCost(MODEL, 4, 2).worst_case_cost()


def test_padding_is_reported():
    report = make_scheme("mds", CorrelationModel(64, 2, 2), 8, 4).worst_case_cost()
    assert report.table_bits == pytest.approx(32.0)
    assert report.guarantee_bits == 36  # 64 pads to 72, two vectors of 18
    assert any("padded" in note for note in report.notes)


def brute_force_worst(scheme):
    worst = 0
    for versions in enumerate_possible_set(scheme.model):
        for size in range(1, scheme.model.nu + 1):
            for pattern in itertools.combinations(
                range(1, scheme.model.nu + 1), size
            ):
                for server in range(scheme.n):
                    got = scheme.encode(server, pattern, versions)
                    worst = max(worst, got.bit_length)
    return worst


# (K, radius, nu, n, c) points where rs-update stores the full vector behind
# its sentinel count, or record lists across padded blocks.
_RS_UPDATE_POINTS = (
    (5, 2, 2, 4, 2),
    (7, 1, 2, 4, 2),
    (6, 3, 2, 3, 1),
    (5, 1, 3, 4, 2),
)


@pytest.mark.parametrize("name", ["delta", "rs-update", "binning"])
def test_measured_matches_exhaustive_maximum(name):
    model = CorrelationModel(K=4, radius=1, nu=2)
    scheme = make_scheme(name, model, 4, 2)
    assert scheme.worst_case_cost().measured_bits == brute_force_worst(scheme)
    model3 = CorrelationModel(K=6, radius=1, nu=3)
    scheme3 = make_scheme(name, model3, 3, 2)
    assert scheme3.worst_case_cost().measured_bits == brute_force_worst(scheme3)
    points = _RS_UPDATE_POINTS if name == "rs-update" else ()
    for K, radius, nu, n, c in points:
        scheme = make_scheme(name, CorrelationModel(K, radius, nu), n, c)
        assert scheme.worst_case_cost().measured_bits == brute_force_worst(scheme)


@pytest.mark.parametrize("K,radius,nu,n,c", _RS_UPDATE_POINTS)
def test_rs_update_cells_match_the_default_loop(K, radius, nu, n, c):
    # A cell reads rs-update's target vectors as stored: the per-tuple loop
    # replays the record lists and sentinels and must agree on every live
    # read view, for lists of 1, 2 and all tuples.
    scheme = make_scheme("rs-update", CorrelationModel(K, radius, nu), n, c)
    tuples = list(enumerate_possible_set(scheme.model))
    lists = [(tuples[:size], {}, {}) for size in (1, 2, len(tuples))]
    seen = set()
    for state in iter_states(n, nu):
        for T in itertools.combinations(range(n), c):
            rows = [state.per_server[t] for t in T]
            view = scheme.read_view(T, rows)
            if latest_common_version(rows) is None or view in seen:
                continue
            seen.add(view)
            for some, batch_cache, loop_cache in lists:
                got = scheme.cell_codes(T, rows, some, batch_cache)
                assert got == MvcScheme.cell_codes(scheme, T, rows, some, loop_cache)
    assert seen


@pytest.mark.parametrize("name", ["delta", "rs-update"])
def test_closed_form_matches_receipt_pattern_sweep(name):
    for (K, radius, _), n, c in _COST_GRID:
        for r in sorted({0, radius, K}):
            for nu in range(1, 13):
                scheme = make_scheme(name, CorrelationModel(K, r, nu), n, c)
                report = scheme.worst_case_cost()
                assert (report.measured_bits, report.framing_bits) == (
                    worst_over_receipt_patterns(scheme)
                ), (name, K, r, nu, n, c)


@pytest.mark.parametrize("name", ["mds", "delta", "rs-update", "latest-only"])
def test_cost_builds_no_generator_rows(name):
    scheme = make_scheme(name, CorrelationModel(64, 2, 3), 8, 4)
    scheme.worst_case_cost()
    code = scheme.generator.code
    assert "rows" not in scheme.generator.__dict__ and not code._cache
    scheme.encode(0, (1,), VersionTuple((Message(0, 64),) * 3))
    # one encode builds its own server's block map, not every server's
    assert list(code._cache) == [0]
    assert "rows" not in scheme.generator.__dict__


def test_rs_update_cost_monotone_in_radius():
    costs = [
        make_scheme("rs-update", CorrelationModel(16, r, 2), 4, 2)
        .worst_case_cost()
        .measured_bits
        for r in range(0, 5)
    ]
    assert costs == sorted(costs)


def test_radius_independent_schemes():
    for name in ("replication", "mds"):
        a = make_scheme(name, CorrelationModel(16, 1, 2), 4, 2).worst_case_cost()
        b = make_scheme(name, CorrelationModel(16, 4, 2), 4, 2).worst_case_cost()
        assert a.measured_bits == b.measured_bits


# ---------------------------------------------------------------------------
# Factory

def test_factory_names():
    assert set(HONEST) <= set(scheme_names())
    assert "latest-only" in scheme_names()
    with pytest.raises(ValueError):
        make_scheme("nope", MODEL, 4, 2)
    assert isinstance(build("replication"), ReplicationScheme)
    assert isinstance(build("mds"), MdsMvcScheme)
    assert isinstance(build("delta"), DeltaScheme)
    assert isinstance(build("rs-update"), RsUpdateScheme)
    assert isinstance(build("latest-only"), LatestOnlyScheme)
