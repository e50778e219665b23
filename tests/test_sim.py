"""Simulator tests: schedule validation and text round trips, trace
semantics (completion times, crash handling, flagged reads), the bundled
partial-update replay, the adversarial schedule search, and agreement
between simulated reads and the quorum-contract verifier."""

import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcode.model import (
    CorrelationModel,
    Message,
    SystemState,
    enumerate_possible_set,
    iter_states,
    latest_complete_version,
    sample_tuple,
)
from mvcode.schemes import (
    Decoded,
    DecodingError,
    MvcScheme,
    StoredSymbol,
    make_scheme,
)
from mvcode.sim import (
    Schedule,
    SimEvent,
    _read,
    _search_pairs,
    adversarial_schedule_search,
    partial_update_crash_schedule,
    read_start,
    run_simulation,
    schedule_from_text,
    schedule_to_text,
    server_arrival,
    server_crash,
    write_start,
)
from mvcode.verifier import _exhaustive_run, quorum_bridge


def _model(K=8):
    return CorrelationModel(K, 1, 2)


def _bridged_mds_n6():
    return quorum_bridge(make_scheme("mds", _model(), 6, 4), 5, 5)


def _bridged_latest_only_n6():
    return quorum_bridge(make_scheme("latest-only", _model(), 6, 4), 5, 5)


def _full_propagation_schedule(n, c_w, c_r, writes, f=0):
    """Every version reaches every server before the next write starts;
    one read after each write."""
    events = []
    t = 0
    for u in range(1, writes + 1):
        events.append(write_start(t, u))
        t += 1
        for s in range(n):
            events.append(server_arrival(t, u, s))
            t += 1
        events.append(read_start(t, u - 1))
        t += 1
    return Schedule(n, c_w, c_r, f, tuple(events))


def _random_schedule(rng, n, c_w, c_r, f, nu, p_arrival=0.7):
    """A valid schedule with interleaved arrivals, reads, and crashes."""
    events = []
    t = 0
    crashed = 0
    for u in range(1, nu + 1):
        events.append(write_start(t, u))
        t += 1
        for s in rng.sample(range(n), n):
            if rng.random() < p_arrival:
                events.append(server_arrival(t, u, s))
                t += 1
        if crashed < f and rng.random() < 0.3:
            events.append(server_crash(t, rng.randrange(n)))
            crashed += 1
            t += 1
        events.append(read_start(t, u))
        t += 1
    events.append(read_start(t, 0))
    return Schedule(n, c_w, c_r, f, tuple(events), seed=rng.randrange(2**16))


# ---------------------------------------------------------------------------
# Schedule validation and the structured-text format


def test_schedule_rejects_bad_geometry():
    with pytest.raises(ValueError):
        Schedule(4, 4, 3, 1, ())  # c_w > n - f
    with pytest.raises(ValueError):
        Schedule(4, 3, 4, 1, ())
    with pytest.raises(ValueError):
        Schedule(0, 1, 1, 0, ())
    with pytest.raises(ValueError):
        Schedule(4, 3, 3, -1, ())


def test_schedule_rejects_malformed_event_sequences():
    w1 = write_start(0, 1)
    with pytest.raises(ValueError, match="consecutive"):
        Schedule(2, 1, 1, 0, (write_start(0, 2),))
    with pytest.raises(ValueError, match="before its write"):
        Schedule(2, 1, 1, 0, (server_arrival(0, 1, 0),))
    with pytest.raises(ValueError, match="ordered by time"):
        Schedule(2, 1, 1, 0, (write_start(3, 1), server_arrival(1, 1, 0)))
    with pytest.raises(ValueError, match="duplicate arrival"):
        Schedule(
            2, 1, 1, 0, (w1, server_arrival(1, 1, 0), server_arrival(2, 1, 0))
        )
    with pytest.raises(ValueError, match="out of range"):
        Schedule(2, 1, 1, 0, (w1, server_arrival(1, 1, 5)))
    with pytest.raises(ValueError, match="more than f"):
        Schedule(2, 1, 1, 0, (server_crash(0, 0),))
    with pytest.raises(ValueError, match="crashes twice"):
        Schedule(3, 1, 1, 2, (server_crash(0, 1), server_crash(1, 1)))


def test_event_field_discipline():
    with pytest.raises(ValueError, match="does not take"):
        SimEvent("write-start", 0, version=1, server=2)
    with pytest.raises(ValueError, match="needs a nonnegative"):
        SimEvent("read-start", 0)
    with pytest.raises(ValueError, match="never"):
        SimEvent("read-start", None, reader=0)
    with pytest.raises(ValueError, match="unknown event kind"):
        SimEvent("write-end", 0, version=1)
    with pytest.raises(ValueError, match="nonnegative integers"):
        SimEvent("read-start", -1, reader=0)


def test_schedule_text_round_trip_bundled():
    sched = partial_update_crash_schedule()
    text = schedule_to_text(sched)
    assert schedule_from_text(text) == sched
    # stable serialization: a second pass reproduces the bytes
    assert schedule_to_text(schedule_from_text(text)) == text


def test_schedule_text_round_trip_random():
    for seed in range(25):
        rng = random.Random(seed)
        sched = _random_schedule(rng, 4, 3, 3, 1, 2)
        assert schedule_from_text(schedule_to_text(sched)) == sched


def test_schedule_text_is_validated_on_load():
    good = schedule_to_text(partial_update_crash_schedule())
    with pytest.raises(ValueError, match="header"):
        schedule_from_text("write-start time=0 version=1")
    with pytest.raises(ValueError, match="unknown event kind"):
        schedule_from_text("schedule n=2 c-w=1 c-r=1 f=0\nwrite-stop time=0 version=1")
    with pytest.raises(ValueError, match="malformed field"):
        schedule_from_text("schedule n=2 c-w=1 c-r=1 f=0\nwrite-start time=0 version=x")
    with pytest.raises(ValueError, match="missing its time"):
        schedule_from_text("schedule n=2 c-w=1 c-r=1 f=0\nwrite-start version=1")
    with pytest.raises(ValueError, match="unexpected fields"):
        schedule_from_text(
            "schedule n=2 c-w=1 c-r=1 f=0\nwrite-start time=0 version=1 foo=3"
        )
    with pytest.raises(ValueError, match="does not take"):
        schedule_from_text(
            "schedule n=2 c-w=1 c-r=1 f=0\nwrite-start time=0 version=1 reader=0"
        )
    # semantic validation also runs on load
    broken = good.replace("f=1", "f=0")
    with pytest.raises(ValueError, match="more than f"):
        schedule_from_text(broken)
    # comments and blank lines are tolerated
    commented = "# replay\n\n" + good
    assert schedule_from_text(commented) == partial_update_crash_schedule()


@pytest.mark.parametrize(
    "text,match",
    [
        ("schedule n=2 c-w=1 c-r=1 f=0 foo=3", r"unexpected fields \['foo'\] in header"),
        ("schedule n=2 c-w=1 c-r=1 f=0 time=0", r"unexpected fields \['time'\] in header"),
        ("schedule n=2 c-w=1 c-r=1 f=0 n=3", "repeated field 'n' in header"),
        ("schedule n=2 c-w=1 c-r=1 f=0 seed=1 seed=2", "repeated field 'seed'"),
        ("schedule n=2 c-w=1 c-r=1 f=0 seed=never", "only a time may be never"),
        ("schedule n=never c-w=1 c-r=1 f=0", "only a time may be never"),
        (
            "schedule n=2 c-w=1 c-r=1 f=0\nwrite-start time=0 version=1 time=5",
            "repeated field 'time' in write-start",
        ),
        (
            "schedule n=2 c-w=1 c-r=1 f=0\nwrite-start time=0 version=1\n"
            "server-arrival time=1 version=1 server=0 server=1",
            "repeated field 'server' in server-arrival",
        ),
        (
            "schedule n=2 c-w=1 c-r=1 f=0\nwrite-start time=0 version=1\n"
            "server-arrival time=1 version=never server=0",
            "only a time may be never",
        ),
        (
            "schedule n=2 c-w=1 c-r=1 f=0\nread-start time=0 reader=never",
            "only a time may be never",
        ),
    ],
    ids=[
        "unknown-header-key", "time-in-header", "repeated-n", "repeated-seed",
        "never-seed", "never-n", "repeated-time", "repeated-server",
        "never-version", "never-reader",
    ],
)
def test_schedule_text_rejects_unknown_repeated_and_misplaced_never(text, match):
    with pytest.raises(ValueError, match=match):
        schedule_from_text(text)


def test_schedule_text_never_is_an_arrival_time():
    text = (
        "schedule n=2 c-w=1 c-r=1 f=0 seed=4\nwrite-start time=0 version=1\n"
        "server-arrival time=never version=1 server=1"
    )
    sched = schedule_from_text(text)
    assert sched.events[1] == server_arrival(None, 1, 1)
    assert schedule_to_text(sched) == text


_SCHEDULE_TOKENS = (
    "schedule", "write-start", "server-arrival", "read-start", "#", "",
    "time=0", "time=9", "time=never", "version=1", "version=3", "server=0",
    "server=7", "reader=2", "n=0", "n=2", "c-w=4", "f=0", "seed=5", "foo=1",
    "time=", "time=-1",
)


@st.composite
def _schedule_texts(draw):
    """A valid schedule's text with up to three tokens replaced by format
    words, fields, blanks and malformed fields: some stay valid, the rest
    fail near the format's edges."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    text = schedule_to_text(_random_schedule(rng, 4, 3, 3, 1, 2))
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        line[draw(st.integers(0, len(line) - 1))] = draw(
            st.sampled_from(_SCHEDULE_TOKENS)
        )
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _schedule_texts()))
def test_schedule_text_rejects_or_round_trips(text):
    try:
        sched = schedule_from_text(text)
    except ValueError:
        return
    assert schedule_from_text(schedule_to_text(sched)) == sched


def test_never_arrival_survives_round_trip():
    events = (write_start(0, 1), server_arrival(None, 1, 1), read_start(1, 0))
    sched = Schedule(2, 1, 1, 0, events)
    text = schedule_to_text(sched)
    assert "time=never" in text
    assert schedule_from_text(text) == sched


# ---------------------------------------------------------------------------
# Trace semantics


def test_synchronous_full_propagation_reads_newest():
    scheme = quorum_bridge(make_scheme("replication", _model(), 3, 1), 2, 2)
    sched = _full_propagation_schedule(3, 2, 2, 2)
    trace = run_simulation(scheme, sched)
    assert trace.consistent
    assert [r.decoded_version for r in trace.reads] == [1, 2]
    assert [w.completed is not None for w in trace.writes] == [True, True]
    assert not any(r.flagged for r in trace.reads)
    # contents match the seed-drawn tuple
    versions = sample_tuple(scheme.model, sched.seed)
    assert trace.reads[1].content == versions.version(2).to_hex()


def test_write_completion_is_the_cw_th_ack():
    events = (
        write_start(0, 1),
        server_arrival(3, 1, 2),
        server_arrival(7, 1, 0),
        server_arrival(9, 1, 1),
    )
    sched = Schedule(3, 2, 2, 0, events)
    trace = run_simulation(make_scheme("replication", _model(), 3, 1), sched)
    assert trace.writes == (
        type(trace.writes[0])(version=1, start=0, completed=7),
    )


def test_incomplete_write_never_completes():
    events = (write_start(0, 1), server_arrival(1, 1, 0))
    sched = Schedule(3, 2, 2, 0, events)
    trace = run_simulation(make_scheme("replication", _model(), 3, 1), sched)
    assert trace.writes[0].completed is None


def test_crashed_server_stops_responding_and_receiving():
    # v1 completes on servers 0..2, then server 0 crashes; a later arrival
    # addressed to it is dropped and reads proceed with servers 1..3.
    events = (
        write_start(0, 1),
        server_arrival(1, 1, 0),
        server_arrival(2, 1, 1),
        server_arrival(3, 1, 2),
        write_start(4, 2),
        server_crash(5, 0),
        server_arrival(6, 2, 0),
        read_start(7, 0),
    )
    sched = Schedule(4, 3, 3, 1, events)
    scheme = quorum_bridge(make_scheme("replication", _model(), 4, 1), 3, 3)
    trace = run_simulation(scheme, sched)
    read = trace.reads[0]
    assert read.responders == (1, 2, 3)
    assert read.snapshot[0] == (1,)  # the dropped arrival never landed
    assert read.decoded_version == 1 and read.consistent


def test_acks_before_crash_still_count_toward_completion():
    events = (
        write_start(0, 1),
        server_arrival(1, 1, 0),
        server_arrival(2, 1, 1),
        server_crash(3, 1),
        read_start(4, 0),
    )
    sched = Schedule(3, 2, 2, 1, events)
    scheme = quorum_bridge(make_scheme("replication", _model(), 3, 1), 2, 2)
    trace = run_simulation(scheme, sched)
    assert trace.writes[0].completed == 2
    assert trace.reads[0].latest_complete == 1
    assert trace.reads[0].responders == (0, 2)
    assert trace.reads[0].consistent


def test_read_before_any_write_is_vacuously_consistent():
    sched = Schedule(3, 2, 2, 0, (read_start(0, 0),))
    scheme = quorum_bridge(make_scheme("mds", _model(), 3, 1), 2, 2)
    trace = run_simulation(scheme, sched)
    read = trace.reads[0]
    assert read.decoded_version is None
    assert read.latest_complete is None
    assert read.consistent and not read.flagged


def test_incomplete_but_later_read_is_flagged_not_failed():
    # v1 complete on 0..2; v2 reaches only 0,1 (short of c_w=3) yet the
    # 2-of-4 code decodes it from the overlap, one version ahead of the
    # newest completed write.
    events = [write_start(0, 1)]
    events += [server_arrival(1 + s, 1, s) for s in range(3)]
    events += [write_start(4, 2), server_arrival(5, 2, 0), server_arrival(6, 2, 1)]
    events.append(read_start(7, 0))
    sched = Schedule(4, 3, 3, 0, tuple(events))
    scheme = quorum_bridge(make_scheme("mds", _model(), 4, 2), 3, 3)
    trace = run_simulation(scheme, sched)
    read = trace.reads[0]
    assert read.decoded_version == 2
    assert read.latest_complete == 1
    assert read.consistent and read.flagged
    assert trace.consistent


class _RaisingScheme(MvcScheme):
    """Stores nothing and fails every decode; exercises error accounting."""

    name = "raising"

    def __init__(self, model, n, c):
        super().__init__(model, n, c)

    def encode(self, server, received, versions):
        return StoredSymbol.empty()

    def decode(self, T, state, symbols):
        raise DecodingError("nothing stored")

    def worst_case_cost(self):
        raise NotImplementedError


def test_decode_error_is_an_inconsistent_read():
    sched = _full_propagation_schedule(3, 2, 2, 1)
    trace = run_simulation(_RaisingScheme(_model(), 3, 2), sched)
    read = trace.reads[0]
    assert not read.consistent and not trace.consistent
    assert "decode error" in read.note


class _StuckOnFirstScheme(MvcScheme):
    """Always serves version 1 verbatim; stale once anything newer
    completes."""

    name = "stuck-on-first"

    def encode(self, server, received, versions):
        if 1 not in set(received):
            return StoredSymbol.empty()
        return StoredSymbol(versions.version(1).bits, self.model.K)

    def decode(self, T, state, symbols):
        sym = symbols[T[0]]
        if sym.bit_length != self.model.K:
            return None
        return Decoded(1, Message(sym.payload, self.model.K))

    def worst_case_cost(self):
        raise NotImplementedError


def test_stale_read_is_inconsistent():
    # v1 and then v2 both complete; a scheme pinned to v1 answers with a
    # correct but outdated version and the read must count as failed
    scheme = _StuckOnFirstScheme(_model(), 3, 2)
    sched = _full_propagation_schedule(3, 2, 2, 2)
    trace = run_simulation(scheme, sched)
    first, second = trace.reads
    assert first.decoded_version == 1 and first.consistent
    assert second.latest_complete == 2
    assert second.decoded_version == 1
    assert not second.consistent and "stale" in second.note
    assert trace.consistent is False


class _FlippingScheme(_StuckOnFirstScheme):
    """Serves version 1 with its lowest bit flipped."""

    name = "flipping"

    def decode(self, T, state, symbols):
        out = super().decode(T, state, symbols)
        return Decoded(out.version, Message(out.message.bits ^ 1, self.model.K))


def test_wrong_content_read_is_inconsistent():
    scheme = _FlippingScheme(_model(), 3, 2)
    sched = _full_propagation_schedule(3, 2, 2, 1)
    trace = run_simulation(scheme, sched)
    (read,) = trace.reads
    truth = sample_tuple(scheme.model, sched.seed).version(1)
    assert read.decoded_version == 1 and read.latest_complete == 1
    assert read.content == Message(truth.bits ^ 1, 8).to_hex() != truth.to_hex()
    assert not read.consistent and not read.flagged
    assert read.note == "wrong content"
    assert trace.consistent is False


def test_trace_is_deterministic_byte_for_byte():
    scheme = _bridged_mds_n6()
    sched = partial_update_crash_schedule()
    first = run_simulation(scheme, sched)
    second = run_simulation(scheme, sched)
    assert first == second
    assert first.to_text() == second.to_text()
    for seed in range(10):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        sa = _random_schedule(rng_a, 4, 3, 3, 1, 2)
        sb = _random_schedule(rng_b, 4, 3, 3, 1, 2)
        scheme4 = quorum_bridge(make_scheme("mds", _model(), 4, 2), 3, 3)
        assert run_simulation(scheme4, sa).to_text() == run_simulation(
            scheme4, sb
        ).to_text()


def test_trace_text_shape():
    trace = run_simulation(_bridged_mds_n6(), partial_update_crash_schedule())
    lines = trace.to_text().splitlines()
    assert lines[0] == "trace consistent=yes writes=2 reads=1"
    assert lines[1] == "write version=1 start=0 completed=5"
    assert lines[2] == "write version=2 start=6 completed=never"
    assert lines[3].startswith("read reader=0 time=12 responders=0,1,2,3,4 decoded=1")


def test_content_override_and_rejection():
    scheme = quorum_bridge(make_scheme("replication", _model(), 3, 1), 2, 2)
    sched = _full_propagation_schedule(3, 2, 2, 2)
    override = sample_tuple(scheme.model, 777)
    trace = run_simulation(scheme, sched, versions=override)
    assert trace.reads[0].content == override.version(1).to_hex()
    with pytest.raises(ValueError, match="admissible"):
        bad = sample_tuple(CorrelationModel(8, 8, 2), 3)  # radius-8 jump
        run_simulation(scheme, sched, versions=bad)


def test_version_budget_is_enforced_and_respected():
    scheme = quorum_bridge(make_scheme("replication", _model(), 3, 1), 2, 2)
    with pytest.raises(ValueError, match="model allows"):
        run_simulation(scheme, _full_propagation_schedule(3, 2, 2, 3))
    # within budget, snapshots never show more versions than were written
    for seed in range(20):
        sched = _random_schedule(random.Random(seed), 3, 2, 2, 1, 2)
        for read in run_simulation(scheme, sched).reads:
            written = sum(1 for e in sched.events if e.kind == "write-start")
            assert all(set(row) <= set(range(1, written + 1)) for row in read.snapshot)
            assert all(len(row) <= scheme.model.nu for row in read.snapshot)


def test_never_arrival_equals_omission():
    base = (
        write_start(0, 1),
        server_arrival(1, 1, 0),
        server_arrival(2, 1, 1),
        read_start(3, 0),
    )
    with_never = base[:3] + (server_arrival(None, 1, 2),) + base[3:]
    scheme = quorum_bridge(make_scheme("replication", _model(), 3, 1), 2, 2)
    t_base = run_simulation(scheme, Schedule(3, 2, 2, 0, base))
    t_never = run_simulation(scheme, Schedule(3, 2, 2, 0, with_never))
    assert t_base.to_text() == t_never.to_text()


# ---------------------------------------------------------------------------
# Bundled replay: the partially propagated update


def test_partial_update_replay_under_mds():
    trace = run_simulation(_bridged_mds_n6(), partial_update_crash_schedule())
    assert trace.consistent
    read = trace.reads[0]
    assert read.responders == (0, 1, 2, 3, 4)
    assert read.decoded_version == 1 and read.latest_complete == 1
    assert not read.flagged


def test_partial_update_replay_under_latest_only():
    trace = run_simulation(_bridged_latest_only_n6(), partial_update_crash_schedule())
    assert not trace.consistent
    read = trace.reads[0]
    assert read.decoded_version is None
    assert "complete version present" in read.note


def test_partial_update_replay_write_records():
    trace = run_simulation(_bridged_mds_n6(), partial_update_crash_schedule())
    assert trace.writes[0].completed == 5  # fifth ack lands at time 5
    assert trace.writes[1].completed is None  # four acks, quorum needs five


# ---------------------------------------------------------------------------
# Adversarial schedule search


def test_search_rejects_out_of_range_depth():
    scheme = make_scheme("mds", _model(), 2, 2)
    with pytest.raises(ValueError, match="capped"):
        adversarial_schedule_search(scheme, 2, 2, depth=13)
    with pytest.raises(ValueError, match="nonnegative"):
        adversarial_schedule_search(scheme, 2, 2, depth=-1)


def test_search_rejects_a_negative_seed_before_searching():
    # refused up front, whether or not the search would find a witness
    clean = quorum_bridge(make_scheme("mds", _model(), 4, 2), 3, 3)
    failing = make_scheme("latest-only", _model(), 2, 2)
    for scheme, q, depth in ((clean, 3, 6), (failing, 2, 12)):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            adversarial_schedule_search(scheme, q, q, depth=depth, seed=-1)


def test_search_holds_no_per_schedule_state():
    # the bridged n=6 mds search at full depth finds nothing; one state and
    # one cell per distinct read view keep its peak small
    scheme = _bridged_mds_n6()
    tracemalloc.start()
    try:
        assert adversarial_schedule_search(scheme, 5, 5, f=1, depth=12) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_search_builds_one_state_per_distinct_read_view(monkeypatch):
    # a read's view and its cell come from T's rows alone, so the bridged
    # n=6 mds search builds no state for any of its 466 distinct views
    built = [0]
    check = SystemState.__post_init__

    def counted(state):
        built[0] += 1
        check(state)

    monkeypatch.setattr(SystemState, "__post_init__", counted)
    scheme = _bridged_mds_n6()
    views = set()
    read_view = scheme.read_view

    def recorded(T, rows):
        view = read_view(T, rows)
        views.add(view)
        return view

    monkeypatch.setattr(scheme, "read_view", recorded)
    assert adversarial_schedule_search(scheme, 5, 5, f=1, depth=12) is None
    assert built[0] == 0 and len(views) == 466


# Every witness of a `sim --search` grid, pinned as one sha256 over its
# schedule text: all six schemes, n 4-9, nu 2 and 3, 0-2 crashes and uneven
# quorums, each (n, nu, c-w, c-r, crashes, depth) at K=4, radius 1.
_PINNED_SEARCH_GRID = (
    (4, 2, 3, 3, 1, 12), (4, 3, 4, 4, 0, 12), (5, 2, 3, 4, 1, 12),
    (5, 3, 3, 4, 1, 8), (6, 2, 4, 4, 2, 10), (7, 2, 5, 6, 1, 9),
    (8, 2, 6, 6, 2, 7), (9, 3, 7, 7, 2, 6),
)
_PINNED_SEARCH_DIGEST = (
    "c2410fa88631d704b120a66eb4089a8faa129568508a29fe7299dcc9e9ae2664"
)


def test_every_search_witness_is_pinned():
    digest = hashlib.sha256()
    for name in ("replication", "mds", "delta", "rs-update", "latest-only", "binning"):
        for n, nu, c_w, c_r, f, depth in _PINNED_SEARCH_GRID:
            inner = make_scheme(name, CorrelationModel(4, 1, nu), n, c_w + c_r - n)
            scheme = quorum_bridge(inner, c_w, c_r)
            witness = adversarial_schedule_search(scheme, c_w, c_r, f=f, depth=depth)
            text = "none" if witness is None else schedule_to_text(witness)
            digest.update(text.encode() + b";")
    assert digest.hexdigest() == _PINNED_SEARCH_DIGEST


def test_search_pairs_at_depth_12_with_one_crash():
    # the (receipt sets, crash set) pairs of the README's n-1 quorum searches
    counts = [_search_pairs(n, 2, 1, 12) for n in (4, 6, 8, 9, 30)]
    assert counts == [1280, 26799, 364267, 1116249, 108269583688]


def test_search_depth_zero_finds_nothing():
    scheme = make_scheme("latest-only", _model(), 2, 2)
    assert adversarial_schedule_search(scheme, 2, 2, depth=0) is None


def test_search_finds_latest_only_witness_at_depth_six():
    scheme = make_scheme("latest-only", CorrelationModel(6, 1, 2), 2, 2)
    witness = adversarial_schedule_search(scheme, 2, 2, f=0, depth=6)
    assert witness is not None
    assert len(witness.events) == 6
    trace = run_simulation(scheme, witness)
    assert not trace.consistent
    # six events are also necessary: two writes, three arrivals, one read
    assert adversarial_schedule_search(scheme, 2, 2, f=0, depth=5) is None


def test_search_certified_schemes_yield_no_witness():
    # exhaustively verified zero-error constructions admit no bad schedule
    # within the search horizon
    for name, n, c in (("mds", 4, 2), ("replication", 4, 1)):
        raw = make_scheme(name, _model(), n, c)
        scheme = quorum_bridge(raw, 3, 3)
        assert (
            adversarial_schedule_search(scheme, 3, 3, f=1, depth=12) is None
        ), name


def test_search_witness_replays_deterministically():
    scheme = quorum_bridge(make_scheme("latest-only", _model(), 4, 2), 3, 3)
    witness = adversarial_schedule_search(scheme, 3, 3, f=1, depth=12)
    assert witness is not None
    text = schedule_to_text(witness)
    again = adversarial_schedule_search(scheme, 3, 3, f=1, depth=12)
    assert schedule_to_text(again) == text
    replay = run_simulation(scheme, schedule_from_text(text))
    assert not replay.consistent


# ---------------------------------------------------------------------------
# Agreement with the quorum-contract verifier


def _verify_snapshot(scheme, c_w, c_r, read):
    """verify_definition_2's exhaustive engine over the read's snapshot
    state alone: every c_r-subset against every admissible tuple."""
    return _exhaustive_run(
        scheme,
        list(combinations(range(scheme.n), c_r)),
        c_w,
        [SystemState(tuple(frozenset(row) for row in read.snapshot))],
        list(enumerate_possible_set(scheme.model)),
        200,
    )


def test_simulated_reads_agree_with_verifier_on_certified_scheme():
    # the verifier certifies every snapshot the simulator can reach, so
    # every simulated read must come out consistent
    model = CorrelationModel(6, 1, 2)
    scheme = quorum_bridge(make_scheme("mds", model, 4, 2), 3, 3)
    for seed in range(12):
        sched = _random_schedule(random.Random(seed), 4, 3, 3, 1, 2)
        trace = run_simulation(scheme, sched)
        for read in trace.reads:
            report = _verify_snapshot(scheme, 3, 3, read)
            assert report.passed
            assert read.consistent, (seed, read)


def test_inconsistent_reads_are_confirmed_by_verifier():
    # when a simulated read fails, sweeping its snapshot must surface a
    # failure too: the simulator never invents inconsistency
    model = CorrelationModel(6, 1, 2)
    scheme = quorum_bridge(make_scheme("latest-only", model, 4, 2), 3, 3)
    bad_reads = 0
    for seed in range(24):
        sched = _random_schedule(random.Random(seed), 4, 3, 3, 1, 2)
        trace = run_simulation(scheme, sched)
        for read in trace.reads:
            if read.consistent:
                continue
            bad_reads += 1
            report = _verify_snapshot(scheme, 3, 3, read)
            assert not report.passed
            assert report.failure_count > 0
    assert bad_reads > 0  # the sweep actually exercised the failing path


@pytest.mark.parametrize(
    "name", ["replication", "mds", "delta", "rs-update", "latest-only"]
)
def test_sim_read_agrees_with_the_quorum_verifier(name):
    # every state and read quorum, the remaining server crashed so the
    # quorum is the responder set: the simulator's read of one tuple is
    # consistent exactly when the verifier's code for it meets the newest
    # complete version, or when nothing is complete
    model = CorrelationModel(4, 1, 2)
    scheme = quorum_bridge(make_scheme(name, model, 4, 2), 3, 3)
    tuples = [sample_tuple(model, seed) for seed in range(3)]
    reads = inconsistent = 0
    for state in iter_states(4, 2):
        latest = latest_complete_version(state.per_server, 3)
        for T in combinations(range(4), 3):
            crashed = set(range(4)) - set(T)
            rows = [state.per_server[t] for t in T]
            for vt in tuples:
                read = _read(
                    scheme, 3, 3, read_start(0, 0), state.per_server, crashed, vt
                )
                (code,) = scheme.cell_codes(T, rows, [vt], {})
                assert read.responders == T
                assert read.consistent == (latest is None or code >= latest), (
                    state.key(), T, vt, read.note
                )
                reads += 1
                inconsistent += not read.consistent
    assert reads == 256 * 4 * 3
    assert inconsistent == (240 if name == "latest-only" else 0)
