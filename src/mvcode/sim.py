"""Discrete-event execution of the write/read quorum system.

A schedule is a time-ordered list of four event kinds: a write starts (and
assigns the next version index), a version arrives at one server (or is
marked as never arriving), a server crash-stops, and a read starts.  Times
are logical nonnegative integers; events carrying equal times apply in
list order.  Version content comes from one admissible tuple drawn from
the schedule seed, so a trace is a pure function of (scheme, schedule).

A write completes when its c_w-th server acknowledges the arrival; acks
already sent survive a later crash of their server.  A read contacts all
servers and proceeds with the first c_r responders, modeled as the c_r
lowest-indexed servers that have not crashed; each responder re-encodes
its stored symbol from everything it has received so far.  The read is
consistent when the decoder returns a correct version at least as new as
the newest write completed before the read started (when no write has
completed, any correct version or NULL).  A consistent read of a version
that is itself not yet complete is flagged but not failed.  A raised
decode error or wrong content is always an inconsistent read.  So a
read's verdict compares one outcome code, a function of its read view,
with the latest complete version: the replay judges it with
``schemes._judge``, and the search takes the code from the exhaustive
verifier's cell of its view, whose codes agree, once per responder set
and their rows.  The search therefore tries pairs of receipt sets and
crash set, not schedules, and writes the first failing pair as its
cheapest schedule.

Arrivals addressed to a crashed server are dropped, matching a message
that reaches a dead machine.
"""

import re
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    VersionTuple,
    latest_complete_version,
    row_sets,
    sample_tuple,
)
from .schemes import _NULL, _RAISED, _WRONG, MvcScheme, _judge
from .verifier import _cell

KIND_WRITE = "write-start"
KIND_ARRIVAL = "server-arrival"
KIND_READ = "read-start"
KIND_CRASH = "server-crash"
_KINDS = (KIND_WRITE, KIND_ARRIVAL, KIND_READ, KIND_CRASH)

MAX_SEARCH_DEPTH = 12


@dataclass(frozen=True)
class SimEvent:
    """One schedule record; ``time`` of None marks a never-delivered arrival."""

    kind: str
    time: Optional[int]
    version: Optional[int] = None
    server: Optional[int] = None
    reader: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.time is None and self.kind != KIND_ARRIVAL:
            raise ValueError("only arrivals may be marked never")
        if self.time is not None and (not isinstance(self.time, int) or self.time < 0):
            raise ValueError("event times are nonnegative integers")
        needed = {
            KIND_WRITE: ("version",),
            KIND_ARRIVAL: ("version", "server"),
            KIND_READ: ("reader",),
            KIND_CRASH: ("server",),
        }[self.kind]
        for name in ("version", "server", "reader"):
            value = getattr(self, name)
            if name in needed:
                if value is None or value < 0:
                    raise ValueError(f"{self.kind} needs a nonnegative {name}")
            elif value is not None:
                raise ValueError(f"{self.kind} does not take {name}")


def write_start(time: int, version: int) -> SimEvent:
    return SimEvent(KIND_WRITE, time, version=version)


def server_arrival(time: Optional[int], version: int, server: int) -> SimEvent:
    return SimEvent(KIND_ARRIVAL, time, version=version, server=server)


def read_start(time: int, reader: int) -> SimEvent:
    return SimEvent(KIND_READ, time, reader=reader)


def server_crash(time: int, server: int) -> SimEvent:
    return SimEvent(KIND_CRASH, time, server=server)


@dataclass(frozen=True)
class Schedule:
    """A validated execution plan for one quorum system.

    Write quorum c_w, read quorum c_r, and the crash budget f must satisfy
    c_w, c_r <= n - f so quorums stay reachable under every allowed crash
    pattern.  ``seed`` selects the version contents.
    """

    n: int
    c_w: int
    c_r: int
    f: int
    events: tuple[SimEvent, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one server")
        if self.f < 0:
            raise ValueError("crash budget must be nonnegative")
        if not 1 <= self.c_w <= self.n - self.f:
            raise ValueError("need 1 <= c_w <= n - f")
        if not 1 <= self.c_r <= self.n - self.f:
            raise ValueError("need 1 <= c_r <= n - f")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "events", tuple(self.events))
        last_time = 0
        written = 0
        write_times: dict[int, int] = {}
        arrived: set[tuple[int, int]] = set()
        crashed: set[int] = set()
        for event in self.events:
            if not isinstance(event, SimEvent):
                raise ValueError("events must be SimEvent records")
            if event.time is not None:
                if event.time < last_time:
                    raise ValueError("events must be ordered by time")
                last_time = event.time
            if event.kind == KIND_WRITE:
                if event.version != written + 1:
                    raise ValueError(
                        "writes must carry consecutive versions starting at 1"
                    )
                written += 1
                write_times[event.version] = event.time
            elif event.kind == KIND_ARRIVAL:
                if not 1 <= event.version <= written:
                    raise ValueError(
                        f"version {event.version} arrives before its write starts"
                    )
                if event.server >= self.n:
                    raise ValueError("arrival server out of range")
                if (event.server, event.version) in arrived:
                    raise ValueError("duplicate arrival of one version at one server")
                arrived.add((event.server, event.version))
                if (
                    event.time is not None
                    and event.time < write_times[event.version]
                ):
                    raise ValueError("arrival precedes its write start")
            elif event.kind == KIND_CRASH:
                if event.server >= self.n:
                    raise ValueError("crash server out of range")
                if event.server in crashed:
                    raise ValueError("server crashes twice")
                crashed.add(event.server)
                if len(crashed) > self.f:
                    raise ValueError(f"more than f={self.f} crash events")

    @property
    def writes(self) -> int:
        return sum(1 for e in self.events if e.kind == KIND_WRITE)


# ---------------------------------------------------------------------------
# Structured-text schedule format: one record per line.


def schedule_to_text(schedule: Schedule) -> str:
    lines = [
        "schedule n={} c-w={} c-r={} f={} seed={}".format(
            schedule.n, schedule.c_w, schedule.c_r, schedule.f, schedule.seed
        )
    ]
    for e in schedule.events:
        parts = [e.kind, "time={}".format("never" if e.time is None else e.time)]
        for name in ("version", "server", "reader"):
            value = getattr(e, name)
            if value is not None:
                parts.append(f"{name}={value}")
        lines.append(" ".join(parts))
    return "\n".join(lines)


_FIELD = re.compile(r"^([a-z-]+)=(never|\d+)$")


def schedule_from_text(text: str) -> Schedule:
    """Parse and validate the one-record-per-line schedule format."""
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines or not lines[0].startswith("schedule "):
        raise ValueError("schedule text must begin with a 'schedule' header")

    def fields_of(tokens, where):
        out = {}
        for token in tokens:
            m = _FIELD.match(token)
            if not m:
                raise ValueError(f"malformed field {token!r} in {where}")
            key, value = m.group(1).replace("-", "_"), m.group(2)
            if key in out:
                raise ValueError(f"repeated field {m.group(1)!r} in {where}")
            if value == "never" and key != "time":
                raise ValueError(f"only a time may be never, not {m.group(1)!r}")
            out[key] = None if value == "never" else int(value)
        return out

    header = fields_of(lines[0].split()[1:], "header")
    unknown = set(header) - {"n", "c_w", "c_r", "f", "seed"}
    if unknown:
        raise ValueError(f"unexpected fields {sorted(unknown)} in header")
    for key in ("n", "c_w", "c_r", "f"):
        if key not in header:
            raise ValueError(f"schedule header is missing {key}")
    events = []
    for line in lines[1:]:
        tokens = line.split()
        kind = tokens[0]
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        fields = fields_of(tokens[1:], kind)
        if "time" not in fields:
            raise ValueError(f"{kind} record is missing its time")
        events.append(
            SimEvent(
                kind,
                fields.pop("time"),
                version=fields.pop("version", None),
                server=fields.pop("server", None),
                reader=fields.pop("reader", None),
            )
        )
        if fields:
            raise ValueError(f"unexpected fields {sorted(fields)} on {kind}")
    return Schedule(
        header["n"],
        header["c_w"],
        header["c_r"],
        header["f"],
        tuple(events),
        header.get("seed", 0),
    )


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class WriteRecord:
    version: int
    start: int
    completed: Optional[int]  # time of the c_w-th ack, None if never reached


@dataclass(frozen=True)
class ReadRecord:
    reader: int
    time: int
    responders: tuple[int, ...]
    snapshot: tuple[tuple[int, ...], ...]  # version sets visible at read time
    decoded_version: Optional[int]
    content: Optional[str]  # decoded payload, hex
    latest_complete: Optional[int]
    consistent: bool
    flagged: bool  # consistent, but the returned version is not yet complete
    note: str = ""


@dataclass(frozen=True)
class ExecutionTrace:
    writes: tuple[WriteRecord, ...]
    reads: tuple[ReadRecord, ...]
    consistent: bool

    def to_text(self) -> str:
        lines = [
            "trace consistent={} writes={} reads={}".format(
                "yes" if self.consistent else "no", len(self.writes), len(self.reads)
            )
        ]
        for w in self.writes:
            lines.append(
                "write version={} start={} completed={}".format(
                    w.version,
                    w.start,
                    "never" if w.completed is None else w.completed,
                )
            )
        for r in self.reads:
            lines.append(
                "read reader={} time={} responders={} decoded={} content={} "
                "latest-complete={} consistent={} flagged={} note={}".format(
                    r.reader,
                    r.time,
                    ",".join(str(t) for t in r.responders),
                    "NULL" if r.decoded_version is None else r.decoded_version,
                    r.content if r.content is not None else "-",
                    "-" if r.latest_complete is None else r.latest_complete,
                    "yes" if r.consistent else "no",
                    "yes" if r.flagged else "no",
                    r.note or "-",
                )
            )
        return "\n".join(lines)


def _responders(n, crashed, c_r) -> tuple[int, ...]:
    """The c_r lowest-indexed live servers of n; the schedule keeps
    c_r <= n - f, so there are enough."""
    return tuple(s for s in range(n) if s not in crashed)[:c_r]


def _read(scheme, c_w, c_r, event, received, crashed, versions) -> ReadRecord:
    """The record of the read ``event`` against the receipt sets
    ``received``, judged by ``schemes._judge``; what the simulator adds is
    that a NULL read passes while nothing is complete, the flag, and the
    notes."""
    responders = _responders(len(received), crashed, c_r)
    latest = latest_complete_version(received, c_w)
    rows = [received[t] for t in responders]
    snapshot = tuple(tuple(sorted(s)) for s in received)
    symbols = {
        t: scheme.encode(t, tuple(sorted(received[t])), versions) for t in responders
    }
    code, got = _judge(scheme, responders, rows, symbols, versions)
    version = content = None
    if code not in (_RAISED, _NULL):
        version, message = got
        content = message.to_hex()
    # the verifier's rule, code < threshold fails, with threshold 0 while
    # nothing is complete: raised and wrong fail, NULL passes
    need = latest or 0
    if code == _RAISED:
        note = f"decode error: {got}"
    elif code == _WRONG:
        note = "wrong content"
    elif code == _NULL:
        note = "NULL with a complete version present" if latest else ""
    elif code < need:
        note = f"stale version {code} < complete {latest}"
    else:
        note = "returned version is not yet complete" if code > need else ""
    return ReadRecord(
        event.reader, event.time, responders, snapshot, version, content,
        latest, code >= need, code > need, note
    )


def run_simulation(
    scheme: MvcScheme,
    schedule: Schedule,
    versions: Optional[VersionTuple] = None,
) -> ExecutionTrace:
    """Fold the schedule into a trace; deterministic for fixed inputs.

    ``versions`` overrides the content tuple (it must be admissible for
    the scheme's model and long enough for every write in the schedule).
    """
    model = scheme.model
    if scheme.n != schedule.n:
        raise ValueError("scheme and schedule disagree on the server count")
    if schedule.writes > model.nu:
        raise ValueError(
            f"schedule writes {schedule.writes} versions, model allows {model.nu}"
        )
    if versions is None:
        versions = sample_tuple(model, schedule.seed)
    else:
        if len(versions.versions) < schedule.writes:
            raise ValueError("content tuple shorter than the schedule's writes")
        if not model.contains(versions):
            raise ValueError("content tuple is not admissible for the model")

    received: list[set[int]] = [set() for _ in range(schedule.n)]
    crashed: set[int] = set()
    ack_count: dict[int, int] = {}
    write_records: list[WriteRecord] = []
    completions: dict[int, int] = {}
    reads: list[ReadRecord] = []

    for event in schedule.events:
        if event.kind == KIND_WRITE:
            write_records.append(WriteRecord(event.version, event.time, None))
            ack_count[event.version] = 0
        elif event.kind == KIND_ARRIVAL:
            if event.time is None or event.server in crashed:
                continue
            received[event.server].add(event.version)
            ack_count[event.version] += 1
            if ack_count[event.version] == schedule.c_w:
                completions[event.version] = event.time
        elif event.kind == KIND_CRASH:
            crashed.add(event.server)
        else:
            rows = tuple(frozenset(r) for r in received)
            c_w, c_r = schedule.c_w, schedule.c_r
            reads.append(_read(scheme, c_w, c_r, event, rows, crashed, versions))

    writes = tuple(
        WriteRecord(w.version, w.start, completions.get(w.version))
        for w in write_records
    )
    return ExecutionTrace(
        writes, tuple(reads), all(r.consistent for r in reads)
    )


# ---------------------------------------------------------------------------
# Bundled replay: a partially propagated update


def partial_update_crash_schedule() -> Schedule:
    """Six servers, quorums of five, one crash allowed.

    Version 1 completes everywhere it was sent; version 2 reaches four
    servers (one of which then crashes) and stalls before completing.  The
    read proceeds with the five lowest-indexed live servers, only three of
    which saw version 2, so a store keeping just its newest symbol leaves
    the read with nothing decodable while a proper multi-version store
    still serves version 1.
    """
    events = [write_start(0, 1)]
    events += [server_arrival(1 + s, 1, s) for s in range(5)]
    events.append(write_start(6, 2))
    events += [server_arrival(7 + i, 2, s) for i, s in enumerate((2, 3, 4, 5))]
    events.append(server_crash(11, 5))
    events.append(read_start(12, 0))
    return Schedule(6, 5, 5, 1, tuple(events), seed=0)


# ---------------------------------------------------------------------------
# Adversarial schedule search


def _search_pairs(n: int, nu: int, f: int, depth: int) -> int:
    """The (receipt sets S, crash set C) pairs a search to ``depth`` tries
    when it finds nothing: w writes, m arrivals whose newest version is w,
    and k <= f crashes, w + m + k < depth, in closed form."""
    total = 0
    for used in range(depth):
        for w in range(min(used, nu) + 1):
            room = used - w
            for k in range(min(f, room) + 1):
                m = room - k
                newest = comb(w * n, m) - (comb((w - 1) * n, m) if w else 0)
                total += newest * comb(n, k)
    return total


def adversarial_schedule_search(
    scheme: MvcScheme,
    c_w: int,
    c_r: int,
    f: int = 0,
    depth: int = MAX_SEARCH_DEPTH,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[Schedule]:
    """Smallest schedule of at most ``depth`` events ending in an
    inconsistent read, or None when no such schedule exists.

    A read's verdict depends only on the receipt sets S, the crash set C
    and the content tuple: times matter only through their order, and
    never-arrivals, dropped arrivals and reads change nothing.  The
    cheapest schedule reaching (S, C) writes 1..max(S), delivers S, then
    crashes C.  The search tries (S, C) pairs by that cost, and within one
    cost by those event lists in the token order writes < arrivals by
    (version, server) < crashes by server: the order in which a
    breadth-first search over schedules first meets each pair, so the
    first failing pair is its minimal witness.  Within one cost and write
    count, each crash count's arrival sets are walked on their own and the
    least failing list is kept.  EnumerationCapExceeded is raised before
    the first read when the pairs exceed ``cap``.

    Each crash count has one table of (C, T), since the responders T
    depend only on C.  A read fails when its outcome code is below the
    latest complete version ``need`` of S.  A decode reads only T's rows,
    so the code is taken once per distinct (T, rows), from the verifier
    cell of that view over the one content tuple, and kept under one int:
    T's index and S's (server, version) bits masked to T's rows.  The
    rows come straight from those bits; the search builds no state.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_SEARCH_DEPTH:
        raise ValueError(f"search depth is capped at {MAX_SEARCH_DEPTH}")
    n, nu = scheme.n, scheme.model.nu
    Schedule(n, c_w, c_r, f, (), seed)  # validates the quorum geometry and seed
    count = _search_pairs(n, nu, f, depth)
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    versions = [sample_tuple(scheme.model, seed)]
    # a read comes after its writes, so S holds at most width versions:
    # bit s * width + u - 1 of S marks version u at server s
    width = min(nu, max(depth - 1, 0))
    row = (1 << width) - 1
    index: dict[tuple[int, ...], int] = {}
    # per crash count: (C, T, T's index, T's rows' bits, T's row shifts)
    reads = []
    for k in range(min(f, depth - 1) + 1):
        table = []
        for crashed in combinations(range(n), k):
            T = _responders(n, crashed, c_r)
            mask = sum(row << (s * width) for s in T)
            t = index.setdefault(T, len(index))
            table.append((crashed, T, t, mask, [s * width for s in T]))
        reads.append(table)
    responder_sets = len(index)
    patterns = row_sets(width)  # the receipt set of each row pattern
    # columns[u - 1]: the bits of version u at every server
    columns = [sum(1 << (s * width + u) for s in range(n)) for u in range(width)]
    codes: dict[int, int] = {}
    cells: dict = {}
    cache: dict = {}
    for used in range(depth):
        for written in range(min(used, nu), -1, -1):
            # arrivals (version, server) in token order, and the bit of each
            pairs = [(u, s) for u in range(1, written + 1) for s in range(n)]
            bit_of = [1 << (s * width + u - 1) for u, s in pairs]
            top = len(pairs)
            newest = (written - 1) * n  # the first arrival of version written
            room = used - written
            # crash count k's arrival sets (room - k indices into pairs) come
            # in token order, by got + (top,): an arrival sorts before a crash,
            # so a set after its extensions.  No two counts tie, and each stops
            # past the least failing set so far, which ends as the level's first
            found = None
            for k in range(min(f, room) + 1):
                for got in combinations(range(top), room - k):
                    if found and got + (top,) > found[0] + (top,):
                        break
                    if (got[-1] if got else -1) < newest:
                        continue  # a schedule with fewer writes reaches this (S, C)
                    bits = sum(map(bit_of.__getitem__, got))
                    need = written  # latest_complete_version of S, or 0
                    while need and (bits & columns[need - 1]).bit_count() < c_w:
                        need -= 1
                    for crashed, T, t, mask, shifts in reads[k]:
                        key = (bits & mask) * responder_sets + t
                        code = codes.get(key)
                        if code is None:
                            rows = [patterns[bits >> sh & row] for sh in shifts]
                            cell = _cell(scheme, T, rows, versions, cells, cache)
                            code = codes[key] = cell.codes[0]
                        if code < need:
                            found = got, crashed
                            break
            if found:
                got, crashed = found
                steps = [(write_start, u) for u in range(1, written + 1)]
                steps += [(server_arrival, *pairs[i]) for i in got]
                steps += [(server_crash, s) for s in crashed]
                events = [make(time, *args) for time, (make, *args) in enumerate(steps)]
                events.append(read_start(used, 0))
                return Schedule(n, c_w, c_r, f, tuple(events), seed)
    return None
