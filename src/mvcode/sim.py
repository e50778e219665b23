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
the newest write completed before the read started (or anything, when no
write has completed).  A consistent read of a version that is itself not
yet complete is flagged but not failed.  A raised decode error is always
an inconsistent read.

Arrivals addressed to a crashed server are dropped, matching a message
that reaches a dead machine.
"""

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import (
    CorrelationModel,
    SystemState,
    VersionTuple,
    latest_complete_version,
    sample_tuple,
)
from .schemes import DecodingError, MvcScheme

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


def _read(scheme, c_w, c_r, received, crashed, versions, encode_memo):
    """A read against the receipt sets ``received``, as (responders,
    snapshot, decoded version, hex content, latest complete version,
    consistent, flagged, note): the fields of a ReadRecord after its time,
    with the snapshot still a SystemState.

    ``encode_memo`` maps (server, receipt set) to that server's symbol.
    The schedule keeps c_r <= n - f, so enough servers are alive.
    """
    alive = [s for s in range(len(received)) if s not in crashed]
    responders = tuple(alive[:c_r])
    snapshot = SystemState(received)
    latest = latest_complete_version(snapshot, c_w)
    symbols = {}
    for t in responders:
        key = (t, received[t])
        symbol = encode_memo.get(key)
        if symbol is None:
            symbol = scheme.encode(t, tuple(sorted(received[t])), versions)
            encode_memo[key] = symbol
        symbols[t] = symbol
    version = content = None
    consistent = flagged = False
    note = ""
    try:
        out = scheme.decode(responders, snapshot, symbols)
    except DecodingError as exc:
        note = f"decode error: {exc}"
    else:
        if out is None:
            consistent = latest is None
            note = "" if consistent else "NULL with a complete version present"
        else:
            version, message = out
            content = message.to_hex()
            if not (
                1 <= version <= len(versions.versions)
                and message == versions.version(version)
            ):
                note = "wrong content"
            elif latest is not None and version < latest:
                note = f"stale version {version} < complete {latest}"
            else:
                consistent = True
                flagged = latest is None or version > latest
                note = "returned version is not yet complete" if flagged else ""
    return responders, snapshot, version, content, latest, consistent, flagged, note


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
    encode_memo: dict = {}

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
            responders, snapshot, *verdict = _read(
                scheme,
                schedule.c_w,
                schedule.c_r,
                tuple(frozenset(r) for r in received),
                crashed,
                versions,
                encode_memo,
            )
            reads.append(
                ReadRecord(
                    event.reader, event.time, responders, snapshot.key(), *verdict
                )
            )

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


def adversarial_schedule_search(
    scheme: MvcScheme,
    c_w: int,
    c_r: int,
    f: int = 0,
    depth: int = MAX_SEARCH_DEPTH,
    seed: int = 0,
) -> Optional[Schedule]:
    """Smallest schedule of at most ``depth`` events ending in an
    inconsistent read, or None when no such schedule exists.

    The read verdict depends only on the version-incidence state, the
    crash set, and the content tuple: arrival and write times never matter
    beyond their order, never-arrivals equal omissions, dropped arrivals
    are useless, and reads do not change state.  Breadth-first search over
    (incidence, written count, crash set) nodes therefore covers every
    schedule behavior of the given size, and the first hit is a witness of
    minimal event count.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_SEARCH_DEPTH:
        raise ValueError(f"search depth is capped at {MAX_SEARCH_DEPTH}")
    model = scheme.model
    n = scheme.n
    Schedule(n, c_w, c_r, f, ())  # validates the quorum geometry
    versions = sample_tuple(model, seed)
    encode_memo: dict = {}

    empty = tuple(frozenset() for _ in range(n))
    start = (empty, 0, frozenset())
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        node, path = queue.popleft()
        used = len(path)
        received, written, crashed = node
        # item 5 of a read is its consistent flag
        if used + 1 <= depth and not _read(
            scheme, c_w, c_r, received, crashed, versions, encode_memo
        )[5]:
            events = tuple(
                SimEvent(kind, t, version=version, server=server)
                for t, (kind, version, server) in enumerate(path)
            ) + (read_start(used, 0),)
            return Schedule(n, c_w, c_r, f, events, seed)
        if used + 2 > depth:
            continue
        children = []
        if written < model.nu:
            children.append(
                ((received, written + 1, crashed), (KIND_WRITE, written + 1, None))
            )
        for u in range(1, written + 1):
            for s in range(n):
                if s in crashed or u in received[s]:
                    continue
                rows = list(received)
                rows[s] = received[s] | {u}
                children.append(
                    (((tuple(rows)), written, crashed), (KIND_ARRIVAL, u, s))
                )
        if len(crashed) < f:
            for s in range(n):
                if s not in crashed:
                    children.append(
                        ((received, written, crashed | {s}), (KIND_CRASH, None, s))
                    )
        for child, step in children:
            if child not in seen:
                seen.add(child)
                queue.append((child, path + (step,)))
    return None
