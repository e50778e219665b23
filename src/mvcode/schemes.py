"""Deterministic multi-version storage schemes and their cost accounting.

Every scheme follows the same contract.  A server encodes from exactly three
things: its own index, the set of version indices it has received, and the
content of those versions.  It never sees what other servers hold.  A reader
decodes from a subset T of servers given T's rows (which versions each
server of T received) plus the |T| stored symbols, and must return the
newest version shared by all of T, or anything newer.

Four honest schemes live here (full replication, per-version MDS symbols,
difference coding against a base version, and update-record coding), plus a
deliberately broken one (keep only the newest symbol) used to demonstrate
what the honest schemes rule out.  All but replication, the broken one
included, decode through one Reed-Solomon reader (``_RsBackedScheme``).
Every scheme, binning's too, stores one run of fixed-width fields: one
packer, ``MvcScheme.encode``, writes the fields each scheme's ``_fields``
yields, and its decoder reads them back in that order, through
``split_fields`` wherever the receipt set fixes the widths (rs-update's
record counts fix its own).

Each of the five also judges a whole read view at once (``cell_codes``),
at every tuple count, over bit slices in plain Python ints.  A
Reed-Solomon cell's lane is one (tuple, c*m-bit block) pair, so encoding
is one XOR of slices per entry of a server's c*m-by-m block map and
decoding one per entry of the holders' c*m-square inverse, whatever K is.
What a run reuses across read views lives only in the run's cache, never
on the scheme.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import log2
from operator import or_, xor
from typing import (
    Callable,
    Hashable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from .bitio import BitReader, BitWriter
from .galois import BinaryGenerator, RsCode, binary_expand_generator
from .model import (
    CorrelationModel,
    Message,
    VersionTuple,
    ball_rank,
    ball_unrank,
    hamming_ball_volume,
    latest_common_version,
    newest_held,
)

# Outcome codes of one decode attempt, judged against the tuple that was
# encoded.  A positive value is the decoded version index after the
# content check passed; the rest always fail.
_NULL = 0
_RAISED = -1
_WRONG = -2


class DecodingError(Exception):
    """Stored symbols are inconsistent with the rows the reader was given."""


@dataclass(frozen=True)
class StoredSymbol:
    """A server's stored bit string; bit_length is the exact realized cost."""

    payload: int
    bit_length: int

    def __post_init__(self) -> None:
        if self.bit_length < 0:
            raise ValueError("bit_length must be nonnegative")
        if self.payload < 0 or self.payload >> self.bit_length:
            raise ValueError("payload wider than bit_length")

    @classmethod
    def empty(cls) -> "StoredSymbol":
        return cls(0, 0)


class Decoded(NamedTuple):
    version: int
    message: Message


# ---------------------------------------------------------------------------
# Worst-case storage cost

@dataclass(frozen=True)
class CostReport:
    """Three views of a scheme's worst-case per-server storage.

    table_bits is the leading-order formula at nominal K with no rounding.
    guarantee_bits is the analytic ceiling at realized widths (padding,
    index ceilings, count framing included): no encoding may exceed it.
    measured_bits is the realized maximum over receipt patterns and version
    tuples, computed exactly from the scheme's field widths (brute-force
    encodes check it in the tests); for every scheme here that maximum is
    taken at the full receipt pattern 1..nu.  framing_bits is the share of
    measured_bits spent on record counts rather than content.
    """

    scheme: str
    table_bits: float
    guarantee_bits: float
    measured_bits: int
    framing_bits: int
    notes: tuple[str, ...] = ()


def split_fields(symbol: StoredSymbol, widths: Sequence[int]) -> list[int]:
    """A stored symbol's fixed-width fields, first written first.

    Raises DecodingError unless the widths cover the symbol exactly.
    """
    if sum(widths) != symbol.bit_length:
        raise DecodingError("stored length disagrees with the receipt set")
    fields = []
    payload = symbol.payload
    for width in widths:
        fields.append(payload & ((1 << width) - 1))
        payload >>= width
    return fields


def _receipts(T, rows) -> dict[int, tuple[int, ...]]:
    """Each server of T's receipt set, ascending, from T's rows."""
    return {t: tuple(sorted(row)) for t, row in zip(T, rows)}


def _judge(scheme: MvcScheme, T, rows, symbols, vt: VersionTuple):
    """The one read judgment: every verifier engine and the simulator turn
    a decode from T, of T's rows and the symbols encoding ``vt``, into an
    outcome here.

    Returns (code, got): ``got`` is what decode gave (the Decoded pair,
    None, or the DecodingError it raised), and the code is _RAISED, _NULL,
    _WRONG (a version out of range, or content other than vt's), or else
    the decoded version index.
    """
    try:
        got = scheme.decode(tuple(T), rows, symbols)
    except DecodingError as exc:
        return _RAISED, exc
    if got is None:
        return _NULL, None
    version, message = got
    if 1 <= version <= scheme.model.nu and message == vt.version(version):
        return version, got
    return _WRONG, got


# ---------------------------------------------------------------------------
# Whole-cell decoding over bit slices (Biham, FSE 1997).  Each tuple's
# padded value sits in a stride of ``nbytes`` bytes, and each of its c*m-bit
# blocks is a lane: slice j of a tuple list is one int whose bit
# i*8*nbytes + b*c*m is bit j of block b of tuple i's value.  XOR and OR act
# on every lane at once and never carry between lanes.


def _run_cached(cache: dict, key, build):
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


def _product(slices: Sequence[int], columns) -> list[int]:
    """The slices times a GF(2) matrix given by column, one XOR per set
    entry (a plain loop: reduce and map cost more per column)."""
    out = []
    for column in columns:
        acc = 0
        for j in column:
            acc ^= slices[j]
        out.append(acc)
    return out


class MvcScheme(ABC):
    """Shared contract: pure encode per server, pure decode per subset.

    A scheme stores fixed-width fields: ``encode`` packs the (value,
    width) pairs its ``_fields`` yields for a receipt set, and ``decode``
    reads them back in the same order.

    Every read takes T's rows, never a state: ``rows[i]`` is server
    ``T[i]``'s version set, all a reader that contacted T learns.
    ``decode(T, rows, symbols)`` reads T's stored symbols, and
    ``read_view(T, rows)`` names what that decode depends on: for every
    version tuple, decoding from T with rows that give equal views must
    give the same outcome.  The default view is T with its rows.

    ``cell_codes(T, rows, tuples, cache)`` is the batch form of the same
    contract: the outcome code of encoding each tuple at the servers of
    T and decoding it from T, for the whole tuple list at once.  The
    default encodes and decodes tuple by tuple; an override must return
    the same codes, as plain Python ints, computing what its own encode
    stores and reading it back the way its decode does.
    """

    name: str = "abstract"
    # Decode failure probability the scheme claims per state.
    error_budget: Fraction = Fraction(0)

    def __init__(self, model: CorrelationModel, n: int, c: int) -> None:
        if not 1 <= c <= n:
            raise ValueError("need 1 <= c <= n")
        self.model = model
        self.n = n
        self.c = c

    def encode(
        self, server: int, received: Iterable[int], versions: VersionTuple
    ) -> StoredSymbol:
        """Stored symbol for one server, a function of (server, received,
        the received versions' content) only: empty when nothing was
        received, else the fields ``_fields`` yields, packed first yielded
        lowest, the order ``split_fields`` reads them back in."""
        got = tuple(sorted(set(received)))
        if not got:
            return StoredSymbol.empty()
        if not (1 <= got[0] and got[-1] <= len(versions)):
            raise ValueError("version index out of range")
        writer = BitWriter()
        for value, width in self._fields(server, got, versions):
            writer.write(value, width)
        return StoredSymbol(writer.payload, writer.bit_length)

    def _fields(
        self, server: int, got: tuple[int, ...], versions: VersionTuple
    ) -> Iterable[tuple[int, int]]:
        """(value, width) of each stored field, for the ascending nonempty
        receipt set ``got``."""
        raise NotImplementedError

    @abstractmethod
    def decode(
        self,
        T: Sequence[int],
        rows: Sequence[frozenset[int]],
        symbols: Mapping[int, StoredSymbol],
    ) -> Optional[Decoded]:
        """Newest version common to T's rows (or newer), None when they
        share nothing.  Raises DecodingError on symbols inconsistent with
        the rows."""

    def read_view(
        self, T: Sequence[int], rows: Sequence[frozenset[int]]
    ) -> Hashable:
        """Hashable view that decoding from T reads, given T's rows in
        T's order."""
        return (tuple(T), tuple(rows))

    def cell_codes(
        self,
        T: Sequence[int],
        rows: Sequence[frozenset[int]],
        tuples: Sequence[VersionTuple],
        cache: dict,
    ) -> list[int]:
        """Outcome code of a decode from T, of T's rows, for every tuple.

        ``cache`` lives for one run over this same tuple list and is
        shared by every view of the run; nothing tuple-dependent is kept
        on the scheme.  This default is the per-tuple loop: every scheme
        here overrides it and no engine calls it, so it is the contract's
        reference, the differential oracle of every override.
        """
        symbol_rows = []
        for t, got in _receipts(T, rows).items():
            key = (t, got)
            cached = cache.get(key)
            if cached is None:
                cached = [self.encode(t, got, vt) for vt in tuples]
                cache[key] = cached
            symbol_rows.append((t, cached))
        codes = []
        for i, vt in enumerate(tuples):
            symbols = {t: row[i] for t, row in symbol_rows}
            codes.append(_judge(self, T, rows, symbols, vt)[0])
        return codes

    def worst_case_cost(self) -> CostReport:
        """Analytic and realized worst-case per-server bits.

        Each scheme's model finds the realized maximum exactly, with no
        sweep over version tuples or receipt patterns (see each override),
        and builds no generator rows.
        """
        raise TypeError(f"no cost model for scheme {self.name!r}")

    def _newest_rows(self, T, rows) -> dict[int, frozenset[int]]:
        """Each server of T's newest received version as a one-version
        row, empty where the server received nothing."""
        return {t: frozenset(got[-1:]) for t, got in _receipts(T, rows).items()}


class _RsBackedScheme(MvcScheme):
    """Base for schemes storing per-block Reed-Solomon symbol vectors."""

    def __init__(self, model: CorrelationModel, n: int, c: int) -> None:
        super().__init__(model, n, c)
        self.generator: BinaryGenerator = binary_expand_generator(
            RsCode.standard(n, c), model.K
        )
        # bytes per tuple's stride of a bit slice: a padded message fits
        self._stride = -(-self.generator.padded_K // 8)
        self._block_bits = width = c * self.generator.symbol_bits
        # one stride of the lane mask, bit b*c*m for every block b: a repunit
        lanes = ((1 << self.generator.padded_K) - 1) // ((1 << width) - 1)
        self._lanes = lanes.to_bytes(self._stride, "little")

    @cached_property
    def symbol_vector_bits(self) -> int:
        return self.generator.stored_bits_per_server

    def _read_plan(self, T, rows) -> Optional[tuple[int, tuple[int, ...]]]:
        """(target, holders): the version a read from T rebuilds and the c
        servers it reads it from; None when the read returns None."""
        target = latest_common_version(rows)
        if target is None or len(T) < self.c:
            return None
        return target, tuple(T[: self.c])

    def decode(self, T, rows, symbols):
        plan = self._read_plan(T, rows)
        if plan is None:
            return None
        target, servers = plan
        receipts = _receipts(T, rows)
        holders = []
        for server in servers:
            received = receipts[server]
            vec = self._vector_at(server, received, symbols[server], target)
            holders.append((server, vec))
        return self._interpolate(holders, target)

    def cell_codes(self, T, rows, tuples, cache):
        plan = self._read_plan(T, rows)
        if plan is None:
            return [_NULL] * len(tuples)
        target, holders = plan
        receipts = _receipts(T, rows)
        stacked = []
        for server in holders:
            stacked += self._vectors_at(server, receipts[server], target, tuples, cache)
        bits = _product(stacked, self.generator.code.columns(holders))
        want = self._version_slices(tuples, target, cache)
        return self._slice_codes(target, bits, want, len(tuples))

    def _slices(self, values: Sequence[int]) -> list[int]:
        """The c*m slices of ``values``, each below 2^padded_K."""
        nbytes = self._stride
        packed = int.from_bytes(
            b"".join(v.to_bytes(nbytes, "little") for v in values), "little"
        )
        every = int.from_bytes(self._lanes * len(values), "little")
        return [packed >> j & every for j in range(self._block_bits)]

    def _version_slices(self, tuples, u: int, cache: dict) -> list[int]:
        """The c*m slices of version u of every tuple."""
        return _run_cached(
            cache,
            ("slices", u),
            lambda: self._slices([vt.versions[u - 1].bits for vt in tuples]),
        )

    def _slice_codes(self, version, got, want, count: int) -> list[int]:
        """Per-tuple codes: ``version`` where the ``got`` and ``want``
        slices agree in every lane of the tuple, _WRONG where they differ,
        _RAISED where ``got`` sets a padding bit.  Only a failing cell folds
        each stride's lanes into its low bit, over windows of 2^k lanes."""
        width, padded, nbytes = self._block_bits, self.generator.padded_K, self._stride
        first = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * count, "little")
        # the bits at or above K, in the last block's lanes, at each stride's low bit
        raised = reduce(or_, got[width - padded + self.model.K :], 0)
        raised = raised >> (padded - width) & first
        failing = reduce(or_, map(xor, got, want), 0)
        if not failing | raised:
            return [version] * count
        blocks, wrong, offset = self.generator.blocks, 0, 0
        for span in range(blocks.bit_length()):
            if blocks >> span & 1:
                wrong |= failing >> offset * width
                offset += 1 << span
            failing |= failing >> (width << span)
        flags = (wrong & first | raised << 1).to_bytes(count * nbytes, "little")
        table = (version, _WRONG, _RAISED, _RAISED)
        return [table[flag] for flag in flags[::nbytes]]

    def _vectors_at(self, server, received, target, tuples, cache) -> list[int]:
        """Batch ``_vector_at``: slices of the symbol vectors of version
        ``target`` rebuilt from what ``server`` stores for each tuple; by
        default the target's, for a scheme whose stored symbol replays to them."""
        return self._stored_vectors(server, target, tuples, cache)

    def _stored_vectors(self, server, u, tuples, cache) -> list[int]:
        """The m slices of version u's symbol vectors at ``server``: its
        slices times the server's block map."""

        def build():
            bits = self._version_slices(tuples, u, cache)
            return _product(bits, self.generator.code.columns(server))

        return _run_cached(cache, ("vectors", server, u), build)

    def _vector_at(
        self,
        server: int,
        received: tuple[int, ...],
        symbol: StoredSymbol,
        target: int,
    ) -> int:
        """Symbol vector of version ``target`` rebuilt from one server's
        stored symbol; raises DecodingError when the symbol does not fit
        ``received``."""
        raise NotImplementedError

    def _padding_notes(self) -> tuple[str, ...]:
        padded = self.generator.padded_K
        if padded == self.model.K:
            return ()
        return (f"message padded {self.model.K} -> {padded} bits",)

    def _interpolate(
        self, holders: Sequence[tuple[int, int]], version: int
    ) -> Decoded:
        """Rebuild a message from exactly c (server, symbol-vector) pairs."""
        bits = self.generator.solve(holders)
        if bits >> self.model.K:
            raise DecodingError("nonzero padding in reconstructed message")
        return Decoded(version, Message(bits, self.model.K))


class ReplicationScheme(MvcScheme):
    """Each server keeps a full copy of the newest version it received."""

    name = "replication"

    def _fields(self, server, got, versions):
        yield versions.version(got[-1]).bits, self.model.K

    def _newest_copy(self, T, rows) -> Optional[tuple[int, int]]:
        """(version, server) of the newest copy in T, the first server of
        T holding it; None when T shares no version."""
        if latest_common_version(rows) is None:
            return None
        version, (server,) = newest_held(T, self._newest_rows(T, rows), 1)
        return version, server

    def decode(self, T, rows, symbols):
        best = self._newest_copy(T, rows)
        if best is None:
            return None
        version, server = best
        sym = symbols[server]
        if sym.bit_length != self.model.K:
            raise DecodingError("full copy has wrong length")
        return Decoded(version, Message(sym.payload, self.model.K))

    def cell_codes(self, T, rows, tuples, cache):
        best = self._newest_copy(T, rows)
        if best is None:
            return [_NULL] * len(tuples)
        # the chosen server's newest version is the read one, so its copy matches
        return [best[0]] * len(tuples)

    def worst_case_cost(self):
        K = self.model.K
        return CostReport(self.name, float(K), float(K), K, 0)


class MdsMvcScheme(_RsBackedScheme):
    """One Reed-Solomon symbol vector per received version, concatenated in
    ascending version order."""

    name = "mds"

    def _fields(self, server, got, versions):
        for u in got:
            vector = self.generator.apply(server, versions.version(u).bits)
            yield vector, self.symbol_vector_bits

    def _vector_at(self, server, received, symbol, target):
        vectors = split_fields(symbol, [self.symbol_vector_bits] * len(received))
        return vectors[received.index(target)]

    def worst_case_cost(self):
        nu = self.model.nu
        stored = nu * self.symbol_vector_bits
        return CostReport(
            self.name,
            nu * self.model.K / self.c,
            float(stored),
            stored,
            0,
            self._padding_notes(),
        )


class DeltaScheme(_RsBackedScheme):
    """Symbol vector for the first received version, then one Hamming-ball
    index per later received version.

    The index for a step from version a to version b (a < b both received,
    consecutive in this server's receipt set) encodes the exact difference
    vector, whose weight the correlation model caps at (b-a) * radius.  The
    index is the difference's position in the fixed ball enumeration, so
    width depends only on (b-a), never on the data.
    """

    name = "delta"

    def _volume(self, gap: int) -> int:
        """Size of the Hamming ball a step across ``gap`` versions lies in."""
        K = self.model.K
        return hamming_ball_volume(min(gap * self.model.radius, K), K)

    def _step_bits(self, gap: int) -> int:
        return (self._volume(gap) - 1).bit_length()

    def _widths(self, received: Sequence[int]) -> list[int]:
        """Field widths of a symbol: the base vector, then one ball index
        per later received version."""
        return [self.symbol_vector_bits] + [
            self._step_bits(b - a) for a, b in zip(received, received[1:])
        ]

    def _index(self, diff: int, gap: int) -> int:
        """The ball index stored for a step across ``gap`` versions whose
        difference vector is ``diff``."""
        if diff.bit_count() > gap * self.model.radius:
            raise ValueError(
                "difference weight exceeds the correlation model's step cap"
            )
        return ball_rank(diff, self.model.K)

    def _fields(self, server, got, versions):
        base = versions.version(got[0]).bits
        yield self.generator.apply(server, base), self.symbol_vector_bits
        for a, b in zip(got, got[1:]):
            diff = versions.version(b).bits ^ versions.version(a).bits
            yield self._index(diff, b - a), self._step_bits(b - a)

    def _vector_at(self, server, received, symbol, target):
        vec, *indices = split_fields(symbol, self._widths(received))
        for a, b, index in zip(received, received[1:], indices):
            if b > target:
                break
            if index >= self._volume(b - a):
                raise DecodingError(f"step index {index} outside its Hamming ball")
            vec ^= self.generator.apply(server, ball_unrank(index, self.model.K))
        return vec

    def _vectors_at(self, server, received, target, tuples, cache):
        """Each step XORs in the slices of its unranked differences times the
        server's block map, as ``_vector_at`` does; a stored index is a rank
        inside its own ball, so none raises.  The fold is kept once per run."""

        def build():
            vec = self._stored_vectors(server, received[0], tuples, cache)
            columns = self.generator.code.columns(server)
            for a, b in zip(received, received[1:]):
                if b > target:
                    break
                steps = _product(self._step_slices(a, b, tuples, cache), columns)
                vec = list(map(xor, vec, steps))
            return vec

        return _run_cached(cache, ("at", server, received, target), build)

    def _step_slices(self, a, b, tuples, cache):
        """The slices, in message space, of the unranked ball index encode
        stores for the step a -> b of every tuple; each distinct difference
        is ranked and unranked once."""

        def build():
            slots: dict[int, int] = {}
            where = [
                slots.setdefault(vt.version(b).bits ^ vt.version(a).bits, len(slots))
                for vt in tuples
            ]
            diffs = [ball_unrank(self._index(d, b - a), self.model.K) for d in slots]
            return self._slices([diffs[i] for i in where])

        return _run_cached(cache, ("steps", a, b), build)

    def worst_case_cost(self):
        """Widest at the full receipt pattern: a step across a + b versions
        is one across a then one across b (split the support), so
        Vol(a+b) <= Vol(a)*Vol(b) and, ceilings being subadditive, its index
        is no wider than theirs; a further version only adds a field."""
        model = self.model
        table = model.K / self.c + (model.nu - 1) * log2(model.ball_volume())
        worst = sum(self._widths(range(1, model.nu + 1)))
        return CostReport(
            self.name, table, float(worst), worst, 0, self._padding_notes()
        )


class RsUpdateScheme(_RsBackedScheme):
    """Symbol vector for the first received version, then per later version
    a list of (block index, new symbol) records against the previous one.

    Record lists are cheaper than re-encoding exactly when few blocks
    changed; whenever the list would cost at least a full vector, the full
    vector is stored instead behind an all-blocks-changed count sentinel.
    The count field itself is framing the analytic cost formula ignores;
    worst_case_cost reports it separately.  A record list replays to the
    stored target vector, so a cell reads through the default _vectors_at.
    """

    name = "rs-update"

    @cached_property
    def _count_bits(self) -> int:
        return self.generator.blocks.bit_length()

    @cached_property
    def _index_bits(self) -> int:
        return (self.generator.blocks - 1).bit_length()

    def _changed_blocks(self, old_vec: int, new_vec: int) -> list[int]:
        m = self.generator.symbol_bits
        diff = old_vec ^ new_vec
        out = []
        b = 0
        while diff:
            if diff & ((1 << m) - 1):
                out.append(b)
            diff >>= m
            b += 1
        return out

    def _fields(self, server, got, versions):
        gen = self.generator
        m = gen.symbol_bits
        vec = gen.apply(server, versions.version(got[0]).bits)
        yield vec, self.symbol_vector_bits
        for u in got[1:]:
            new_vec = gen.apply(server, versions.version(u).bits)
            changed = self._changed_blocks(vec, new_vec)
            record_cost = len(changed) * (self._index_bits + m)
            if record_cost >= self.symbol_vector_bits:
                yield gen.blocks, self._count_bits
                yield new_vec, self.symbol_vector_bits
            else:
                yield len(changed), self._count_bits
                for b in changed:
                    yield b, self._index_bits
                    yield (new_vec >> (b * m)) & ((1 << m) - 1), m
            vec = new_vec

    def _vector_at(self, server, received, symbol, target):
        gen = self.generator
        m = gen.symbol_bits
        reader = BitReader(symbol.payload, symbol.bit_length)
        try:
            vec = snapshot = reader.read(self.symbol_vector_bits)
            for u in received[1:]:
                count = reader.read(self._count_bits)
                if count > gen.blocks:
                    raise DecodingError("record count out of range")
                if count == gen.blocks:
                    vec = reader.read(self.symbol_vector_bits)
                else:
                    for _ in range(count):
                        b = reader.read(self._index_bits)
                        if b >= gen.blocks:
                            raise DecodingError("block index out of range")
                        val = reader.read(m)
                        vec &= ~(((1 << m) - 1) << (b * m))
                        vec |= val << (b * m)
                if u <= target:
                    snapshot = vec
        except ValueError as exc:
            raise DecodingError(str(exc)) from exc
        if not reader.exhausted:
            raise DecodingError("trailing bits after last update record")
        return snapshot

    def worst_case_cost(self):
        """The realized maximum needs no sweep over version tuples: a step's
        record count depends only on its difference vector, so a gap of
        ``gap`` versions changes at most min(gap*radius, blocks, K) blocks.
        That many are reached: one flipped bit at in-block offset 0 in each
        of them (offset 0 carries the block's constant coefficient, which
        no evaluation point kills) changes that many stored symbols at
        every server.  So a gap's worst is count_bits + min(min(gap*r,
        blocks, K) * (index_bits + m), spb); the min term is subadditive and
        count_bits >= 1, so splitting a gap or adding a version strictly adds
        bits, and the full pattern, nu - 1 gaps of one, is the unique worst."""
        model = self.model
        K, nu, r, c = model.K, model.nu, model.radius, self.c
        gen = self.generator
        spb = self.symbol_vector_bits
        m = gen.symbol_bits
        nominal_blocks = max(1, K // (c * m))
        record = (nominal_blocks - 1).bit_length() + m
        table = K / c + (nu - 1) * min(r * record, K / c)
        step = min(min(r, gen.blocks) * (self._index_bits + m), spb)  # r <= K
        best = spb + (nu - 1) * (self._count_bits + step)
        framing = (nu - 1) * self._count_bits
        notes = self._padding_notes() + (f"count framing {framing} bits included",)
        return CostReport(self.name, table, float(best), best, framing, notes)


class LatestOnlyScheme(_RsBackedScheme):
    """Anti-example: one symbol vector for the newest received version only.

    Storage-optimal and wrong: a reader needs c servers whose *newest*
    versions coincide, which concurrent writes do not guarantee.  Kept as
    the counterexample the honest schemes are verified against.
    """

    name = "latest-only"

    def _fields(self, server, got, versions):
        vector = self.generator.apply(server, versions.version(got[-1]).bits)
        yield vector, self.symbol_vector_bits

    def _read_plan(self, T, rows):
        """The newest version that c servers of T hold as their newest,
        with the first c of them; each stores that version's vector."""
        return newest_held(T, self._newest_rows(T, rows), self.c)

    def _vector_at(self, server, received, symbol, target):
        return symbol.payload

    def decode(self, T, rows, symbols):
        for server, row in zip(T, rows):
            if row and symbols[server].bit_length != self.symbol_vector_bits:
                raise DecodingError("unexpected stored length")
        return super().decode(T, rows, symbols)

    def worst_case_cost(self):
        spb = self.symbol_vector_bits
        return CostReport(self.name, self.model.K / self.c, float(spb), spb, 0)


# ---------------------------------------------------------------------------
# Factory

_SCHEME_CLASSES: dict[str, Callable[..., MvcScheme]] = {
    ReplicationScheme.name: ReplicationScheme,
    MdsMvcScheme.name: MdsMvcScheme,
    DeltaScheme.name: DeltaScheme,
    RsUpdateScheme.name: RsUpdateScheme,
    LatestOnlyScheme.name: LatestOnlyScheme,
}


def register_scheme(name: str, factory: Callable[..., MvcScheme]) -> None:
    """Extension hook so other modules can add schemes to the factory."""
    _SCHEME_CLASSES[name] = factory


def scheme_names() -> tuple[str, ...]:
    return tuple(sorted(_SCHEME_CLASSES))


def make_scheme(name: str, model: CorrelationModel, n: int, c: int, **extra) -> MvcScheme:
    try:
        factory = _SCHEME_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {', '.join(scheme_names())}"
        ) from None
    return factory(model, n, c, **extra)
