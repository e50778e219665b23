"""Deterministic multi-version storage schemes and their cost accounting.

Every scheme follows the same contract.  A server encodes from exactly three
things: its own index, the set of version indices it has received, and the
content of those versions.  It never sees what other servers hold.  A reader
decodes from a subset T of servers given the full incidence descriptor
(which versions each server received) plus the |T| stored symbols, and must
return the newest version shared by all of T, or anything newer.

Four honest schemes live here (full replication, per-version MDS symbols,
difference coding against a base version, and update-record coding), plus a
deliberately broken one (keep only the newest symbol) used to demonstrate
what the honest schemes rule out.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import log2
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .bitio import BitReader, BitWriter
from .galois import BinaryGenerator, RsCode, binary_expand_generator
from .model import (
    CorrelationModel,
    Message,
    SystemState,
    VersionTuple,
    ball_rank,
    ball_unrank,
    hamming_ball_volume,
    latest_common_version,
)


class DecodingError(Exception):
    """Stored symbols are inconsistent with the claimed state descriptor."""


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

    def to_bytes(self) -> bytes:
        """4-byte big-endian bit count, then the bits first-to-last packed
        most-significant-bit first within each byte."""
        out = bytearray(4 + (self.bit_length + 7) // 8)
        out[0:4] = self.bit_length.to_bytes(4, "big")
        for p in range(self.bit_length):
            if (self.payload >> p) & 1:
                out[4 + (p >> 3)] |= 0x80 >> (p & 7)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StoredSymbol":
        if len(data) < 4:
            raise ValueError("truncated symbol header")
        bit_length = int.from_bytes(data[0:4], "big")
        nbytes = (bit_length + 7) // 8
        if len(data) != 4 + nbytes:
            raise ValueError("symbol byte count does not match header")
        payload = 0
        for p in range(bit_length):
            if data[4 + (p >> 3)] & (0x80 >> (p & 7)):
                payload |= 1 << p
        if bit_length % 8:
            tail = data[-1] & ((1 << (8 - bit_length % 8)) - 1)
            if tail:
                raise ValueError("nonzero padding bits")
        return cls(payload, bit_length)


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
    tuples.  framing_bits is the share of measured_bits spent on record
    counts rather than content.
    """

    scheme: str
    table_bits: float
    guarantee_bits: float
    measured_bits: int
    framing_bits: int
    notes: tuple[str, ...] = ()


def _receipt_patterns(nu: int):
    """Every nonempty receipt set of nu versions, ascending."""
    for mask in range(1, 1 << nu):
        yield tuple(u + 1 for u in range(nu) if (mask >> u) & 1)


def split_fields(symbol: StoredSymbol, widths: Sequence[int]) -> list[int]:
    """A stored symbol's fixed-width fields, first written first.

    Raises DecodingError unless the widths cover the symbol exactly.
    """
    if sum(widths) != symbol.bit_length:
        raise DecodingError("stored length disagrees with state")
    fields = []
    payload = symbol.payload
    for width in widths:
        fields.append(payload & ((1 << width) - 1))
        payload >>= width
    return fields


class MvcScheme(ABC):
    """Shared contract: pure encode per server, pure decode per subset."""

    name: str = "abstract"

    def __init__(self, model: CorrelationModel, n: int, c: int) -> None:
        if not 1 <= c <= n:
            raise ValueError("need 1 <= c <= n")
        self.model = model
        self.n = n
        self.c = c

    @abstractmethod
    def encode(
        self, server: int, received: Iterable[int], versions: VersionTuple
    ) -> StoredSymbol:
        """Stored symbol for one server, a function of (server, received,
        the received versions' content) only."""

    @abstractmethod
    def decode(
        self,
        T: Sequence[int],
        state: SystemState,
        symbols: Mapping[int, StoredSymbol],
    ) -> Optional[Decoded]:
        """Newest version common to T (or newer), None when T shares
        nothing.  Raises DecodingError on symbols inconsistent with state."""

    def worst_case_cost(self) -> CostReport:
        """Analytic and realized worst-case per-server bits.

        Each scheme's model finds the realized maximum exactly without
        enumerating version tuples: its field widths depend only on the
        receipt pattern, or (rs-update) on a witness tuple per pattern.
        """
        raise TypeError(f"no cost model for scheme {self.name!r}")

    def _received_of(self, state: SystemState, server: int) -> tuple[int, ...]:
        return tuple(sorted(state.per_server[server]))


def _sorted_received(received: Iterable[int], nu: int) -> tuple[int, ...]:
    out = tuple(sorted(set(received)))
    if out and not (1 <= out[0] and out[-1] <= nu):
        raise ValueError("version index out of range")
    return out


class _RsBackedScheme(MvcScheme):
    """Base for schemes storing per-block Reed-Solomon symbol vectors."""

    def __init__(self, model: CorrelationModel, n: int, c: int) -> None:
        super().__init__(model, n, c)
        self.code = RsCode.standard(n, c)
        self.generator: BinaryGenerator = binary_expand_generator(
            self.code, model.K
        )

    @property
    def symbol_vector_bits(self) -> int:
        return self.generator.stored_bits_per_server

    def decode(self, T, state, symbols):
        target = latest_common_version(state, T)
        if target is None or len(T) < self.c:
            return None
        holders = []
        for server in T[: self.c]:
            received = self._received_of(state, server)
            vec = self._vector_at(server, received, symbols[server], target)
            holders.append((server, vec))
        return self._interpolate(holders, target)

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
        gen = self.generator
        m = gen.symbol_bits
        bits = 0
        for b in range(gen.blocks):
            window = [(s, (vec >> (b * m)) & ((1 << m) - 1)) for s, vec in holders]
            block = self.code.decode(window)
            for j, val in enumerate(block):
                bits |= val << (b * self.c * m + j * m)
        if bits >> self.model.K:
            raise DecodingError("nonzero padding in reconstructed message")
        return Decoded(version, Message(bits, self.model.K))


class ReplicationScheme(MvcScheme):
    """Each server keeps a full copy of the newest version it received."""

    name = "replication"

    def encode(self, server, received, versions):
        got = _sorted_received(received, len(versions))
        if not got:
            return StoredSymbol.empty()
        return StoredSymbol(versions.version(got[-1]).bits, self.model.K)

    def decode(self, T, state, symbols):
        if latest_common_version(state, T) is None:
            return None
        best = None
        for server in T:
            received = self._received_of(state, server)
            if not received:
                continue
            if best is None or received[-1] > best[0]:
                best = (received[-1], server)
        version, server = best
        sym = symbols[server]
        if sym.bit_length != self.model.K:
            raise DecodingError("full copy has wrong length")
        return Decoded(version, Message(sym.payload, self.model.K))

    def worst_case_cost(self):
        K = self.model.K
        return CostReport(self.name, float(K), float(K), K, 0)


class MdsMvcScheme(_RsBackedScheme):
    """One Reed-Solomon symbol vector per received version, concatenated in
    ascending version order."""

    name = "mds"

    def encode(self, server, received, versions):
        got = _sorted_received(received, len(versions))
        writer = BitWriter()
        for u in got:
            writer.write(
                self.generator.apply(server, versions.version(u).bits),
                self.symbol_vector_bits,
            )
        return StoredSymbol(writer.payload, writer.bit_length)

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

    def __init__(self, model: CorrelationModel, n: int, c: int) -> None:
        super().__init__(model, n, c)
        self._volumes: dict[int, int] = {}

    def _volume(self, gap: int) -> int:
        """Size of the Hamming ball a step across ``gap`` versions lies in."""
        volume = self._volumes.get(gap)
        if volume is None:
            K = self.model.K
            volume = hamming_ball_volume(min(gap * self.model.radius, K), K)
            self._volumes[gap] = volume
        return volume

    def _step_bits(self, gap: int) -> int:
        return (self._volume(gap) - 1).bit_length()

    def _widths(self, received: Sequence[int]) -> list[int]:
        """Field widths of a symbol: the base vector, then one ball index
        per later received version."""
        return [self.symbol_vector_bits] + [
            self._step_bits(b - a) for a, b in zip(received, received[1:])
        ]

    def encode(self, server, received, versions):
        got = _sorted_received(received, len(versions))
        if not got:
            return StoredSymbol.empty()
        writer = BitWriter()
        base = versions.version(got[0])
        writer.write(
            self.generator.apply(server, base.bits), self.symbol_vector_bits
        )
        prev = got[0]
        for u in got[1:]:
            diff = versions.version(u).bits ^ versions.version(prev).bits
            if diff.bit_count() > (u - prev) * self.model.radius:
                raise ValueError(
                    "difference weight exceeds the correlation model's step cap"
                )
            writer.write(ball_rank(diff, self.model.K), self._step_bits(u - prev))
            prev = u
        return StoredSymbol(writer.payload, writer.bit_length)

    def _vector_at(self, server, received, symbol, target):
        vec, *indices = split_fields(symbol, self._widths(received))
        for a, b, index in zip(received, received[1:], indices):
            if b > target:
                break
            if index >= self._volume(b - a):
                raise DecodingError(f"step index {index} outside its Hamming ball")
            vec ^= self.generator.apply(server, ball_unrank(index, self.model.K))
        return vec

    def worst_case_cost(self):
        model = self.model
        table = model.K / self.c + (model.nu - 1) * log2(model.ball_volume())
        worst = max(sum(self._widths(p)) for p in _receipt_patterns(model.nu))
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
    worst_case_cost reports it separately.
    """

    name = "rs-update"

    @property
    def _count_bits(self) -> int:
        return self.generator.blocks.bit_length()

    @property
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

    def encode(self, server, received, versions):
        got = _sorted_received(received, len(versions))
        if not got:
            return StoredSymbol.empty()
        gen = self.generator
        m = gen.symbol_bits
        blocks = gen.blocks
        writer = BitWriter()
        vec = gen.apply(server, versions.version(got[0]).bits)
        writer.write(vec, self.symbol_vector_bits)
        for u in got[1:]:
            new_vec = gen.apply(server, versions.version(u).bits)
            changed = self._changed_blocks(vec, new_vec)
            record_cost = len(changed) * (self._index_bits + m)
            if record_cost >= self.symbol_vector_bits:
                writer.write(blocks, self._count_bits)
                writer.write(new_vec, self.symbol_vector_bits)
            else:
                writer.write(len(changed), self._count_bits)
                for b in changed:
                    writer.write(b, self._index_bits)
                    writer.write((new_vec >> (b * m)) & ((1 << m) - 1), m)
            vec = new_vec
        return StoredSymbol(writer.payload, writer.bit_length)

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

    def _witness_tuple(self, pattern: tuple[int, ...]) -> VersionTuple:
        """A tuple inside the model that attains the per-gap analytic worst
        case.

        Between consecutive received versions a < b, flip one bit in each of
        min((b-a)*radius, blocks) distinct blocks, at in-block offset 0 so
        the flip lands in a nonzero generator row at every server (offset 0
        carries the block's constant coefficient, which no evaluation point
        kills).
        """
        model = self.model
        gen = self.generator
        block_bits = self.c * gen.symbol_bits
        current = 0
        values = {}
        prev = None
        for u in pattern:
            if prev is not None:
                budget = min((u - prev) * model.radius, gen.blocks, model.K)
                mask = 0
                placed = 0
                b = 0
                while placed < budget and b < gen.blocks:
                    pos = b * block_bits
                    if pos < model.K:
                        mask |= 1 << pos
                        placed += 1
                    b += 1
                current ^= mask
            values[u] = current
            prev = u
        filled = []
        last = 0
        for u in range(1, model.nu + 1):
            if u in values:
                last = values[u]
            filled.append(Message(last, model.K))
        return VersionTuple(tuple(filled))

    def worst_case_cost(self):
        """The realized maximum needs no sweep over version tuples: a step's
        record count depends only on its difference vector, and the
        analytic per-gap worst is attained by an in-model witness tuple,
        which is encoded to check it."""
        model = self.model
        K, nu, r, c = model.K, model.nu, model.radius, self.c
        gen = self.generator
        spb = self.symbol_vector_bits
        m = gen.symbol_bits
        nominal_blocks = max(1, K // (c * m))
        record = (nominal_blocks - 1).bit_length() + m
        table = K / c + (nu - 1) * min(r * record, K / c)
        per_gap_worst = {
            gap: self._count_bits
            + min(min(gap * r, gen.blocks, K) * (self._index_bits + m), spb)
            for gap in range(1, nu)
        }
        best = best_framing = measured = 0
        for pattern in _receipt_patterns(nu):
            gaps = [b - a for a, b in zip(pattern, pattern[1:])]
            cost = spb + sum(per_gap_worst[gap] for gap in gaps)
            if cost > best:
                best, best_framing = cost, len(gaps) * self._count_bits
            witness = self._witness_tuple(pattern)
            for server in range(self.n):
                sym = self.encode(server, pattern, witness)
                measured = max(measured, sym.bit_length)
        notes = self._padding_notes() + (
            f"count framing {best_framing} bits included",
        )
        return CostReport(
            self.name, table, float(best), measured, best_framing, notes
        )


class LatestOnlyScheme(_RsBackedScheme):
    """Anti-example: one symbol vector for the newest received version only.

    Storage-optimal and wrong: a reader needs c servers whose *newest*
    versions coincide, which concurrent writes do not guarantee.  Kept as
    the counterexample the honest schemes are verified against.
    """

    name = "latest-only"

    def encode(self, server, received, versions):
        got = _sorted_received(received, len(versions))
        if not got:
            return StoredSymbol.empty()
        return StoredSymbol(
            self.generator.apply(server, versions.version(got[-1]).bits),
            self.symbol_vector_bits,
        )

    def decode(self, T, state, symbols):
        by_version: dict[int, list[tuple[int, int]]] = {}
        for server in T:
            received = self._received_of(state, server)
            if not received:
                continue
            sym = symbols[server]
            if sym.bit_length != self.symbol_vector_bits:
                raise DecodingError("unexpected stored length")
            by_version.setdefault(received[-1], []).append((server, sym.payload))
        for version in sorted(by_version, reverse=True):
            holders = by_version[version]
            if len(holders) >= self.c:
                return self._interpolate(holders[: self.c], version)
        return None

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
