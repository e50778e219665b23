"""Binary extension field arithmetic and the Reed-Solomon codec over GF(2).

GF(2^m) is used only to build a code's generator: each server's map from
message bits to stored bits, expanded into GF(2) row masks.  Encoding XORs
those masks; decoding XORs the masks of the inverse of the c holders'
stacked generator, computed once per holder tuple by Gauss-Jordan
elimination over GF(2) (the bit-matrix view of Reed-Solomon decoding).

Fields GF(2^m) are built from a deterministic reduction polynomial: among
all degree-m polynomials with nonzero constant term, ordered first by term
count and then by value, the first irreducible one is chosen.  The search
result never changes, so encodings are bit-exact across runs and
implementations that follow the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from typing import Sequence


class InsufficientSymbolsError(ValueError):
    """Fewer codeword symbols supplied than the code dimension requires."""


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(2), used for the irreducibility search and
# for every field product (``Field.mul``).

def _poly_mod(a: int, mod: int) -> int:
    width = mod.bit_length()
    while a.bit_length() >= width:
        a ^= mod << (a.bit_length() - width)
    return a


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    deg = mod.bit_length() - 1
    a = _poly_mod(a, mod)
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= mod
    return result


@lru_cache(maxsize=None)
def irreducible_polynomial(m: int) -> int:
    """The fixed degree-m reduction polynomial (see module docstring)."""
    if not 1 <= m <= 16:
        raise ValueError("supported extension degrees are 1..16")
    candidates = sorted(
        range((1 << m) | 1, 1 << (m + 1), 2), key=lambda v: (v.bit_count(), v)
    )
    # A reducible polynomial has a factor of degree at most m/2.
    divisors = range(2, 1 << (m // 2 + 1))
    return next(p for p in candidates if all(_poly_mod(p, d) for d in divisors))


@dataclass(frozen=True)
class Field:
    """GF(2^m) reduced by the fixed polynomial ``irreducible_polynomial(m)``."""

    m: int
    polynomial: int = dataclass_field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "polynomial", irreducible_polynomial(self.m))

    @property
    def order(self) -> int:
        return 1 << self.m

    def mul(self, a: int, b: int) -> int:
        return _poly_mulmod(a, b, self.polynomial)

    def pow(self, a: int, exp: int) -> int:
        result = 1
        base = a
        while exp:
            if exp & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exp >>= 1
        return result


@dataclass(frozen=True)
class RsCode:
    """An (n, c) Reed-Solomon code: evaluate degree-(c-1) polynomials at n points.

    Coordinate i of a codeword is the message polynomial evaluated at the
    field element i, so ``evaluation_points`` is 0..n-1.  Any c coordinates
    determine the message because the points are pairwise distinct.
    """

    field: Field
    n: int
    c: int
    evaluation_points: tuple[int, ...] = dataclass_field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.c <= self.n:
            raise ValueError("need 1 <= c <= n")
        if self.n > self.field.order:
            raise ValueError(
                f"GF(2^{self.field.m}) has {self.field.order} evaluation points, "
                f"need n={self.n}"
            )
        object.__setattr__(self, "evaluation_points", tuple(range(self.n)))

    @classmethod
    def standard(cls, n: int, c: int) -> "RsCode":
        """The code used throughout this package: GF(2^ceil(log2 n)),
        evaluation points 0..n-1 in integer order."""
        m = max(1, (n - 1).bit_length())
        if m > 16:
            raise ValueError(
                "n must be at most 65536, the evaluation points of GF(2^16), "
                f"got {n}"
            )
        return cls(Field(m), n, c)

    def encode(self, block: Sequence[int]) -> tuple[int, ...]:
        """All n codeword symbols of a c-symbol message block."""
        if len(block) != self.c:
            raise ValueError(f"block must have exactly {self.c} symbols")
        f = self.field
        out = []
        for point in self.evaluation_points:
            acc = 0
            for coef in reversed(block):
                acc = f.mul(acc, point) ^ coef
            out.append(acc)
        return tuple(out)

    def decode(self, symbols: Sequence[tuple[int, int]]) -> tuple[int, ...]:
        """Recover a message block from exactly c (coordinate, symbol) pairs."""
        pairs = list(symbols)
        if len(pairs) < self.c:
            raise InsufficientSymbolsError(
                f"need {self.c} symbols, got {len(pairs)}"
            )
        if len(pairs) > self.c:
            raise ValueError(f"need exactly {self.c} symbols, got {len(pairs)}")
        servers = tuple(s for s, _ in pairs)
        if len(set(servers)) != len(servers):
            raise ValueError("repeated coordinate in decode input")
        if any(not 0 <= s < self.n for s in servers):
            raise ValueError("coordinate index out of range")
        if any(not 0 <= v < self.field.order for _, v in pairs):
            raise ValueError("symbol outside the field")
        m = self.field.m
        bits = self._block_generator.solve(pairs)
        return tuple((bits >> (j * m)) & ((1 << m) - 1) for j in range(self.c))

    @cached_property
    def _block_generator(self) -> "BinaryGenerator":
        return binary_expand_generator(self, self.c * self.field.m)


# ---------------------------------------------------------------------------
# The bit-level view of the per-server maps.

def xor_rows(rows: Sequence[int], bits: int) -> int:
    """XOR of ``rows[k]`` over the set bits k of ``bits``: a vector times a
    GF(2) matrix whose row k is the bitmask ``rows[k]``."""
    out = 0
    while bits:
        low = bits & -bits
        out ^= rows[low.bit_length() - 1]
        bits ^= low
    return out


def gf2_columns(rows: Sequence[int], width: int) -> tuple[tuple[int, ...], ...]:
    """A GF(2) matrix by column: for each bit k < width, the rows with it set."""
    columns: list[list[int]] = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            columns[low.bit_length() - 1].append(i)
            row ^= low
    return tuple(map(tuple, columns))


def gf2_inverse(rows: Sequence[int]) -> tuple[int, ...]:
    """Rows of the inverse of a square GF(2) matrix given as row bitmasks,
    by Gauss-Jordan elimination on the matrix augmented with the identity."""
    size = len(rows)
    if any(row >> size for row in rows):
        raise ValueError("GF(2) matrix is not square")
    aug = [row | (1 << (size + i)) for i, row in enumerate(rows)]
    for col in range(size):
        bit = 1 << col
        pivot = next((r for r in range(col, size) if aug[r] & bit), None)
        if pivot is None:
            raise ValueError("singular GF(2) matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(size):
            if r != col and aug[r] & bit:
                aug[r] ^= aug[col]
    return tuple(row >> size for row in aug)


@dataclass(frozen=True)
class BinaryGenerator:
    """Per-server binary expansion of a block-structured Reed-Solomon encoder.

    A K-bit message is zero-padded to ``padded_K`` bits, split into
    ``blocks`` blocks of c*m bits, and each block contributes one m-bit
    symbol per server.  ``rows[i]`` holds, for message bit k, the mask of
    stored bits at server i that flip when bit k flips; flattening these
    masks gives the server's K x (blocks*m) generator over GF(2).

    Any c servers' generators, stacked, form a square padded_K x padded_K
    matrix; ``solve`` decodes with its inverse, cached per holder tuple.
    """

    code: RsCode
    K: int
    padded_K: int
    blocks: int
    _inverses: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _columns: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def symbol_bits(self) -> int:
        return self.code.field.m

    @cached_property
    def stored_bits_per_server(self) -> int:
        return self.blocks * self.symbol_bits

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        f, m, c = self.code.field, self.symbol_bits, self.code.c
        block_bits = c * m
        rows_per_server = []
        for point in self.code.evaluation_points:
            # Bit t' of message symbol j contributes mul(2^t', point^j) to the
            # stored symbol of its block.
            contribution = [
                [f.mul(1 << t, f.pow(point, j)) for t in range(m)] for j in range(c)
            ]
            rows = []
            for k in range(self.padded_K):
                block, offset = divmod(k, block_bits)
                j, t = divmod(offset, m)
                rows.append(contribution[j][t] << (block * m))
            rows_per_server.append(tuple(rows))
        return tuple(rows_per_server)

    def apply(self, server: int, message_bits: int) -> int:
        """Stored bit string (packed int) for a full message at one server."""
        return xor_rows(self.rows[server], message_bits)

    def solve(self, holders: Sequence[tuple[int, int]]) -> int:
        """The padded message stored as the given (server, stored bits)
        pairs at exactly c distinct servers."""
        servers = tuple(s for s, _ in holders)
        masks = self._inverses.get(servers) or self.inverse(servers)
        width = self.stored_bits_per_server
        stacked = 0
        for i, (_, vec) in enumerate(holders):
            stacked |= vec << (i * width)
        return xor_rows(masks, stacked)

    def inverse(self, servers: tuple[int, ...]) -> tuple[int, ...]:
        """Rows of the inverse of the given c servers' stacked generator,
        cached: one message mask per bit of their concatenated stored
        bits."""
        masks = self._inverses.get(servers)
        if masks is None:
            width = self.stored_bits_per_server
            stacked = [
                sum(self.rows[s][k] << (i * width) for i, s in enumerate(servers))
                for k in range(self.padded_K)
            ]
            masks = self._inverses[servers] = gf2_inverse(stacked)
        return masks

    def columns(self, server: int) -> tuple[tuple[int, ...], ...]:
        """The server's generator by column, cached: for each stored bit,
        the message bits below K that flip it (padding bits are zero)."""
        if server not in self._columns:
            rows = self.rows[server][: self.K]
            self._columns[server] = gf2_columns(rows, self.stored_bits_per_server)
        return self._columns[server]

    def inverse_columns(self, servers: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """``inverse(servers)`` by column, cached: for each padded message
        bit, the bits of the servers' stacked stored bits that flip it."""
        if servers not in self._columns:
            self._columns[servers] = gf2_columns(self.inverse(servers), self.padded_K)
        return self._columns[servers]


def binary_expand_generator(code: RsCode, K: int) -> BinaryGenerator:
    """The GF(2) view of ``code``'s per-server symbol maps for K-bit messages.

    K is padded up to a multiple of c*m.  Every message bit lands in exactly
    one block, so each row touches at most one stored symbol per server.
    Only the layout is computed here; the row masks are built on first use.
    """
    block_bits = code.c * code.field.m
    blocks = -(-K // block_bits)
    return BinaryGenerator(code=code, K=K, padded_K=blocks * block_bits, blocks=blocks)
