"""Binary extension field arithmetic and the Reed-Solomon codec over GF(2).

GF(2^m) is used only to build a code's block map: each server's map from a
c*m-bit message block to its m-bit symbol, as GF(2) row masks.  Encoding
XORs them once per block; decoding XORs the rows of the inverse of the c
holders' stacked maps, one c*m-square matrix per holder tuple, by
Gauss-Jordan elimination over GF(2) (the bit-matrix view of RS decoding).

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
    _cache: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
            raise InsufficientSymbolsError(f"need {self.c} symbols, got {len(pairs)}")
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
        stacked = sum(v << (i * m) for i, (_, v) in enumerate(pairs))
        bits = xor_rows(self.inverse(servers), stacked)
        return tuple((bits >> (j * m)) & ((1 << m) - 1) for j in range(self.c))

    def block_rows(self, server: int) -> tuple[int, ...]:
        """The server's block map, cached under the server: for bit j*m + t
        of a c*m-bit block (bit t of symbol j), the m-bit mask
        mul(2^t, point^j) it adds to the server's symbol."""
        rows = self._cache.get(server)
        if rows is None:
            f, point = self.field, self.evaluation_points[server]
            rows = self._cache[server] = tuple(
                f.mul(1 << t, f.pow(point, j)) for j in range(self.c) for t in range(f.m)
            )
        return rows

    def columns(self, key) -> tuple[tuple[int, ...], ...]:
        """``block_rows(key)`` of a server or ``inverse(key)`` of a holder
        tuple by column, cached beside them: for each bit of the map's
        output, the input bits that flip it."""
        columns = self._cache.get(("columns", key))
        if columns is None:
            holders = isinstance(key, tuple)
            rows = self.inverse(key) if holders else self.block_rows(key)
            # an inverse is c*m-square, and a block map has m-bit rows
            columns = self._cache["columns", key] = tuple(
                tuple(k for k, row in enumerate(rows) if row >> t & 1)
                for t in range(len(rows) if holders else self.field.m)
            )
        return columns

    def inverse(self, servers: tuple[int, ...]) -> tuple[int, ...]:
        """Rows of the inverse of the c servers' stacked block maps, cached
        under the tuple: for stacked symbol bit i*m + t (bit t of
        servers[i]), the block bits it flips."""
        masks = self._cache.get(servers)
        if masks is None:
            m = self.field.m
            rows = [self.block_rows(s) for s in servers]
            stacked = [sum(r << (i * m) for i, r in enumerate(k)) for k in zip(*rows)]
            masks = self._cache[servers] = gf2_inverse(stacked)
        return masks


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
    """The code's block map laid over K-bit messages.

    A K-bit message is zero-padded to ``padded_K`` bits and split into
    ``blocks`` blocks of c*m bits; block b goes through the code's
    ``block_rows`` into stored bits b*m..b*m+m-1 of each server, and
    decodes through its ``inverse``.
    """

    code: RsCode
    K: int
    padded_K: int
    blocks: int

    @cached_property
    def symbol_bits(self) -> int:
        return self.code.field.m

    @cached_property
    def stored_bits_per_server(self) -> int:
        return self.blocks * self.symbol_bits

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Every server's flat generator: a stored-bit mask per padded bit."""
        shifts = [b * self.symbol_bits for b in range(self.blocks)]
        servers = map(self.code.block_rows, range(self.code.n))
        return tuple(tuple(r << s for s in shifts for r in rows) for rows in servers)

    def apply(self, server: int, message_bits: int) -> int:
        """Stored bit string (packed int) for a full message at one server."""
        rows = self.code.block_rows(server)
        chunk = (1 << len(rows)) - 1
        out = shift = 0
        while message_bits:
            out |= xor_rows(rows, message_bits & chunk) << shift
            message_bits >>= len(rows)
            shift += self.symbol_bits
        return out

    def solve(self, holders: Sequence[tuple[int, int]]) -> int:
        """The padded message stored as the given (server, stored bits)
        pairs at exactly c distinct servers."""
        masks = self.code.inverse(tuple(s for s, _ in holders))
        m, bits = self.symbol_bits, 0
        for b in range(self.blocks):
            stacked = 0
            for i, (_, vec) in enumerate(holders):
                stacked |= (vec >> (b * m) & ((1 << m) - 1)) << (i * m)
            bits |= xor_rows(masks, stacked) << (b * len(masks))
        return bits


def binary_expand_generator(code: RsCode, K: int) -> BinaryGenerator:
    """The GF(2) view of ``code``'s per-server symbol maps for K-bit messages.

    K is padded up to a multiple of c*m.  Every message bit lands in exactly
    one block, so each row touches at most one stored symbol per server.
    Only the layout is computed here.
    """
    block_bits = code.c * code.field.m
    blocks = -(-K // block_bits)
    return BinaryGenerator(code=code, K=K, padded_K=blocks * block_bits, blocks=blocks)
