"""Binary extension field arithmetic and the Vandermonde Reed-Solomon codec.

Fields GF(2^m) are built from a deterministic reduction polynomial: among
all degree-m polynomials with nonzero constant term, ordered first by term
count and then by value, the first irreducible one is chosen.  The search
result never changes, so encodings are bit-exact across runs and
implementations that follow the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Sequence


class InsufficientSymbolsError(ValueError):
    """Fewer codeword symbols supplied than the code dimension requires."""


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(2), used for the irreducibility search.

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


@lru_cache(maxsize=None)
def _mul_table(m: int, polynomial: int) -> tuple[int, ...]:
    size = 1 << m
    table = [0] * (size * size)
    for a in range(size):
        for b in range(a, size):
            p = _poly_mulmod(a, b, polynomial)
            table[(a << m) | b] = p
            table[(b << m) | a] = p
    return tuple(table)


@dataclass(frozen=True)
class Field:
    """GF(2^m) reduced by the fixed polynomial ``irreducible_polynomial(m)``."""

    m: int
    polynomial: int = dataclass_field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "polynomial", irreducible_polynomial(self.m))
        table = _mul_table(self.m, self.polynomial) if self.m <= 8 else None
        object.__setattr__(self, "_mul_table", table)

    @property
    def order(self) -> int:
        return 1 << self.m

    def mul(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[(a << self.m) | b]
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

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)


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
        object.__setattr__(self, "_inverse_cache", {})

    @classmethod
    def standard(cls, n: int, c: int) -> "RsCode":
        """The code used throughout this package: GF(2^ceil(log2 n)),
        evaluation points 0..n-1 in integer order."""
        m = max(1, (n - 1).bit_length())
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

    def _inverse_rows(self, servers: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        cache = self._inverse_cache
        rows = cache.get(servers)
        if rows is None:
            rows = self._invert_vandermonde(servers)
            cache[servers] = rows
        return rows

    def _invert_vandermonde(
        self, servers: tuple[int, ...]
    ) -> tuple[tuple[int, ...], ...]:
        f = self.field
        c = self.c
        # Rows are (1, p, p^2, ..., p^(c-1)) per chosen coordinate.
        matrix = [
            [f.pow(self.evaluation_points[s], k) for k in range(c)] for s in servers
        ]
        identity = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
        for col in range(c):
            pivot = next(r for r in range(col, c) if matrix[r][col])
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            identity[col], identity[pivot] = identity[pivot], identity[col]
            inv_p = f.inv(matrix[col][col])
            matrix[col] = [f.mul(inv_p, v) for v in matrix[col]]
            identity[col] = [f.mul(inv_p, v) for v in identity[col]]
            for r in range(c):
                if r != col and matrix[r][col]:
                    factor = matrix[r][col]
                    matrix[r] = [
                        v ^ f.mul(factor, w) for v, w in zip(matrix[r], matrix[col])
                    ]
                    identity[r] = [
                        v ^ f.mul(factor, w)
                        for v, w in zip(identity[r], identity[col])
                    ]
        # identity is now the inverse; its row j recovers block coefficient j.
        return tuple(tuple(row) for row in identity)

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
        rows = self._inverse_rows(servers)
        f = self.field
        values = [v for _, v in pairs]
        block = []
        for row in rows:
            acc = 0
            for coef, sym in zip(row, values):
                acc ^= f.mul(coef, sym)
            block.append(acc)
        return tuple(block)


# ---------------------------------------------------------------------------
# The bit-level view of the per-server maps.

@dataclass(frozen=True)
class BinaryGenerator:
    """Per-server binary expansion of a block-structured Reed-Solomon encoder.

    A K-bit message is zero-padded to ``padded_K`` bits, split into
    ``blocks`` blocks of c*m bits, and each block contributes one m-bit
    symbol per server.  ``rows[i]`` holds, for message bit k, the mask of
    stored bits at server i that flip when bit k flips; flattening these
    masks gives the server's K x (blocks*m) generator over GF(2).
    """

    code: RsCode
    K: int
    padded_K: int
    blocks: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def symbol_bits(self) -> int:
        return self.code.field.m

    @property
    def stored_bits_per_server(self) -> int:
        return self.blocks * self.symbol_bits

    def apply(self, server: int, message_bits: int) -> int:
        """Stored bit string (packed int) for a full message at one server."""
        out = 0
        row = self.rows[server]
        remaining = message_bits
        while remaining:
            k = (remaining & -remaining).bit_length() - 1
            out ^= row[k]
            remaining &= remaining - 1
        return out


def binary_expand_generator(code: RsCode, K: int) -> BinaryGenerator:
    """Expand the per-server symbol maps of ``code`` into GF(2) row masks.

    K is padded up to a multiple of c*m.  Every message bit lands in exactly
    one block, so each row touches at most one stored symbol per server.
    """
    f = code.field
    m = f.m
    c = code.c
    block_bits = c * m
    padded = -(-K // block_bits) * block_bits
    blocks = padded // block_bits
    rows_per_server = []
    for server in range(code.n):
        point = code.evaluation_points[server]
        # Bit t' of message symbol j contributes mul(2^t', point^j) to the
        # stored symbol of its block.
        contribution = [
            [f.mul(1 << t, f.pow(point, j)) for t in range(m)] for j in range(c)
        ]
        rows = []
        for k in range(padded):
            block, offset = divmod(k, block_bits)
            j, t = divmod(offset, m)
            rows.append(contribution[j][t] << (block * m))
        rows_per_server.append(tuple(rows))
    return BinaryGenerator(
        code=code, K=K, padded_K=padded, blocks=blocks, rows=tuple(rows_per_server)
    )
