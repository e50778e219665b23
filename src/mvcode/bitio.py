"""Append-only bit stream on top of a Python integer.

Bit position 0 is the first bit written and the first bit read.  Values are
packed least-significant-bit first, so ``write(v, b)`` followed by
``read(b)`` round-trips v exactly.  A finished stream becomes a
StoredSymbol's (payload, bit_length) pair; there is no byte encoding.
"""

from __future__ import annotations


class BitWriter:
    __slots__ = ("_acc", "_length")

    def __init__(self) -> None:
        self._acc = 0
        self._length = 0

    def write(self, value: int, bits: int) -> None:
        if bits < 0:
            raise ValueError("bit count must be nonnegative")
        if value < 0 or value >> bits:
            raise ValueError(f"value {value} does not fit in {bits} bits")
        self._acc |= value << self._length
        self._length += bits

    @property
    def bit_length(self) -> int:
        return self._length

    @property
    def payload(self) -> int:
        return self._acc


class BitReader:
    __slots__ = ("_acc", "_length", "_pos")

    def __init__(self, payload: int, bit_length: int) -> None:
        if payload < 0 or payload >> bit_length:
            raise ValueError("payload wider than declared length")
        self._acc = payload
        self._length = bit_length
        self._pos = 0

    def read(self, bits: int) -> int:
        if bits < 0:
            raise ValueError("bit count must be nonnegative")
        if self._pos + bits > self._length:
            raise ValueError("read past end of stream")
        value = (self._acc >> self._pos) & ((1 << bits) - 1)
        self._pos += bits
        return value

    @property
    def exhausted(self) -> bool:
        return self._pos == self._length
