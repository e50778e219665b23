"""Core types for versioned bit-vector data and quorum system states.

Conventions used throughout the package:

  * Version indices are 1-based: a system holds versions 1..nu, and larger
    index means newer.
  * Server indices are 0-based.
  * A length-K bit vector is packed into a Python int; bit ``i-1`` of the
    int is coordinate ``i`` of the vector.  This coordinate order is part
    of the wire contract.

Successive versions are correlated: version m+1 always lies within a fixed
Hamming distance (the model radius) of version m.  The functions below
enumerate and sample the resulting set of admissible version tuples, and
compute its combinatorics exactly with big integers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

DEFAULT_ENUMERATION_CAP = 1 << 24


class EnumerationCapExceeded(RuntimeError):
    """An exhaustive walk would visit more elements than the configured cap,
    or than a fixed internal limit, which ``message`` then names."""

    def __init__(self, estimate: int, cap: int, message: Optional[str] = None):
        super().__init__(
            message
            or f"enumeration would visit about {estimate} elements, cap is {cap}"
        )
        self.estimate = estimate
        self.cap = cap


def hamming_ball_volume(radius: int, K: int) -> int:
    """Number of length-K bit vectors within Hamming distance ``radius`` of a point.

    Exact big-integer value of sum(C(K, j) for j in 0..radius).
    """
    if radius < 0 or K < 0:
        raise ValueError("radius and K must be nonnegative")
    if radius > K:
        raise ValueError(f"radius {radius} exceeds vector length {K}")
    return sum(math.comb(K, j) for j in range(radius + 1))


@dataclass(frozen=True, slots=True)
class Message:
    """One data version: a fixed-length bit vector packed into an int."""

    bits: int
    K: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be positive")
        if not 0 <= self.bits < (1 << self.K):
            raise ValueError("bits out of range for length K")

    def coordinate(self, i: int) -> int:
        """Bit at 1-based coordinate i."""
        if not 1 <= i <= self.K:
            raise IndexError(f"coordinate {i} out of range 1..{self.K}")
        return (self.bits >> (i - 1)) & 1

    def distance_to(self, other: "Message") -> int:
        if other.K != self.K:
            raise ValueError("messages have different lengths")
        return (self.bits ^ other.bits).bit_count()

    def to_hex(self) -> str:
        return f"{self.bits:0{(self.K + 3) // 4}x}"


@dataclass(frozen=True, slots=True)
class CorrelationModel:
    """Parameters of the version chain: length K, step radius, version count nu."""

    K: int
    radius: int
    nu: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be positive")
        if not 0 <= self.radius <= self.K:
            raise ValueError("radius must lie in [0, K]")
        if self.nu < 1:
            raise ValueError("nu must be at least 1")

    def ball_volume(self) -> int:
        return hamming_ball_volume(self.radius, self.K)

    def tuple_count(self) -> int:
        """Exact number of admissible version tuples: 2^K * Vol^(nu-1)."""
        return (1 << self.K) * self.ball_volume() ** (self.nu - 1)

    def contains(self, versions: "VersionTuple") -> bool:
        if len(versions) != self.nu:
            return False
        if any(m.K != self.K for m in versions.versions):
            return False
        return all(d <= self.radius for d in versions.consecutive_distances())


@dataclass(frozen=True, slots=True)
class VersionTuple:
    """An ordered tuple of versions (w_1, ..., w_nu)."""

    versions: tuple[Message, ...]

    def __len__(self) -> int:
        return len(self.versions)

    def version(self, u: int) -> Message:
        """The u-th version, 1-based."""
        return self.versions[u - 1]

    def consecutive_distances(self) -> tuple[int, ...]:
        return tuple(
            a.distance_to(b) for a, b in zip(self.versions, self.versions[1:])
        )

    def to_hex(self) -> str:
        return ",".join(m.to_hex() for m in self.versions)


@dataclass(frozen=True, slots=True)
class SystemState:
    """Which versions each server has received, and nothing else.

    ``per_server[i]`` is the set of 1-based version indices present at the
    0-based server i.  Quorum sizes belong to the consistency requirement
    being checked, so they are passed to the queries that need them.
    """

    per_server: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for s in self.per_server:
            if any(u < 1 for u in s):
                raise ValueError("version indices are 1-based")

    @property
    def n(self) -> int:
        return len(self.per_server)

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical hashable form, used in reports and memo tables."""
        return tuple(tuple(sorted(s)) for s in self.per_server)


def iter_states(n: int, nu: int) -> Iterator[SystemState]:
    """All states in lexicographic order of their n*nu inclusion bits.

    Server 0's row occupies the most significant bits, version 1 the least
    significant bit within a row, so the order (and with it every witness
    list) is reproducible.
    """
    row_bits = 1 << nu
    rows = [
        frozenset(u for u in range(1, nu + 1) if (block >> (u - 1)) & 1)
        for block in range(row_bits)
    ]
    for code in range(row_bits**n):
        sets = []
        for i in range(n):
            sets.append(rows[(code >> ((n - 1 - i) * nu)) & (row_bits - 1)])
        yield SystemState(tuple(sets))


def latest_complete_version(state: SystemState, c_w: int) -> Optional[int]:
    """Largest version held by at least ``c_w`` servers (a write quorum),
    or None if there is none; ``c_w`` must lie in [1, n]."""
    if not 1 <= c_w <= state.n:
        raise ValueError("c_w must lie in [1, n]")
    holders = Counter(u for s in state.per_server for u in s)
    return max((u for u, k in holders.items() if k >= c_w), default=None)


def latest_common_version(state: SystemState, T: Sequence[int]) -> Optional[int]:
    """Largest version present at every server of T, or None."""
    servers = list(T)
    if not servers:
        raise ValueError("T must be nonempty")
    common = frozenset.intersection(*(state.per_server[t] for t in servers))
    return max(common) if common else None


# ---------------------------------------------------------------------------
# Hamming ball iteration and ranking.

def iter_ball_masks(K: int, radius: int) -> Iterator[int]:
    """XOR masks of all points within ``radius`` of a center, ascending weight.

    Within one weight class the masks follow lexicographic order of their
    support sets; the overall order is deterministic and documented.
    """
    if radius > K:
        raise ValueError("radius exceeds K")
    for j in range(radius + 1):
        for positions in combinations(range(K), j):
            mask = 0
            for p in positions:
                mask |= 1 << p
            yield mask


def _colex_rank(positions: Sequence[int]) -> int:
    return sum(math.comb(p, t) for t, p in enumerate(positions, start=1))


def _colex_unrank(rank: int, size: int) -> tuple[int, ...]:
    positions = []
    for t in range(size, 0, -1):
        # largest p with C(p, t) <= rank
        p = t - 1
        while math.comb(p + 1, t) <= rank:
            p += 1
        positions.append(p)
        rank -= math.comb(p, t)
    return tuple(reversed(positions))


def ball_rank(mask: int, K: int) -> int:
    """Index of a ball offset: weight classes ascending, colexicographic inside.

    The map is a bijection between masks of weight <= r and
    range(hamming_ball_volume(r, K)) for every r >= weight(mask); the index
    never depends on r, so the inverse needs no radius either.
    """
    if mask >= (1 << K):
        raise ValueError("mask wider than K")
    w = mask.bit_count()
    offset = hamming_ball_volume(w - 1, K) if w else 0
    positions = [p for p in range(K) if (mask >> p) & 1]
    return offset + _colex_rank(positions)


def ball_unrank(index: int, K: int) -> int:
    """Inverse of ball_rank."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    w = 0
    while hamming_ball_volume(w, K) <= index:
        w += 1
        if w > K:
            raise ValueError("index out of range")
    if w == 0:
        return 0
    rem = index - hamming_ball_volume(w - 1, K)
    mask = 0
    for p in _colex_unrank(rem, w):
        mask |= 1 << p
    return mask


# ---------------------------------------------------------------------------
# Sampling and enumeration of admissible tuples.

def _sample_positions(rng: random.Random, count: int, K: int) -> list[int]:
    # Partial Fisher-Yates; spelled out so the draw sequence is stable
    # across Python versions.
    pool = list(range(K))
    for idx in range(count):
        swap = rng.randrange(idx, K)
        pool[idx], pool[swap] = pool[swap], pool[idx]
    return pool[:count]


def sample_tuple(model: CorrelationModel, seed) -> VersionTuple:
    """Draw one admissible tuple: w_1 uniform, each successor uniform in its ball.

    ``seed`` is an int or a random.Random instance.  In-ball sampling is
    exact: first a weight j with probability C(K,j)/Vol, then a uniform
    j-subset of coordinates to flip.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    K = model.K
    cumulative = [hamming_ball_volume(j, K) for j in range(model.radius + 1)]
    total = cumulative[-1]
    w = rng.getrandbits(K)
    out = [w]
    for _ in range(model.nu - 1):
        draw = rng.randrange(total)
        weight = bisect_right(cumulative, draw)
        mask = 0
        for p in _sample_positions(rng, weight, K):
            mask |= 1 << p
        w ^= mask
        out.append(w)
    return VersionTuple(tuple(Message(v, K) for v in out))


def enumerate_possible_set(
    model: CorrelationModel, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[VersionTuple]:
    """Every admissible tuple exactly once, in a fixed deterministic order."""
    count = model.tuple_count()
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    K, radius, nu = model.K, model.radius, model.nu
    masks = list(iter_ball_masks(K, radius))

    def walk(prefix: list[int]) -> Iterator[VersionTuple]:
        if len(prefix) == nu:
            yield VersionTuple(tuple(Message(v, K) for v in prefix))
            return
        for mask in masks:
            prefix.append(prefix[-1] ^ mask)
            yield from walk(prefix)
            prefix.pop()

    for first in range(1 << K):
        yield from walk([first])
