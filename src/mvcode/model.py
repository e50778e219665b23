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
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from typing import Callable, Iterator, Optional, Sequence

DEFAULT_ENUMERATION_CAP = 1 << 24


def format_count(x: int) -> str:
    """A nonnegative count in decimal, or past 64 bits as its magnitude,
    ``2^k`` or ``2^k.kk``, so a count too long for ``str`` still prints."""
    if x.bit_length() <= 64:
        return str(x)
    k = x.bit_length() - 1
    return f"2^{k}" if x == 1 << k else f"2^{math.log2(x):.2f}"


class EnumerationCapExceeded(RuntimeError):
    """An exhaustive walk would visit more elements than its cap allows.

    ``limit`` names the cap in the message."""

    def __init__(self, estimate: int, cap: int, limit: str = "cap"):
        super().__init__(
            f"enumeration would visit about {format_count(estimate)} elements, "
            f"{limit} is {format_count(cap)}"
        )
        self.estimate = estimate
        self.cap = cap


@cache
def hamming_ball_volume(radius: int, K: int) -> int:
    """Number of length-K bit vectors within Hamming distance ``radius`` of a point.

    Exact big-integer value of sum(C(K, j) for j in 0..radius), each
    binomial from the one before; computed once per (radius, K).
    """
    if radius < 0 or K < 0:
        raise ValueError("radius and K must be nonnegative")
    if radius > K:
        raise ValueError(f"radius {radius} exceeds vector length {K}")
    binomials = accumulate(range(radius), lambda b, j: b * (K - j) // (j + 1), initial=1)
    return sum(binomials)


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


@dataclass(frozen=True, slots=True)
class SystemState:
    """Which versions each server has received, and nothing else.

    ``per_server[i]`` is the set of 1-based version indices present at the
    0-based server i.  Quorum sizes belong to the consistency requirement
    being checked, so they are passed to the queries that need them.
    """

    per_server: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        # each distinct row once; a frozenset caches its hash
        for s in set(self.per_server):
            if s and min(s) < 1:
                raise ValueError("version indices are 1-based")

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


def newest_held(
    T: Sequence[int], per_server, k: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """(u, holders): the newest version u that at least k servers of T hold,
    with the first k of those servers in T's order; None when no version
    has k holders.  ``per_server[t]`` is server t's version set, for every
    server t of T."""
    held = [per_server[t] for t in T]
    if len(held) - held.count(frozenset()) < k:
        return None  # fewer than k servers hold anything
    for u in sorted(frozenset().union(*held), reverse=True):
        holders = [t for t in T if u in per_server[t]]
        if len(holders) >= k:
            return u, tuple(holders[:k])
    return None


def latest_complete_version(per_server: Sequence[frozenset], c_w: int) -> Optional[int]:
    """Largest version held by at least ``c_w`` of the n servers whose
    version sets are ``per_server`` (a write quorum), or None if there is
    none; ``c_w`` must lie in [1, n]."""
    if not 1 <= c_w <= len(per_server):
        raise ValueError("c_w must lie in [1, n]")
    found = newest_held(range(len(per_server)), per_server, c_w)
    return None if found is None else found[0]


def latest_common_version(rows: Sequence[frozenset[int]]) -> Optional[int]:
    """Largest version present in every row of T's ``rows``, or None."""
    if not rows:
        raise ValueError("T must be nonempty")
    common = frozenset.intersection(*rows)
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

# Every draw below calls ``getrandbits`` and nothing else, so it rests only
# on MT19937's 32-bit word stream, which Python keeps stable across
# versions.  A uniform r below m is random.Random's rejection loop spelled
# out: k = m.bit_length(), then redraw getrandbits(k) while r >= m.  Each
# sampler makes the getrandbits calls of the stdlib draw it names, so it
# draws what that draw draws and leaves the generator where it leaves it.
# The samplers take a generator's bound ``getrandbits`` and return ints, so
# a caller drawing many trials can build Messages, VersionTuples and member
# lists once per distinct draw; ``tuple_maker`` wraps the version values.

# Past this many distinct versions a tuple maker forgets the Messages it built.
_MESSAGE_MEMO = 1 << 12
# A generator's bound ``getrandbits``, the samplers' one source of draws.
_Draws = Callable[[int], int]


def tuple_sampler(model: CorrelationModel) -> Callable[[_Draws], tuple[int, ...]]:
    """A function that draws the version values of one tuple of ``model``
    from a ``getrandbits``, as ``sample_tuple`` does, with the per-model
    set-up done once here so a caller drawing many tuples pays it once.

    A step draws a uniform r below Vol, whose weight class is the weight
    j, then the first j swaps of a Fisher-Yates shuffle of range(K), swap
    i with a uniform one of i..K-1, as the stdlib's ``randrange`` does.
    The shuffle keeps only its moved entries; a weight-1 step flips its
    one drawn bit.
    """
    K = model.K
    cumulative = [hamming_ball_volume(j, K) for j in range(model.radius + 1)]
    total = cumulative[-1]
    total_bits = total.bit_length()
    spans = [(K - i, (K - i).bit_length()) for i in range(model.radius)]
    K_bits = K.bit_length()
    steps = range(model.nu - 1)

    def draw(getrandbits: _Draws) -> tuple[int, ...]:
        w = getrandbits(K)
        out = [w]
        for _ in steps:
            r = getrandbits(total_bits)
            while r >= total:
                r = getrandbits(total_bits)
            weight = bisect_right(cumulative, r)
            if weight == 1:
                j = getrandbits(K_bits)
                while j >= K:
                    j = getrandbits(K_bits)
                w ^= 1 << j
            elif weight:
                moved: dict[int, int] = {}
                for i in range(weight):
                    span, bits = spans[i]
                    j = getrandbits(bits)
                    while j >= span:
                        j = getrandbits(bits)
                    j += i
                    # position i is never drawn again, so only j keeps a move
                    w ^= 1 << moved.get(j, j)
                    moved[j] = moved.get(i, i)
            out.append(w)
        return tuple(out)

    return draw


def tuple_maker(K: int) -> Callable[[Sequence[int]], VersionTuple]:
    """A function that wraps version values of length K as a VersionTuple;
    each distinct value gets one Message, reused."""
    messages: dict[int, Message] = {}

    def make(values: Sequence[int]) -> VersionTuple:
        out = []
        for v in values:
            m = messages.get(v)
            if m is None:
                if len(messages) >= _MESSAGE_MEMO:
                    messages.clear()
                m = messages[v] = Message(v, K)
            out.append(m)
        return VersionTuple(tuple(out))

    return make


def subset_sampler(
    n: int, c: int
) -> tuple[Callable[[_Draws], int], Callable[[int], list[int]]]:
    """(draw, members) for c distinct members of range(n), drawn as
    ``random.Random.sample`` draws c of range(n): from a pool, moving its
    last member into each vacancy, while n is at most the stdlib's set
    size (21, grown for c > 5), and otherwise by redrawing from range(n)
    until a new member comes up.

    ``draw`` takes a ``getrandbits`` and returns a code of its raw uniform
    draws, digit i in radix n - i (pool) or n (set), first draw most
    significant; ``members`` turns a code into the members in draw order.
    """
    if not 0 <= c <= n:
        raise ValueError("subset size must lie in [0, n]")
    setsize = 21
    if c > 5:
        setsize += 4 ** math.ceil(math.log(c * 3, 4))
    if n <= setsize:
        spans = [(n - i, (n - i).bit_length()) for i in range(c)]

        def draw(getrandbits: _Draws) -> int:
            code = 0
            for span, bits in spans:
                j = getrandbits(bits)
                while j >= span:
                    j = getrandbits(bits)
                code = code * span + j
            return code

        def members(code: int) -> list[int]:
            picks = []
            for span, _ in reversed(spans):
                code, j = divmod(code, span)
                picks.append(j)
            pool = list(range(n))
            out = []
            for (span, _), j in zip(spans, reversed(picks)):
                out.append(pool[j])
                pool[j] = pool[span - 1]
            return out

        return draw, members

    bits = n.bit_length()
    picks = range(c)

    def draw(getrandbits: _Draws) -> int:
        code = 0
        selected = set()
        for _ in picks:
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            code = code * n + j
        return code

    def members(code: int) -> list[int]:
        out = []
        for _ in picks:
            code, j = divmod(code, n)
            out.append(j)
        return out[::-1]

    return draw, members


def sample_tuple(model: CorrelationModel, seed) -> VersionTuple:
    """Draw one admissible tuple: w_1 uniform, each successor uniform in its ball.

    ``seed`` is an int or a random.Random instance.  In-ball sampling is
    exact: first a weight j with probability C(K,j)/Vol, then a uniform
    j-subset of coordinates to flip.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return tuple_maker(model.K)(tuple_sampler(model)(rng.getrandbits))


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
