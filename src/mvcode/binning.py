"""Random-bin storage codes over correlated version chains.

A server that received versions s_1 < ... < s_t of a K-bit object stores one
short *bin index* per received version instead of any content.  The index is
a pseudorandom fingerprint of the version's value, long enough that across
any c servers the stored fingerprints pin down the newest version they all
received: a reader enumerates every admissible assignment of values to the
versions the group received and keeps the assignments matching all stored
indices.  Decoding succeeds when the survivors agree on the newest common
version's value; they may still disagree about older versions, which is
harmless.

Index lengths follow a two-shape rate allocation.  The first version a
server received pays for full content, K bits, plus chain slack; every later
one pays only for the conditional uncertainty of its gap from the previously
received version, the log of a Hamming-ball volume.  Both shapes include a
safety term -log2(epsilon * 2^(-nu*n)) so a union bound over the at most
2^(nu*n) reachable states keeps the total failure probability below epsilon.

Two codebook kinds are supported.  "random-uniform" draws each index i.i.d.
uniform: an explicit table for K <= 16, a keyed hash beyond.  "linear"
multiplies the value by a seeded random binary matrix, whose column-prefix
structure gives the same truncation semantics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import ceil, lcm, log2
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .bitio import BitWriter
from .bounds import LOG_DIGITS, log2_decimal
from .galois import xor_rows
from .model import (
    DEFAULT_ENUMERATION_CAP,
    CorrelationModel,
    EnumerationCapExceeded,
    Message,
    SystemState,
    VersionTuple,
    hamming_ball_volume,
    iter_ball_masks,
    iter_states,
    latest_common_version,
    sample_tuple,
)
from .schemes import (
    CostReport,
    Decoded,
    DecodingError,
    MvcScheme,
    StoredSymbol,
    register_scheme,
    split_fields,
)
from .verifier import _exhaustive_run, wilson_interval


class RateTerm(NamedTuple):
    """A rate expressed symbolically as a + b*log2(Vol) + e*log2(epsilon).

    Keeping the rational coefficients exact lets width ceilings and region
    slacks be decided exactly, by comparing big-integer powers; in
    particular a slack that is identically zero comes out as exactly zero.
    """

    constant: Fraction
    vol_coeff: Fraction
    eps_coeff: Fraction

    def plus(self, other: "RateTerm") -> "RateTerm":
        return RateTerm(
            self.constant + other.constant,
            self.vol_coeff + other.vol_coeff,
            self.eps_coeff + other.eps_coeff,
        )

    def minus(self, other: "RateTerm") -> "RateTerm":
        return RateTerm(
            self.constant - other.constant,
            self.vol_coeff - other.vol_coeff,
            self.eps_coeff - other.eps_coeff,
        )

    def is_zero(self) -> bool:
        return not (self.constant or self.vol_coeff or self.eps_coeff)


_ZERO_TERM = RateTerm(Fraction(0), Fraction(0), Fraction(0))


def _as_term(value) -> RateTerm:
    if isinstance(value, RateTerm):
        return value
    return RateTerm(Fraction(value), Fraction(0), Fraction(0))


@dataclass(frozen=True, eq=False)
class RateAllocation:
    """Per (server, version) bin-index lengths for one system configuration.

    An allocation compares and hashes by identity, so the decode-plan cache
    that keys on it costs no field hashing per decode.

    The real-valued rate of version u at a server whose receipt set is
    s_1 < ... < s_t is, in bits:

        first received (u = s_1):  (K + (u-1)*log2(Vol) + (u-1) + E) / c
        later received (u = s_j):  ((s_j - s_{j-1})*log2(Vol) + (u-1) + E) / c

    where Vol is the single-step ball volume and E = nu*n - log2(epsilon) is
    the per-decode error budget.  Realized widths are the ceilings of these;
    the ceiling slack is reported, not silently absorbed.
    """

    model: CorrelationModel
    n: int
    c: int
    epsilon: Fraction
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.c <= self.n:
            raise ValueError("need 1 <= c <= n")
        eps = Fraction(self.epsilon)
        if not 0 < eps < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        object.__setattr__(self, "epsilon", eps)

    # -- symbolic rates ---------------------------------------------------

    def rate_term(self, received: Iterable[int], u: int) -> RateTerm:
        got = tuple(sorted(set(received)))
        if not got or got[0] < 1 or got[-1] > self.model.nu:
            raise ValueError("receipt set out of range")
        if u not in got:
            raise ValueError(f"version {u} not in receipt set {got}")
        budget = Fraction(self.model.nu * self.n)
        pos = got.index(u)
        if pos == 0:
            const = Fraction(self.model.K + (u - 1)) + budget
            vol = Fraction(u - 1)
        else:
            const = Fraction(u - 1) + budget
            vol = Fraction(u - got[pos - 1])
        return RateTerm(const / self.c, vol / self.c, Fraction(-1, self.c))

    def evaluate(self, term: RateTerm) -> float:
        """Numeric value of a symbolic rate, in bits, rounded once."""
        if term.is_zero():
            return 0.0
        if "logs" not in self._cache:
            self._cache["logs"] = (
                log2_decimal(self.model.ball_volume()),
                log2_decimal(self.epsilon),
            )
        log_vol, log_eps = self._cache["logs"]
        with localcontext() as ctx:
            ctx.prec = LOG_DIGITS
            total = Decimal(0)
            for coeff, log in (
                (term.constant, 1),
                (term.vol_coeff, log_vol),
                (term.eps_coeff, log_eps),
            ):
                total += Decimal(coeff.numerator) / coeff.denominator * log
            return float(total)

    def sign(self, term: RateTerm, bound: int = 0) -> int:
        """Sign (-1, 0 or 1) of ``term - bound``, decided exactly.

        With D clearing every denominator and epsilon = p/q, the term is at
        most ``bound`` iff 2^((a-bound)D) * Vol^(bD) * p^(eD) <= q^(eD);
        each factor whose exponent is negative moves to the other side.
        """
        const = term.constant - bound
        D = lcm(
            const.denominator,
            term.vol_coeff.denominator,
            term.eps_coeff.denominator,
        )
        sides = [1, 1]  # factors with positive exponents, then negative ones
        for base, exponent in (
            (2, const * D),
            (self.model.ball_volume(), term.vol_coeff * D),
            (self.epsilon.numerator, term.eps_coeff * D),
            (self.epsilon.denominator, -term.eps_coeff * D),
        ):
            sides[exponent < 0] *= base ** abs(int(exponent))
        return (sides[0] > sides[1]) - (sides[0] < sides[1])

    def _ceil_bits(self, term: RateTerm) -> int:
        bits = ceil(self.evaluate(term))
        while self.sign(term, bits - 1) <= 0:
            bits -= 1
        while self.sign(term, bits) > 0:
            bits += 1
        return bits

    # -- realized widths ---------------------------------------------------

    def rate_bits(self, received: Iterable[int], u: int) -> float:
        return self.evaluate(self.rate_term(received, u))

    def index_bits(self, received: Iterable[int], u: int) -> int:
        got = tuple(sorted(set(received)))
        key = ("width", got, u)
        if key not in self._cache:
            self._cache[key] = self._ceil_bits(self.rate_term(got, u))
        return self._cache[key]

    def index_widths(self, received: Iterable[int]) -> dict[int, int]:
        got = tuple(sorted(set(received)))
        return {u: self.index_bits(got, u) for u in got}

    def storage_bits(self, received: Iterable[int]) -> int:
        return sum(self.index_widths(received).values())

    def ceiling_slack(self, received: Iterable[int]) -> float:
        got = tuple(sorted(set(received)))
        return sum(
            self.index_bits(got, u) - self.rate_bits(got, u) for u in got
        )

    @property
    def matrix_columns(self) -> int:
        """Largest width any (server, version) pair can need; the linear
        codebook's column count M."""
        nu = self.model.nu
        return self.index_bits((nu,), nu)

    @property
    def error_budget(self) -> Fraction:
        """Per-state failure budget epsilon * 2^(-nu*n)."""
        return self.epsilon / (1 << (self.model.nu * self.n))

    @property
    def log_error_term(self) -> float:
        """E = nu*n - log2(epsilon), the safety summand of every rate."""
        nu_n = Fraction(self.model.nu * self.n)
        return self.evaluate(RateTerm(nu_n, Fraction(0), Fraction(-1)))


# ---------------------------------------------------------------------------
# Codebooks

_CODEBOOK_KINDS = ("random-uniform", "linear")
_PRF_BITS = 256


def _uniform_entries(rng: np.random.Generator, count: int, width: int):
    """``count`` i.i.d. uniform ``width``-bit integers from one stream.

    Returns a numpy array when a uint64 holds them, else a list of ints
    assembled from 64-bit limbs (low limbs drawn first, then the remainder).
    """
    if width <= 64:
        return rng.integers(0, 1 << width, size=count, dtype=np.uint64)
    limbs, rem = divmod(width, 64)
    base = rng.integers(0, 1 << 64, size=(count, limbs), dtype=np.uint64)
    tops = rng.integers(0, 1 << rem, size=count, dtype=np.uint64) if rem else None
    out = []
    for row in range(count):
        value = 0
        for j in range(limbs):
            value |= int(base[row, j]) << (64 * j)
        if tops is not None:
            value |= int(tops[row]) << (64 * limbs)
        out.append(value)
    return out


def _linear_row_masks(
    seed: int, server: int, version: int, K: int, columns: int
) -> tuple[int, ...]:
    """Rows of the K x M Bernoulli(1/2) matrix, each packed with column j at
    bit j, so a column prefix is a low-bit mask."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, server, version]))
    rows = rng.integers(0, 2, size=(K, columns), dtype=np.uint8)
    return tuple(
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in rows
    )


@dataclass(frozen=True)
class BinningCodebook:
    """The index maps, regenerated bit-exactly from (kind, seed, dims).

    Per (server, version) pair the map is derived from an independent
    pseudorandom stream keyed by [seed, server, version], so adding servers
    or versions never shifts existing entries.
    """

    kind: str
    seed: int
    model: CorrelationModel
    n: int
    capacity: int
    _maps: dict = field(default_factory=dict, compare=False, repr=False)
    _plans: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _CODEBOOK_KINDS:
            raise ValueError(
                f"unknown codebook kind {self.kind!r}; known: "
                + ", ".join(_CODEBOOK_KINDS)
            )
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.n < 1:
            raise ValueError("need at least one server")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if (
            self.kind == "random-uniform"
            and not self.uses_table
            and self.capacity > _PRF_BITS
        ):
            raise ValueError(
                f"index capacity {self.capacity} exceeds the {_PRF_BITS}-bit "
                "hash output available for K > 16"
            )

    @classmethod
    def create(
        cls,
        model: CorrelationModel,
        n: int,
        c: int,
        epsilon,
        kind: str = "random-uniform",
        seed: int = 0,
    ) -> "BinningCodebook":
        allocation = RateAllocation(model, n, c, Fraction(epsilon))
        return cls(kind, seed, model, n, allocation.matrix_columns)

    @property
    def uses_table(self) -> bool:
        # i.i.d.-uniform indices are materialized exactly for small K; the
        # keyed hash beyond that is the documented uniform approximation.
        return self.kind == "random-uniform" and self.model.K <= 16

    def _validate_pair(self, server: int, version: int) -> None:
        if not 0 <= server < self.n:
            raise ValueError(f"server {server} out of range 0..{self.n - 1}")
        if not 1 <= version <= self.model.nu:
            raise ValueError(f"version {version} out of range 1..{self.model.nu}")

    def _pair_map(self, server: int, version: int):
        key = (server, version)
        if key not in self._maps:
            if self.kind == "linear":
                self._maps[key] = _linear_row_masks(
                    self.seed, server, version, self.model.K, self.capacity
                )
            elif self.uses_table:
                rng = np.random.default_rng(
                    np.random.SeedSequence([self.seed, server, version])
                )
                entries = _uniform_entries(rng, 1 << self.model.K, self.capacity)
                self._maps[key] = [int(v) for v in entries]
            else:
                self._maps[key] = None  # hashed on demand
        return self._maps[key]

    def _prf_index(self, server: int, version: int, w_bits: int) -> int:
        h = hashlib.blake2b(
            digest_size=_PRF_BITS // 8,
            key=self.seed.to_bytes(16, "big"),
            person=b"binindex",
        )
        h.update(server.to_bytes(4, "big"))
        h.update(version.to_bytes(4, "big"))
        h.update(w_bits.to_bytes((self.model.K + 7) // 8, "big"))
        return int.from_bytes(h.digest(), "big") & ((1 << self.capacity) - 1)

    def index_of(self, server: int, version: int, w_bits: int, bits: int) -> int:
        self._validate_pair(server, version)
        if not 0 <= bits <= self.capacity:
            raise ValueError(f"width {bits} outside 0..{self.capacity}")
        if not 0 <= w_bits < 1 << self.model.K:
            raise ValueError("value out of range for length K")
        mask = (1 << bits) - 1
        pair = self._pair_map(server, version)
        if self.kind == "linear":
            return xor_rows(pair, w_bits) & mask
        if pair is not None:
            return pair[w_bits] & mask
        return self._prf_index(server, version, w_bits) & mask

    def index_table(self, server: int, version: int) -> list[int]:
        """Full-capacity indices of all 2^K values; K <= 16 only."""
        self._validate_pair(server, version)
        K = self.model.K
        if K > 16:
            raise EnumerationCapExceeded(
                1 << K,
                1 << 16,
                f"binning index tables cover K <= 16 only, got K={K}",
            )
        key = ("table", server, version)
        if key not in self._maps:
            if self.kind == "linear":
                rows = self._pair_map(server, version)
                table = [0] * (1 << K)
                for k in range(K):
                    size = 1 << k
                    mask = rows[k]
                    for w in range(size):
                        table[size + w] = table[w] ^ mask
                self._maps[key] = table
            else:
                # K <= 16, so a random-uniform codebook has its table
                self._maps[key] = self._pair_map(server, version)
        return self._maps[key]

    def _values_by_index(self, server: int, version: int, bits: int) -> dict:
        """All 2^K values grouped by their ``bits``-wide index, ascending
        within a group; K <= 16 only.  Decode plans share these groups."""
        key = ("groups", server, version, bits)
        if key not in self._maps:
            groups: dict[int, list[int]] = {}
            mask = (1 << bits) - 1
            for w, index in enumerate(self.index_table(server, version)):
                groups.setdefault(index & mask, []).append(w)
            self._maps[key] = {i: tuple(ws) for i, ws in groups.items()}
        return self._maps[key]


# ---------------------------------------------------------------------------
# Possible-set decoding


@dataclass(frozen=True)
class PossibleSetOutcome:
    """Result of one decode attempt; ``error`` is an outcome, not an exception.

    ``candidates`` counts the admissible assignments that matched every
    stored index (a diagnostic; on early-abort errors it is a lower bound).
    """

    DECODED = "decoded"
    NO_COMMON = "no-common"
    ERROR = "error"

    status: str
    version: Optional[int]
    message: Optional[Message]
    reason: str = ""
    candidates: int = 0


@dataclass
class _PlanStep:
    version: int
    masks: tuple[int, ...]
    checks: list  # (server, full table, width mask)


@dataclass
class _DecodePlan:
    latest_common: int
    first: int  # oldest version of the chain
    first_checks: list  # (server, full table, width mask)
    steps: list
    stage1: dict  # first version's values by the first check's index
    estimate: int


def _decoding_chain(rows: Sequence[frozenset]) -> Optional[tuple]:
    """(latest common u_L, versions <= u_L in any row), or None.

    ``rows`` are the version sets of the servers a reader contacted.
    """
    if not rows:
        raise ValueError("T must be nonempty")
    common = frozenset.intersection(*rows)
    if not common:
        return None
    u_L = max(common)
    return u_L, tuple(sorted({u for row in rows for u in row if u <= u_L}))


def _build_plan(
    codebook: BinningCodebook,
    rates: RateAllocation,
    T: tuple[int, ...],
    rows: tuple[frozenset, ...],
) -> Optional[_DecodePlan]:
    """The decode plan of a reader that contacted T and saw ``rows``; None
    when T shares no version."""
    if rates.model != codebook.model:
        raise ValueError("allocation and codebook disagree on the model")
    found = _decoding_chain(rows)
    if found is None:
        return None
    u_L, chain = found
    K, radius = codebook.model.K, codebook.model.radius

    estimate = 1 << K
    for a, b in zip(chain, chain[1:]):
        estimate *= hamming_ball_volume(min((b - a) * radius, K), K)

    def checks_for(version: int):
        out = []
        for t, row in zip(T, rows):
            if version in row:
                width = rates.index_bits(row, version)
                out.append((t, codebook.index_table(t, version), (1 << width) - 1))
        return out

    first_checks = checks_for(chain[0])
    steps = []
    for a, b in zip(chain, chain[1:]):
        bound = min((b - a) * radius, K)
        steps.append(
            _PlanStep(b, tuple(iter_ball_masks(K, bound)), checks_for(b))
        )

    t, _tab, wmask = first_checks[0]
    stage1 = codebook._values_by_index(t, chain[0], wmask.bit_length())
    return _DecodePlan(u_L, chain[0], first_checks, steps, stage1, estimate)


def _run_plan(
    plan: _DecodePlan,
    first_targets: Sequence[int],
    step_targets: Sequence[Sequence[int]],
) -> tuple[set[int], int]:
    """DFS over admissible assignments consistent with the given indices.

    Returns (distinct final-version values, full assignments examined);
    aborts as soon as two distinct final values exist.
    """
    rest = [
        (tab, wmask, tgt)
        for (_t, tab, wmask), tgt in zip(plan.first_checks[1:], first_targets[1:])
    ]
    cands = [
        w
        for w in plan.stage1.get(first_targets[0], ())
        if all(tab[w] & wmask == tgt for tab, wmask, tgt in rest)
    ]
    finals: set[int] = set()
    examined = 0
    if not plan.steps:
        for w in cands:
            finals.add(w)
            examined += 1
            if len(finals) > 1:
                break
        return finals, examined
    bound_steps = [
        [(tab, wmask, tgt) for (_t, tab, wmask), tgt in zip(step.checks, targets)]
        for step, targets in zip(plan.steps, step_targets)
    ]
    last = len(plan.steps) - 1
    stack = [(0, w) for w in reversed(cands)]
    while stack:
        depth, w = stack.pop()
        masks = plan.steps[depth].masks
        checks = bound_steps[depth]
        for mask in masks:
            cand = w ^ mask
            if any(tab[cand] & wmask != tgt for tab, wmask, tgt in checks):
                continue
            if depth == last:
                finals.add(cand)
                examined += 1
                if len(finals) > 1:
                    return finals, examined
            else:
                stack.append((depth + 1, cand))
    return finals, examined


def possible_set_decode(
    codebook: BinningCodebook,
    rates: RateAllocation,
    T: Sequence[int],
    state: SystemState,
    indices: Mapping[int, Mapping[int, int]],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PossibleSetOutcome:
    """Decode the newest version common to T from the stored bin indices.

    ``indices[t][u]`` is server t's stored index for version u; values wider
    than the allocated width are truncated to it.  Success requires every
    surviving admissible assignment to agree on the newest common version's
    value.  Returns a no-common outcome when T shares nothing, and an error
    outcome when the survivors disagree or none exist.

    The decode plan depends only on the allocation, T and the rows of T
    (what the reader sees), so the codebook keeps one per such view;
    ``cap`` is checked against the plan's enumeration estimate on every
    call, cached or not.
    """
    T = tuple(T)
    if state.n != codebook.n:
        raise ValueError("state has a different server count than the codebook")
    rows = tuple(state.per_server[t] for t in T)
    key = (rates, T, rows)
    try:
        plan = codebook._plans[key]
    except KeyError:
        plan = codebook._plans[key] = _build_plan(codebook, rates, T, rows)
    if plan is None:
        return PossibleSetOutcome(
            PossibleSetOutcome.NO_COMMON, None, None, "no version common to T"
        )
    if plan.estimate > cap:
        raise EnumerationCapExceeded(plan.estimate, cap)

    def target(server: int, version: int, wmask: int) -> int:
        try:
            return indices[server][version] & wmask
        except KeyError:
            raise ValueError(
                f"missing stored index for server {server} version {version}"
            ) from None

    first_targets = [
        target(t, plan.first, wmask) for (t, _tab, wmask) in plan.first_checks
    ]
    step_targets = [
        [target(t, step.version, wmask) for (t, _tab, wmask) in step.checks]
        for step in plan.steps
    ]
    finals, examined = _run_plan(plan, first_targets, step_targets)
    if len(finals) == 1:
        return PossibleSetOutcome(
            PossibleSetOutcome.DECODED,
            plan.latest_common,
            Message(next(iter(finals)), codebook.model.K),
            "",
            examined,
        )
    if finals:
        reason = "stored indices leave the newest common version ambiguous"
    else:
        reason = "no admissible assignment matches the stored indices"
    return PossibleSetOutcome(PossibleSetOutcome.ERROR, None, None, reason, examined)


# ---------------------------------------------------------------------------
# Rate region


@dataclass(frozen=True)
class RegionCheck:
    """Outcome of the relaxed decodability region test for one scenario.

    ``slacks[0]`` belongs to the full-sum constraint (which carries the
    extra +K for the oldest version's content); ``slacks[j]`` for j >= 1 to
    the suffix constraint starting at the scenario's (j+1)-th version.
    """

    scenario: tuple[int, ...]
    satisfied: bool
    slacks: tuple[float, ...]


def rate_region_check(
    allocation: RateAllocation,
    rates: Mapping[int, "RateTerm | float | int | Fraction"],
    scenario: Sequence[int],
) -> RegionCheck:
    """Check the suffix-sum decodability inequalities for one scenario.

    ``scenario`` is the ascending version chain u_1 < ... < u_L a reading
    group must untangle; ``rates[u]`` is the total number of stored index
    bits about version u across that group (symbolic terms keep the check
    exact, plain numbers are accepted too).  Constraint i in 2..L:

        sum_{j=i..L} rates[u_j]
            >= sum_{j=i..L} (u_j - u_{j-1})*log2(Vol) + (L-1) + E

    and the full sum additionally covers the oldest version's content, with
    the first gap term replaced by K.  E = nu*n - log2(epsilon).
    """
    chain = tuple(scenario)
    if not chain or list(chain) != sorted(set(chain)):
        raise ValueError("scenario must be strictly ascending and nonempty")
    if chain[0] < 1 or chain[-1] > allocation.model.nu:
        raise ValueError("scenario versions out of range")
    L = len(chain)
    terms = {u: _as_term(rates[u]) for u in chain}
    budget = RateTerm(
        Fraction(L - 1 + allocation.model.nu * allocation.n),
        Fraction(0),
        Fraction(-1),
    )

    slacks = []
    satisfied = True
    for i in range(1, L + 1):
        lhs = _ZERO_TERM
        for u in chain[i - 1 :]:
            lhs = lhs.plus(terms[u])
        rhs = budget
        gap_vol = Fraction(0)
        for j in range(max(i, 2), L + 1):
            gap_vol += chain[j - 1] - chain[j - 2]
        rhs = rhs.plus(RateTerm(Fraction(0), gap_vol, Fraction(0)))
        if i == 1:
            rhs = rhs.plus(
                RateTerm(Fraction(allocation.model.K), Fraction(0), Fraction(0))
            )
        gap = lhs.minus(rhs)
        sign = allocation.sign(gap)
        slacks.append(allocation.evaluate(gap) if sign else 0.0)
        if sign < 0:
            satisfied = False
    return RegionCheck(chain, satisfied, tuple(slacks))


def scenario_rates(
    allocation: RateAllocation, state: SystemState, T: Sequence[int]
) -> tuple[tuple[int, ...], dict[int, RateTerm]]:
    """The decode scenario of (state, T) and its aggregated symbolic rates.

    For each version in the chain, sums the allocated per-server rates over
    the members of T holding it; that total is what the region constrains.
    Raises if T shares no version.
    """
    found = _decoding_chain([state.per_server[t] for t in T])
    if found is None:
        raise ValueError("T shares no version in this state")
    _u_L, chain = found
    totals: dict[int, RateTerm] = {}
    for u in chain:
        total = _ZERO_TERM
        for t in T:
            if u in state.per_server[t]:
                total = total.plus(allocation.rate_term(state.per_server[t], u))
        totals[u] = total
    return chain, totals


# ---------------------------------------------------------------------------
# Parity lemma for the linear kind


def even_parity_probability(p, w: int, M: int) -> float:
    """P(all M column parities even) for a w-row slice of a Bernoulli(p)
    binary matrix: ((1 + (1-2p)^w) / 2)^M, exact in the rationals."""
    prob = Fraction(p)
    if not 0 <= prob <= 1:
        raise ValueError("p must be a probability")
    if w < 0 or M < 0:
        raise ValueError("w and M must be nonnegative")
    return float(((1 + (1 - 2 * prob) ** w) / 2) ** M)


# ---------------------------------------------------------------------------
# Worst-case storage


def binning_worst_case_cost(allocation: RateAllocation) -> float:
    """Real-valued worst-case per-server bits: a server holding all nu
    versions.

    Summing the allocation gives (K + (nu-1)*log2(Vol) + nu*(nu-1)/2
    + nu*E) / c with E = nu*n - log2(epsilon); the per-version (u-1)
    summands telescope to the quadratic constant exactly, so the sum and
    the closed form agree identically.
    """
    nu = allocation.model.nu
    full = tuple(range(1, nu + 1))
    total = _ZERO_TERM
    for u in full:
        total = total.plus(allocation.rate_term(full, u))
    return allocation.evaluate(total)


# ---------------------------------------------------------------------------
# Three-version reference comparison


def binary_entropy(x) -> float:
    """H(x) in bits, with H(0) = H(1) = 0."""
    value = float(x)
    if not 0 <= value <= 1:
        raise ValueError("entropy argument must lie in [0, 1]")
    if value in (0.0, 1.0):
        return 0.0
    return -value * log2(value) - (1 - value) * log2(1 - value)


def _entropy_inverse_half() -> float:
    lo, hi = 1e-12, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if binary_entropy(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class RateExclusion:
    """One version subset whose unique-decoding requirement is compared
    against the stored allocation's leading-order rate sum."""

    subset: tuple[int, ...]
    label: str
    binned_bits: float
    unique_bits: float
    excluded: bool
    margin: float


@dataclass(frozen=True)
class RateComparisonReport:
    delta: float
    step_entropy: float
    composed_step: float
    composed_entropy: float
    middle_row_threshold: float
    rows: tuple[RateExclusion, ...]


def example1_rate_comparison(delta) -> RateComparisonReport:
    """Reference point: three versions, two-server decode groups, one server
    missing the oldest version, per-bit flip probability ``delta``.

    The stored allocation's normalized leading-order rate sums are
    R3 = H(d), R2+R3 = 1/2 + 2H(d), R1+R3 = 1/2 + H(d).  Decoding each
    version subset *uniquely* (every version pinned down, not just the
    newest common one) would instead require H(d*d), 1 + H(d) and
    1 + H(d*d) respectively, where d*d = 2d(1-d) is the two-step flip
    probability.  A row is excluded when the stored sum is strictly below
    the unique-decoding requirement: the allocation lives outside that
    region, which is exactly what makes it cheaper.
    """
    d = float(delta)
    if not 0 < d < 0.5:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    h = binary_entropy(d)
    dd = 2 * d * (1 - d)
    hh = binary_entropy(dd)
    rows = []
    for subset, label, binned, unique in (
        ((1, 3), "v3", h, hh),
        ((2, 3), "v2+v3", 0.5 + 2 * h, 1 + h),
        ((1, 3), "v1+v3", 0.5 + h, 1 + hh),
    ):
        rows.append(
            RateExclusion(
                subset, label, binned, unique, binned < unique, unique - binned
            )
        )
    return RateComparisonReport(d, h, dd, hh, _entropy_inverse_half(), tuple(rows))


# ---------------------------------------------------------------------------
# Empirical error survey


def sample_tuples(model: CorrelationModel, count: int, seed: int):
    """``count`` admissible tuples; trial i uses derived seed (seed<<32)+i so
    trials can run in any order or in parallel and merge by index."""
    return tuple(sample_tuple(model, (int(seed) << 32) + i) for i in range(count))


@dataclass(frozen=True)
class ErrorSurvey:
    """Empirical decode-failure rates of one codebook over sampled tuples.

    A cell is one (state, reading set) pair with a common version; its rate
    is failures over trials.  ``worst_rate`` is the max over cells, with a
    95% upper confidence bound on that cell.
    """

    kind: str
    seed: int
    trials: int
    cells: int
    decodes: int
    failures: int
    worst_rate: float
    worst_failures: int
    worst_cell: Optional[tuple]
    wilson_upper: float


def empirical_error_survey(
    codebook: BinningCodebook,
    rates: RateAllocation,
    tuples: Sequence[VersionTuple],
    states: Optional[Iterable[SystemState]] = None,
) -> ErrorSurvey:
    """Decode every (state, reading set) cell against every sampled tuple.

    Defaults to all 2^(n*nu) states and all size-c reading sets.  Failure
    means the survivors did not reduce to exactly the true newest-common
    value; cells without a common version are skipped as vacuous.  The
    cells run on the verifier's exhaustive engine, decoding through a
    BinningScheme over the given codebook and allocation.
    """
    if not tuples:
        raise ValueError("need at least one sampled tuple")
    n = codebook.n
    report = _exhaustive_run(
        BinningScheme.over(codebook, rates),
        list(combinations(range(n), rates.c)),
        latest_common_version,
        iter_states(n, codebook.model.nu) if states is None else states,
        tuples,
        0,
    )
    if not report.attempts:
        raise ValueError("no (state, reading set) cell has a common version")
    trials = len(tuples)
    state_key, T, worst = report.worst_cell
    return ErrorSurvey(
        codebook.kind,
        codebook.seed,
        trials,
        report.attempts // trials,
        report.attempts,
        report.failure_count,
        worst / trials,
        worst,
        (state_key, T),
        wilson_interval(worst, trials)[1],
    )


@dataclass(frozen=True)
class SeedSearchReport:
    target: Fraction
    achieved: bool
    best: ErrorSurvey
    surveys: tuple[ErrorSurvey, ...]


def seed_search(
    model: CorrelationModel,
    n: int,
    c: int,
    epsilon,
    seeds: Sequence[int],
    tuples: Sequence[VersionTuple],
    kind: str = "random-uniform",
    stop_at_target: bool = True,
) -> SeedSearchReport:
    """Survey codebook seeds in order, keeping the best observed worst-cell
    rate.

    A good codebook exists but is not identified constructively, so this
    reports per-seed empirical rates rather than certifying any one seed.
    By default the search stops at the first seed whose worst cell meets
    the target epsilon (any later seed could only tie the pass/fail
    verdict).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    allocation = RateAllocation(model, n, c, Fraction(epsilon))
    goal = allocation.epsilon
    surveys = []
    for seed in seeds:
        codebook = BinningCodebook.create(
            model, n, c, allocation.epsilon, kind=kind, seed=seed
        )
        survey = empirical_error_survey(codebook, allocation, tuples)
        surveys.append(survey)
        if stop_at_target and survey.worst_rate <= goal:
            break
    best = min(surveys, key=lambda s: (s.worst_rate, s.seed))
    return SeedSearchReport(goal, best.worst_rate <= goal, best, tuple(surveys))


# ---------------------------------------------------------------------------
# Scheme adapter


class BinningScheme(MvcScheme):
    """Bin-index storage behind the common scheme contract.

    Encodes one index per received version at the allocated width; decodes
    through the survivor enumeration.  An ambiguous or empty survivor set
    surfaces as a DecodingError so the verifier counts it like any other
    decode failure.
    """

    name = "binning"

    def __init__(
        self,
        model: CorrelationModel,
        n: int,
        c: int,
        epsilon=Fraction(1, 4),
        seed: int = 0,
        kind: str = "random-uniform",
    ) -> None:
        super().__init__(model, n, c)
        self.allocation = RateAllocation(model, n, c, Fraction(epsilon))
        self.codebook = BinningCodebook.create(
            model, n, c, self.allocation.epsilon, kind=kind, seed=seed
        )

    @property
    def error_budget(self) -> Fraction:
        """The allocation's epsilon, a per-state failure probability."""
        return self.allocation.epsilon

    @classmethod
    def over(
        cls, codebook: BinningCodebook, allocation: RateAllocation
    ) -> "BinningScheme":
        """The scheme storing and decoding with exactly these two parts."""
        scheme = cls.__new__(cls)
        MvcScheme.__init__(scheme, allocation.model, codebook.n, allocation.c)
        scheme.allocation = allocation
        scheme.codebook = codebook
        return scheme

    def encode(self, server, received, versions):
        got = tuple(sorted(set(received)))
        if not got:
            return StoredSymbol.empty()
        writer = BitWriter()
        for u in got:
            width = self.allocation.index_bits(got, u)
            writer.write(
                self.codebook.index_of(server, u, versions.version(u).bits, width),
                width,
            )
        return StoredSymbol(writer.payload, writer.bit_length)

    def _parse_indices(self, T, state, symbols) -> dict[int, dict[int, int]]:
        out: dict[int, dict[int, int]] = {}
        for t in T:
            got = self._received_of(state, t)
            widths = [self.allocation.index_bits(got, u) for u in got]
            out[t] = dict(zip(got, split_fields(symbols[t], widths)))
        return out

    def decode(self, T, state, symbols):
        indices = self._parse_indices(T, state, symbols)
        outcome = possible_set_decode(
            self.codebook, self.allocation, T, state, indices
        )
        if outcome.status == PossibleSetOutcome.NO_COMMON:
            return None
        if outcome.status == PossibleSetOutcome.ERROR:
            raise DecodingError(outcome.reason)
        return Decoded(outcome.version, outcome.message)

    def worst_case_cost(self) -> CostReport:
        model = self.model
        full = tuple(range(1, model.nu + 1))
        storage = self.allocation.storage_bits(full)
        table = model.K / self.c + (model.nu - 1) * log2(
            model.ball_volume()
        ) / self.c
        probe = self.encode(
            0, full, VersionTuple(tuple(Message(0, model.K) for _ in full))
        )
        assert probe.bit_length == storage
        notes = (
            f"real-rate total {binning_worst_case_cost(self.allocation):.4f} bits",
            f"ceiling slack {self.allocation.ceiling_slack(full):.4f} bits",
            f"per-state error budget {self.allocation.error_budget}",
            f"codebook {self.codebook.kind} seed {self.codebook.seed}",
        )
        return CostReport(self.name, table, float(storage), storage, 0, notes)


register_scheme(BinningScheme.name, BinningScheme)
