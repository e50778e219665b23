"""Random-bin storage codes over correlated version chains.

A server that received versions s_1 < ... < s_t of a K-bit object stores one
short *bin index* per received version instead of any content.  The index is
a pseudorandom fingerprint of the version's value, long enough that across
any c servers the stored fingerprints pin down the newest version they all
received.  A reader walks the versions the group received, oldest first, and
keeps the values of each that match all its stored indices; a version's
candidates are the values one admissible step from a survivor of the version
before.  Decoding succeeds when exactly one value of the newest common version
survives; older versions may keep several survivors, which is harmless.

One runner (``_run_plan``) decodes every row of stored indices at once:
the survivors of all rows are flat (row, value) numpy arrays, stepped by
the plan's ball masks and filtered by its checks.  A decode
(``_decode_rows``) runs it on one row; the verifier's engines and
the codebook survey judge a whole read view, one row per tuple
(``BinningScheme.cell_codes``).  numpy is imported inside the decode
plans, the runner and the codebook draws only.

Index lengths follow a two-shape rate allocation.  The first version a
server received pays for full content, K bits, plus chain slack; every later
one pays only for the conditional uncertainty of its gap from the previously
received version, the log of a Hamming-ball volume.  Both shapes include a
safety term -log2(epsilon * 2^(-nu*n)) so a union bound over the at most
2^(nu*n) reachable states keeps the total failure probability below epsilon.

Two codebook kinds are supported.  "random-uniform" draws each index i.i.d.
uniform into a table of all 2^K values, so it needs K <= TABLE_MAX_K.
"linear" multiplies the value by a seeded random binary matrix, whose
column-prefix structure gives the same truncation semantics.  It encodes
at any K; decoding reads the same index tables, so either kind decodes
only at K <= TABLE_MAX_K (``check_decodable``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from math import log2, prod
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from .bounds import LOG_DIGITS, format_rational, log2_decimal
from .galois import xor_rows
from .model import (
    DEFAULT_ENUMERATION_CAP,
    CorrelationModel,
    EnumerationCapExceeded,
    Message,
    SystemState,
    VersionTuple,
    iter_ball_masks,
    iter_states,
    latest_common_version,
    tuple_maker,
    tuple_sampler,
)
from .schemes import (
    _NULL,
    _RAISED,
    _WRONG,
    CostReport,
    Decoded,
    DecodingError,
    MvcScheme,
    _receipts,
    _run_cached,
    register_scheme,
    split_fields,
)
from .verifier import _exhaustive_run, _exhaustive_work, wilson_interval

if TYPE_CHECKING:
    import numpy as np


class RateTerm(NamedTuple):
    """A rate expressed symbolically as a + b*log2(Vol) + e*log2(epsilon).

    Keeping the rational coefficients exact lets a real-valued total be
    evaluated once, at the end, and lets a region slack that is
    identically zero come out as exactly zero.  Widths are not decided
    through terms: ``RateAllocation._step_bits`` takes them from ints.
    """

    constant: Fraction
    vol_coeff: Fraction
    eps_coeff: Fraction

    def is_zero(self) -> bool:
        return not (self.constant or self.vol_coeff or self.eps_coeff)


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
    the safety term, -log2 of the union-bound share.  Realized widths are the
    ceilings of these, each decided by one integer rule (``_step_bits``);
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

    def evaluate(self, term: RateTerm) -> float:
        """Numeric value of a symbolic rate, in bits, rounded once."""
        if term.is_zero():
            return 0.0
        log_vol, log_eps = _run_cached(
            self._cache,
            "logs",
            lambda: (log2_decimal(self.model.ball_volume()), log2_decimal(self.epsilon)),
        )
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

    def _total(self, received: Iterable[int]) -> RateTerm:
        """The rates of a receipt set s_1 < ... < s_t summed in closed form:
        (K + sum(s_j - 1) + t*nu*n + (s_t - 1)*log2(Vol) - t*log2(epsilon))
        / c, since the gaps' volume terms telescope to s_t - 1."""
        got = sorted(set(received))
        t = len(got)
        const = self.model.K + sum(got) - t + t * self.model.nu * self.n
        c = self.c
        return RateTerm(Fraction(const, c), Fraction(got[-1] - 1, c), Fraction(-t, c))

    # -- realized widths ---------------------------------------------------

    def _step_bits(self, previous: Optional[int], u: int) -> int:
        """Width of version u received after ``previous`` (None for the
        first), from ints alone.

        The rate is (A + log2 R)/c with the integer A = u - 1 + nu*n, plus K
        for the first version, and the rational R = Vol^gap * q/p > 1 for
        epsilon = p/q, the gap being u - 1 for the first version.  For
        integer A, ceil((A + log2 R)/c) = ceil((A + ceil(log2 R))/c), and
        with R = N/D and f the bit-length difference of N and D,
        ceil(log2 R) is f + 1 when N > D*2^f and f otherwise.
        """
        A = u - 1 + self.model.nu * self.n + (0 if previous else self.model.K)
        N = self.model.ball_volume() ** (u - (previous or 1)) * self.epsilon.denominator
        D = self.epsilon.numerator
        f = N.bit_length() - D.bit_length()
        return -(-(A + f + (N > (D << f))) // self.c)

    def _widths(self, received: Iterable[int]) -> dict[int, int]:
        """Version -> width for a receipt set, computed once and cached
        under the sorted set."""
        got = tuple(sorted(set(received)))
        if not got or got[0] < 1 or got[-1] > self.model.nu:
            raise ValueError("receipt set out of range")
        return _run_cached(
            self._cache,
            got,
            lambda: {u: self._step_bits(p, u) for p, u in zip((None,) + got, got)},
        )

    def index_bits(self, received: Iterable[int], u: int) -> int:
        widths = self._widths(received)
        if u not in widths:
            raise ValueError(f"version {u} not in receipt set {tuple(widths)}")
        return widths[u]

    def index_widths(self, received: Iterable[int]) -> dict[int, int]:
        return dict(self._widths(received))

    def storage_bits(self, received: Iterable[int]) -> int:
        return sum(self.index_widths(received).values())

    def ceiling_slack(self, received: Iterable[int]) -> float:
        return self.storage_bits(received) - self.evaluate(self._total(received))

    @property
    def matrix_columns(self) -> int:
        """Largest width any (server, version) pair can need; the linear
        codebook's column count M."""
        nu = self.model.nu
        return self.index_bits((nu,), nu)


# ---------------------------------------------------------------------------
# Codebooks

_CODEBOOK_KINDS = ("random-uniform", "linear")
# Largest K whose decodes can read index tables of all 2^K values.
TABLE_MAX_K = 16


def check_decodable(K: int) -> None:
    """Refuse a K whose index tables of 2^K entries binning cannot build."""
    if K > TABLE_MAX_K:
        raise ValueError(
            f"binning decodes need K <= {TABLE_MAX_K} (index tables of 2^K "
            f"entries), got K={K}"
        )


def check_table_bits(n: int, nu: int, K: int, capacity: int) -> None:
    """Refuse index tables over 2^30 bits in all: n * nu tables of 2^K
    entries, each ``capacity`` bits wide."""
    bits = n * nu * capacity << K
    if bits > 1 << 30:
        raise ValueError(
            f"binning index tables of {n}*{nu}*2^{K} entries of {capacity} "
            f"bits hold {bits} bits, over the limit of 2^30"
        )


def _uniform_entries(rng: np.random.Generator, count: int, width: int) -> list[int]:
    """``count`` i.i.d. uniform ``width``-bit integers from one stream; past
    64 bits each is assembled from 64-bit limbs (low limbs drawn first, then
    the remainder)."""
    import numpy as np

    if width <= 64:
        return rng.integers(0, 1 << width, size=count, dtype=np.uint64).tolist()
    limbs, rem = divmod(width, 64)
    base = rng.integers(0, 1 << 64, size=(count, limbs), dtype=np.uint64)
    tops = rng.integers(0, 1 << rem, size=count, dtype=np.uint64) if rem else None
    out = []
    for row in range(count):
        value = int.from_bytes(base[row].astype("<u8").tobytes(), "little")
        if tops is not None:
            value |= int(tops[row]) << (64 * limbs)
        out.append(value)
    return out


def _linear_row_masks(
    seed: int, server: int, version: int, K: int, columns: int
) -> tuple[int, ...]:
    """Rows of the K x M Bernoulli(1/2) matrix, each packed with column j at
    bit j, so a column prefix is a low-bit mask."""
    import numpy as np

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
    or versions never shifts existing entries.  A random-uniform map is its
    table of 2^K indices; a linear map is its K row masks, doubled into a
    table only for decoding.
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

    def _validate_pair(self, server: int, version: int) -> None:
        if not 0 <= server < self.n:
            raise ValueError(f"server {server} out of range 0..{self.n - 1}")
        if not 1 <= version <= self.model.nu:
            raise ValueError(f"version {version} out of range 1..{self.model.nu}")

    def _row_masks(self, server: int, version: int) -> tuple[int, ...]:
        key = (server, version)
        if key not in self._maps:
            self._maps[key] = _linear_row_masks(
                self.seed, server, version, self.model.K, self.capacity
            )
        return self._maps[key]

    def index_of(self, server: int, version: int, w_bits: int, bits: int) -> int:
        self._validate_pair(server, version)
        if not 0 <= bits <= self.capacity:
            raise ValueError(f"width {bits} outside 0..{self.capacity}")
        if not 0 <= w_bits < 1 << self.model.K:
            raise ValueError("value out of range for length K")
        mask = (1 << bits) - 1
        if self.kind == "linear":
            return xor_rows(self._row_masks(server, version), w_bits) & mask
        table = self._maps.get(("table", server, version))
        if table is None:
            table = self.index_table(server, version)
        return table[w_bits] & mask

    def index_table(self, server: int, version: int) -> list[int]:
        """Full-capacity indices of all 2^K values; K <= TABLE_MAX_K only."""
        self._validate_pair(server, version)
        key = ("table", server, version)
        if key not in self._maps:
            K = self.model.K
            check_decodable(K)
            check_table_bits(self.n, self.model.nu, K, self.capacity)
            if self.kind == "linear":
                rows = self._row_masks(server, version)
                table = [0] * (1 << K)
                for k, mask in enumerate(rows):
                    size = 1 << k
                    for w in range(size):
                        table[size + w] = table[w] ^ mask
            else:
                import numpy as np

                rng = np.random.default_rng(
                    np.random.SeedSequence([self.seed, server, version])
                )
                table = _uniform_entries(rng, 1 << K, self.capacity)
            self._maps[key] = table
        return self._maps[key]

    def _index_keys(self, server: int, version: int, bits: int) -> "_IndexKeys":
        """All 2^K values grouped by their ``bits``-wide index; K <= 16
        only.  Every decode plan's checks read these groups."""
        key = ("keys", server, version, bits)
        if key not in self._maps:
            import numpy as np

            mask = (1 << bits) - 1
            masked = np.array(
                [index & mask for index in self.index_table(server, version)],
                dtype=np.int64 if bits < 64 else object,
            )
            distinct, keys = np.unique(masked, return_inverse=True)
            order = np.argsort(keys, kind="stable")
            starts = np.searchsorted(keys[order], np.arange(len(distinct) + 1))
            self._maps[key] = _IndexKeys(distinct, keys, order, starts)
        return self._maps[key]


class _IndexKeys(NamedTuple):
    """Value w has index ``distinct[keys[w]]``; the values with key k are
    ``order[starts[k]:starts[k + 1]]``, ascending."""

    distinct: np.ndarray
    keys: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def key_of(self, index: int) -> Optional[np.ndarray]:
        """The key of ``index`` as a one-row array, or None when no value
        has it."""
        key = self.distinct.searchsorted([index])
        if key[0] < len(self.distinct) and self.distinct[key[0]] == index:
            return key
        return None


# ---------------------------------------------------------------------------
# Possible-set decoding


@dataclass(frozen=True)
class PossibleSetOutcome:
    """Result of one decode attempt; ``error`` is an outcome, not an exception."""

    DECODED = "decoded"
    NO_COMMON = "no-common"
    ERROR = "error"

    status: str
    version: Optional[int]
    message: Optional[Message]
    reason: str = ""


@dataclass
class _DecodePlan:
    latest_common: int
    # per chain version, oldest first: (version, ball masks from the previous
    # layer as an int64 array or None, checks as (server, index keys, wmask))
    layers: list
    estimate: int


def _decoding_chain(rows: Sequence[frozenset]) -> Optional[tuple]:
    """(latest common u_L, versions <= u_L in any row), or None.

    ``rows`` are the version sets of the servers a reader contacted.
    """
    u_L = latest_common_version(rows)
    if u_L is None:
        return None
    return u_L, tuple(sorted({u for row in rows for u in row if u <= u_L}))


def _build_plan(
    codebook: BinningCodebook,
    rates: RateAllocation,
    T: tuple[int, ...],
    rows: tuple[frozenset, ...],
) -> Optional[_DecodePlan]:
    """The decode plan of a reader that contacted T and saw ``rows``; None
    when T shares no version."""
    import numpy as np

    if rates.model != codebook.model:
        raise ValueError("allocation and codebook disagree on the model")
    found = _decoding_chain(rows)
    if found is None:
        return None
    u_L, chain = found
    K, radius = codebook.model.K, codebook.model.radius
    estimate = 1 << K
    layers = []
    for previous, version in zip((None,) + chain, chain):
        checks = []
        for t, row in zip(T, rows):
            if version in row:
                bits = rates.index_bits(row, version)
                index = codebook._index_keys(t, version, bits)
                checks.append((t, index, (1 << bits) - 1))
        masks = None
        if previous is not None:
            gap = min((version - previous) * radius, K)
            masks = np.array(list(iter_ball_masks(K, gap)), np.int64)
            estimate *= len(masks)
        layers.append((version, masks, checks))
    return _DecodePlan(u_L, layers, estimate)


# (row, value) pairs a decode holds at once, plus at most one row's own
# enumeration estimate
_PAIR_BUDGET = 1 << 16


def _plan_for(
    codebook: BinningCodebook,
    rates: RateAllocation,
    T: tuple[int, ...],
    rows: tuple[frozenset, ...],
) -> Optional[_DecodePlan]:
    """The codebook's plan for this view, built on first use.  Its
    enumeration estimate is checked against DEFAULT_ENUMERATION_CAP on
    every call, cached or not; that limit is fixed, and the verifier's
    ``cap`` (the CLI's ``--cap``) does not raise it."""
    key = (rates, T, rows)
    try:
        plan = codebook._plans[key]
    except KeyError:
        plan = codebook._plans[key] = _build_plan(codebook, rates, T, rows)
    if plan is not None and plan.estimate > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            plan.estimate,
            DEFAULT_ENUMERATION_CAP,
            "the binning decode plan's fixed limit, which --cap does not raise,",
        )
    return plan


def _run_plan(
    plan: _DecodePlan, wanted: Sequence[Sequence[np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the count of newest-common survivors and the last of them
    (0 when none survive), where ``wanted[i][j]`` holds each row's key
    (``_IndexKeys``) of the stored index check j of layer i must match.

    Oldest layer first, a row's survivors are the values matching all the
    layer's checks one ball step from a survivor of the layer before; the
    survivors of all rows are held as (row, value) pairs.  The first check's
    group gives each row's first survivors.  A row's later survivors are at
    most that many times the ball volumes of the later layers, so the rows
    run in chunks of about _PAIR_BUDGET such pairs (one row at least).
    """
    import numpy as np

    layers = [
        (masks, [(index, key) for (_t, index, _wmask), key in zip(checks, keys)])
        for (_version, masks, checks), keys in zip(plan.layers, wanted)
    ]
    # the first check picks each row's group, which matches it throughout
    first, stored = layers[0][1].pop(0)
    lo = first.starts[stored]
    count = first.starts[stored + 1] - lo
    pairs = count * prod(len(masks) for masks, _bound in layers[1:])
    chunk = (pairs.cumsum() - pairs) // _PAIR_BUDGET
    cuts = [0, *((chunk[1:] != chunk[:-1]).nonzero()[0] + 1).tolist(), len(stored)]
    counts, finals = [], []
    for a, b in zip(cuts, cuts[1:]):
        group = count[a:b]
        row = np.arange(b - a).repeat(group)
        skip = group.cumsum() - group
        value = first.order[(lo[a:b] - skip).repeat(group) + np.arange(row.size)]
        for masks, bound in layers:
            if masks is not None:
                value = (value[:, None] ^ masks).ravel()
                row = row.repeat(len(masks))
            for index, key in bound:
                keep = index.keys[value] == key[a:b][row]
                row, value = row[keep], value[keep]
            if masks is not None:  # dedupe; np.unique would import numpy.ma
                pair = row << TABLE_MAX_K | value
                pair.sort()
                pair = np.concatenate((pair[:1], pair[1:][pair[1:] != pair[:-1]]))
                row, value = pair >> TABLE_MAX_K, pair & ((1 << TABLE_MAX_K) - 1)
        counts.append(np.bincount(row, minlength=b - a))
        final = np.zeros(b - a, np.int64)
        final[row] = value
        finals.append(final)
    return np.concatenate(counts), np.concatenate(finals)


def possible_set_decode(codebook, rates, T, state: SystemState, indices):
    """``_decode_rows`` of T's rows in ``state``, of the codebook's n servers."""
    if len(state.per_server) != codebook.n:
        raise ValueError("state has a different server count than the codebook")
    return _decode_rows(codebook, rates, T, [state.per_server[t] for t in T], indices)


def _decode_rows(
    codebook: BinningCodebook,
    rates: RateAllocation,
    T: Sequence[int],
    rows: Sequence[frozenset],
    indices: Mapping[int, Mapping[int, int]],
) -> PossibleSetOutcome:
    """Decode the newest version common to T's ``rows`` from the stored
    bin indices.

    ``indices[t][u]`` is server t's stored index for version u; values wider
    than the allocated width are truncated to it.  Oldest first, a version's
    survivors are the values matching its stored indices one admissible step
    from a survivor of the version before.  Success requires exactly one
    survivor at the newest common version.  Returns a no-common outcome when
    T shares nothing, and an error outcome when several survive or none do.

    The decode plan depends only on the allocation, T and the rows of T
    (what the reader sees), so the codebook keeps one per such view
    (``_plan_for``).  The decode runs it as one row of ``_run_plan``, each
    stored index looked up among its check's index keys.
    """
    plan = _plan_for(codebook, rates, tuple(T), tuple(rows))
    if plan is None:
        return PossibleSetOutcome(
            PossibleSetOutcome.NO_COMMON, None, None, "no version common to T"
        )

    def target(server: int, version: int, wmask: int) -> int:
        try:
            return indices[server][version] & wmask
        except KeyError:
            raise ValueError(
                f"missing stored index for server {server} version {version}"
            ) from None

    keys = [
        [index.key_of(target(t, version, wmask)) for t, index, wmask in checks]
        for version, _masks, checks in plan.layers
    ]
    survivors = 0  # an index no value has leaves none
    if not any(key is None for layer in keys for key in layer):
        count, final = _run_plan(plan, keys)
        survivors = count[0]
    if survivors == 1:
        return PossibleSetOutcome(
            PossibleSetOutcome.DECODED,
            plan.latest_common,
            Message(int(final[0]), codebook.model.K),
        )
    if survivors:
        reason = "stored indices leave the newest common version ambiguous"
    else:
        reason = "no admissible assignment matches the stored indices"
    return PossibleSetOutcome(PossibleSetOutcome.ERROR, None, None, reason)


# ---------------------------------------------------------------------------
# Worst-case storage


def binning_worst_case_cost(allocation: RateAllocation) -> float:
    """Real-valued worst-case per-server bits: a server holding all nu
    versions.

    Summing the allocation gives (K + (nu-1)*log2(Vol) + nu*(nu-1)/2
    + nu*E) / c with E = nu*n - log2(epsilon); ``_total`` is that sum in
    closed form, evaluated once.
    """
    return allocation.evaluate(allocation._total(range(1, allocation.model.nu + 1)))


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
    """``count`` admissible tuples; trial i uses derived seed (seed<<32)+i, so
    each trial's tuple is the same whatever ``count`` is."""
    draw, make = tuple_sampler(model), tuple_maker(model.K)
    return tuple(
        make(draw(random.Random((int(seed) << 32) + i).getrandbits))
        for i in range(count)
    )


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


def _check_survey_work(model, n: int, c: int, trials: int, cap: int) -> None:
    """Refuse a survey whose states x reading sets x tuples exceed ``cap``."""
    work = _exhaustive_work(n, model.nu, c, trials)
    if work > cap:
        raise EnumerationCapExceeded(work, cap)


def empirical_error_survey(
    codebook: BinningCodebook,
    rates: RateAllocation,
    tuples: Sequence[VersionTuple],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ErrorSurvey:
    """Decode every (state, reading set) cell against every sampled tuple.

    The cells are all 2^(n*nu) states by all size-c reading sets.  Failure
    means the survivors did not reduce to exactly the true newest-common
    value; cells without a common version are skipped as vacuous.  The
    cells run on the verifier's exhaustive engine, decoding through a
    BinningScheme over the given codebook and allocation.  Raises
    EnumerationCapExceeded when states x reading sets x tuples exceed
    ``cap``.
    """
    if not tuples:
        raise ValueError("need at least one sampled tuple")
    n = codebook.n
    _check_survey_work(codebook.model, n, rates.c, len(tuples), cap)
    report = _exhaustive_run(
        BinningScheme.over(codebook, rates),
        rates.c,
        None,
        iter_states(n, codebook.model.nu),
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
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SeedSearchReport:
    """Survey codebook seeds in order, keeping the best observed worst-cell
    rate.

    A good codebook exists but is not identified constructively, so this
    reports per-seed empirical rates rather than certifying any one seed.
    By default the search stops at the first seed whose worst cell meets
    the target epsilon (any later seed could only tie the pass/fail
    verdict).  Each survey is held to ``cap`` as in
    ``empirical_error_survey``, checked before the first seed.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    allocation = RateAllocation(model, n, c, Fraction(epsilon))
    _check_survey_work(model, n, c, len(tuples), cap)
    goal = allocation.epsilon
    surveys = []
    for seed in seeds:
        codebook = BinningCodebook.create(
            model, n, c, allocation.epsilon, kind=kind, seed=seed
        )
        survey = empirical_error_survey(codebook, allocation, tuples, cap)
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
    through the survivor sets of ``_decode_rows``.  An ambiguous or
    empty final survivor set surfaces as a DecodingError so the verifier
    counts it like any other decode failure.  ``cell_codes`` runs the same
    plan on a whole list of tuples, one row each, after the plan's cap check.
    """

    name = "binning"

    def __init__(
        self,
        model: CorrelationModel,
        n: int,
        c: int,
        epsilon=Fraction(1, 4),
        seed: int = 0,
    ) -> None:
        super().__init__(model, n, c)
        self.allocation = RateAllocation(model, n, c, Fraction(epsilon))
        self.codebook = BinningCodebook.create(
            model, n, c, self.allocation.epsilon, seed=seed
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

    def _fields(self, server, got, versions):
        for u in got:
            width = self.allocation.index_bits(got, u)
            index = self.codebook.index_of(server, u, versions.version(u).bits, width)
            yield index, width

    def _parse_indices(self, T, rows, symbols) -> dict[int, dict[int, int]]:
        out: dict[int, dict[int, int]] = {}
        for t, got in _receipts(T, rows).items():
            widths = [self.allocation.index_bits(got, u) for u in got]
            out[t] = dict(zip(got, split_fields(symbols[t], widths)))
        return out

    def decode(self, T, rows, symbols):
        indices = self._parse_indices(T, rows, symbols)
        outcome = _decode_rows(self.codebook, self.allocation, T, rows, indices)
        if outcome.status == PossibleSetOutcome.NO_COMMON:
            return None
        if outcome.status == PossibleSetOutcome.ERROR:
            raise DecodingError(outcome.reason)
        return Decoded(outcome.version, outcome.message)

    def cell_codes(self, T, rows, tuples, cache):
        plan = _plan_for(self.codebook, self.allocation, tuple(T), tuple(rows))
        if plan is None:
            return [_NULL] * len(tuples)
        import numpy as np

        truth = _run_cached(
            cache,
            "values",
            lambda: np.array([[m.bits for m in vt.versions] for vt in tuples], np.int64),
        )
        wanted = [
            [index.keys[truth[:, version - 1]] for _t, index, _wmask in checks]
            for version, _masks, checks in plan.layers
        ]
        count, final = _run_plan(plan, wanted)
        u_L = plan.latest_common
        right = final == truth[:, u_L - 1]
        return np.where(count != 1, _RAISED, np.where(right, u_L, _WRONG)).tolist()

    def worst_case_cost(self) -> CostReport:
        model = self.model
        full = tuple(range(1, model.nu + 1))
        storage = self.allocation.storage_bits(full)
        table = model.K / self.c + (model.nu - 1) * log2(
            model.ball_volume()
        ) / self.c
        # epsilon * 2^(-nu*n): each of the at most 2^(nu*n) states' share of
        # epsilon under the union bound the widths are sized for
        share = format_rational(self.allocation.epsilon, model.nu * self.n)
        notes = (
            f"real-rate total {binning_worst_case_cost(self.allocation):.4f} bits",
            f"ceiling slack {self.allocation.ceiling_slack(full):.4f} bits",
            f"union-bound share {share}",
            f"codebook {self.codebook.kind} seed {self.codebook.seed}",
        )
        return CostReport(self.name, table, float(storage), storage, 0, notes)


register_scheme(BinningScheme.name, BinningScheme)
