"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: binomials
come from a Pascal-triangle recurrence, logarithms from big-integer
bisection, and probabilities from explicit outcome enumeration.  Slow is
fine; independent is the point.  The mpmath rate arithmetic, the quorum
bridge's subset scan, the GF(2^m) Vandermonde inverse, the receipt-
pattern sweep, the per-node read search and the per-trial Monte-Carlo
engine at the end are the implementations the exact paths, the direct
bridge rule, the GF(2) mask decode, the closed-form worst cases, the
view-keyed search and the per-view Monte-Carlo blocks replaced,
kept as their oracles; so are the read views taken from the whole state
that views from T's rows replaced, the latest-only and replication newest-
version scans that ``model.newest_held`` replaced, the tuple and
subset draws through ``randrange`` and ``random.sample`` that the
``getrandbits``-only samplers replaced, and the binning decode over
survivor sets that the one numpy plan runner replaced.

The parity lemma of the linear codebook, the receipt-set rate formula and
the binning rate-region check with its scenario rates are analytics only
tests call; they live here with the exact rate arithmetic they need: the
sum of two symbolic rates (``term_plus``) and the sign of one, decided by
comparing big-integer powers (``term_sign``).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

import numpy as np
from mpmath import mp

from mvcode.binning import RateTerm, _decoding_chain
from mvcode.model import (
    Message,
    SystemState,
    VersionTuple,
    latest_common_version,
    latest_complete_version,
    newest_held,
    sample_tuple,
)
from mvcode.schemes import _judge
from mvcode.sim import (
    KIND_ARRIVAL,
    KIND_CRASH,
    KIND_WRITE,
    Schedule,
    SimEvent,
    read_start,
)
from mvcode.verifier import (
    MODE_MONTE_CARLO,
    QuorumBridge,
    VerificationReport,
    _witness,
)


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) via the additive recurrence, no math.comb."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def ball_volume(radius: int, K: int) -> int:
    return sum(pascal_binomial(K, j) for j in range(radius + 1))


def ball_index_bits(radius: int, K: int) -> int:
    """Bits needed to index any vector in a radius-``radius`` ball: ceil(log2 Vol)."""
    return (ball_volume(radius, K) - 1).bit_length()


def log2_fixed(x: Fraction, frac_bits: int = 64) -> Fraction:
    """log2 of a positive rational to frac_bits of precision.

    Classic shift-and-square on a fixed-point mantissa with 16 guard bits:
    normalize x to m/2^S in [1,2), then each squaring yields one output bit.
    Only integer arithmetic; the single floor per step keeps the result
    within 2^-(frac_bits+10) of the true value.  Returns a Fraction with
    denominator 2^frac_bits.
    """
    if x <= 0:
        raise ValueError("log2 needs a positive argument")
    num, den = x.numerator, x.denominator
    ipart = num.bit_length() - den.bit_length()
    if ipart >= 0:
        den <<= ipart
    else:
        num <<= -ipart
    if num < den:
        num <<= 1
        ipart -= 1
    scale = frac_bits + 16
    mant = (num << scale) // den
    frac = 0
    for _ in range(frac_bits):
        mant = (mant * mant) >> scale
        frac <<= 1
        if mant >> (scale + 1):
            frac |= 1
            mant >>= 1
    return ipart + Fraction(frac, 1 << frac_bits)


def log2_float(x: Fraction, frac_bits: int = 64) -> float:
    return float(log2_fixed(Fraction(x), frac_bits))


def wilson_upper(failures: int, trials: int, z: float = 1.959963984540054) -> float:
    """Upper end of the Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 1.0
    p = failures / trials
    z2 = z * z
    center = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (
        z
        * ((p * (1 - p) / trials + z2 / (4 * trials * trials)) ** 0.5)
        / (1 + z2 / trials)
    )
    return min(1.0, center + half)


def even_parity_monte_carlo(
    p, w: int, M: int, trials: int = 10_000, seed: int = 0
) -> float:
    """Companion estimator: fraction of seeded matrix draws whose w chosen
    rows have even parity in every one of the M columns."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    draws = rng.random((trials, M, w)) < float(p)
    parities = draws.sum(axis=2) & 1
    return float(np.mean((parities == 0).all(axis=1)))


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
# The relaxed decodability region of the binning allocation, decided
# exactly on symbolic rates.


_ZERO_TERM = RateTerm(Fraction(0), Fraction(0), Fraction(0))


def term_plus(a: RateTerm, b: RateTerm) -> RateTerm:
    return RateTerm(*(x + y for x, y in zip(a, b)))


def term_minus(a: RateTerm, b: RateTerm) -> RateTerm:
    return RateTerm(*(x - y for x, y in zip(a, b)))


def term_sign(allocation, term: RateTerm, bound: int = 0) -> int:
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
        (allocation.model.ball_volume(), term.vol_coeff * D),
        (allocation.epsilon.numerator, term.eps_coeff * D),
        (allocation.epsilon.denominator, -term.eps_coeff * D),
    ):
        sides[exponent < 0] *= base ** abs(int(exponent))
    return (sides[0] > sides[1]) - (sides[0] < sides[1])


def _as_term(value) -> RateTerm:
    if isinstance(value, RateTerm):
        return value
    return RateTerm(Fraction(value), Fraction(0), Fraction(0))


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


def rate_region_check(allocation, rates, scenario) -> RegionCheck:
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
            lhs = term_plus(lhs, terms[u])
        rhs = budget
        gap_vol = Fraction(0)
        for j in range(max(i, 2), L + 1):
            gap_vol += chain[j - 1] - chain[j - 2]
        rhs = term_plus(rhs, RateTerm(Fraction(0), gap_vol, Fraction(0)))
        if i == 1:
            rhs = term_plus(
                rhs, RateTerm(Fraction(allocation.model.K), Fraction(0), Fraction(0))
            )
        gap = term_minus(lhs, rhs)
        sign = term_sign(allocation, gap)
        slacks.append(allocation.evaluate(gap) if sign else 0.0)
        if sign < 0:
            satisfied = False
    return RegionCheck(chain, satisfied, tuple(slacks))


def rate_term(allocation, received, u: int) -> RateTerm:
    """The symbolic rate of version u at a server holding ``received``,
    read off the whole sorted receipt set (the class docstring's formula)."""
    got = tuple(sorted(set(received)))
    if not got or got[0] < 1 or got[-1] > allocation.model.nu:
        raise ValueError("receipt set out of range")
    if u not in got:
        raise ValueError(f"version {u} not in receipt set {got}")
    budget = Fraction(allocation.model.nu * allocation.n)
    pos = got.index(u)
    if pos == 0:
        const = Fraction(allocation.model.K + (u - 1)) + budget
        vol = Fraction(u - 1)
    else:
        const = Fraction(u - 1) + budget
        vol = Fraction(u - got[pos - 1])
    c = allocation.c
    return RateTerm(const / c, vol / c, Fraction(-1, c))


def scenario_rates(allocation, state, T) -> tuple[tuple[int, ...], dict]:
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
                total = term_plus(
                    total, rate_term(allocation, state.per_server[t], u)
                )
        totals[u] = total
    return chain, totals


# ---------------------------------------------------------------------------
# The 128-bit mpmath rate arithmetic that exact big-integer ceilings and the
# 50-digit decimal logarithms replaced, kept verbatim as their oracle.

_WORK_PREC = 128
_SNAP = Fraction(1, 1 << 60)


def _mpmath_log_vol(allocation):
    return _mpmath_log_of(allocation.model.ball_volume(), 1)


def _mpmath_log_eps(allocation):
    eps = allocation.epsilon
    return _mpmath_log_of(eps.numerator, eps.denominator)


@lru_cache(maxsize=None)
def _mpmath_log_of(num: int, den: int):
    with mp.workprec(_WORK_PREC):
        return mp.log(mp.mpf(num), 2) - mp.log(mp.mpf(den), 2)


def mpmath_evaluate(allocation, term) -> float:
    """Numeric value of a symbolic rate, in bits."""
    if term.is_zero():
        return 0.0
    with mp.workprec(_WORK_PREC):
        val = mp.mpf(term.constant.numerator) / term.constant.denominator
        if term.vol_coeff:
            val += (
                mp.mpf(term.vol_coeff.numerator)
                / term.vol_coeff.denominator
                * _mpmath_log_vol(allocation)
            )
        if term.eps_coeff:
            val += (
                mp.mpf(term.eps_coeff.numerator)
                / term.eps_coeff.denominator
                * _mpmath_log_eps(allocation)
            )
        return float(val)


def snapped_ceil_bits(allocation, term) -> int:
    with mp.workprec(_WORK_PREC):
        val = mp.mpf(term.constant.numerator) / term.constant.denominator
        if term.vol_coeff:
            val += (
                mp.mpf(term.vol_coeff.numerator)
                / term.vol_coeff.denominator
                * _mpmath_log_vol(allocation)
            )
        if term.eps_coeff:
            val += (
                mp.mpf(term.eps_coeff.numerator)
                / term.eps_coeff.denominator
                * _mpmath_log_eps(allocation)
            )
        floor = int(mp.floor(val))
        frac = val - floor
        snap = mp.mpf(_SNAP.numerator) / _SNAP.denominator
        return floor if frac <= snap else floor + 1


def snapped_region_slacks(allocation, rates, scenario) -> tuple[float, ...]:
    """The slacks rate_region_check reported for symbolic ``rates``."""
    chain = tuple(scenario)
    L = len(chain)
    zero = RateTerm(Fraction(0), Fraction(0), Fraction(0))
    budget = RateTerm(
        Fraction(L - 1 + allocation.model.nu * allocation.n),
        Fraction(0),
        Fraction(-1),
    )
    slacks = []
    for i in range(1, L + 1):
        lhs = zero
        for u in chain[i - 1 :]:
            lhs = term_plus(lhs, rates[u])
        rhs = budget
        gap_vol = Fraction(0)
        for j in range(max(i, 2), L + 1):
            gap_vol += chain[j - 1] - chain[j - 2]
        rhs = term_plus(rhs, RateTerm(Fraction(0), gap_vol, Fraction(0)))
        if i == 1:
            rhs = term_plus(
                rhs, RateTerm(Fraction(allocation.model.K), Fraction(0), Fraction(0))
            )
        gap = term_minus(lhs, rhs)
        if gap.is_zero():
            slack = 0.0
        else:
            slack = mpmath_evaluate(allocation, gap)
            if abs(slack) <= float(_SNAP):
                slack = 0.0
        slacks.append(slack)
    return tuple(slacks)


def mpmath_log2(x) -> float:
    """Base-2 log of a positive integer or Fraction via 128-bit arithmetic."""
    x = Fraction(x)
    with mp.workprec(_WORK_PREC):
        return float(
            mp.log(mp.mpf(x.numerator), 2) - mp.log(mp.mpf(x.denominator), 2)
        )


# ---------------------------------------------------------------------------
# Read views taken from the whole state, as ``read_view`` took them before it
# took T's rows alone.


def state_read_view(scheme, T, state):
    """T with its rows of ``state``; for a quorum bridge, the inner
    scheme's view of the holders ``newest_held`` finds in sorted T, or None
    when there are none."""
    if isinstance(scheme, QuorumBridge):
        found = newest_held(sorted(T), state.per_server, scheme.overlap)
        if found is None:
            return None
        return state_read_view(scheme.inner, found[1], state)
    return (tuple(T), tuple(state.per_server[t] for t in T))


# ---------------------------------------------------------------------------
# The quorum read rules, by brute force.


def latest_complete_by_count(per_server, c_w: int, nu: int):
    """Newest version of 1..nu that at least c_w servers hold, or None."""
    complete = [
        u for u in range(1, nu + 1) if sum(u in s for s in per_server) >= c_w
    ]
    return max(complete, default=None)


def bridge_subset_scan(per_server, T, overlap: int):
    """The subset the quorum bridge delegated to before the direct rule:
    among the overlap-subsets of T, the one whose members share the newest
    version, first in lexicographic order on ties; None if none shares any."""
    best = None
    for S in combinations(sorted(T), overlap):
        shared = frozenset.intersection(*(per_server[t] for t in S))
        u = max(shared) if shared else None
        if u is not None and (best is None or u > best[0]):
            best = (u, S)
    return None if best is None else best[1]


def latest_only_newest_holders(per_server, T, c: int):
    """The latest-only read plan before the shared k-of-T rule: the newest
    version that c servers of T hold as their newest, with the first c of
    them; None when there is none."""
    by_version: dict[int, list[int]] = {}
    for server in T:
        received = sorted(per_server[server])
        if received:
            by_version.setdefault(received[-1], []).append(server)
    for version in sorted(by_version, reverse=True):
        holders = by_version[version]
        if len(holders) >= c:
            return version, tuple(holders[:c])
    return None


def replication_newest_copy(per_server, T):
    """The replication read before the shared k-of-T rule: (version, server)
    of the newest copy in T, the first server of T holding it; None when T
    shares no version."""
    if not frozenset.intersection(*(per_server[t] for t in T)):
        return None
    best = None
    for server in T:
        received = sorted(per_server[server])
        if not received:
            continue
        if best is None or received[-1] > best[0]:
            best = (received[-1], server)
    return best


# ---------------------------------------------------------------------------
# The GF(2^m) Vandermonde inverse that Reed-Solomon decoding used before the
# GF(2) inverse of the stacked binary generator, kept verbatim as its oracle.


def _field_inv(f, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return f.pow(a, f.order - 2)


def invert_vandermonde(code, servers: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    f = code.field
    c = code.c
    # Rows are (1, p, p^2, ..., p^(c-1)) per chosen coordinate.
    matrix = [
        [f.pow(code.evaluation_points[s], k) for k in range(c)] for s in servers
    ]
    identity = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    for col in range(c):
        pivot = next(r for r in range(col, c) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        identity[col], identity[pivot] = identity[pivot], identity[col]
        inv_p = _field_inv(f, matrix[col][col])
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


def vandermonde_decode(code, pairs) -> tuple[int, ...]:
    """A message block from exactly c (coordinate, symbol) pairs."""
    rows = invert_vandermonde(code, tuple(s for s, _ in pairs))
    f = code.field
    values = [v for _, v in pairs]
    block = []
    for row in rows:
        acc = 0
        for coef, sym in zip(row, values):
            acc ^= f.mul(coef, sym)
        block.append(acc)
    return tuple(block)


def vandermonde_interpolate(generator, holders) -> int:
    """The padded message behind c (server, symbol-vector) pairs, one
    block at a time."""
    code = generator.code
    m = generator.symbol_bits
    bits = 0
    for b in range(generator.blocks):
        window = [(s, (vec >> (b * m)) & ((1 << m) - 1)) for s, vec in holders]
        block = vandermonde_decode(code, window)
        for j, val in enumerate(block):
            bits |= val << (b * code.c * m + j * m)
    return bits


# ---------------------------------------------------------------------------
# The worst receipt pattern by sweep, as delta and rs-update found it before
# their closed forms, kept as their oracle.


def worst_over_receipt_patterns(scheme) -> tuple[int, int]:
    """(measured_bits, framing_bits) of a delta or rs-update scheme: the
    widest of all 2^nu - 1 receipt patterns, the first in ascending mask
    order on ties, from the scheme's per-gap field widths."""
    nu, K, r = scheme.model.nu, scheme.model.K, scheme.model.radius
    spb = scheme.symbol_vector_bits
    best = None
    for mask in range(1, 1 << nu):
        pattern = [u + 1 for u in range(nu) if (mask >> u) & 1]
        gaps = [b - a for a, b in zip(pattern, pattern[1:])]
        if scheme.name == "delta":
            cost, framing = sum(scheme._widths(pattern)), 0
        else:
            gen = scheme.generator
            record = scheme._index_bits + gen.symbol_bits
            cost = spb + sum(
                scheme._count_bits + min(min(g * r, gen.blocks, K) * record, spb)
                for g in gaps
            )
            framing = len(gaps) * scheme._count_bits
        if best is None or cost > best[0]:
            best = (cost, framing)
    return best


def schedule_nodes(n: int, nu: int, f: int, depth: int):
    """Breadth-first over schedules: each (receipt sets, writes, crash set)
    node that a schedule of at most depth - 1 events reaches, once, with
    the first event path to it, children in token order writes <
    arrivals by (version, server) < crashes by server."""
    start = (tuple(frozenset() for _ in range(n)), 0, frozenset())
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        node, path = queue.popleft()
        used = len(path)
        if used + 1 > depth:
            continue
        yield node, path
        if used + 2 > depth:
            continue
        received, written, crashed = node
        children = []
        if written < nu:
            children.append(
                ((received, written + 1, crashed), (KIND_WRITE, written + 1, None))
            )
        for u in range(1, written + 1):
            for s in range(n):
                if s not in crashed and u not in received[s]:
                    rows = list(received)
                    rows[s] = received[s] | {u}
                    children.append(
                        ((tuple(rows), written, crashed), (KIND_ARRIVAL, u, s))
                    )
        if len(crashed) < f:
            for s in range(n):
                if s not in crashed:
                    children.append(
                        ((received, written, crashed | {s}), (KIND_CRASH, None, s))
                    )
        for child, step in children:
            if child not in seen:
                seen.add(child)
                queue.append((child, path + (step,)))


def per_node_read_search(scheme, c_w: int, c_r: int, f: int, depth: int, seed: int = 0):
    """The adversarial schedule search judging every node's read on its
    own: the c_r lowest-indexed live servers encode their receipt sets
    (memoised per server and set) and one ``_judge`` decode must reach the
    latest complete version, or 0 while nothing is complete."""
    model, n = scheme.model, scheme.n
    versions = sample_tuple(model, seed)
    memo = {}

    def consistent(received, crashed):
        T = tuple(s for s in range(n) if s not in crashed)[:c_r]
        symbols = {}
        for t in T:
            key = (t, received[t])
            if key not in memo:
                memo[key] = scheme.encode(t, tuple(sorted(received[t])), versions)
            symbols[t] = memo[key]
        rows = [received[t] for t in T]
        code, _ = _judge(scheme, T, rows, symbols, versions)
        return code >= (latest_complete_version(received, c_w) or 0)

    for (received, _, crashed), path in schedule_nodes(n, model.nu, f, depth):
        if not consistent(received, crashed):
            events = tuple(
                SimEvent(kind, t, version=version, server=server)
                for t, (kind, version, server) in enumerate(path)
            )
            return Schedule(n, c_w, c_r, f, events + (read_start(len(path), 0),), seed)
    return None


# ---------------------------------------------------------------------------
# The tuple and subset draws through the stdlib's randrange and sample, made
# before the package's samplers called getrandbits alone; the reference
# those must equal call for call.


@lru_cache(maxsize=None)
def _cumulative_volumes(radius: int, K: int) -> tuple[int, ...]:
    return tuple(ball_volume(j, K) for j in range(radius + 1))


def reference_sample_tuple(model, rng: random.Random) -> VersionTuple:
    K = model.K
    cumulative = _cumulative_volumes(model.radius, K)
    w = rng.getrandbits(K)
    out = [w]
    for _ in range(model.nu - 1):
        weight = bisect_right(cumulative, rng.randrange(cumulative[-1]))
        # partial Fisher-Yates over range(K)
        pool = list(range(K))
        for idx in range(weight):
            swap = rng.randrange(idx, K)
            pool[idx], pool[swap] = pool[swap], pool[idx]
        for p in pool[:weight]:
            w ^= 1 << p
        out.append(w)
    return VersionTuple(tuple(Message(v, K) for v in out))


def reference_sample_subset(rng: random.Random, n: int, c: int) -> list[int]:
    return rng.sample(range(n), c)


# ---------------------------------------------------------------------------
# The Monte-Carlo engine that judged each trial on its own, one getrandbits(1)
# per server and version, before trials were judged per read view in blocks;
# kept as its oracle, drawing through the reference draws above.


def random_state(rng, n: int, nu: int):
    return SystemState(
        tuple(
            frozenset(u for u in range(1, nu + 1) if rng.getrandbits(1))
            for _ in range(n)
        )
    )


def per_trial_monte_carlo_run(
    scheme, subset_size, c_w, trials, seed, witness_cap
) -> VerificationReport:
    if trials < 1:
        raise ValueError("need at least one trial")
    model = scheme.model
    n = scheme.n
    rng = random.Random(seed)
    failures = 0
    witnesses = []
    subsets_seen = set()
    per_state: dict[tuple, list[int]] = {}
    for _ in range(trials):
        vt = reference_sample_tuple(model, rng)
        state = random_state(rng, n, model.nu)
        T = tuple(sorted(reference_sample_subset(rng, n, subset_size)))
        subsets_seen.add(T)
        record = per_state.setdefault(state.key(), [0, 0])
        record[0] += 1
        rows = [state.per_server[t] for t in T]
        if c_w is None:
            threshold = latest_common_version(rows)
        else:
            threshold = latest_complete_version(state.per_server, c_w)
        if threshold is None:
            continue  # vacuous guard: the trial passes
        symbols = {
            t: scheme.encode(t, tuple(sorted(state.per_server[t])), vt) for t in T
        }
        code, _ = _judge(scheme, T, rows, symbols, vt)
        if code < threshold:
            failures += 1
            record[1] += 1
            if len(witnesses) < witness_cap:
                witnesses.append(_witness(state.key(), T, vt, code, threshold))
    rates = [f / a for a, f in per_state.values()]
    # max keeps the first of equal rates, compared here as Fractions
    worst_a, worst_f = max(per_state.values(), key=lambda af: Fraction(af[1], af[0]))
    return VerificationReport(
        MODE_MONTE_CARLO,
        len(per_state),
        len(subsets_seen),
        trials,
        trials,
        failures,
        tuple(witnesses),
        failures / trials,
        max(rates, default=0.0),
        sum(rates) / len(rates) if rates else 0.0,
        (worst_f, worst_a),
    )


# ---------------------------------------------------------------------------
# The binning decode walked as Python sets, the runner the one numpy runner
# (``binning._run_plan``) replaced for single decodes.


def set_plan_decode(codebook, rates, T, state, indices):
    """``possible_set_decode`` over the same decode plan with survivor sets:
    the first layer scans all 2^K values, and each later layer steps every
    survivor by every ball mask; each value is checked against the full
    index tables.  Returns (status, version, message, reason) as the
    decoder reports them."""
    from mvcode.binning import _plan_for

    T = tuple(T)
    plan = _plan_for(codebook, rates, T, tuple(state.per_server[t] for t in T))
    if plan is None:
        return "no-common", None, None, "no version common to T"
    survivors = set()
    for version, masks, checks in plan.layers:
        bound = [
            (codebook.index_table(t, version), wmask, indices[t][version] & wmask)
            for t, _index, wmask in checks
        ]
        if masks is None:
            candidates = range(1 << codebook.model.K)
        else:
            candidates = {w ^ mask for w in survivors for mask in masks.tolist()}
        survivors = {
            w
            for w in candidates
            if all(table[w] & wmask == target for table, wmask, target in bound)
        }
    if len(survivors) == 1:
        value = next(iter(survivors))
        return "decoded", plan.latest_common, Message(value, codebook.model.K), ""
    if survivors:
        reason = "stored indices leave the newest common version ambiguous"
    else:
        reason = "no admissible assignment matches the stored indices"
    return "error", None, None, reason
