"""Certification that a scheme actually behaves as a multi-version code.

Two decoding contracts are checked.  The subset contract: any c servers
whose version sets share a version must decode the newest shared version,
or a newer one, with the right content.  The quorum contract: given a
write quorum c_w and a read quorum c_r, any c_r servers must decode the
newest complete version (one present at c_w or more servers) or newer,
whenever a complete version exists.  ``quorum_bridge`` adapts a scheme
built for the subset contract to the quorum contract via the overlap size
c = c_w + c_r - n.

Exhaustive mode enumerates every state, every subset, and every admissible
tuple, so zero failures is a proof at those parameters.  Monte-Carlo mode
samples (tuple, state, subset) trials.  Under a vacuous guard (nothing
shared, nothing complete) neither engine decodes, so every such
combination passes: exhaustive mode does not count it as an attempt, and
Monte-Carlo mode counts it as a passing trial.  Under a live guard NULL
is a failure, as are raised decode errors, stale versions, and wrong
content.

A decode outcome is a function of the scheme's ``read_view``, which is
computed from the contacted subset's rows alone: by default the subset
and its rows, since a reader only learns the version sets of the servers
it contacted, and for a quorum bridge the inner scheme's view of the
holders it delegates to.  The exhaustive engine shares one cell of decode
outcomes among all (state, subset) pairs with the same view; the verdict
is then replayed against every full state so reports and witnesses still
range over the whole state space.  The schedule search judges its reads
with these same cells, over a one-tuple list, reading each view from its
receipt bits.  No engine builds a state to read from: a cell takes T's
rows.  Under Definition 2 the threshold is the state's latest complete
version, worked out once per state from its n rows; under requirement A
it is T's latest common version, a function of T's rows.

Every engine turns a read view into outcome codes through the scheme's
own ``cell_codes``, which must return exactly the codes of the per-tuple
default ``MvcScheme.cell_codes``.  Monte-Carlo mode draws its trials in
blocks of 32768, each trial's tuple, state and subset in turn from one
seeded generator through ``getrandbits`` alone, so the draws rest only on
MT19937's word stream.  A trial is drawn as ints: the version values, the
state's masked word bits and a code of the subset's raw draws.  A state is
kept as those bits, read one row at a time.  A (state, subset code) pair
is judged for its sorted subset, threshold and read view once per run, on
first draw; a block builds one VersionTuple per distinct
value tuple and is judged per read view over the tuples of that view's
trials.  Only failing trials are folded back, in trial order, so the draws
and every report are those of judging each trial on its own.
"""

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    SystemState,
    VersionTuple,
    enumerate_possible_set,
    format_count,
    iter_states,
    latest_common_version,
    latest_complete_version,
    newest_held,
    subset_sampler,
    tuple_maker,
    tuple_sampler,
)
from .schemes import _NULL, _RAISED, _WRONG, MvcScheme

_WILSON_Z = 1.959963984540054

MODE_EXHAUSTIVE = "exhaustive"
MODE_MONTE_CARLO = "monte-carlo"
_MODES = ("auto", MODE_EXHAUSTIVE, MODE_MONTE_CARLO)


class Witness(NamedTuple):
    """One failing (state, subset, tuple) combination."""

    state: tuple[tuple[int, ...], ...]
    subset: tuple[int, ...]
    versions: tuple[str, ...]  # hex content per version, oldest first
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    """Verdict of one verification run.

    ``tuples_checked`` is the per-cell tuple count in exhaustive mode and
    the trial count in Monte-Carlo mode; ``attempts`` counts the decode
    attempts actually judged (vacuous-guard combinations pass without an
    attempt in exhaustive mode, and pass as trials in Monte-Carlo mode).
    ``failures`` is truncated at the run's witness cap; ``failure_count``
    is always exact.  The per-state figures answer two readings of the
    error level: the worst state and the average state, with states whose
    every combination is vacuous contributing zero.  ``worst_state`` is
    (failures, attempts) of the first state with the highest failure rate,
    compared exactly, which ``verdict`` judges.  In exhaustive mode
    ``worst_cell`` is (state, subset, failures) of the first live
    combination with the most failures; it is None in Monte-Carlo mode.
    """

    mode: str
    states_checked: int
    subsets_checked: int
    tuples_checked: int
    attempts: int
    failure_count: int
    failures: tuple[Witness, ...]
    empirical_error: float
    per_state_max_error: float
    state_averaged_error: float
    worst_state: Optional[tuple[int, int]]
    worst_cell: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        """Zero failures.  ``verdict`` instead judges the report against
        the scheme's error budget, so a scheme with a nonzero budget
        (binning) can fail this and still pass there."""
        return self.failure_count == 0

    def to_text(self) -> str:
        lines = [
            "mvc-verification mode={} passed={}".format(
                self.mode, "yes" if self.passed else "no"
            ),
            "states={} subsets={} tuples={} attempts={}".format(
                self.states_checked,
                self.subsets_checked,
                self.tuples_checked,
                self.attempts,
            ),
            "failures={} empirical-error={:.9f}".format(
                self.failure_count, self.empirical_error
            ),
            "per-state-max={:.9f} state-average={:.9f}".format(
                self.per_state_max_error, self.state_averaged_error
            ),
        ]
        for w in self.failures:
            state = "|".join(",".join(str(u) for u in s) for s in w.state)
            lines.append(
                "witness state={} subset={} versions={} reason={}".format(
                    state or "-",
                    ",".join(str(t) for t in w.subset),
                    ",".join(w.versions),
                    w.reason,
                )
            )
        return "\n".join(lines)


def _reason(code: int, threshold: int) -> str:
    if code == _NULL:
        return "returned NULL under a live guard"
    if code == _RAISED:
        return "decode raised an error"
    if code == _WRONG:
        return "wrong content or version out of range"
    return f"decoded version {code} below required {threshold}"


def _witness(key, T, vt: VersionTuple, code: int, threshold: int) -> Witness:
    return Witness(
        key,
        T,
        tuple(m.to_hex() for m in vt.versions),
        _reason(code, threshold),
    )


class _Cell:
    """Decode outcomes of one read view, over every tuple."""

    __slots__ = ("codes", "tally")

    def __init__(self, codes: list[int]):
        self.codes = codes
        # at most nu + 3 distinct codes: NULL, raised, wrong, 1..nu; one
        # count settles a cell of one code (every cell of a passing scheme)
        if codes and codes.count(codes[0]) == len(codes):
            self.tally = {codes[0]: len(codes)}
        else:
            self.tally = Counter(codes)

    def failure_count(self, threshold: int) -> int:
        # every failing code (NULL, raised, wrong) is < 1 <= threshold
        return sum(k for code, k in self.tally.items() if code < threshold)

    def failing_indices(self, threshold: int, limit: int):
        out = []
        for i, code in enumerate(self.codes):
            if code < threshold:
                out.append(i)
                if len(out) >= limit:
                    break
        return out


def _worst_state(counts: Iterable[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """The first (failures, attempts) with the highest failure rate, by
    exact cross-multiplication; a state with no attempts has rate 0."""
    worst = None
    for f, a in counts:
        if worst is None or f * max(worst[1], 1) > worst[0] * max(a, 1):
            worst = (f, a)
    return worst


def _cell(scheme, T, rows, tuples, cells: dict, cache: dict) -> _Cell:
    """The cell of the read view of T's rows ``rows``, built on first use."""
    view = scheme.read_view(T, rows)
    cell = cells.get(view)
    if cell is None:
        cell = cells[view] = _Cell(scheme.cell_codes(T, rows, tuples, cache))
    return cell


def _exhaustive_run(
    scheme: MvcScheme,
    subsets: Sequence[tuple[int, ...]],
    c_w: Optional[int],
    states: Iterable[SystemState],
    tuples: Sequence[VersionTuple],
    witness_cap: int,
) -> VerificationReport:
    """Judge every subset of every state over ``tuples``: against the
    state's latest complete version under Definition 2 (write quorum
    ``c_w``), or, with ``c_w`` None, T's latest common version
    (requirement A)."""
    run_cache: dict = {}
    cells: dict[tuple, _Cell] = {}
    attempts = 0
    failure_count = 0
    witnesses: list[Witness] = []
    state_counts = []
    worst = None
    for state in states:
        per_server = state.per_server
        complete = None if c_w is None else latest_complete_version(per_server, c_w)
        state_attempts = 0
        state_failures = 0
        for T in subsets:
            rows = [per_server[t] for t in T]
            threshold = latest_common_version(rows) if c_w is None else complete
            if threshold is None:
                continue
            cell = _cell(scheme, T, rows, tuples, cells, run_cache)
            fails = cell.failure_count(threshold)
            state_attempts += len(tuples)
            state_failures += fails
            if worst is None or fails > worst[2]:
                worst = (state.key(), T, fails)
            if fails and len(witnesses) < witness_cap:
                for i in cell.failing_indices(
                    threshold, witness_cap - len(witnesses)
                ):
                    witnesses.append(
                        _witness(state.key(), T, tuples[i], cell.codes[i], threshold)
                    )
        attempts += state_attempts
        failure_count += state_failures
        state_counts.append((state_failures, state_attempts))
    state_rates = [f / a if a else 0.0 for f, a in state_counts]
    return VerificationReport(
        MODE_EXHAUSTIVE,
        len(state_rates),
        len(subsets),
        len(tuples),
        attempts,
        failure_count,
        tuple(witnesses),
        failure_count / attempts if attempts else 0.0,
        max(state_rates, default=0.0),
        sum(state_rates) / len(state_rates) if state_rates else 0.0,
        _worst_state(state_counts),
        worst,
    )


# Monte-Carlo draws and judges its trials in blocks of _BLOCK.
_BLOCK = 1 << 15


def _monte_carlo_run(
    scheme: MvcScheme,
    subset_size: int,
    c_w: Optional[int],
    trials: int,
    seed: int,
    witness_cap: int,
) -> VerificationReport:
    """Judge ``trials`` drawn (tuple, state, subset) trials, with the
    thresholds of ``_exhaustive_run``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    n, nu = scheme.n, scheme.model.nu
    getrandbits = random.Random(seed).getrandbits
    draw_tuple = tuple_sampler(scheme.model)
    make_tuple = tuple_maker(scheme.model.K)
    draw_subset, members_of = subset_sampler(n, subset_size)
    # one getrandbits(32 * n * nu) yields the words of n * nu getrandbits(1)
    # calls in order, least significant first, and each call's bit is its
    # word's bit 31: server i holds version u when word i * nu + u - 1 has it
    state_bits, row_bits = 32 * n * nu, 32 * nu
    top_mask = sum(1 << 32 * word + 31 for word in range(n * nu))
    row_mask = (1 << row_bits) - 1
    sets: dict[int, frozenset[int]] = {}

    def row(key: int, server: int) -> frozenset[int]:
        """Server ``server``'s version set in the state of masked bits ``key``."""
        bits = key >> row_bits * server & row_mask
        held = sets.get(bits)
        if held is None:
            held = sets[bits] = frozenset(
                u for u in range(1, nu + 1) if bits >> 32 * u - 1 & 1
            )
        return held

    # masked state bits -> (those bits, latest complete version or None,
    # [trials, failures], reads), in order of first draw, the bits kept once
    # for every read to share; reads maps a subset code to (T, threshold,
    # view index, state bits, record)
    per_state: dict[int, tuple[int, Optional[int], list[int], dict]] = {}
    views: dict = {}  # read view -> its index, by which a block groups trials
    subsets_seen = set()
    failures = 0
    witnesses: list[Witness] = []
    for start in range(0, trials, _BLOCK):
        # the block's live trials: their values and reads, and their
        # positions by view
        values_at: list[tuple[int, ...]] = []
        reads_at: list[tuple] = []
        groups: dict[int, list[int]] = {}
        for _ in range(min(_BLOCK, trials - start)):
            values = draw_tuple(getrandbits)
            key = getrandbits(state_bits) & top_mask
            entry = per_state.get(key)
            if entry is None:
                complete = None
                if c_w is not None:
                    per_server = [row(key, i) for i in range(n)]
                    complete = latest_complete_version(per_server, c_w)
                entry = per_state[key] = (key, complete, [0, 0], {})
            key, complete, record, reads = entry
            code = draw_subset(getrandbits)
            read = reads.get(code)
            if read is None:
                T = tuple(sorted(members_of(code)))
                subsets_seen.add(T)
                held = [row(key, t) for t in T]
                threshold = latest_common_version(held) if c_w is None else complete
                view = None
                if threshold is not None:
                    view = views.setdefault(scheme.read_view(T, held), len(views))
                read = reads[code] = (T, threshold, view, key, record)
            record[0] += 1
            if read[1] is not None:  # else a vacuous guard: the trial passes
                groups.setdefault(read[2], []).append(len(reads_at))
                values_at.append(values)
                reads_at.append(read)
        built = {values: make_tuple(values) for values in set(values_at)}
        failing = []
        for members in groups.values():
            T, _, _, key, _ = reads_at[members[0]]
            got = scheme.cell_codes(
                T, [row(key, t) for t in T], [built[values_at[i]] for i in members], {}
            )
            failing += [
                (i, code)
                for i, code in zip(members, got)
                if code < reads_at[i][1]
            ]
        failing.sort()
        for i, code in failing:
            T, threshold, _, key, record = reads_at[i]
            failures += 1
            record[1] += 1
            if len(witnesses) < witness_cap:
                vt = built[values_at[i]]
                rows_key = tuple(tuple(sorted(row(key, s))) for s in range(n))
                witnesses.append(_witness(rows_key, T, vt, code, threshold))
    rates = [f / a for _, _, (a, f), _ in per_state.values()]
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
        _worst_state((f, a) for _, _, (a, f), _ in per_state.values()),
    )


def _resolve_mode(mode: str, work: int, cap: int) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if mode == MODE_MONTE_CARLO:
        return MODE_MONTE_CARLO
    if work <= cap:
        return MODE_EXHAUSTIVE
    if mode == MODE_EXHAUSTIVE:
        raise EnumerationCapExceeded(work, cap)
    warnings.warn(
        f"exhaustive verification needs {format_count(work)} decode attempts, "
        f"over the cap of {format_count(cap)}; falling back to Monte-Carlo sampling",
        RuntimeWarning,
        stacklevel=3,
    )
    return MODE_MONTE_CARLO


def _verify(
    scheme: MvcScheme,
    subset_size: int,
    c_w: Optional[int],
    mode: str,
    trials: int,
    seed: int,
    cap: int,
    witness_cap: int,
) -> VerificationReport:
    model = scheme.model
    n = scheme.n
    work = (1 << (model.nu * n)) * math.comb(n, subset_size) * model.tuple_count()
    chosen = _resolve_mode(mode, work, cap)
    if chosen == MODE_EXHAUSTIVE:
        return _exhaustive_run(
            scheme,
            list(combinations(range(n), subset_size)),
            c_w,
            iter_states(n, model.nu),
            list(enumerate_possible_set(model, cap)),
            witness_cap,
        )
    return _monte_carlo_run(scheme, subset_size, c_w, trials, seed, witness_cap)


def verify_requirement_A(
    scheme: MvcScheme,
    mode: str = "auto",
    trials: int = 2000,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
    witness_cap: int = 200,
) -> VerificationReport:
    """Check the subset contract: every c servers sharing a version decode
    the newest shared version or newer, with correct content.

    ``auto`` runs exhaustively when states x subsets x tuples fits under
    ``cap`` and otherwise warns and samples; ``exhaustive`` raises
    EnumerationCapExceeded instead of sampling.
    """
    return _verify(scheme, scheme.c, None, mode, trials, seed, cap, witness_cap)


def verify_definition_2(
    scheme: MvcScheme,
    c_w: int,
    c_r: int,
    mode: str = "auto",
    trials: int = 2000,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
    witness_cap: int = 200,
) -> VerificationReport:
    """Check the quorum contract: whenever some version is complete (held
    by c_w or more servers), every c_r-subset decodes the newest complete
    version or newer.

    The threshold depends on the whole state, not on the contacted subset,
    so a scheme must cope with subset members that hold nothing; that is
    what ``quorum_bridge`` arranges for subset-contract schemes.
    """
    n = scheme.n
    if not 1 <= c_w <= n:
        raise ValueError("c_w must lie in [1, n]")
    if not 1 <= c_r <= n:
        raise ValueError("c_r must lie in [1, n]")
    return _verify(scheme, c_r, c_w, mode, trials, seed, cap, witness_cap)


class QuorumBridge(MvcScheme):
    """Read-quorum adapter over a subset-contract scheme.

    Encoding is the inner scheme's.  The decoder receives c_r servers,
    finds the newest version that at least c_w + c_r - n of them hold,
    and delegates to the c_w + c_r - n lowest-indexed of its holders.
    Any complete version is held by at least c_w + c_r - n members of
    every read quorum, so the delegated subset shares the newest complete
    version or a newer one whenever a complete version exists.  The
    holders and the complete version are one rule, ``model.newest_held``,
    over different (set, k): (the read quorum, c_w + c_r - n) here and
    (all servers, c_w) in ``latest_complete_version``.

    The holders depend on T's rows alone and are taken in ascending
    server order whatever T's order.  A decode reads only them, so the
    read view, computed from T's rows, is the inner scheme's view of the
    holders and their rows, or None when no version has enough holders
    and the decode returns None.  ``cell_codes`` likewise hands a whole
    cell to the inner scheme's batch over those holders, and is all NULL
    when there are none.
    """

    def __init__(self, inner: MvcScheme, c_w: int, c_r: int):
        n = inner.n
        if not 1 <= c_w <= n:
            raise ValueError("c_w must lie in [1, n]")
        if not 1 <= c_r <= n:
            raise ValueError("c_r must lie in [1, n]")
        overlap = c_w + c_r - n
        if overlap <= 0:
            raise ValueError("write and read quorums must overlap: c_w + c_r > n")
        if overlap < inner.c:
            raise ValueError(
                f"quorum overlap {overlap} is below the inner scheme's "
                f"subset size {inner.c}"
            )
        super().__init__(inner.model, n, c_r)
        self.inner = inner
        self.c_w = c_w
        self.c_r = c_r
        self.overlap = overlap
        self.name = f"quorum-bridge({inner.name})"

    def encode(self, server, received, versions):
        return self.inner.encode(server, received, versions)

    def _holders(self, T, rows) -> Optional[tuple]:
        """(holders, their rows): the servers a read from T's ``rows``
        delegates to, in ascending order, or None."""
        per_server = dict(zip(T, rows))
        found = newest_held(sorted(T), per_server, self.overlap)
        if found is None:
            return None
        return found[1], [per_server[t] for t in found[1]]

    def decode(self, T, rows, symbols):
        held = self._holders(T, rows)
        return None if held is None else self.inner.decode(*held, symbols)

    def read_view(self, T, rows):
        held = self._holders(T, rows)
        return None if held is None else self.inner.read_view(*held)

    def cell_codes(self, T, rows, tuples, cache):
        held = self._holders(T, rows)
        if held is None:
            return [_NULL] * len(tuples)
        return self.inner.cell_codes(*held, tuples, cache)

    @property
    def error_budget(self):
        return self.inner.error_budget

    def worst_case_cost(self):
        return self.inner.worst_case_cost()


def quorum_bridge(scheme: MvcScheme, c_w: int, c_r: int) -> QuorumBridge:
    """Wrap a subset-contract scheme for quorum-contract reads."""
    return QuorumBridge(scheme, c_w, c_r)


@dataclass(frozen=True)
class EpsilonEstimate:
    """Empirical decode-failure rate with a 95% Wilson score interval.

    ``trials`` counts drawn (tuple, state, subset) trials, vacuous guards
    passing; ``per_state_max`` is the worst failure rate among the states
    drawn.
    """

    trials: int
    failures: int
    rate: float
    wilson_lower: float
    wilson_upper: float
    per_state_max: float


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval of a failure rate; (0, 1) with no trials."""
    if trials == 0:
        return (0.0, 1.0)
    z = _WILSON_Z
    phat = failures / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # at the boundaries centre and half coincide exactly; keep them exact
    lower = 0.0 if failures == 0 else max(0.0, (centre - half) / denom)
    upper = 1.0 if failures == trials else min(1.0, (centre + half) / denom)
    return (lower, upper)


def verdict(report: VerificationReport, budget) -> tuple[bool, str, float]:
    """Judge ``report`` against an error budget: (passed, rule, compared value).

    ``zero-failures`` applies when the budget is 0, in either mode, and
    compares the failure count.  Otherwise ``per-state-max`` (exhaustive)
    compares the worst state's failure rate, the per-state epsilon-error,
    exactly: failures * q <= p * attempts for a budget p/q (the compared
    value returned is the rate as a float);
    ``sampled-wilson-upper`` (Monte-Carlo) compares the 95% Wilson upper
    bound of the overall sampled rate (Wilson 1927).  That bounds an
    average over states: a few trials per state cannot bound any one
    state's rate.
    """
    if budget == 0:
        return report.failure_count == 0, "zero-failures", report.failure_count
    if report.mode == MODE_EXHAUSTIVE:
        failures, attempts = report.worst_state or (0, 0)
        budget = Fraction(budget)
        passed = failures * budget.denominator <= budget.numerator * attempts
        return passed, "per-state-max", report.per_state_max_error
    value = wilson_interval(report.failure_count, report.attempts)[1]
    return value <= budget, "sampled-wilson-upper", value


def estimate_epsilon(
    scheme: MvcScheme, trials: int = 1000, seed: int = 0
) -> EpsilonEstimate:
    """Estimate the subset-contract failure probability over random tuples.

    Each trial draws a fresh tuple, state, and subset, exactly as
    Monte-Carlo verification does, from ``getrandbits`` alone and as ints:
    the trials are drawn in blocks of 32768 and judged per read view
    through ``cell_codes``, and the draws and the estimate are those of
    judging each trial on its own.
    """
    report = _monte_carlo_run(scheme, scheme.c, None, trials, seed, 0)
    low, high = wilson_interval(report.failure_count, report.attempts)
    return EpsilonEstimate(
        report.attempts,
        report.failure_count,
        report.empirical_error,
        low,
        high,
        report.per_state_max_error,
    )
