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
samples (tuple, state, subset) trials.  In both, NULL under a vacuous
guard (nothing shared, nothing complete) counts as a pass; NULL under a
live guard is a failure, as are raised decode errors, stale versions, and
wrong content.

A reader only ever learns the version sets of the servers it contacted,
so a decode verdict is a function of the subset's rows of the state.  The
exhaustive engine leans on that to share decode work across states that
agree on those rows; the verdict is then replayed against every full state
so reports and witnesses still range over the whole state space.
"""

import math
import random
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    SystemState,
    VersionTuple,
    enumerate_possible_set,
    iter_states,
    latest_common_version,
    latest_complete_version,
    sample_tuple,
)
from .schemes import DecodingError, MvcScheme

_WILSON_Z = 1.959963984540054

# Outcome codes for one decode attempt.  A positive value is the decoded
# version index after the content check passed; the rest always fail.
_NULL = 0
_RAISED = -1
_WRONG = -2

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
    every combination is vacuous contributing zero.  In exhaustive mode
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
    worst_cell: Optional[tuple] = None

    @property
    def passed(self) -> bool:
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


def _judge(scheme: MvcScheme, T, state, symbols, vt: VersionTuple) -> int:
    try:
        out = scheme.decode(tuple(T), state, symbols)
    except DecodingError:
        return _RAISED
    if out is None:
        return _NULL
    version, message = out
    if not 1 <= version <= scheme.model.nu:
        return _WRONG
    if message != vt.version(version):
        return _WRONG
    return version


def _reason(code: int, threshold: int) -> str:
    if code == _NULL:
        return "returned NULL under a live guard"
    if code == _RAISED:
        return "decode raised an error"
    if code == _WRONG:
        return "wrong content or version out of range"
    return f"decoded version {code} below required {threshold}"


def _witness(state, T, vt: VersionTuple, code: int, threshold: int) -> Witness:
    return Witness(
        state.key(),
        T,
        tuple(m.to_hex() for m in vt.versions),
        _reason(code, threshold),
    )


class _Cell:
    """Decode outcomes of one (subset, version-set rows) combination."""

    __slots__ = ("codes", "sorted_codes")

    def __init__(self, codes: list[int]):
        self.codes = codes
        self.sorted_codes = sorted(codes)

    def failure_count(self, threshold: int) -> int:
        # every failing code (NULL, raised, wrong) is < 1 <= threshold
        return bisect_left(self.sorted_codes, threshold)

    def failing_indices(self, threshold: int, limit: int):
        out = []
        for i, code in enumerate(self.codes):
            if code < threshold:
                out.append(i)
                if len(out) >= limit:
                    break
        return out


def _cell_outcomes(
    scheme: MvcScheme,
    T: tuple[int, ...],
    rows: tuple[frozenset, ...],
    tuples: Sequence[VersionTuple],
    encode_cache: dict,
) -> _Cell:
    sets = [frozenset()] * scheme.n
    for t, row in zip(T, rows):
        sets[t] = row
    cell_state = SystemState(tuple(sets))
    symbol_rows = []
    for t, row in zip(T, rows):
        got = tuple(sorted(row))
        key = (t, got)
        cached = encode_cache.get(key)
        if cached is None:
            cached = [scheme.encode(t, got, vt) for vt in tuples]
            encode_cache[key] = cached
        symbol_rows.append((t, cached))
    codes = []
    for i, vt in enumerate(tuples):
        symbols = {t: row[i] for t, row in symbol_rows}
        codes.append(_judge(scheme, T, cell_state, symbols, vt))
    return _Cell(codes)


def _exhaustive_run(
    scheme: MvcScheme,
    subsets: Sequence[tuple[int, ...]],
    threshold_of: Callable[[SystemState, tuple[int, ...]], Optional[int]],
    states: Iterable[SystemState],
    tuples: Sequence[VersionTuple],
    witness_cap: int,
) -> VerificationReport:
    encode_cache: dict = {}
    cells: dict[tuple, _Cell] = {}
    attempts = 0
    failure_count = 0
    witnesses: list[Witness] = []
    state_rates = []
    worst = None
    for state in states:
        state_attempts = 0
        state_failures = 0
        for T in subsets:
            threshold = threshold_of(state, T)
            if threshold is None:
                continue
            rows = tuple(state.per_server[t] for t in T)
            cell = cells.get((T, rows))
            if cell is None:
                cell = cells[T, rows] = _cell_outcomes(
                    scheme, T, rows, tuples, encode_cache
                )
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
                        _witness(state, T, tuples[i], cell.codes[i], threshold)
                    )
        attempts += state_attempts
        failure_count += state_failures
        state_rates.append(
            state_failures / state_attempts if state_attempts else 0.0
        )
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
        worst,
    )


def _random_state(rng: random.Random, n: int, nu: int):
    return SystemState(
        tuple(
            frozenset(u for u in range(1, nu + 1) if rng.getrandbits(1))
            for _ in range(n)
        )
    )


def _monte_carlo_run(
    scheme: MvcScheme,
    subset_size: int,
    threshold_of: Callable[[SystemState, tuple[int, ...]], Optional[int]],
    trials: int,
    seed: int,
    witness_cap: int,
    state_pool: Optional[Sequence[SystemState]],
) -> VerificationReport:
    if trials < 1:
        raise ValueError("need at least one trial")
    model = scheme.model
    n = scheme.n
    rng = random.Random(seed)
    failures = 0
    witnesses: list[Witness] = []
    subsets_seen = set()
    per_state: dict[tuple, list[int]] = {}
    for _ in range(trials):
        vt = sample_tuple(model, rng)
        if state_pool is None:
            state = _random_state(rng, n, model.nu)
        else:
            state = state_pool[rng.randrange(len(state_pool))]
        T = tuple(sorted(rng.sample(range(n), subset_size)))
        subsets_seen.add(T)
        record = per_state.setdefault(state.key(), [0, 0])
        record[0] += 1
        threshold = threshold_of(state, T)
        if threshold is None:
            continue  # vacuous guard: the trial passes
        symbols = {
            t: scheme.encode(t, tuple(sorted(state.per_server[t])), vt) for t in T
        }
        code = _judge(scheme, T, state, symbols, vt)
        if code < threshold:
            failures += 1
            record[1] += 1
            if len(witnesses) < witness_cap:
                witnesses.append(_witness(state, T, vt, code, threshold))
    rates = [f / a for a, f in per_state.values()]
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
        f"exhaustive verification needs {work} decode attempts, over the cap "
        f"of {cap}; falling back to Monte-Carlo sampling",
        RuntimeWarning,
        stacklevel=3,
    )
    return MODE_MONTE_CARLO


def _verify(
    scheme: MvcScheme,
    subset_size: int,
    threshold_of,
    mode: str,
    trials: int,
    seed: int,
    states: Optional[Sequence[SystemState]],
    cap: int,
    witness_cap: int,
) -> VerificationReport:
    model = scheme.model
    n = scheme.n
    subsets = list(combinations(range(n), subset_size))
    state_list = None if states is None else list(states)
    n_states = (1 << (model.nu * n)) if state_list is None else len(state_list)
    work = n_states * len(subsets) * model.tuple_count()
    chosen = _resolve_mode(mode, work, cap)
    if chosen == MODE_EXHAUSTIVE:
        tuples = list(enumerate_possible_set(model, cap))
        states = iter_states(n, model.nu) if state_list is None else state_list
        return _exhaustive_run(
            scheme, subsets, threshold_of, states, tuples, witness_cap
        )
    return _monte_carlo_run(
        scheme, subset_size, threshold_of, trials, seed, witness_cap, state_list
    )


def verify_requirement_A(
    scheme: MvcScheme,
    mode: str = "auto",
    trials: int = 2000,
    seed: int = 0,
    states: Optional[Sequence[SystemState]] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    witness_cap: int = 200,
) -> VerificationReport:
    """Check the subset contract: every c servers sharing a version decode
    the newest shared version or newer, with correct content.

    ``auto`` runs exhaustively when states x subsets x tuples fits under
    ``cap`` and otherwise warns and samples; ``exhaustive`` raises
    EnumerationCapExceeded instead of sampling.  ``states`` restricts the
    sweep to the given states (replays).
    """
    return _verify(
        scheme,
        scheme.c,
        latest_common_version,
        mode,
        trials,
        seed,
        states,
        cap,
        witness_cap,
    )


def verify_definition_2(
    scheme: MvcScheme,
    c_w: int,
    c_r: int,
    mode: str = "auto",
    trials: int = 2000,
    seed: int = 0,
    states: Optional[Sequence[SystemState]] = None,
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
    return _verify(
        scheme,
        c_r,
        lambda state, T: latest_complete_version(state, c_w),
        mode,
        trials,
        seed,
        states,
        cap,
        witness_cap,
    )


class QuorumBridge(MvcScheme):
    """Read-quorum adapter over a subset-contract scheme.

    Encoding is the inner scheme's.  The decoder receives c_r servers,
    finds the newest version that at least c_w + c_r - n of them hold,
    and delegates to the c_w + c_r - n lowest-indexed of its holders.
    Any complete version is held by at least c_w + c_r - n members of
    every read quorum, so the delegated subset shares the newest complete
    version or a newer one whenever a complete version exists.
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

    def decode(self, T, state, symbols):
        rows = [(t, state.per_server[t]) for t in sorted(T)]
        for u in sorted(frozenset().union(*(row for _, row in rows)), reverse=True):
            holders = tuple(t for t, row in rows if u in row)
            if len(holders) >= self.overlap:
                return self.inner.decode(holders[: self.overlap], state, symbols)
        return None

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


def estimate_epsilon(
    scheme: MvcScheme, trials: int = 1000, seed: int = 0
) -> EpsilonEstimate:
    """Estimate the subset-contract failure probability over random tuples.

    Each trial draws a fresh tuple, state, and subset, exactly as
    Monte-Carlo verification does.
    """
    report = _monte_carlo_run(
        scheme, scheme.c, latest_common_version, trials, seed, 0, None
    )
    low, high = wilson_interval(report.failure_count, report.attempts)
    return EpsilonEstimate(
        report.attempts,
        report.failure_count,
        report.empirical_error,
        low,
        high,
        report.per_state_max_error,
    )
