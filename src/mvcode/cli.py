"""Command-line front end.

Subcommands:
  cost      per-scheme worst-case storage table with the converse bound
  verify    certify a scheme exhaustively or estimate its error rate
  bound     converse bound and gap factors, optionally swept over K
  sim       replay a schedule file (or the bundled one) or search for one
  binning   codebook seed survey against the error budget
  example1  unique-decoding exclusion report at a chosen flip rate

Every command echoes its full parameter set first, so any output can be
reproduced from its own header.  Output is deterministic given flags and
seed.  Exit codes: 0 success, 1 verification or consistency failure,
2 usage error, 3 enumeration cap exceeded.
"""

import argparse
import csv
import io
import re
import sys
import warnings
from math import log2
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional

from .binning import (
    _CODEBOOK_KINDS,
    RateAllocation,
    _check_survey_work,
    binning_worst_case_cost,
    check_decodable,
    example1_rate_comparison,
    sample_tuples,
    seed_search,
)
from .bounds import (
    BoundParams,
    below_power_of_two,
    format_rational,
    gap_factor,
    lower_bound_general,
    lower_bound_two_versions,
)
from .model import DEFAULT_ENUMERATION_CAP, CorrelationModel, EnumerationCapExceeded
from .schemes import make_scheme, scheme_names
from .sim import (
    MAX_SEARCH_DEPTH,
    adversarial_schedule_search,
    partial_update_crash_schedule,
    run_simulation,
    schedule_from_text,
    schedule_to_text,
)
from .verifier import (
    _MODES,
    quorum_bridge,
    verdict,
    verify_definition_2,
    verify_requirement_A,
)

_FORMATS = ("text", "csv", "structured")


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 2."""


class _PastLimit(argparse.ArgumentTypeError, ValueError):
    """A literal past its limit: argparse prints the message, and a config
    line reports it as a bad value."""


# The largest rational literal parse_rational builds, so that every value it
# returns prints through format_rational: at most _MAX_LITERAL characters, a
# decimal exponent in [-_MAX_LITERAL, _MAX_LITERAL], and 2^k for k in
# [-_MAX_HALVINGS, _MAX_LITERAL].
_MAX_LITERAL = 1000
_MAX_HALVINGS = 1 << 26


def parse_rational(text: str) -> Fraction:
    """Accepts decimals ('0.25'), ratios ('1/4'), and powers ('2^-20')."""
    text = text.strip()
    if len(text) > _MAX_LITERAL:
        raise _PastLimit(
            f"a rational of {len(text)} characters passes the limit of {_MAX_LITERAL}"
        )
    if "^" in text:
        base, _, exp = text.partition("^")
        if base.strip() != "2":
            raise ValueError(f"only powers of two are supported, got {text!r}")
        e = int(exp)
        if not -_MAX_HALVINGS <= e <= _MAX_LITERAL:
            raise _PastLimit(
                f"2^k needs k in [-{_MAX_HALVINGS}, {_MAX_LITERAL}], got {text!r}"
            )
        return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
    exponent = re.search(r"e([-+]?[0-9_]+)$", text, re.I)
    if exponent and not -_MAX_LITERAL <= int(exponent[1]) <= _MAX_LITERAL:
        raise _PastLimit(
            f"a decimal exponent needs to lie in [-{_MAX_LITERAL}, {_MAX_LITERAL}], "
            f"got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_sweep(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep list: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("sweep list is empty")
    low = min(values)
    if low < 1:
        raise argparse.ArgumentTypeError(f"sweep values must be at least 1, got {low}")
    return values


_COMMANDS = ("cost", "verify", "bound", "sim", "binning", "example1")


def _in_range(key: str, value, low: int, high: int, shown) -> Optional[str]:
    """The refusal of a value outside [low, high], the upper end shown as ``shown``."""
    if value is not None and not low <= value <= high:
        return f"{key} must lie in [{low}, {shown}], got {value}"


def _at_least_one(key: str, value) -> Optional[str]:
    if value is not None and value < 1:
        return f"{key} must be at least 1, got {value}"


def _K_limit(cfg: "RunConfig") -> Optional[str]:
    if cfg.command == "binning" or (
        cfg.command in ("verify", "sim") and cfg.scheme == "binning"
    ):
        check_decodable(cfg.K)  # raises ValueError naming K <= 16
    return _at_least_one("K", cfg.K)


def _radius_limit(cfg: "RunConfig") -> Optional[str]:
    for K in (cfg.K, *(cfg.sweep or ())):
        refused = _in_range("radius", cfg.radius, 0, K, f"K={K}")
        if refused:
            return refused


def _seeds_limit(cfg: "RunConfig") -> Optional[str]:
    room = (1 << 64) - cfg.seed
    return _at_least_one("seeds", cfg.seeds) or _in_range(
        "seeds", cfg.seeds, 1, room, f"2^64 - seed = {room}"
    )


def _crashes_limit(cfg: "RunConfig") -> Optional[str]:
    if cfg.c_w is not None:  # else a replay refuses the crash budget first
        room = cfg.n - max(cfg.c_w, cfg.c_r)
        return _in_range("crashes", cfg.crashes, 0, room, f"n - max(c-w, c-r) = {room}")


class _Param(NamedTuple):
    """One flag: its RunConfig field, value parser, allowed values (or None),
    help, the subcommands that take it and its limit, a function of the
    whole config that returns the refusal of a bad value and a false value
    otherwise.  A flag every subcommand takes is also a config key: the
    flag without its dashes."""

    flag: str
    field: str
    parse: Callable
    choices: Optional[tuple]
    help: str
    commands: tuple[str, ...]
    limit: Optional[Callable[["RunConfig"], object]]
    metavar: Optional[str] = None
    default: object = None


# Every flag but --config, in --help order.
_PARAMS = (
    _Param("--scheme", "scheme", str, scheme_names(), "storage scheme (default mds)",
           _COMMANDS, None),
    _Param("-n", "n", int, None, "number of servers (default 4)", _COMMANDS,
           lambda cfg: _at_least_one("n", cfg.n)),
    # the default c=2 holds when no quorum pair is given
    _Param("-c", "c", int, None, "decode-set size; excludes --c-w/--c-r (default 2)",
           _COMMANDS,
           lambda cfg: cfg.c_w is None and _in_range(
               "c", 2 if cfg.c is None else cfg.c, 1, cfg.n, f"n={cfg.n}")),
    _Param("--c-w", "c_w", int, None, "write quorum size (with --c-r)", _COMMANDS,
           lambda cfg: _in_range("c-w", cfg.c_w, 1, cfg.n, f"n={cfg.n}")),
    _Param("--c-r", "c_r", int, None, "read quorum size (with --c-w)", _COMMANDS,
           lambda cfg: _in_range("c-r", cfg.c_r, 1, cfg.n, f"n={cfg.n}")),
    _Param("--nu", "nu", int, None, "maximum concurrent versions (default 2)",
           _COMMANDS, lambda cfg: _at_least_one("nu", cfg.nu)),
    _Param("--K", "K", int, None, "message bits (default 8)", _COMMANDS, _K_limit),
    _Param("--radius", "radius", int, None, "correlation ball radius (default 1)",
           _COMMANDS, _radius_limit),
    _Param("--delta", "delta", parse_rational, None, "radius as a fraction of K",
           _COMMANDS,
           lambda cfg: cfg.delta is not None and not 0 <= cfg.delta <= 1
           and f"delta must lie in [0, 1], got {format_rational(cfg.delta)}"),
    _Param("--epsilon", "epsilon", parse_rational, None, "error budget (default 1/4)",
           _COMMANDS,
           lambda cfg: not 0 < cfg.epsilon < 1
           and "epsilon must lie strictly between 0 and 1, got "
           + format_rational(cfg.epsilon)),
    _Param("--seed", "seed", int, None, "root seed (default 0)", _COMMANDS,
           lambda cfg: not 0 <= cfg.seed < 1 << 64
           and f"seed must lie in [0, 2^64), got {cfg.seed}"),
    _Param("--mode", "mode", str, _MODES, "verification mode (default auto)",
           _COMMANDS, None),
    _Param("--cap", "cap", int, None, "enumeration cap (default 2^24)", _COMMANDS,
           lambda cfg: cfg.cap < 0 and f"cap must be nonnegative, got {cfg.cap}"),
    _Param("--format", "fmt", str, _FORMATS, "output format", _COMMANDS,
           lambda cfg: cfg.command in ("verify", "sim") and cfg.fmt != "text"
           and f"--format {cfg.fmt} applies to cost, bound, binning and example1 "
           f"only; {cfg.command} prints text"),
    _Param("--trials", "trials", int, None, "sampling trials (default 1000)",
           _COMMANDS, lambda cfg: _at_least_one("trials", cfg.trials)),
    _Param("--sweep", "sweep", _parse_sweep, None, "comma-separated K values",
           ("bound",), None),
    _Param("--schedule", "schedule", str, None, "schedule to replay", ("sim",),
           None, "FILE"),
    _Param("--search", "search", int, None, "adversarial search depth", ("sim",),
           lambda cfg: _in_range(
               "search", cfg.search, 0, MAX_SEARCH_DEPTH, MAX_SEARCH_DEPTH),
           "DEPTH"),
    _Param("--crashes", "crashes", int, None, "crash budget for --search (default 0)",
           ("sim",), _crashes_limit),
    _Param("--seeds", "seeds", int, None, "number of codebook seeds", ("binning",),
           _seeds_limit, default=10),
    _Param("--kind", "kind", str, _CODEBOOK_KINDS, "codebook family", ("binning",),
           None, default="random-uniform"),
)
_KEYS = {p.field: p.flag.lstrip("-") for p in _PARAMS}
_BY_KEY = {_KEYS[p.field]: p for p in _PARAMS if p.commands == _COMMANDS}


def _replay_fixed(cfg: "RunConfig") -> Optional[str]:
    """A replay reads n, its quorums and its crash budget from the schedule."""
    if cfg.command != "sim" or cfg.search is not None:
        return None
    fixed = [_KEYS[f] for f in ("n", "c", "c_w", "c_r", "crashes") if f in cfg.given]
    if fixed:
        return (
            "a replay takes n, its quorums and its crash budget from the schedule; "
            "drop " + ", ".join(fixed)
        )


# The rules between flags, checked before each flag's limit.
_RULES = (
    _replay_fixed,
    lambda cfg: cfg.c is not None and (cfg.c_w is not None or cfg.c_r is not None)
    and "give either c or the pair c-w/c-r, not both",
    lambda cfg: (cfg.c_w is None) != (cfg.c_r is None)
    and "c-w and c-r must be given together",
    lambda cfg: cfg.delta is not None and cfg.radius is not None
    and "give either radius or delta, not both",
    lambda cfg: cfg.search is not None and cfg.schedule is not None
    and "--search builds its own schedule; drop --schedule",
    lambda cfg: cfg.search is not None and cfg.c_w is None
    and "--search needs --c-w and --c-r",
)


@dataclass(frozen=True)
class RunConfig:
    """One command's parameter set, from flags over key=value config text.

    Every value is checked against the rules between flags and each flag's
    limit in ``_PARAMS`` as the config is built, before any work.
    ``given`` names the fields set by flag or config, which a replay reads
    from its schedule instead.
    """

    scheme: str = "mds"
    n: int = 4
    c: Optional[int] = None
    c_w: Optional[int] = None
    c_r: Optional[int] = None
    nu: int = 2
    K: int = 8
    radius: Optional[int] = None
    delta: Optional[Fraction] = None
    epsilon: Fraction = Fraction(1, 4)
    seed: int = 0
    mode: str = "auto"
    cap: int = DEFAULT_ENUMERATION_CAP
    fmt: str = "text"
    trials: int = 1000
    sweep: Optional[list[int]] = None
    schedule: Optional[str] = None
    search: Optional[int] = None
    crashes: Optional[int] = None
    seeds: Optional[int] = None
    kind: Optional[str] = None
    command: Optional[str] = None
    given: frozenset = dataclass_field(default=frozenset(), compare=False, repr=False)

    def __post_init__(self) -> None:
        for check in (*_RULES, *(p.limit for p in _PARAMS if p.limit)):
            refused = check(self)
            if refused:
                raise UsageError(refused)

    # -- derived views ------------------------------------------------

    @property
    def effective_radius(self) -> int:
        return self.radius_at(self.K)

    def radius_at(self, K: int) -> int:
        """The radius at message length K: floor(delta*K) when delta is given."""
        if self.radius is not None:
            return self.radius
        if self.delta is not None:
            return int(self.delta * K)  # floor for nonnegative delta
        return 1

    @property
    def effective_c(self) -> int:
        if self.c is not None:
            return self.c
        if self.c_w is not None:
            overlap = self.c_w + self.c_r - self.n
            if overlap < 1:
                raise UsageError("quorums must overlap: need c_w + c_r > n")
            return overlap
        return 2

    def model(self) -> CorrelationModel:
        return CorrelationModel(self.K, self.effective_radius, self.nu)

    def echo_lines(self, quorums: bool = True) -> list[str]:
        """The params line (and a derived-radius line); ``quorums=False``
        leaves out n and the quorum sizes, for a run that takes them from
        elsewhere."""
        parts = [f"scheme={self.scheme}"]
        if quorums:
            parts.append(f"n={self.n}")
            if self.c_w is not None:
                parts += [f"c-w={self.c_w}", f"c-r={self.c_r}"]
            parts.append(f"c={self.effective_c}")
        parts += [
            f"nu={self.nu}", f"K={self.K}", f"radius={self.effective_radius}",
            f"epsilon={format_rational(self.epsilon)}", f"seed={self.seed}",
            f"mode={self.mode}", f"cap={self.cap}", f"format={self.fmt}",
            f"trials={self.trials}",
        ]
        lines = ["params " + " ".join(parts)]
        if self.delta is not None:
            delta = format_rational(self.delta)
            lines.append(
                f"derived-radius delta={delta} K={self.K} "
                f"radius=floor({delta}*{self.K})={self.effective_radius}"
            )
        return lines


def _config_values(text: str) -> dict:
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise UsageError(f"malformed config line {raw!r}")
        if key not in _BY_KEY:
            raise UsageError(f"unknown config key {key!r}")
        param = _BY_KEY[key]
        try:
            values[param.field] = param.parse(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {exc}") from exc
        if param.choices is not None and values[param.field] not in param.choices:
            raise UsageError(f"{key} must be one of {', '.join(param.choices)}")
    return values


# ---------------------------------------------------------------------------
# Output rendering


def _show(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _quote(text: str) -> str:
    return f'"{text}"' if " " in text or text == "" else text


class _Table:
    """Column-aligned text, CSV, or tagged key=value records."""

    def __init__(self, tag: str, columns: tuple[str, ...]):
        self.tag = tag
        self.columns = columns
        self.rows: list[tuple[str, ...]] = []

    def add(self, *values) -> None:
        row = tuple(_show(v) for v in values)
        if len(row) != len(self.columns):
            raise ValueError("row width disagrees with the header")
        self.rows.append(row)

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.columns)
            writer.writerows(self.rows)
            return buf.getvalue().rstrip("\n")
        if fmt == "structured":
            lines = []
            for row in self.rows:
                pairs = " ".join(
                    f"{col}={_quote(val)}" for col, val in zip(self.columns, row)
                )
                lines.append(f"{self.tag} {pairs}")
            return "\n".join(lines)
        widths = [
            max(len(col), *(len(r[i]) for r in self.rows)) if self.rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        header = "  ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        rule = "  ".join("-" * w for w in widths)
        body = [
            "  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip()
            for row in self.rows
        ]
        return "\n".join([header.rstrip(), rule, *body])


# ---------------------------------------------------------------------------
# Commands


def _build_scheme(cfg: RunConfig, n: int, c: int, name: Optional[str] = None):
    name = name or cfg.scheme
    if name == "binning":
        return make_scheme(
            "binning", cfg.model(), n, c, epsilon=cfg.epsilon, seed=cfg.seed
        )
    return make_scheme(name, cfg.model(), n, c)


_COST_ROWS = ("replication", "mds", "delta", "rs-update", "binning")


def cmd_cost(cfg: RunConfig) -> tuple[str, int]:
    c = cfg.effective_c
    table = _Table(
        "cost",
        ("scheme", "formula-bits", "ceiling-bits", "measured-bits", "notes"),
    )
    for name in _COST_ROWS:
        scheme = _build_scheme(cfg, cfg.n, c, name)
        report = scheme.worst_case_cost()
        table.add(
            name, report.table_bits, report.guarantee_bits, report.measured_bits,
            "; ".join(report.notes),
        )
    bound = lower_bound_general(
        BoundParams(cfg.n, c, cfg.nu, cfg.K, cfg.effective_radius)
    )
    # a nonpositive converse is true but says nothing, as in bound's gap factor
    note = "no code can store fewer bits per server" if bound > 0 else (
        "nonpositive, so vacuous at these parameters"
    )
    table.add("lower-bound", bound, None, None, f"errorless converse; {note}")
    lines = cfg.echo_lines() + [table.render(cfg.fmt)]
    return "\n".join(lines), 0


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    c = cfg.effective_c
    scheme = _build_scheme(cfg, cfg.n, c)
    lines = cfg.echo_lines()
    kwargs = dict(
        mode=cfg.mode, trials=cfg.trials, seed=cfg.seed, cap=cfg.cap, witness_cap=10
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if cfg.c_w is not None:
            verified = quorum_bridge(scheme, cfg.c_w, cfg.c_r)
            lines.append(
                f"note wrapped {scheme.name} for quorum reads (overlap c={c})"
            )
            report = verify_definition_2(verified, cfg.c_w, cfg.c_r, **kwargs)
        else:
            verified = scheme
            report = verify_requirement_A(scheme, **kwargs)
    for w in caught:
        lines.append(f"warning {w.message}")
    lines.append(report.to_text())
    budget = verified.error_budget
    ok = verdict(report, budget)[0]
    head = f"verdict {'pass' if ok else 'fail'}"
    if report.mode == "exhaustive":
        lines.append(f"{head} failures={report.failure_count}")
    else:
        lines.append(
            f"{head} empirical={report.empirical_error!r} "
            f"budget={format_rational(budget)}"
        )
    return "\n".join(lines), 0 if ok else 1


def cmd_bound(cfg: RunConfig) -> tuple[str, int]:
    c = cfg.effective_c
    sweep = cfg.sweep or [cfg.K]
    lines = cfg.echo_lines()
    asymptote = Fraction(c + cfg.nu - 1, c)
    lines.append(
        "asymptote gap-factor-limit=(c+nu-1)/c="
        f"{format_rational(asymptote)}={float(asymptote)!r}"
    )
    columns = ["K", "radius", "bound-bits", "rate-bits", "realized-bits", "gap-factor"]
    if cfg.nu == 2:
        columns.append("two-version-bits")
    table = _Table("bound", tuple(columns))
    for K in sweep:
        radius = cfg.radius_at(K)
        model = CorrelationModel(K, radius, cfg.nu)
        allocation = RateAllocation(model, cfg.n, c, cfg.epsilon)
        # leading-order rate carries the asymptotic claim; the realized
        # column adds the error-budget and framing terms paid at finite K
        leading = (K + (cfg.nu - 1) * log2(model.ball_volume())) / c
        realized = binning_worst_case_cost(allocation)
        below = below_power_of_two(cfg.epsilon, cfg.nu * cfg.n)
        bound_eps = cfg.epsilon if below else Fraction(0)
        params = BoundParams(cfg.n, c, cfg.nu, K, radius, bound_eps)
        bound = lower_bound_general(params)
        # a nonpositive converse says nothing, so its row has no gap factor
        gap = gap_factor(params, leading) if bound > 0 else None
        row = [K, radius, bound, leading, realized, gap]
        if cfg.nu == 2:
            row.append(lower_bound_two_versions(params))
        table.add(*row)
    lines.append(table.render(cfg.fmt))
    return "\n".join(lines), 0


def cmd_sim(cfg: RunConfig) -> tuple[str, int]:
    if cfg.search is not None:
        inner = _build_scheme(cfg, cfg.n, cfg.effective_c)
        scheme = quorum_bridge(inner, cfg.c_w, cfg.c_r)
        lines = cfg.echo_lines()
        witness = adversarial_schedule_search(
            scheme, cfg.c_w, cfg.c_r, f=cfg.crashes or 0, depth=cfg.search,
            seed=cfg.seed, cap=cfg.cap,
        )
        if witness is None:
            lines.append(f"search none-found depth={cfg.search}")
            return "\n".join(lines), 0
        lines.append(f"search witness-events={len(witness.events)}")
        lines.append(schedule_to_text(witness))
        lines.append(run_simulation(scheme, witness).to_text())
        return "\n".join(lines), 1

    if cfg.schedule is not None:
        try:
            with open(cfg.schedule, "r", encoding="utf-8") as handle:
                schedule = schedule_from_text(handle.read())
        except OSError as exc:
            raise UsageError(f"cannot read schedule: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"bad schedule file: {exc}") from exc
        source = cfg.schedule
    else:
        schedule = partial_update_crash_schedule()
        source = "bundled partial-update replay"
    overlap = schedule.c_w + schedule.c_r - schedule.n
    if overlap < 1:
        raise UsageError("schedule quorums must overlap")
    inner = _build_scheme(cfg, schedule.n, overlap)
    scheme = quorum_bridge(inner, schedule.c_w, schedule.c_r)
    lines = cfg.echo_lines(quorums=False)
    lines.append(
        f"schedule source={_quote(source)} n={schedule.n} c-w={schedule.c_w} "
        f"c-r={schedule.c_r} f={schedule.f} events={len(schedule.events)}"
    )
    trace = run_simulation(scheme, schedule)
    lines.append(trace.to_text())
    return "\n".join(lines), 0 if trace.consistent else 1


def cmd_binning(cfg: RunConfig) -> tuple[str, int]:
    model = cfg.model()
    c = cfg.effective_c
    _check_survey_work(model, cfg.n, c, cfg.trials, cfg.cap)  # before any sampling
    seeds = range(cfg.seed, cfg.seed + cfg.seeds)
    tuples = sample_tuples(model, cfg.trials, cfg.seed)
    report = seed_search(
        model, cfg.n, c, cfg.epsilon, seeds, tuples, kind=cfg.kind, cap=cfg.cap
    )
    lines = cfg.echo_lines()
    lines.append(
        f"search kind={cfg.kind} seeds={cfg.seeds} tuples-per-cell={cfg.trials}"
    )
    table = _Table(
        "codebook",
        ("seed", "cells", "decodes", "failures", "worst-rate", "worst-wilson-upper"),
    )
    for sv in report.surveys:
        table.add(
            sv.seed, sv.cells, sv.decodes, sv.failures, sv.worst_rate, sv.wilson_upper
        )
    lines.append(table.render(cfg.fmt))
    lines.append(
        f"verdict {'pass' if report.achieved else 'fail'} "
        f"best-seed={report.best.seed} worst-rate={report.best.worst_rate!r} "
        f"target={format_rational(report.target)}"
    )
    return "\n".join(lines), 0 if report.achieved else 1


def cmd_example1(cfg: RunConfig) -> tuple[str, int]:
    delta = cfg.delta if cfg.delta is not None else Fraction(1, 20)
    report = example1_rate_comparison(delta)
    lines = [f"params delta={format_rational(delta)} format={cfg.fmt}"]
    lines.append(
        f"entropies step={report.step_entropy!r} "
        f"composed-step={report.composed_step!r} "
        f"composed={report.composed_entropy!r} "
        f"middle-threshold={report.middle_row_threshold!r}"
    )
    table = _Table(
        "exclusion",
        ("versions", "label", "binned-bits", "unique-bits", "excluded", "margin"),
    )
    for row in report.rows:
        table.add(
            ",".join(str(u) for u in row.subset), row.label, row.binned_bits,
            row.unique_bits, row.excluded, row.margin,
        )
    lines.append(table.render(cfg.fmt))
    ok = all(row.excluded for row in report.rows)
    lines.append(f"verdict {'pass' if ok else 'fail'} rows={len(report.rows)}")
    return "\n".join(lines), 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _add_rows(parser: argparse.ArgumentParser, rows) -> None:
    for p in rows:
        parser.add_argument(
            p.flag, dest=p.field, type=p.parse, choices=p.choices,
            metavar=p.metavar, default=p.default, help=p.help,
        )


@cache  # parsing leaves a parser as it was, so a process builds one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcode",
        description="Multi-version storage codes: costs, verification, "
        "bounds, and schedule simulation.",
    )
    # the rows every subcommand takes are built once, in a parent parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="FILE", help="key=value config file; flags override it"
    )
    _add_rows(common, (p for p in _PARAMS if p.commands == _COMMANDS))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run, help_text in (
        ("cost", cmd_cost, "per-scheme storage table"),
        ("verify", cmd_verify, "certify or estimate"),
        ("bound", cmd_bound, "converse bound"),
        ("sim", cmd_sim, "schedule replay/search"),
        ("binning", cmd_binning, "seed survey"),
        ("example1", cmd_example1, "exclusion report"),
    ):
        each = sub.add_parser(command, parents=[common], help=help_text)
        each.set_defaults(run=run)
        _add_rows(each, (p for p in _PARAMS if p.commands == (command,)))
    return parser


_RATIONAL_FLAGS = [p.flag for p in _PARAMS if p.parse is parse_rational]
_NEGATIVE = re.compile(r"-[0-9.]")


def _join_negatives(argv: list[str]) -> list[str]:
    """argv with each rational flag, or an abbreviation argparse takes for
    it, joined to a negative value after it (``--delta -1/4`` as
    ``--delta=-1/4``), so the value meets its limit: argparse reads a lone
    ``-1/4`` as an option and refuses the flag as missing its argument."""
    out: list[str] = []
    for word in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and _NEGATIVE.match(word) and any(
            full.startswith(flag) for full in _RATIONAL_FLAGS
        ):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _config_from_args(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        values = _config_values(text)
    for p in _PARAMS:  # flags override the file
        value = getattr(args, p.field, None)
        if value is not None:
            values[p.field] = value
    return RunConfig(**values, command=args.command, given=frozenset(values))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negatives(argv))
    try:
        output, code = args.run(_config_from_args(args))
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
