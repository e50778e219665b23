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
import sys
import warnings
from math import log2
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

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
from .model import (
    DEFAULT_ENUMERATION_CAP,
    CorrelationModel,
    EnumerationCapExceeded,
)
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


def parse_rational(text: str) -> Fraction:
    """Accepts decimals ('0.25'), ratios ('1/4'), and powers ('2^-20')."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        if base.strip() != "2":
            raise ValueError(f"only powers of two are supported, got {text!r}")
        e = int(exp)
        return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """One command's parameter set, from flags over key=value config text.

    Exactly one of ``c`` and the pair ``c_w``/``c_r`` may be given, and
    likewise ``radius`` against the rational ``delta`` (which converts to
    radius = floor(delta*K), echoed in output).
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

    def __post_init__(self) -> None:
        if self.c is not None and (self.c_w is not None or self.c_r is not None):
            raise UsageError("give either c or the pair c-w/c-r, not both")
        if (self.c_w is None) != (self.c_r is None):
            raise UsageError("c-w and c-r must be given together")
        if self.n < 1:
            raise UsageError(f"n must be at least 1, got {self.n}")
        c = self.effective_c if self.c_w is None else None
        for key, size in (("c", c), ("c-w", self.c_w), ("c-r", self.c_r)):
            if size is not None and not 1 <= size <= self.n:
                raise UsageError(f"{key} must lie in [1, n={self.n}], got {size}")
        if self.delta is not None and self.radius is not None:
            raise UsageError("give either radius or delta, not both")
        for key, size in (("K", self.K), ("nu", self.nu)):
            if size < 1:
                raise UsageError(f"{key} must be at least 1, got {size}")
        if self.delta is not None and not 0 <= self.delta <= 1:
            raise UsageError(
                f"delta must lie in [0, 1], got {format_rational(self.delta)}"
            )
        self.radius_at(self.K)  # refuses a given radius outside [0, K]
        if self.cap < 0:
            raise UsageError(f"cap must be nonnegative, got {self.cap}")
        if not 0 <= self.seed < 1 << 64:
            raise UsageError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.trials < 1:
            raise UsageError(f"trials must be at least 1, got {self.trials}")
        if not 0 < self.epsilon < 1:
            raise UsageError(
                "epsilon must lie strictly between 0 and 1, got "
                + format_rational(self.epsilon)
            )

    # -- derived views ------------------------------------------------

    @property
    def effective_radius(self) -> int:
        return self.radius_at(self.K)

    def radius_at(self, K: int) -> int:
        """The radius at message length K: floor(delta*K) when delta is given.
        A given radius must lie in [0, K]."""
        if self.radius is not None:
            if not 0 <= self.radius <= K:
                raise UsageError(
                    f"radius must lie in [0, K={K}], got {self.radius}"
                )
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
            f"nu={self.nu}",
            f"K={self.K}",
            f"radius={self.effective_radius}",
            f"epsilon={format_rational(self.epsilon)}",
            f"seed={self.seed}",
            f"mode={self.mode}",
            f"cap={self.cap}",
            f"format={self.fmt}",
            f"trials={self.trials}",
        ]
        lines = ["params " + " ".join(parts)]
        if self.delta is not None:
            lines.append(
                "derived-radius delta={} K={} radius=floor({}*{})={}".format(
                    format_rational(self.delta),
                    self.K,
                    format_rational(self.delta),
                    self.K,
                    self.effective_radius,
                )
            )
        return lines


# Each parameter once: flag, RunConfig field, value parser, allowed values
# (or None) and help.  Its config key is the flag without its dashes.
_PARAMS = (
    ("--scheme", "scheme", str, scheme_names(), "storage scheme (default mds)"),
    ("-n", "n", int, None, "number of servers (default 4)"),
    ("-c", "c", int, None, "decode-set size; excludes --c-w/--c-r (default 2)"),
    ("--c-w", "c_w", int, None, "write quorum size (with --c-r)"),
    ("--c-r", "c_r", int, None, "read quorum size (with --c-w)"),
    ("--nu", "nu", int, None, "maximum concurrent versions (default 2)"),
    ("--K", "K", int, None, "message bits (default 8)"),
    ("--radius", "radius", int, None, "correlation ball radius (default 1)"),
    ("--delta", "delta", parse_rational, None, "radius as a fraction of K"),
    ("--epsilon", "epsilon", parse_rational, None, "error budget (default 1/4)"),
    ("--seed", "seed", int, None, "root seed (default 0)"),
    ("--mode", "mode", str, _MODES, "verification mode (default auto)"),
    ("--cap", "cap", int, None, "enumeration cap (default 2^24)"),
    ("--format", "fmt", str, _FORMATS, "output format"),
    ("--trials", "trials", int, None, "sampling trials (default 1000)"),
)
_BY_KEY = {flag.lstrip("-"): row for flag, *row in _PARAMS}
# Keys a schedule replay reads from its schedule instead.
_REPLAY_FIXED = ("n", "c", "c-w", "c-r")


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
        attr, parse, choices, _ = _BY_KEY[key]
        try:
            values[attr] = parse(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {exc}") from exc
        if choices is not None and values[attr] not in choices:
            raise UsageError(f"{key} must be one of {', '.join(choices)}")
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


def _build_scheme(cfg: RunConfig):
    model, c = cfg.model(), cfg.effective_c
    if cfg.scheme == "binning":
        return make_scheme(
            "binning", model, cfg.n, c, epsilon=cfg.epsilon, seed=cfg.seed
        )
    return make_scheme(cfg.scheme, model, cfg.n, c)


_COST_ROWS = ("replication", "mds", "delta", "rs-update", "binning")


def cmd_cost(cfg: RunConfig, args) -> tuple[str, int]:
    c = cfg.effective_c
    table = _Table(
        "cost",
        ("scheme", "formula-bits", "ceiling-bits", "measured-bits", "notes"),
    )
    for name in _COST_ROWS:
        scheme = _build_scheme(replace(cfg, scheme=name))
        report = scheme.worst_case_cost()
        table.add(
            name,
            report.table_bits,
            report.guarantee_bits,
            report.measured_bits,
            "; ".join(report.notes),
        )
    bound_params = BoundParams(cfg.n, c, cfg.nu, cfg.K, cfg.effective_radius)
    table.add(
        "lower-bound",
        lower_bound_general(bound_params),
        None,
        None,
        "errorless converse; no code can store fewer bits per server",
    )
    lines = cfg.echo_lines() + [table.render(cfg.fmt)]
    return "\n".join(lines), 0


def _text_only(cfg: RunConfig, command: str) -> None:
    if cfg.fmt != "text":
        raise UsageError(
            f"--format {cfg.fmt} applies to cost, bound, binning and example1 "
            f"only; {command} prints text"
        )


def cmd_verify(cfg: RunConfig, args) -> tuple[str, int]:
    _text_only(cfg, "verify")
    if cfg.scheme == "binning":
        check_decodable(cfg.K)
    c = cfg.effective_c
    scheme = _build_scheme(cfg)
    lines = cfg.echo_lines()
    kwargs = dict(
        mode=cfg.mode,
        trials=cfg.trials,
        seed=cfg.seed,
        cap=cfg.cap,
        witness_cap=10,
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
    if report.mode == "exhaustive":
        lines.append(f"verdict {'pass' if ok else 'fail'} failures={report.failure_count}")
    else:
        lines.append(
            "verdict {} empirical={!r} budget={}".format(
                "pass" if ok else "fail",
                report.empirical_error,
                format_rational(budget),
            )
        )
    return "\n".join(lines), 0 if ok else 1


def cmd_bound(cfg: RunConfig, args) -> tuple[str, int]:
    c = cfg.effective_c
    sweep = args.sweep if args.sweep else [cfg.K]
    lines = cfg.echo_lines()
    asymptote = Fraction(c + cfg.nu - 1, c)
    lines.append(
        "asymptote gap-factor-limit=(c+nu-1)/c={}={!r}".format(
            format_rational(asymptote), float(asymptote)
        )
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
        bound_eps = (
            cfg.epsilon
            if below_power_of_two(cfg.epsilon, cfg.nu * cfg.n)
            else Fraction(0)
        )
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


def cmd_sim(cfg: RunConfig, args) -> tuple[str, int]:
    _text_only(cfg, "sim")
    if cfg.scheme == "binning":
        check_decodable(cfg.K)
    if args.search is not None:
        if args.schedule is not None:
            raise UsageError("--search builds its own schedule; drop --schedule")
        if cfg.c_w is None:
            raise UsageError("--search needs --c-w and --c-r")
        if not 0 <= args.search <= MAX_SEARCH_DEPTH:
            raise UsageError(
                f"search must lie in [0, {MAX_SEARCH_DEPTH}], got {args.search}"
            )
        crashes = args.crashes or 0
        room = cfg.n - max(cfg.c_w, cfg.c_r)
        if not 0 <= crashes <= room:
            raise UsageError(
                f"crashes must lie in [0, n - max(c-w, c-r) = {room}], "
                f"got {crashes}"
            )
        scheme = quorum_bridge(_build_scheme(cfg), cfg.c_w, cfg.c_r)
        lines = cfg.echo_lines()
        witness = adversarial_schedule_search(
            scheme,
            cfg.c_w,
            cfg.c_r,
            f=crashes,
            depth=args.search,
            seed=cfg.seed,
            cap=cfg.cap,
        )
        if witness is None:
            lines.append(f"search none-found depth={args.search}")
            return "\n".join(lines), 0
        lines.append(f"search witness-events={len(witness.events)}")
        lines.append(schedule_to_text(witness))
        lines.append(run_simulation(scheme, witness).to_text())
        return "\n".join(lines), 1

    if args.schedule is not None:
        try:
            with open(args.schedule, "r", encoding="utf-8") as handle:
                schedule = schedule_from_text(handle.read())
        except OSError as exc:
            raise UsageError(f"cannot read schedule: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"bad schedule file: {exc}") from exc
        source = args.schedule
    else:
        schedule = partial_update_crash_schedule()
        source = "bundled partial-update replay"
    overlap = schedule.c_w + schedule.c_r - schedule.n
    if overlap < 1:
        raise UsageError("schedule quorums must overlap")
    inner = _build_scheme(replace(cfg, n=schedule.n, c=overlap))
    scheme = quorum_bridge(inner, schedule.c_w, schedule.c_r)
    lines = cfg.echo_lines(quorums=False)
    lines.append(
        "schedule source={} n={} c-w={} c-r={} f={} events={}".format(
            _quote(source),
            schedule.n,
            schedule.c_w,
            schedule.c_r,
            schedule.f,
            len(schedule.events),
        )
    )
    trace = run_simulation(scheme, schedule)
    lines.append(trace.to_text())
    return "\n".join(lines), 0 if trace.consistent else 1


def cmd_binning(cfg: RunConfig, args) -> tuple[str, int]:
    check_decodable(cfg.K)
    if args.seeds < 1:
        raise UsageError(f"seeds must be at least 1, got {args.seeds}")
    room = (1 << 64) - cfg.seed
    if args.seeds > room:
        raise UsageError(f"seeds must lie in [1, 2^64 - seed = {room}], got {args.seeds}")
    model = cfg.model()
    c = cfg.effective_c
    _check_survey_work(model, cfg.n, c, cfg.trials, cfg.cap)  # before any sampling
    seeds = range(cfg.seed, cfg.seed + args.seeds)
    tuples = sample_tuples(model, cfg.trials, cfg.seed)
    report = seed_search(
        model, cfg.n, c, cfg.epsilon, seeds, tuples, kind=args.kind, cap=cfg.cap
    )
    lines = cfg.echo_lines()
    lines.append(
        "search kind={} seeds={} tuples-per-cell={}".format(
            args.kind, args.seeds, cfg.trials
        )
    )
    table = _Table(
        "codebook",
        (
            "seed",
            "cells",
            "decodes",
            "failures",
            "worst-rate",
            "worst-wilson-upper",
        ),
    )
    for survey in report.surveys:
        table.add(
            survey.seed,
            survey.cells,
            survey.decodes,
            survey.failures,
            survey.worst_rate,
            survey.wilson_upper,
        )
    lines.append(table.render(cfg.fmt))
    lines.append(
        "verdict {} best-seed={} worst-rate={!r} target={}".format(
            "pass" if report.achieved else "fail",
            report.best.seed,
            report.best.worst_rate,
            format_rational(report.target),
        )
    )
    return "\n".join(lines), 0 if report.achieved else 1


def cmd_example1(cfg: RunConfig, args) -> tuple[str, int]:
    delta = cfg.delta if cfg.delta is not None else Fraction(1, 20)
    report = example1_rate_comparison(delta)
    lines = [f"params delta={format_rational(delta)} format={cfg.fmt}"]
    lines.append(
        "entropies step={!r} composed-step={!r} composed={!r} middle-threshold={!r}".format(
            report.step_entropy,
            report.composed_step,
            report.composed_entropy,
            report.middle_row_threshold,
        )
    )
    table = _Table(
        "exclusion",
        ("versions", "label", "binned-bits", "unique-bits", "excluded", "margin"),
    )
    for row in report.rows:
        table.add(
            ",".join(str(u) for u in row.subset),
            row.label,
            row.binned_bits,
            row.unique_bits,
            row.excluded,
            row.margin,
        )
    lines.append(table.render(cfg.fmt))
    ok = all(row.excluded for row in report.rows)
    lines.append(f"verdict {'pass' if ok else 'fail'} rows={len(report.rows)}")
    return "\n".join(lines), 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


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


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="FILE", help="key=value config file; flags override it"
    )
    for flag, attr, parse, choices, help_text in _PARAMS:
        common.add_argument(
            flag, dest=attr, type=parse, choices=choices, help=help_text
        )
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcode",
        description="Multi-version storage codes: costs, verification, "
        "bounds, and schedule simulation.",
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("cost", parents=[common], help="per-scheme storage table")
    sub.add_parser("verify", parents=[common], help="certify or estimate")
    bound = sub.add_parser("bound", parents=[common], help="converse bound")
    bound.add_argument(
        "--sweep", type=_parse_sweep, help="comma-separated K values"
    )
    sim = sub.add_parser("sim", parents=[common], help="schedule replay/search")
    sim.add_argument("--schedule", metavar="FILE", help="schedule to replay")
    sim.add_argument(
        "--search", type=int, metavar="DEPTH", help="adversarial search depth"
    )
    sim.add_argument(
        "--crashes", type=int, help="crash budget for --search (default 0)"
    )
    binning = sub.add_parser("binning", parents=[common], help="seed survey")
    binning.add_argument(
        "--seeds", type=int, default=10, help="number of codebook seeds"
    )
    binning.add_argument(
        "--kind",
        choices=_CODEBOOK_KINDS,
        default="random-uniform",
        help="codebook family",
    )
    sub.add_parser("example1", parents=[common], help="exclusion report")
    return parser


def _config_from_args(args) -> RunConfig:
    base = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        base = _config_values(text)
    overrides = {
        attr: getattr(args, attr)
        for attr, *_ in _BY_KEY.values()
        if getattr(args, attr) is not None
    }
    values = {**base, **overrides}
    if args.command == "sim" and args.search is None:
        fixed = [key for key in _REPLAY_FIXED if _BY_KEY[key][0] in values]
        if args.crashes is not None:
            fixed.append("crashes")
        if fixed:
            raise UsageError(
                "a replay takes n, its quorums and its crash budget from the "
                "schedule; drop " + ", ".join(fixed)
            )
    return RunConfig(**values)


_DISPATCH = {
    "cost": cmd_cost,
    "verify": cmd_verify,
    "bound": cmd_bound,
    "sim": cmd_sim,
    "binning": cmd_binning,
    "example1": cmd_example1,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        output, code = _DISPATCH[args.command](cfg, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
