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
    binning_worst_case_cost,
    example1_rate_comparison,
    sample_tuples,
    seed_search,
)
from .bounds import (
    BoundParams,
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
    adversarial_schedule_search,
    partial_update_crash_schedule,
    run_simulation,
    schedule_from_text,
    schedule_to_text,
)
from .verifier import quorum_bridge, verify_definition_2, verify_requirement_A

_FORMATS = ("text", "csv", "structured")
_MODES = ("auto", "exhaustive", "monte-carlo")


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 2."""


def parse_rational(text: str) -> Fraction:
    """Accepts decimals ('0.25'), ratios ('1/4'), and powers ('2^-20')."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        if base.strip() != "2":
            raise ValueError(f"only powers of two are supported, got {text!r}")
        return Fraction(2) ** int(exp)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class RunConfig:
    """One command's parameter set; round-trips through key=value text.

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
        if self.delta is not None and self.radius is not None:
            raise UsageError("give either radius or delta, not both")
        if self.mode not in _MODES:
            raise UsageError(f"mode must be one of {', '.join(_MODES)}")
        if self.fmt not in _FORMATS:
            raise UsageError(f"format must be one of {', '.join(_FORMATS)}")
        if self.delta is not None and not 0 <= self.delta <= 1:
            raise UsageError("delta must lie in [0, 1]")

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

    def echo_lines(self) -> list[str]:
        parts = [f"scheme={self.scheme}", f"n={self.n}"]
        if self.c_w is not None:
            parts += [f"c-w={self.c_w}", f"c-r={self.c_r}"]
        parts += [
            f"c={self.effective_c}",
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

    # -- config file round trip ----------------------------------------

    def to_text(self) -> str:
        lines = []
        for spec in _CONFIG_FIELDS:
            value = getattr(self, spec.attr)
            if value is None:
                continue
            lines.append(f"{spec.key}={spec.serialize(value)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class _FieldSpec:
    key: str
    attr: str
    parse: callable
    serialize: callable = str


_CONFIG_FIELDS = (
    _FieldSpec("scheme", "scheme", str),
    _FieldSpec("n", "n", int),
    _FieldSpec("c", "c", int),
    _FieldSpec("c-w", "c_w", int),
    _FieldSpec("c-r", "c_r", int),
    _FieldSpec("nu", "nu", int),
    _FieldSpec("K", "K", int),
    _FieldSpec("radius", "radius", int),
    _FieldSpec("delta", "delta", parse_rational, format_rational),
    _FieldSpec("epsilon", "epsilon", parse_rational, format_rational),
    _FieldSpec("seed", "seed", int),
    _FieldSpec("mode", "mode", str),
    _FieldSpec("cap", "cap", int),
    _FieldSpec("format", "fmt", str),
    _FieldSpec("trials", "trials", int),
)
_BY_KEY = {spec.key: spec for spec in _CONFIG_FIELDS}


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
        spec = _BY_KEY.get(key)
        if spec is None:
            raise UsageError(f"unknown config key {key!r}")
        try:
            values[spec.attr] = spec.parse(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {exc}") from exc
    return values


def config_from_text(text: str) -> RunConfig:
    """Parse the key=value config format; unknown keys are errors."""
    return RunConfig(**_config_values(text))


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


def _build_scheme(cfg: RunConfig, model: CorrelationModel, c: int):
    if cfg.scheme == "binning":
        return make_scheme(
            "binning", model, cfg.n, c, epsilon=cfg.epsilon, seed=cfg.seed
        )
    return make_scheme(cfg.scheme, model, cfg.n, c)


_COST_ROWS = ("replication", "mds", "delta", "rs-update", "binning")


def cmd_cost(cfg: RunConfig, args) -> tuple[str, int]:
    model = cfg.model()
    c = cfg.effective_c
    table = _Table(
        "cost",
        ("scheme", "formula-bits", "ceiling-bits", "measured-bits", "notes"),
    )
    for name in _COST_ROWS:
        scheme = _build_scheme(replace(cfg, scheme=name), model, c)
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


def cmd_verify(cfg: RunConfig, args) -> tuple[str, int]:
    model = cfg.model()
    c = cfg.effective_c
    scheme = _build_scheme(cfg, model, c)
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
    # Judged against the budget the scheme claims: exhaustive runs know each
    # state's failure rate, sampled runs only the overall one.
    budget = verified.error_budget
    if report.mode == "exhaustive":
        ok = report.per_state_max_error <= budget
        lines.append(f"verdict {'pass' if ok else 'fail'} failures={report.failure_count}")
    else:
        ok = report.empirical_error <= budget
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
            if cfg.epsilon < Fraction(1, 2 ** (cfg.nu * cfg.n))
            else Fraction(0)
        )
        params = BoundParams(cfg.n, c, cfg.nu, K, radius, bound_eps)
        row = [
            K,
            radius,
            lower_bound_general(params),
            leading,
            realized,
            gap_factor(params, leading),
        ]
        if cfg.nu == 2:
            row.append(lower_bound_two_versions(params))
        table.add(*row)
    lines.append(table.render(cfg.fmt))
    return "\n".join(lines), 0


def cmd_sim(cfg: RunConfig, args) -> tuple[str, int]:
    if args.search is not None:
        if cfg.c_w is None:
            raise UsageError("--search needs --c-w and --c-r")
        model = cfg.model()
        scheme = quorum_bridge(
            _build_scheme(cfg, model, cfg.effective_c), cfg.c_w, cfg.c_r
        )
        lines = cfg.echo_lines()
        witness = adversarial_schedule_search(
            scheme, cfg.c_w, cfg.c_r, f=args.crashes, depth=args.search, seed=cfg.seed
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
    model = CorrelationModel(cfg.K, cfg.effective_radius, cfg.nu)
    inner = _build_scheme(replace(cfg, n=schedule.n), model, overlap)
    scheme = quorum_bridge(inner, schedule.c_w, schedule.c_r)
    lines = cfg.echo_lines()
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
    model = cfg.model()
    c = cfg.effective_c
    seeds = list(range(cfg.seed, cfg.seed + args.seeds))
    tuples = sample_tuples(model, cfg.trials, cfg.seed)
    report = seed_search(
        model, cfg.n, c, cfg.epsilon, seeds, tuples, kind=args.kind
    )
    lines = cfg.echo_lines()
    lines.append(
        "search kind={} seeds={} tuples-per-cell={}".format(
            args.kind, len(seeds), cfg.trials
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
    return values


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    add = common.add_argument
    add("--config", metavar="FILE", help="key=value config file; flags override it")
    add("--scheme", choices=scheme_names(), help="storage scheme (default mds)")
    add("-n", type=int, help="number of servers (default 4)")
    add("-c", type=int, help="decode-set size; excludes --c-w/--c-r (default 2)")
    add("--c-w", type=int, help="write quorum size (with --c-r)")
    add("--c-r", type=int, help="read quorum size (with --c-w)")
    add("--nu", type=int, help="maximum concurrent versions (default 2)")
    add("--K", type=int, help="message bits (default 8)")
    add("--radius", type=int, help="correlation ball radius (default 1)")
    add("--delta", type=parse_rational, help="radius as a fraction of K")
    add("--epsilon", type=parse_rational, help="error budget (default 1/4)")
    add("--seed", type=int, help="root seed (default 0)")
    add("--mode", choices=_MODES, help="verification mode (default auto)")
    add("--cap", type=int, help="enumeration cap (default 2^24)")
    add("--format", choices=_FORMATS, dest="fmt", help="output format")
    add("--trials", type=int, help="sampling trials (default 1000)")
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
        "--crashes", type=int, default=0, help="crash budget for --search"
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
        spec.attr: getattr(args, spec.attr)
        for spec in _CONFIG_FIELDS
        if getattr(args, spec.attr, None) is not None
    }
    return RunConfig(**{**base, **overrides})


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
