"""Information-theoretic storage lower bounds and gap analysis.

Every quantity is assembled from exact big integers (ball volumes, binomial
and factorial counts, rational error budgets).  ``log2_exact`` takes the
base-2 logarithm of one such integer or fraction to 50 decimal digits and
rounds it once to a float; ``lower_bound_general`` and
``lower_bound_two_versions`` then add and subtract those floats, so a bound
carries only the few roundings of that float sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from math import comb, factorial

from .model import hamming_ball_volume

LOG_DIGITS = 50
_LN2 = Decimal(2).ln(Context(prec=LOG_DIGITS))


def log2_decimal(x: int | Fraction) -> Decimal:
    """Base-2 log of a positive integer or Fraction to LOG_DIGITS digits.

    Callers combine these inside a ``localcontext`` of the same precision
    and round to a float once, at the end.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log2_exact needs a positive argument")
    with localcontext() as ctx:
        ctx.prec = LOG_DIGITS
        return (_ln(x.numerator) - _ln(x.denominator)) / _LN2


def _ln(value: int) -> Decimal:
    """ln of a positive int from its top 512 bits plus the shift times ln 2:
    the dropped bits move it by under 2^-511, far below LOG_DIGITS digits."""
    shift = max(value.bit_length() - 512, 0)
    return Decimal(value >> shift).ln() + shift * _LN2


def log2_exact(x: int | Fraction) -> float:
    """Base-2 log of a positive integer or Fraction, rounded once."""
    return float(log2_decimal(x))


def format_rational(x: Fraction, shift: int = 0) -> str:
    """x * 2^-shift as ``p`` or ``p/q``; past a 64-bit denominator
    ``p/q*2^-k`` with q odd, or ``2^-k`` when p/q is 1, so a tiny power of
    two stays short.  2^shift itself is never built."""
    p, den = x.numerator, x.denominator
    cancel = min((p & -p).bit_length() - 1, shift) if p else shift
    p, shift = p >> cancel, shift - cancel
    k = (den & -den).bit_length() - 1 + shift
    if den.bit_length() + shift <= 64 or not k:
        den <<= shift
        return str(p) if den == 1 else f"{p}/{den}"
    mantissa = format_rational(Fraction(p, den >> (k - shift)))
    return f"2^-{k}" if mantissa == "1" else f"{mantissa}*2^-{k}"


def below_power_of_two(x: Fraction, m: int) -> bool:
    """x < 2^-m without building 2^m: p * 2^m < q for x = p/q, decided by
    bit lengths and, only when they tie, by the exact product."""
    p, q = x.numerator, x.denominator
    if p <= 0:
        return True
    width = p.bit_length() + m
    if width != q.bit_length():
        return width < q.bit_length()
    return p << m < q


@dataclass(frozen=True)
class BoundParams:
    """Parameter point for the converse bounds.

    epsilon is the allowed decoding-failure probability; the counting
    argument behind the general bound needs epsilon strictly below
    2^-(nu*n), and 0 is accepted as the errorless specialization.
    """

    n: int
    c: int
    nu: int
    K: int
    radius: int
    epsilon: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not 1 <= self.c <= self.n:
            raise ValueError("need 1 <= c <= n")
        if self.nu < 1 or self.K < 1 or self.radius < 0:
            raise ValueError("nu, K must be >= 1 and radius >= 0")
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if eps < 0 or not below_power_of_two(eps, self.nu * self.n):
            raise ValueError(
                "epsilon must lie in [0, 2^-(nu*n)) for the bound to hold"
            )

    @property
    def ball_volume(self) -> int:
        return hamming_ball_volume(min(self.radius, self.K), self.K)

    @cached_property
    def survival(self) -> Fraction:
        """1 - epsilon * 2^(nu*n), the surviving share of the tuple space."""
        p, q = self.epsilon.numerator, self.epsilon.denominator
        return Fraction(q - (p << self.nu * self.n), q)


def lower_bound_general(params: BoundParams) -> float:
    """Per-server bits any valid code needs, for any number of versions.

    (K + (nu-1) log2 Vol + log2(survival) - log2(C(c+nu-1, nu) * nu!))
    divided by (c + nu - 1).
    """
    share = params.c + params.nu - 1
    arrangements = comb(share, params.nu) * factorial(params.nu)
    total = (
        params.K
        + (params.nu - 1) * log2_exact(params.ball_volume)
        + log2_exact(params.survival)
        - log2_exact(arrangements)
    )
    return total / share


def lower_bound_two_versions(params: BoundParams) -> float:
    """Sharper constant available when exactly two versions circulate."""
    if params.nu != 2:
        raise ValueError("this bound is specific to nu = 2")
    share = params.c + 1
    total = (
        params.K
        + log2_exact(params.ball_volume)
        + log2_exact(params.survival)
        - log2_exact(params.c)
    )
    return total / share


def gap_factor(params: BoundParams, scheme_cost: float) -> float:
    """How far above the converse a scheme's worst-case cost sits."""
    bound = lower_bound_general(params)
    if bound <= 0:
        raise ValueError("gap factor undefined for a nonpositive bound")
    return scheme_cost / bound
