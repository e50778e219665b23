"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: binomials
come from a Pascal-triangle recurrence, logarithms from big-integer
bisection, and probabilities from explicit outcome enumeration.  Slow is
fine; independent is the point.  The mpmath rate arithmetic and the quorum
bridge's subset scan at the end are the implementations the exact paths
and the direct bridge rule replaced, kept as their oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from mpmath import mp


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
    from mvcode.binning import RateTerm

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
            lhs = lhs.plus(rates[u])
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
