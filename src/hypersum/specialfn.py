"""Scalar special functions: gamma, log-gamma, digamma, rising factorials.

Everything here is plain binary64 arithmetic.  The gamma function uses a
rational Lanczos approximation (g = 6.0246800407767296, 13 terms, accurate to
about 1 ulp over the right half line) together with the reflection formula for
arguments below 1/2.  The digamma function uses upward recurrence to x >= 10
followed by the Bernoulli asymptotic series.

Poles raise :class:`~hypersum.errors.PoleError`; results that exceed the
binary64 range raise :class:`~hypersum.errors.RangeError`, a subclass of the
builtin :class:`OverflowError`.  NaN never escapes.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from .errors import DomainError, PoleError, RangeError

__all__ = [
    "gamma",
    "log_gamma",
    "digamma",
    "pochhammer",
    "gamma_ratio",
]

# Rational Lanczos approximation for the shifted gamma function,
# Gamma(x) = (x + g - 1/2)^(x - 1/2) * exp(-(x + g - 1/2)) * L(x),
# with L a degree-12/12 rational whose limit at infinity is sqrt(2*pi).
_LANCZOS_G = 6.024680040776729583740234375

_LANCZOS_NUM = (
    23531376880.410759688572007674451636754734846804940,
    42919803642.649098768957899047001988850926355848959,
    35711959237.355668049440185451547166705960488635843,
    17921034426.037209699919755754458931112671403265390,
    6039542586.3520280050642916443072979210699388420708,
    1439720407.3117216736632230727949123939715485786772,
    248874557.86205415651146038641322942321632125127801,
    31426415.585400194380614231628318205362874684987640,
    2876370.6289353724412254090516208496135991145378768,
    186056.26539522349504029498971604569928220784236328,
    8071.6720023658162106380029022722506138218516325024,
    210.82427775157934587250973392071336271166969580291,
    2.5066282746310002701649081771338373386264310793408,
)

# Denominator polynomial x (x+1) ... (x+11), ascending coefficients.
_LANCZOS_DEN = (
    0.0,
    39916800.0,
    120543840.0,
    150917976.0,
    105258076.0,
    45995730.0,
    13339535.0,
    2637558.0,
    357423.0,
    32670.0,
    1925.0,
    66.0,
    1.0,
)

# exp overflows past ~709.78; pow(t, w) is split once w*log(t) exceeds this.
_EXP_SPLIT = 690.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _lanczos_sum(x: float) -> float:
    # All coefficients are positive, so either Horner direction is
    # cancellation-free; the 1/x form keeps intermediates small for large x.
    if x < 8.0:
        num = 0.0
        den = 0.0
        for i in range(12, -1, -1):
            num = num * x + _LANCZOS_NUM[i]
            den = den * x + _LANCZOS_DEN[i]
    else:
        z = 1.0 / x
        num = 0.0
        den = 0.0
        for i in range(13):
            num = num * z + _LANCZOS_NUM[i]
            den = den * z + _LANCZOS_DEN[i]
    return num / den


def _sinpi(x: float) -> float:
    # sin(pi*x) with argument reduction around the nearest integer, so the
    # result stays fully accurate near the zeros of sine.
    k = round(x)
    r = x - k  # exact: |r| <= 1/2
    s = math.sin(math.pi * r)
    return s if int(k) % 2 == 0 else -s


def _cospi(x: float) -> float:
    k = round(x)
    r = x - k
    c = math.cos(math.pi * r)
    return c if int(k) % 2 == 0 else -c


def _check_real(name: str, x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"{name}: argument must be a finite real number, got {x!r}")
    return x


def gamma(x: float) -> float:
    """Gamma function for real x.

    Uses the Lanczos form directly for x >= 1/2 and the reflection formula
    Gamma(x) Gamma(1-x) = pi / sin(pi x) below.

    Raises PoleError at 0, -1, -2, ... and RangeError once |Gamma(x)|
    leaves the binary64 range (x > 171.62, or 0 < |x| < ~5.6e-309).
    """
    x = _check_real("gamma", x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    if x < -170.0:
        # |Gamma| underflows long before this; go through log space so the
        # reflection never manufactures a spurious overflow.
        sign, lg = _signed_log_gamma(x)
        return sign * math.exp(lg)
    if x < 0.5:
        value = math.pi / (_sinpi(x) * gamma(1.0 - x))
    else:
        t = x + (_LANCZOS_G - 0.5)
        w = x - 0.5
        log_pow = w * math.log(t)
        # The Lanczos factor exceeds 1, so past this Gamma(x) cannot be
        # finite, and t^(w/2) below could overflow inside math.pow.
        if log_pow - t > _LOG_FLOAT_MAX:
            raise RangeError(f"gamma({x!r}) exceeds binary64 range")
        lanczos = _lanczos_sum(x)
        if log_pow > _EXP_SPLIT:
            half = math.pow(t, 0.5 * w)
            value = half * math.exp(-t) * half * lanczos
        else:
            value = math.pow(t, w) * math.exp(-t) * lanczos
    if math.isinf(value):
        raise RangeError(f"gamma({x!r}) exceeds binary64 range")
    return value


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    The exact zeros at x = 1 and x = 2 are returned as exactly 0.0.
    """
    x = _check_real("log_gamma", x)
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x == 1.0 or x == 2.0:
        return 0.0
    if x < 0.5:
        # Gamma(x) = Gamma(x+1)/x
        return log_gamma(x + 1.0) - math.log(x)
    t = x + (_LANCZOS_G - 0.5)
    return (x - 0.5) * math.log(t) - t + math.log(_lanczos_sum(x))


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|) for any non-pole real x.

    Negative non-integer arguments go through the reflection formula; the sign
    of Gamma there is the sign of sin(pi x).
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    if x > 0.0:
        return 1.0, log_gamma(x)
    s = _sinpi(x)
    lg = math.log(math.pi / abs(s)) - log_gamma(1.0 - x)
    return (1.0 if s > 0.0 else -1.0), lg


def digamma(x: float) -> float:
    """Digamma (logarithmic derivative of gamma) for real non-pole x.

    psi(x) = psi(x + 1) - 1/x lifts the argument to x >= 10 where the
    asymptotic series log x - 1/(2x) - sum B_{2k} / (2k x^{2k}) converges to
    below 1 ulp; x < 1/2 is handled by the reflection
    psi(1 - x) - psi(x) = pi cot(pi x).
    """
    x = _check_real("digamma", x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x={x!r}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi * (_cospi(x) / _sinpi(x))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    # Bernoulli tail through B_14 / x^14; |next term| < 5e-17 at x = 10.
    tail = z * (
        1.0 / 12.0
        - z * (
            1.0 / 120.0
            - z * (
                1.0 / 252.0
                - z * (
                    1.0 / 240.0
                    - z * (1.0 / 132.0 - z * (691.0 / 32760.0 - z / 12.0))
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - tail


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    x = _check_real("pochhammer", x)
    if n != int(n) or n < 0:
        raise DomainError(f"pochhammer requires a nonnegative integer n, got {n!r}")
    result = 1.0
    for k in range(int(n)):
        result *= x + k
    if math.isinf(result) or math.isnan(result):
        raise RangeError(f"pochhammer({x!r}, {n}) exceeds binary64 range")
    return result


def gamma_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Prod Gamma(num_i) / Prod Gamma(den_j), evaluated in log space.

    Both lists are sorted descending and differenced pairwise largest-first,
    which keeps the summed log magnitudes small when the two sides nearly
    cancel.  Negative non-integer arguments are allowed; their signs are
    tracked through the reflection formula.  Identical lists return exactly 1.
    """
    nums = sorted((_check_real("gamma_ratio", v) for v in numerators), reverse=True)
    dens = sorted((_check_real("gamma_ratio", v) for v in denominators), reverse=True)
    sign = 1.0
    logs: list[float] = []
    for a, b in zip(nums, dens):
        sa, la = _signed_log_gamma(a)
        sb, lb = _signed_log_gamma(b)
        sign *= sa * sb
        logs.append(la - lb)
    for a in nums[len(dens):]:
        sa, la = _signed_log_gamma(a)
        sign *= sa
        logs.append(la)
    for b in dens[len(nums):]:
        sb, lb = _signed_log_gamma(b)
        sign *= sb
        logs.append(-lb)
    try:
        return sign * math.exp(math.fsum(logs))
    except OverflowError:
        raise RangeError("gamma_ratio exceeds binary64 range") from None
