"""Scalar special functions: gamma, log-gamma, digamma, rising factorials.

Everything here is plain binary64 arithmetic.  Gamma and log-gamma are
Python's ``math.gamma`` and ``math.lgamma``, which are written in C; against
40-digit mpmath values gamma stays within 10 ulp on (0, 171.6) and on negative
non-integers above -170.  The digamma function uses upward recurrence to
x >= 10 followed by the Bernoulli asymptotic series.

Poles raise :class:`~hypersum.errors.PoleError`; results that exceed the
binary64 range raise :class:`~hypersum.errors.RangeError`, a subclass of the
builtin :class:`OverflowError`.  NaN never escapes.  Arguments are checked by
``_require_integer`` and ``_require_finite``: "{name} must be {kind}, got
{value!r}" in the caller's error class, a ConfigError for a non-number and a
RangeError for a number past binary64, its digits shortened.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from itertools import zip_longest

from .errors import ConfigError, DomainError, PoleError, RangeError

__all__ = [
    "gamma",
    "log_gamma",
    "digamma",
    "pochhammer",
    "gamma_ratio",
]


def _is_integer(x: object) -> bool:
    # False, not a raw error, for nan, inf, values int() rejects and integers
    # too large for a binary64, which the float arithmetic would overflow.
    try:
        return x == int(x) and abs(x) <= sys.float_info.max
    except (TypeError, ValueError, OverflowError):
        return False


def _shown(value: object) -> str:
    # repr() for a message, which refuses an int past 4,300 digits: such an
    # int is shown by integer arithmetic, a container holding one by its type.
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        size = abs(value)
        digits = int(size.bit_length() * math.log10(2.0))
        digits += size >= 10**digits
        head, tail = size // 10**(digits - 4), size % 1000
        return f"{'-' * (value < 0)}{head}...{tail:03d} ({digits} digits)"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__}"


def _rejected(error: type[Exception], name: str, kind: str, value: object) -> Exception:
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        kind += " in the binary64 range"
    return error(f"{name} must be {kind}, got {_shown(value)}")


def _require_integer(name: str, value: object, least: int | None = None,
                     error: type[Exception] = DomainError) -> int:
    if _is_integer(value) and (least is None or value >= least):
        return int(value)
    kinds = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
    raise _rejected(error, name, kinds.get(least, f"an integer >= {least}"), value)


def _require_finite(name: str, x: object, error: type[Exception] = DomainError) -> float:
    try:
        value = float(x)
    except (TypeError, ValueError):
        raise _rejected(ConfigError, name, "a real number", x) from None
    except OverflowError:
        raise _rejected(RangeError, name, "a real number", x) from None
    if math.isfinite(value):
        return value
    raise error(f"{name} must be finite, got {value!r}")


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _cotpi(x: float) -> float:
    # cot(pi*x) from x less its nearest integer: cot has period 1, and the
    # reduction keeps the result fully accurate near the poles.
    r = x - round(x)  # exact: |r| <= 1/2
    return math.cos(math.pi * r) / math.sin(math.pi * r)


def gamma(x: float) -> float:
    """Gamma function for real x, from ``math.gamma``.

    Raises PoleError at 0, -1, -2, ... and RangeError once |Gamma(x)|
    leaves the binary64 range (x > 171.62, or 0 < |x| < ~5.6e-309).  Below
    about -171 it underflows, to a subnormal or a signed zero.
    """
    x = _require_finite("gamma argument", x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise RangeError(f"gamma({x!r}) exceeds binary64 range") from None


def _log_abs_gamma(x: float) -> float:
    # log|Gamma(x)| for a finite non-pole x.
    try:
        return math.lgamma(x)
    except OverflowError:
        raise RangeError(f"log_gamma({x!r}) exceeds binary64 range") from None


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0, from ``math.lgamma``.

    The exact zeros at x = 1 and x = 2 are returned as exactly 0.0.
    """
    x = _require_finite("log_gamma argument", x)
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return _log_abs_gamma(x)


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|) for any non-pole real x.

    On the negative axis Gamma changes sign at each pole, so it is negative
    on (-1, 0), (-3, -2), ...: where floor(x) is odd.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
    return sign, _log_abs_gamma(x)


def digamma(x: float) -> float:
    """Digamma (logarithmic derivative of gamma) for real non-pole x.

    psi(x) = psi(x + 1) - 1/x lifts the argument to x >= 10 where the
    asymptotic series log x - 1/(2x) - sum B_{2k} / (2k x^{2k}) converges to
    below 1 ulp; x < 1/2 is handled by the reflection
    psi(1 - x) - psi(x) = pi cot(pi x).
    """
    x = _require_finite("digamma argument", x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x={x!r}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi * _cotpi(x)
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
    x = _require_finite("pochhammer argument", x)
    n = _require_integer("pochhammer n", n, 0)
    if _is_nonpositive_integer(x) and n > -x:
        return -0.0 if int(x) % 2 else 0.0  # the product's signed zero
    result = 1.0
    for k in range(n):
        result *= x + k
        if math.isinf(result):
            raise RangeError(f"pochhammer({x!r}, {n}) exceeds binary64 range")
    return result


def gamma_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Prod Gamma(num_i) / Prod Gamma(den_j).

    The lists are sorted descending, the shorter is padded with Gamma(1) = 1,
    and they are divided pairwise largest-first.  With every argument in
    (1e-300, 171) and a normal result, that is a product of ``math.gamma``
    quotients, within a few ulp.  Otherwise it is taken in log space, with
    each factor's sign tracked apart from its log, so negative non-integer
    arguments are allowed.  Identical lists return exactly 1.
    """
    try:
        nums = sorted(map(float, numerators), reverse=True)
        dens = sorted(map(float, denominators), reverse=True)
    except (TypeError, ValueError, OverflowError):
        for x in (*numerators, *denominators):  # the typed error for the first bad one
            _require_finite("gamma_ratio argument", x)
        raise
    value = 1.0
    for a, b in zip_longest(nums, dens, fillvalue=1.0):
        if not (1e-300 < a < 171.0 and 1e-300 < b < 171.0):
            break
        value *= math.gamma(a) / math.gamma(b)
    else:
        if sys.float_info.min <= value < math.inf:
            return value
    sign = 1.0
    logs: list[float] = []
    for a, b in zip_longest(nums, dens, fillvalue=1.0):
        sa, la = _signed_log_gamma(_require_finite("gamma_ratio argument", a))
        sb, lb = _signed_log_gamma(_require_finite("gamma_ratio argument", b))
        sign *= sa * sb
        logs.append(la - lb)
    try:
        return sign * math.exp(math.fsum(logs))
    except OverflowError:
        raise RangeError("gamma_ratio exceeds binary64 range") from None
