"""Closed-form summation theorems for unit-argument hypergeometric series.

Covers the Gauss and Dixon evaluations, a contiguous 3F2, the generalized
Karlsson-Minton formula, the Ramanujan-type sums built on one accurate
Gamma(x)/Gamma(x+1/2), and the weighted sums of ((1/2)_n / n!)^2 terms.

Every function returns the closed-form value only; pairing these against
direct summation is the job of :mod:`hypersum.verify`.  Validity conditions
are checked strictly and raise PreconditionError (condition violated),
DegenerateError (parameter collision), or PoleError (gamma pole) rather than
returning NaN, and a value outside the binary64 range raises RangeError.
Each real argument is read once, at entry, by ``specialfn._require_finite``
as "<function> argument <x>": one that is no number raises ConfigError, a
number past the binary64 range RangeError, and nan or +-inf DomainError.  A
numeric string is read as its float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .errors import ConfigError, DegenerateError, DomainError, PreconditionError, RangeError
from .specialfn import (
    _is_nonpositive_integer, _require_finite, _require_integer, _shown, gamma, gamma_ratio,
    pochhammer,
)

__all__ = [
    "ShiftedPair",
    "gauss_2f1",
    "dixon_3f2",
    "contiguous_3f2",
    "ratio_sum_extension",
    "karlsson_minton",
    "mu_spaced_sum",
    "s_p",
    "weighted_s1",
    "weighted_s2",
    "weighted_pair",
]

# log(sqrt(x) Gamma(x)/Gamma(x+1/2)) ~ sum A_m x^-m, m odd, with A_m = (2 - 2^-m)
# B_{m+1} / (m (m+1)): DLMF 5.11.8 at h = 0 less h = 1/2 (Tricomi and Erdelyi,
# 1951).  At x >= 20 the first term left out, A_13 x^-13, is below 2e-19.
_LOG_G_SERIES = (1 / 8, -1 / 192, 1 / 640, -17 / 14336, 31 / 18432, -691 / 180224)


def _g_and_slope(b: float, c: float) -> tuple[float, float]:
    """(b g(b), phi) for g(x) = Gamma(x)/Gamma(x+1/2) and 0 < b <= c.

    phi = (log g(b) - log g(c))/(c - b), which is -(log g)'(b) at b = c, is
    summed term by term from c - b, so it does not cancel as c -> b.
    """
    d = c - b
    xg, phi = b, 0.0
    while b < 20.0:  # g(x) = g(x+1) (x + 1/2)/x
        xg = xg / b * (b + 0.5)
        # The steps' logs differ by log1p(d / (b (2c + 1))); no product overflows.
        phi += math.log1p(0.5 * (d / (c + 0.5)) / b) / d if d else 0.5 / (c + 0.5) / b
        b, c = b + 1.0, c + 1.0
    # -1/2 log x differenced, then b^-m - c^-m = (c - b) u v h_{m-1}(u, v)
    # with u = 1/b, v = 1/c and h_k = u^k + u^(k-1) v + ... + v^k.
    phi += 0.5 * (math.log1p(d / b) / d if d else 1.0 / b)
    u, v = 1.0 / b, 1.0 / c
    series, h, um, vm = 0.0, 1.0, u, v
    for a in _LOG_G_SERIES:
        series += a * um
        phi += a * u * v * h
        h = u * u * h + vm * (u + v)
        um *= u * u
        vm *= v * v
    return xg / math.sqrt(b) * math.exp(series), phi


def _finite(name: str, value: float) -> float:
    # A product of finite factors can still overflow to inf, or meet inf - inf
    # or 0 * inf on the way and end as nan.
    if not math.isfinite(value):
        raise RangeError(f"{name} value is not finite in binary64 ({value!r})")
    return value


@dataclass(frozen=True)
class ShiftedPair:
    """One (f, m) lower/upper parameter pair with a positive integer shift m.

    The pair contributes an upper parameter f + m and a lower parameter f to a
    Karlsson-Minton series.  f must not be a nonpositive integer, so (f)_k
    never vanishes.
    """

    f: float
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _require_integer("pair shift", self.m, 1, DegenerateError))
        f = _require_finite("pair parameter", self.f, DegenerateError)
        if _is_nonpositive_integer(f):
            raise DegenerateError(f"pair parameter f={f!r} is a nonpositive integer")
        object.__setattr__(self, "f", f)


def _shifted_pairs(pairs: object) -> tuple[ShiftedPair, ...]:
    # ShiftedPairs, plain (f, m) pairs or one bare ShiftedPair, as ShiftedPairs.
    try:
        return tuple(p if isinstance(p, ShiftedPair) else ShiftedPair(*p)
                     for p in ((pairs,) if isinstance(pairs, ShiftedPair) else pairs))
    except TypeError:
        shown = _shown(pairs)
        raise ConfigError(f"pairs must be a sequence of (f, m) pairs, got {shown}") from None


def gauss_2f1(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)).

    Requires c - a - b > 0.  Symmetric in a and b by construction: both
    orderings produce the identical gamma-ratio call.
    """
    a = _require_finite("gauss_2f1 argument a", a)
    b = _require_finite("gauss_2f1 argument b", b)
    c = _require_finite("gauss_2f1 argument c", c)
    # c - (a + b) keeps the call bitwise symmetric in a and b
    margin, c_a, c_b = c - (a + b), c - a, c - b
    if not (margin > 0.0):
        raise PreconditionError(f"c-a-b>0 violated: {margin:.6g} <= 0")
    if not (math.isfinite(margin) and math.isfinite(c_a) and math.isfinite(c_b)):
        raise RangeError("gauss_2f1 argument sums exceed binary64 range")
    return gamma_ratio([c, margin], [c_a, c_b])


def dixon_3f2(a: float, b: float, c: float) -> float:
    """Well-poised 3F2[a, b, c; 1+a-b, 1+a-c; 1] in closed form.

    Value: Gamma(1+a/2) Gamma(1+a-b) Gamma(1+a-c) Gamma(1+a/2-b-c) /
    [Gamma(1+a) Gamma(1+a/2-b) Gamma(1+a/2-c) Gamma(1+a-b-c)], valid for
    a/2 - b - c > -1.
    """
    a = _require_finite("dixon_3f2 argument a", a)
    b = _require_finite("dixon_3f2 argument b", b)
    c = _require_finite("dixon_3f2 argument c", c)
    half_a = 0.5 * a
    if not (half_a - b - c > -1.0):
        raise PreconditionError(f"a/2-b-c>-1 violated: {half_a - b - c:.6g} <= -1")
    nums = [1.0 + half_a, 1.0 + a - b, 1.0 + a - c, 1.0 + half_a - b - c]
    dens = [1.0 + a, 1.0 + half_a - b, 1.0 + half_a - c, 1.0 + a - b - c]
    # nums[0], dens[0] cannot overflow; nums[1], dens[1] carry theirs into dens[3], nums[3].
    if not (math.isfinite(nums[2]) and math.isfinite(nums[3])
            and math.isfinite(dens[2]) and math.isfinite(dens[3])):
        raise RangeError("dixon_3f2 argument sums exceed binary64 range")
    return gamma_ratio(nums, dens)


def contiguous_3f2(a: float, b: float, c: float, m: int) -> float:
    """3F2[a, b, c; b+m, c+1; 1] for positive integer m.

    Value: c Gamma(1-a) (b)_m / (b-c)_m * { Gamma(c)/Gamma(1+c-a)
    - Gamma(b)/Gamma(1+b-a) * sum_{k<m} (1-a)_k (b-c)_k / ((1+b-a)_k k!) }.

    Requires m + 1 - a > 0 (convergence of the left side).  It raises
    DegenerateError where (b-c)_m = 0 (b - c in {0, -1, ..., -(m-1)}), as the
    closed form is 0/0 there, and where (1+b-a)_k = 0 for some k < m.
    """
    m = _require_integer("m", m, 1)
    a = _require_finite("contiguous_3f2 argument a", a)
    b = _require_finite("contiguous_3f2 argument b", b)
    c = _require_finite("contiguous_3f2 argument c", c)
    if not (m + 1.0 - a > 0.0):
        raise PreconditionError(f"m+1-a>0 violated: {m + 1.0 - a:.6g} <= 0")
    gap, low, c_low = b - c, 1.0 + b - a, 1.0 + c - a
    if not (math.isfinite(gap) and math.isfinite(low) and math.isfinite(c_low)):
        raise RangeError("contiguous_3f2 argument sums exceed binary64 range")
    shift_poch = pochhammer(gap, m)
    if shift_poch == 0.0:
        raise DegenerateError(
            f"(b-c)_m vanishes for b-c={gap!r}, m={m}; the b=c limit is "
            "only available through ratio_sum_extension"
        )
    if _is_nonpositive_integer(low) and low > -m:
        raise DegenerateError(f"(1+b-a)_k vanishes for 1+b-a={low!r}, m={m}")
    inner = 0.0
    u = 1.0
    for k in range(m):
        inner += u
        u *= ((k + 1.0) - a) * (b - c + k) / ((1.0 + b - a + k) * (k + 1.0))
    braces = gamma_ratio([c], [c_low]) - gamma_ratio([b], [low]) * inner
    value = c * gamma(1.0 - a) * pochhammer(b, m) / shift_poch * braces
    return _finite("contiguous_3f2", value)


def ratio_sum_extension(b: float, c: float) -> float:
    """sum_n (1/2)_n / n! / ((1 + n/b)(1 + n/c)) for b, c > 0.

    Equals 3F2[1/2, b, c; b+1, c+1; 1] = sqrt(pi) b c g(b) (1 - g(c)/g(b)) / (c - b)
    with g(x) = Gamma(x)/Gamma(x+1/2).  For b <= c that is sqrt(pi) (b g(b))
    (c phi) expm1(t)/t with t = (b - c) phi, phi from _g_and_slope: one formula
    for every gap, b = c included, free of cancellation and of overflow.
    """
    b = _require_finite("ratio_sum_extension argument b", b)
    c = _require_finite("ratio_sum_extension argument c", c)
    if not (b > 0.0):
        raise DomainError(f"b must be positive, got {b!r}")
    if not (c > 0.0):
        raise DomainError(f"c must be positive, got {c!r}")
    low, high = min(b, c), max(b, c)
    bg, phi = _g_and_slope(low, high)
    t = (low - high) * phi
    growth = math.expm1(t) / t if t else 1.0
    return _finite("ratio_sum_extension", math.sqrt(math.pi) * bg * (high * phi) * growth)


def _ck_table(pairs: Sequence[ShiftedPair], top: int) -> list[float]:
    # C_0..C_top with C_k = Delta^k P(0) / k! for the degree-m polynomial
    # P(n) = prod_i (f_i + n)_{m_i} / (f_i)_{m_i}.  With f_i = p_i / q_i,
    # P(n) = N(n) / N(0) for the integer N(n) = prod_i prod_{l<m_i}
    # (p_i + (n + l) q_i), so one difference table over N(0..top) is exact
    # and each C_k is a single correctly rounded int / int.
    ratios = [(pair.f.as_integer_ratio(), pair.m) for pair in pairs]
    diffs = []
    for n in range(top + 1):
        value = 1
        for (num, den), m in ratios:
            for l in range(n, n + m):
                value *= num + l * den
        diffs.append(value)
    scale = diffs[0]  # k! N(0), nonzero because no f_i is a nonpositive integer
    table = []
    try:
        for k in range(top + 1):
            if k:
                scale *= k
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            table.append(diffs[0] / scale)
    except OverflowError:
        raise RangeError(f"C_{len(table)} exceeds binary64 range") from None
    return table


def ck_coefficient(k: int, pairs: Sequence[ShiftedPair | tuple[float, int]]) -> float:
    """Coefficient C_k of the Karlsson-Minton sum.

    C_k = (-1)^k / k! * F[-k, (f_i + m_i); (f_i); 1], the inner series being a
    terminating sum of k + 1 terms.  It equals the k-th forward difference at
    0 of P(n) = prod_i (f_i + n)_{m_i} / (f_i)_{m_i}, divided by k!, so it is
    read off one exact integer difference table over the binary64 inputs and
    rounded once, at the final division.  C_k = 0.0 for k > m = sum m_i.
    ``pairs`` holds ShiftedPairs or plain (f, m) pairs, as in karlsson_minton.
    """
    k, pairs = _require_integer("k", k, 0), _shifted_pairs(pairs)
    if k > sum(pair.m for pair in pairs):
        return 0.0
    return _ck_table(pairs, k)[k]


def karlsson_minton(
    a: float, b: float, c: float, pairs: Sequence[ShiftedPair | tuple[float, int]]
) -> float:
    """F[a, b, (f_i + m_i); c, (f_i); 1] with integral parameter differences.

    Value: Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)) *
    sum_{k=0}^{m} (-1)^k (a)_k (b)_k C_k / (1+a+b-c)_k with m = sum m_i,
    valid for c - a - b > m.  An empty pair list reduces to gauss_2f1.
    ``pairs`` holds ShiftedPairs or plain (f, m) pairs; a malformed one
    raises ConfigError, or DegenerateError as ShiftedPair does.
    """
    pairs = _shifted_pairs(pairs)
    a = _require_finite("karlsson_minton argument a", a)
    b = _require_finite("karlsson_minton argument b", b)
    c = _require_finite("karlsson_minton argument c", c)
    m_total = sum(p.m for p in pairs)
    margin, c_a, c_b = c - a - b, c - a, c - b
    if not (margin > m_total):
        raise PreconditionError(f"c-a-b>m violated: {margin:.6g} <= {m_total}")
    if not (math.isfinite(margin) and math.isfinite(c_a) and math.isfinite(c_b)):
        raise RangeError("karlsson_minton argument sums exceed binary64 range")
    terms = []
    sign = 1.0
    poch_a = poch_b = poch_low = 1.0
    for k, ck in enumerate(_ck_table(pairs, m_total)):
        if poch_low == 0.0:
            raise DegenerateError(
                f"(1+a+b-c)_k vanishes at k={k}; a+b-c must not be a "
                "negative integer of magnitude <= m"
            )
        terms.append(sign * poch_a * poch_b * ck / poch_low)
        sign = -sign
        poch_a *= a + k
        poch_b *= b + k
        poch_low *= 1.0 + a + b - c + k
    prefactor = gamma_ratio([c, margin], [c_a, c_b])
    return _finite("karlsson_minton", prefactor * math.fsum(terms))


def mu_spaced_sum(b: float, mu: float) -> float:
    """Closed form of sum_n (1/2)_n / n! / (b + n mu) for b, mu > 0.

    Value: sqrt(pi) Gamma(b/mu) / (mu Gamma(b/mu + 1/2)), from the Gauss
    theorem applied to the equivalent 2F1(1/2, b/mu; b/mu + 1; 1) / b.
    """
    b = _require_finite("mu_spaced_sum argument b", b)
    mu = _require_finite("mu_spaced_sum argument mu", mu)
    if not (b > 0.0):
        raise DomainError(f"b must be positive, got {b!r}")
    if not (mu > 0.0):
        raise DomainError(f"mu must be positive, got {mu!r}")
    ratio = _finite("b/mu", b / mu)
    if ratio == 0.0:
        raise RangeError(f"b/mu underflows to 0 in binary64 (b={b!r}, mu={mu!r})")
    # Gamma(r)/(mu Gamma(r + 1/2)) = r g(r) / b for r = b/mu
    return _finite("mu_spaced_sum", math.sqrt(math.pi) * _g_and_slope(ratio, ratio)[0] / b)


def s_p(p: int) -> float:
    """S_p = sum_n ((1/2)_n / n!)^2 / ((n+1)...(n+p)) = Gamma(p)/Gamma(p+1/2)^2.

    S_1 = 4/pi, S_2 = 16/(9 pi), S_3 = 128/(225 pi), ...
    """
    p = _require_integer("p", p)
    return gamma_ratio([float(p)], [p + 0.5, p + 0.5])


def weighted_s1(p: int, f: float) -> float:
    """sum_n ((1/2)_n/n!)^2 (n+f) / ((n+1)...(n+p)) for integer p >= 2.

    Value: Gamma(p)/Gamma(p+1/2)^2 * (f + 1/(4(p-1))).
    """
    p = _require_integer("p", p, 2, PreconditionError)
    f = _require_finite("weighted_s1 argument f", f)
    return s_p(p) * (f + 0.25 / (p - 1.0))


def weighted_s2(p: int, f: float) -> float:
    """sum_n ((1/2)_n/n!)^2 (n+f)(n+f+1) / ((n+1)...(n+p)) for integer p >= 3.

    Value: Gamma(p)/Gamma(p+1/2)^2 *
    (f(f+1) + (f+1)/(2(p-1)) + 9/(16(p-1)(p-2))).
    """
    p = _require_integer("p", p, 3, PreconditionError)
    f = _require_finite("weighted_s2 argument f", f)
    poly = f * (f + 1.0) + (f + 1.0) / (2.0 * (p - 1.0)) + 9.0 / (16.0 * (p - 1.0) * (p - 2.0))
    return _finite("weighted_s2", s_p(p) * poly)


def weighted_pair(p: int, f1: float, f2: float) -> float:
    """sum_n ((1/2)_n/n!)^2 (n+f1)(n+f2) / ((n+1)...(n+p)) for integer p >= 3.

    Value: Gamma(p)/Gamma(p+1/2)^2 *
    (f1 f2 + (f1+f2+1)/(4(p-1)) + 9/(16(p-1)(p-2))); symmetric in f1, f2 and
    reduces to weighted_s2 at f2 = f1 + 1.
    """
    p = _require_integer("p", p, 3, PreconditionError)
    f1 = _require_finite("weighted_pair argument f1", f1)
    f2 = _require_finite("weighted_pair argument f2", f2)
    poly = f1 * f2 + (f1 + f2 + 1.0) / (4.0 * (p - 1.0)) + 9.0 / (16.0 * (p - 1.0) * (p - 2.0))
    return _finite("weighted_pair", s_p(p) * poly)
