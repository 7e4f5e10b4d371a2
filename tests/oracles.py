"""Independent test oracles.

The rational oracles sum terminating series exactly in rational arithmetic,
term by term from the definition.  They share no code with the package and
are deliberately naive: correctness over speed.

``reference_sum_series`` is the exception: it is a plain block loop of the
stop rules of ``hypersum.series.sum_series``, kept to pin the optimised
kernel to it bit for bit.  It reuses the kernel's asymptotic tail, whose
accuracy is pinned against mpmath separately, so it checks the block body,
the stop rules and the compensated sum, for which it keeps its own Neumaier
update (``_accumulate``) apart from the kernel's inline one.
``block_ends`` states the kernel's block geometry for the loop and for the
tests that place a stop or a budget against it.  Both read the block sizes, the first index the stop
rules may fire at and the rounding bound from ``hypersum.series`` at call
time, so the comparison, and each test stated through ``block_ends``, holds
if those change.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from hypersum import series
from hypersum.errors import ConfigError, DivergenceError, RangeError
from hypersum.series import (
    SummationResult,
    SummationStatus,
    _AsymptoticTail,
    convergence_margin,
)
from hypersum.specialfn import _is_integer


def _accumulate(total: float, comp: float, x: float) -> tuple[float, float]:
    # Neumaier two-sum update.
    y = total + x
    if abs(total) >= abs(x):
        comp += (total - y) + x
    else:
        comp += (x - y) + total
    return y, comp


def rational_terminating_sum(
    numerators: list[Fraction], denominators: list[Fraction]
) -> Fraction:
    """Exact sum of a terminating unit-argument series.

    At least one numerator must be a nonpositive integer; the sum runs through
    the last nonzero term.
    """
    stops = [-a for a in numerators if a.denominator == 1 and a <= 0]
    if not stops:
        raise ValueError("series does not terminate")
    last = int(min(stops))
    # t_n = num / den and the sum total / den in integers, unreduced until the
    # end: reducing each term costs twenty times more at 600 terms.
    num = den = total = 1
    for n in range(last):
        up, down = 1, n + 1
        for a in numerators:
            up, down = up * (a.numerator + n * a.denominator), down * a.denominator
        for b in denominators:
            up, down = up * b.denominator, down * (b.numerator + n * b.denominator)
        num, den = num * up, den * down
        total = total * down + num
    return Fraction(total, den)


def rational_abs_term_sum(
    numerators: list[Fraction], denominators: list[Fraction]
) -> Fraction:
    """Exact sum of |t_n| over the terminating range; the natural scale for
    comparing against floating-point summation when the sum itself cancels
    to zero."""
    stops = [-a for a in numerators if a.denominator == 1 and a <= 0]
    last = int(min(stops))
    term = Fraction(1)
    total = Fraction(1)
    for n in range(last):
        for a in numerators:
            term *= a + n
        for b in denominators:
            term /= b + n
        term /= n + 1
        total += abs(term)
    return total


def rational_ck_coefficient(k: int, pairs) -> float:
    """Karlsson-Minton C_k = (-1)^k / k! * F[-k, (f_i + m_i); (f_i); 1].

    The k + 1 terms of the inner terminating series are summed exactly on the
    binary64 values of f_i, and the result is rounded once.  ``pairs`` holds
    objects with ``f`` and ``m`` attributes.
    """
    rationals = [(Fraction(pair.f), pair.m) for pair in pairs]
    total = Fraction(0)
    u = Fraction(1)
    for j in range(k + 1):
        total += u
        num = Fraction(j - k)  # (-k)_j recurrence factor
        den = Fraction(j + 1)
        for f, m in rationals:
            num *= f + (m + j)
            den *= f + j
        u *= num / den
    sign = -1 if k % 2 else 1
    return float(Fraction(sign, math.factorial(k)) * total)


def random_terminating_spec(
    rng: random.Random, max_p: int = 3, max_stop: int = 8
) -> tuple[list[Fraction], list[Fraction]]:
    """A random terminating spec with parameters in [0.2, 5] (plus one
    nonpositive-integer numerator) and p <= q + 1."""
    p = rng.randint(1, max_p)
    q = rng.randint(max(0, p - 1), p)
    nums = [Fraction(-rng.randint(0, max_stop))]
    nums += [Fraction(rng.randint(2, 50), 10) for _ in range(p - 1)]
    rng.shuffle(nums)
    dens = [Fraction(rng.randint(2, 50), 10) for _ in range(q)]
    return nums, dens


def block_ends(max_terms=series.DEFAULT_MAX_TERMS):
    """The kernel's block ends N, the last index of each block, for a budget
    of ``max_terms`` terms t_0..t_(max_terms - 1).

    Each block is as wide as the index summed so far, at least
    ``series._BLOCK_START`` and at most ``series._BLOCK_MAX`` terms, and the
    budget cuts the last one short.  At 512 and 65536 the ends are N = 512,
    1024, ..., 65536, then every 65536, and finally max_terms - 1.
    """
    n, last = 0, max_terms - 1
    while n < last:
        n += min(max(n, series._BLOCK_START), series._BLOCK_MAX, last - n)
        yield n


def reference_sum_series(spec, rel_tol=1e-12, max_terms=10_000_000):
    """``sum_series`` as a straightforward numpy block loop.

    Same blocks (``block_ends``), stop rules and floating-point operations as
    the package kernel, written without in-place buffers.  The ratios come
    from separate numerator and denominator products, and both stop rules
    are checked at block ends only, the term test on a block's last three
    terms.
    """
    if not (rel_tol > 0.0):
        raise ConfigError(f"rel_tol must be positive, got {rel_tol!r}")
    if not _is_integer(max_terms) or max_terms < 1:
        raise ConfigError(f"max_terms must be an integer >= 1, got {max_terms!r}")

    k_term = spec.termination_index
    limit = int(max_terms) if k_term is None else min(k_term + 1, int(max_terms))
    min_stop, rounding = series._MIN_STOP_INDEX, series._SUM_ROUNDING
    uppers = np.asarray(spec.numerators, dtype=np.float64)
    lowers = np.asarray(spec.denominators + (1.0,), dtype=np.float64)

    # The margin and the tail belong to a non-terminating p = q + 1 series.
    tail_series = k_term is None and len(spec.numerators) == len(spec.denominators) + 1
    margin = 0.0
    if tail_series:
        margin = convergence_margin(spec)
        if margin <= 0.0:
            raise DivergenceError("diverges at unit argument")
        tail_at = _AsymptoticTail(spec, margin)

    total, comp, abs_sum = 1.0, 0.0, 1.0
    t_last = 1.0
    n_last = 0
    converged = False
    ends = []
    tail, drift = None, 0.0

    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for end in block_ends(limit):
            width = end - n_last
            idx = n_last + np.arange(width, dtype=np.float64)
            num = np.ones(width)
            for a in uppers:
                num *= a + idx
            den = np.ones(width)
            for b in lowers:
                den *= b + idx
            terms = t_last * np.cumprod(num / den)
            if not np.isfinite(terms[-1]):
                raise RangeError("series terms exceed binary64 range")
            abs_sum += float(np.sum(np.abs(terms)))
            total, comp = _accumulate(total, comp, float(np.sum(terms)))
            if not math.isfinite(total):
                raise RangeError("series sum exceeds binary64 range")
            t_last = float(terms[-1])
            n_last = end
            drift = 0.0
            if k_term is not None or n_last < min_stop:
                continue

            partial = total + comp
            if tail_series:
                tail = tail_at(t_last, n_last, rel_tol * abs(partial))
            last_three = np.abs(terms[-3:])
            small = width >= 3 and bool(np.all(last_three <= rel_tol * abs(partial)))
            if small and (tail is not None or not tail_series):
                converged = True
                break
            if tail is not None:
                value = partial + tail[0]
                ref = [e for e in ends if 2 * e[0] <= n_last]
                ends.append((n_last, value))
                if ref:
                    drift = abs(value - ref[-1][1])
                    if drift + tail[1] + rounding * abs_sum <= rel_tol * abs(value):
                        converged = True
                        break

    value, count = total + comp, n_last + 1
    if k_term is not None and count == k_term + 1:
        return SummationResult(value, count, SummationStatus.TERMINATED, rounding * abs_sum)

    status = SummationStatus.CONVERGED if converged else SummationStatus.MAX_TERMS_REACHED
    if tail is not None:
        value, error = value + tail[0], drift + tail[1]
    else:
        error = abs(t_last) * (n_last + 1) / margin if tail_series else abs(t_last)
    error += rounding * abs_sum
    return SummationResult(value, count, status, error)
