"""Independent test oracles.

The rational oracles sum terminating series exactly in Fraction arithmetic,
term by term from the definition.  They share no code with the package and
are deliberately naive: correctness over speed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


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
    term = Fraction(1)
    total = Fraction(1)
    for n in range(last):
        for a in numerators:
            term *= a + n
        for b in denominators:
            term /= b + n
        term /= n + 1
        total += term
    return total


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
