"""Direct summation of generalized hypergeometric series at unit argument.

A series is described by its upper and lower parameter lists only; the n!
belonging to every hypergeometric term is implicit and applied inside the term
recurrence, never stored as a lower parameter.

The summation kernel runs the term recurrence

    t_0 = 1,   t_{n+1} = t_n * prod(a_i + n) / (prod(b_j + n) * (n + 1))

in blocks with compensated (Neumaier) accumulation across blocks and
pairwise summation inside them.  Every block is summed whole, and the stop
rules are checked at block ends only.  N, the one index the loop keeps, is
the last index summed; each block end doubles it from N = _BLOCK_START to
_BLOCK_MAX, then the ends are _BLOCK_MAX apart (512, 1024, ..., 65536,
131072, ... as set).  Each block takes its own running product of its
ratios t_{n+1}/t_n, times the term before it past t_0 = 1.  Where every
ratio of a block is positive, its terms share one sign and sum |t_n| is
taken from the block sum.  Two builders give a block the same bits.  numpy
calls form the ratios in spans, the first two blocks and then one each,
from idx and n + 1 as two slices of one index array n (the first span's
cached, read-only).  A plain-float loop, in numpy's order and with its
pairwise add.reduce, builds until numpy is loaded or _PLAIN_BUDGET terms
are built so; numpy is imported at that block end.

A non-terminating p = q + 1 series has terms decaying like n^(-1-s), s the
convergence margin; the kernel adds their asymptotic sum past N (DLMF 2.10),
t_N (N h(1/N) - 1), with h(u) = sum_k e_k u^k solved from the term ratio.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from collections.abc import Sequence

from .errors import ConfigError, DegenerateError, DivergenceError, DomainError, RangeError
from .specialfn import _is_nonpositive_integer, _require_finite, _require_integer

__all__ = [
    "SeriesSpec",
    "SummationResult",
    "SummationStatus",
    "convergence_margin",
    "sum_series",
    "DEFAULT_MAX_TERMS",
]

DEFAULT_MAX_TERMS = 10_000_000

_BLOCK_START = 512
_BLOCK_MAX = 65536

# The stop rule ignores the first few terms: ratios of small parameters can sit
# near 1 early on and fake convergence when the margin is small.
_MIN_STOP_INDEX = 20

_UNIT_ROUNDOFF = 2.0**-53

# Tail terms are checked against _TAIL_SHARE rel_tol |S_N|, at most _TAIL_TERMS of
# them; error_estimate adds _SUM_ROUNDING sum |t_n| for the rounding of S_N.
_TAIL_TERMS = 16
_TAIL_SHARE = 2.0**-6
_SUM_ROUNDING = 32.0 * _UNIT_ROUNDOFF
_BINOMIAL = [[float(math.comb(m, k)) for k in range(m + 1)] for m in range(_TAIL_TERMS)]

_FIRST_SPAN = None  # (numpy, n) for n <= 2 _BLOCK_START, read-only; set whole

# Blocks are built in plain floats until numpy is loaded or _PLAIN_BUDGET terms
# are built so: numpy's ~55 ms in a CLI call over 0.31-0.52 us per plain term.
_PLAIN_BUDGET = 2**17
_plain_built = 0


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of a unit-argument pFq series.

    ``numerators`` are the upper parameters a_1..a_p, ``denominators`` the
    lower parameters b_1..b_q; the implicit n! is not listed.  t_k is the last
    nonzero term for ``termination_index`` k, the least k with an upper -k
    (None if no upper is a nonpositive integer); a lower -m needs k <= m.
    p <= q + 1 is required to converge or terminate at unit argument.
    """

    numerators: tuple[float, ...]
    denominators: tuple[float, ...]

    def __init__(self, numerators: Sequence[float], denominators: Sequence[float]):
        try:
            nums = tuple(_require_finite("series parameter", a) for a in numerators)
            dens = tuple(_require_finite("series parameter", b) for b in denominators)
        except TypeError as err:  # a parameter list that is not iterable
            raise ConfigError(f"series parameter lists must be iterable ({err})") from None
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominators", dens)
        end = min((int(-a) for a in nums if _is_nonpositive_integer(a)), default=None)
        object.__setattr__(self, "termination_index", end)  # not a field: ==, hash, repr skip it
        for b in dens:
            if _is_nonpositive_integer(b) and (end is None or end > -b):
                raise DegenerateError(f"lower parameter {b!r} is a nonpositive integer")
        if len(nums) > len(dens) + 1:
            raise DomainError(
                f"p = {len(nums)} upper parameters need q >= p - 1 lower "
                f"parameters at unit argument, got q = {len(dens)}"
            )


class SummationStatus(str, enum.Enum):
    CONVERGED = "Converged"
    TERMINATED = "Terminated"
    MAX_TERMS_REACHED = "MaxTermsReached"


@dataclass(frozen=True)
class SummationResult:
    """Outcome of :func:`sum_series`; ``error_estimate`` estimates the error of ``value``."""

    value: float
    terms_used: int
    status: SummationStatus
    error_estimate: float


def _require_rel_tol(rel_tol: object) -> float:
    # nan skips the finiteness check, so that it fails the positivity test
    # with the same message as 0.
    value = rel_tol if rel_tol != rel_tol else _require_finite("rel_tol", rel_tol, ConfigError)
    if not (value > 0.0):
        raise ConfigError(f"rel_tol must be positive, got {rel_tol!r}")
    return value


def convergence_margin(spec: SeriesSpec) -> float:
    """Sum of lower parameters minus sum of upper parameters, correctly rounded.

    For a non-terminating series with p = q + 1 the unit-argument series
    converges iff this margin is positive (terms decay like n^(-1-margin)).
    Series with p <= q converge regardless.  Raises RangeError where a
    partial sum overflows.
    """
    try:
        return math.fsum((*spec.denominators, *map(operator.neg, spec.numerators)))
    except OverflowError:  # fsum's intermediate overflow
        raise RangeError("parameter sum exceeds binary64 range") from None


class _AsymptoticTail:
    """The tail t_N (N h(1/N) - 1) of a non-terminating p = q + 1 series,
    summed as -t_N plus T_k = t_N N e_k N^-k.  e_0..e_3, all a term-test stop
    usually needs, are written out; each later e_k is solved when first used.

    With P(u) = prod(1 + a_i u), Q(u) = prod(1 + b_j u) and g(u) = h(u/(1+u)),
    the ratio t_(N+1) / t_N = P(u) / ((1 + u) Q(u)), u = 1/N, gives h - (P/Q) g = u,
    that is Q h - P g = u Q.  With g_0 = e_0, g_m = e_m + B_m and
    g_{m+1} = e_{m+1} - m e_m - A_m, where A_m and B_m are the sums over
    k = 1..m-1 of (-1)^(m-k) e_k times C(m, k-1) and C(m-1, k-1), its u^(m+1)
    coefficient gives e_0 = 1/s and, for m >= 1 and as Q_1 - P_1 = s,
      (s + m) e_m = Q_m - A_m + P_1 B_m + sum_{j=2..m+1} (P_j g_{m+1-j} - Q_j e_{m+1-j}).
    """

    def __init__(self, spec: SeriesSpec, s: float):
        first = []
        for params in (spec.numerators, spec.denominators):
            c1 = c2 = c3 = c4 = 0.0
            for a in params:
                c1, c2, c3, c4 = c1 + a, c2 + a * c1, c3 + a * c2, c4 + a * c3
            first.append((c1, c2, c3, c4))
        (p1, p2, p3, p4), (q1, q2, q3, q4) = first
        e0 = 1.0 / s
        e1 = (q1 + (p2 - q2) * e0) / (s + 1.0)
        e2 = (q2 + (1.0 - p1 + p2 - q2) * e1 + (p3 - q3) * e0) / (s + 2.0)
        b3 = e1 - 2.0 * e2
        e3 = q3 - e1 + 3.0 * e2 + p1 * b3 + p2 * (e2 - e1) - q2 * e2
        e3 = (e3 + (p3 - q3) * e1 + (p4 - q4) * e0) / (s + 3.0)
        self._spec, self._s, self._p1 = spec, s, p1
        self._p, self._q = [p2, p3, p4], [q2, q3, q4] + [0.0] * _TAIL_TERMS
        self._e, self._g = [e0, e1, e2, e3], [e0, e1, e2 - e1, e3 + b3]
        self._alt = [-e1, e2, -e3]  # (-1)^k e_k for k >= 1

    def __call__(self, t_n: float, n: int, scale: float) -> tuple[float, float] | None:
        """(tail, error estimate), or None where the tail is unresolved: a term
        is not finite, or no k < _TAIL_TERMS has k >= 2 and |T_(k-1)|, |T_k| <=
        _TAIL_SHARE ``scale``.  T_k are summed through that pair (one e_k alone
        can be near zero where it changes sign); the estimate is their sum plus
        n u |tail|, the rounding passed on by t_n, a product of n ratios."""
        if t_n == 0.0:
            return 0.0, 0.0
        e, term, tail, last, floor = self._e, t_n * n, -t_n, math.inf, _TAIL_SHARE * scale
        for k in range(_TAIL_TERMS):
            if k == len(e):
                self._solve(k)
            step = term * e[k]
            tail, size = tail + step, abs(step)
            if size <= floor and last <= floor and k >= 2:
                error = size + last + n * _UNIT_ROUNDOFF * abs(tail)
                return (tail, error) if math.isfinite(tail) else None
            last, term = size, term / n
        return None

    def _solve(self, m: int) -> None:
        e, g, alt, spec = self._e, self._g, self._alt, self._spec
        if m == 4 and len(spec.numerators) > 4:  # P_j, Q_j past j = 4, from j = 2 on
            self._p, self._q = [], []
            for poly, params in ((self._p, spec.numerators), (self._q, spec.denominators)):
                poly += [1.0] + [0.0] * (len(params) + _TAIL_TERMS)
                for j, a in enumerate(params, 1):
                    for i in range(j, 0, -1):
                        poly[i] += a * poly[i - 1]
                del poly[:2]
        sign = -1.0 if m % 2 else 1.0
        a_m = sign * sum(map(operator.mul, _BINOMIAL[m], alt))
        b_m = sign * sum(map(operator.mul, _BINOMIAL[m - 1], alt))
        acc = self._q[m - 2] - a_m + self._p1 * b_m
        acc += sum(map(operator.mul, self._p, reversed(g)))
        acc -= sum(map(operator.mul, self._q, reversed(e)))
        e.append(acc / (self._s + m))
        g.append(e[m] + b_m)
        alt.append(-e[m] if m % 2 else e[m])


def _plain_terms(spec: SeriesSpec, start: int, width: int, t_last: float) -> list[float]:
    """t_(start+1)..t_(start+width) after t_start = t_last, bit for bit as a numpy block:
    ratios (numerators, lower parameters, n + 1, divide), running product, x t_last."""
    (a0, *upper), (b0, *lower) = spec.numerators or (None,), (*spec.denominators, 1.0)
    terms, t = [], 1.0
    for n in range(start, start + width):
        num, den = 1.0 if a0 is None else n + a0, n + b0
        for a in upper:
            num *= n + a
        for b in lower:
            den *= n + b
        t *= num / den if den else math.inf  # numpy's x / 0 is not finite either
        terms.append(t * t_last)
    return terms


def _pairwise(x: list[float], lo: int, n: int) -> float:
    """numpy's pairwise float64 sum of x[lo:lo+n]; np.add.reduce is 0.0 plus it."""
    if n < 8:
        return reduce(operator.add, x[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(operator.add, x[j:end:8]) for j in range(lo, lo + 8)]
        r = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(operator.add, x[end:lo + n], r)
    half = n // 2 - n // 2 % 8
    return _pairwise(x, lo, half) + _pairwise(x, lo + half, n - half)


def _plain_next() -> bool:  # build the next block in plain floats
    return _plain_built < _PLAIN_BUDGET and "numpy" not in sys.modules


def sum_series(
    spec: SeriesSpec,
    rel_tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SummationResult:
    """Sum the series directly, term by term.

    Builds blocks without numpy until numpy's import pays for itself (module
    docstring).  Stops when the series terminates (``Terminated``), at
    ``max_terms`` (``MaxTermsReached``), or ``Converged`` on one of two rules,
    checked for a non-terminating series at each block end N >= 20 (module
    docstring, or the budget), N the last index summed; ``terms_used`` = N + 1:

    * term test: the block's last three |t_n| are at most rel_tol |S_N|, S_N
      the partial sum; a block of fewer than three terms, only ever the
      budget's last, cannot stop on it;
    * block end, for a p = q + 1 series: err(N) = |V(N) - V(N_ref)| + E(N)
      <= rel_tol |V(N)|, N_ref <= N/2 the latest earlier block end with a
      resolved tail.  The first such N is 2 _BLOCK_START (1024), so no
      budget of 2 _BLOCK_START terms or less ends on this rule.

    V(N) is the partial sum S_N plus the tail (module docstring), summed by
    :class:`_AsymptoticTail` with scale rel_tol |S_N|; where it is unresolved
    at N, neither rule stops there.  E(N) is the tail's estimate plus
    32 u sum |t_n|, u the unit roundoff, for the rounding of S_N.  ``value``
    is V(N) at the last summed index N, or S_N where no tail is resolved
    there.  ``error_estimate`` is err(N) where formed at N, else E(N); without
    a tail, |t_N| (N+1) / s for a p = q + 1 series and |t_N| otherwise, plus
    32 u sum |t_n|; 32 u sum |t_n| alone once terminated.

    Raises ConfigError for a rel_tol that is not a positive finite number
    (RangeError past binary64) or a max_terms that is not an integer >= 1,
    DivergenceError for a non-terminating p = q + 1 series whose margin is
    not positive, and RangeError when a term, a partial sum, or for such a
    series a parameter sum, exceeds the binary64 range.
    """
    rel_tol = _require_rel_tol(rel_tol)
    max_terms = _require_integer("max_terms", max_terms, 1, ConfigError)

    k_term = spec.termination_index
    limit = max_terms - 1 if k_term is None else min(k_term, max_terms - 1)  # the last N

    # Only a non-terminating p = q + 1 series can diverge or needs a tail.
    tail_series = k_term is None and len(spec.numerators) == len(spec.denominators) + 1
    if tail_series:
        margin = convergence_margin(spec)
        if margin <= 0.0:
            msg = f"non-terminating series with margin {margin:.6g} <= 0 diverges at unit argument"
            raise DivergenceError(msg)
        tail_at = _AsymptoticTail(spec, margin)

    total, comp, abs_sum, t_last = 1.0, 0.0, 1.0, 1.0  # t_0; abs_sum is sum |t_n|
    n_last, converged = 0, False  # N, the last index summed
    ends: list[tuple[int, float]] = []  # (N, V(N)) at block ends with a resolved tail
    tail, drift = None, 0.0  # tail_at's result and |V(N) - V(N_ref)| at the last N
    low, ratios = min((*spec.numerators, *spec.denominators, 1.0)), ()  # ratios not yet used

    global _FIRST_SPAN, _plain_built
    np = None  # numpy, from this sum's first numpy block on
    try:
        while n_last < limit:
            # A block as wide as the index summed so far doubles the last end.
            width = min(max(n_last, _BLOCK_START), _BLOCK_MAX, limit - n_last)
            if _plain_next():  # false once numpy is loaded, as it is where np or _FIRST_SPAN is set
                terms = _plain_terms(spec, n_last, width, t_last)
                _plain_built += width
                block_sum, last = 0.0 + _pairwise(terms, 0, width), terms[-3:]
            else:
                if np is None:  # numpy's import waits for a process's first numpy block
                    if _FIRST_SPAN is None or len(_FIRST_SPAN[1]) <= 2 * _BLOCK_START:
                        import numpy as np
                        first = np.arange(2 * _BLOCK_START + 1, dtype=np.float64)
                        first.flags.writeable = False
                        _FIRST_SPAN = np, first
                    np, first = _FIRST_SPAN
                    errstate = np.errstate(all="ignore")
                    errstate.__enter__()
                if not len(ratios):
                    # Ratios t_{n+1}/t_n from n = N on, for the first two blocks at once from
                    # the cached n, later for one block; idx and n + 1 are slices of one n.
                    # The buffer starts from idx + a_1 (1.0 * (idx + a_1) exactly), lower 1 last.
                    if n_last:
                        span, n = width, np.arange(n_last, n_last + width + 1, dtype=np.float64)
                    else:
                        span, n = min(2 * _BLOCK_START, limit), first
                    idx, plus_one = n[:span], n[1:span + 1]
                    ratios = idx + spec.numerators[0] if spec.numerators else np.ones(len(idx))
                    for a in spec.numerators[1:]:
                        ratios *= idx + a
                    den = plus_one
                    if spec.denominators:
                        den = idx + spec.denominators[0]
                        for b in spec.denominators[1:]:
                            den *= idx + b
                        den *= plus_one
                    ratios /= den
                # The block's terms overwrite its own ratios.
                terms, ratios = ratios[:width], ratios[width:]
                np.multiply.accumulate(terms, out=terms)
                if t_last != 1.0:  # the first block follows t_0 = 1
                    terms *= t_last
                block_sum, last = float(terms.sum()), terms[-3:].tolist()
            if not math.isfinite(t_last := last[-1]):
                raise RangeError("series terms exceed binary64 range")
            # Past idx = -low every factor idx + a, so every ratio, is positive:
            # the terms share one sign, and |sum t_n| is sum |t_n| exactly.
            abs_sum += (abs(block_sum) if n_last + low > 0 else float(np.abs(terms).sum())
                        if np else 0.0 + _pairwise([*map(abs, terms)], 0, width))
            y = total + block_sum  # Neumaier's update of total + comp
            big, small = (total, block_sum) if abs(total) >= abs(block_sum) else (block_sum, total)
            total, comp = y, comp + ((big - y) + small)
            if not math.isfinite(total):
                raise RangeError("series sum exceeds binary64 range")
            n_last += width
            if k_term is not None or n_last < _MIN_STOP_INDEX:
                continue
            partial, drift = total + comp, 0.0
            scale = rel_tol * abs(partial)
            if tail_series:
                tail = tail_at(t_last, n_last, scale)
            if (width >= 3 and max(map(abs, last)) <= scale
                    and (tail is not None or not tail_series)):
                converged = True
                break
            if tail is None:
                continue
            value = partial + tail[0]
            ref = next((v for n, v in reversed(ends) if 2 * n <= n_last), None)
            ends.append((n_last, value))
            if ref is not None:
                drift = abs(value - ref)
                if drift + tail[1] + _SUM_ROUNDING * abs_sum <= rel_tol * abs(value):
                    converged = True
                    break
    finally:
        if np is not None:
            errstate.__exit__(None, None, None)

    value, error = total + comp, _SUM_ROUNDING * abs_sum
    if n_last == k_term:
        return SummationResult(value, n_last + 1, SummationStatus.TERMINATED, error)
    status = SummationStatus.CONVERGED if converged else SummationStatus.MAX_TERMS_REACHED
    if tail is not None:
        value, error = value + tail[0], error + (drift + tail[1])
    else:
        error += abs(t_last) * (n_last + 1) / margin if tail_series else abs(t_last)
    return SummationResult(value, n_last + 1, status, error)
