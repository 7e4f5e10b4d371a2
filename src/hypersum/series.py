"""Direct summation of generalized hypergeometric series at unit argument.

A series is described by its upper and lower parameter lists only; the n!
belonging to every hypergeometric term is implicit and applied inside the term
recurrence, never stored as a lower parameter.

The summation kernel runs the term recurrence

    t_0 = 1,   t_{n+1} = t_n * prod(a_i + n) / (prod(b_j + n) * (n + 1))

in numpy blocks with compensated (Neumaier) accumulation across blocks and
pairwise summation inside them.  A block skips the term test when each of its
|t_n| exceeds 2 rel_tol (|sum before it| + sum of its |t_n|), which bounds what
the test compares |t_n| with; no term there could pass, so the skip is exact.
For non-terminating series with p = q + 1 the terms decay like n^(-1-s),
where s is the convergence margin; the corrected value V(N) adds the
Euler-Maclaurin estimate of the omitted tail, which pushes the truncation
error from O(|t_N| * N / s) down to O(N^-(2+s)).  Without that correction a
margin-1/2 series would need ~1e19 terms to reach ten digits.

Because that remainder order is known, comparing V at two block ends gives a
Richardson estimate of the error of V(N).  The kernel stops once that estimate
meets the tolerance and returns the extrapolated value, so a margin-1/2 series
at rel_tol 1e-12 takes ~1.5e4 terms rather than running into the 1e7 budget.
``SummationResult.error_estimate`` reports that estimate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from collections.abc import Sequence

from .errors import ConfigError, DegenerateError, DivergenceError, DomainError, RangeError
from .specialfn import _is_integer, _is_nonpositive_integer

__all__ = [
    "SeriesSpec",
    "SummationResult",
    "SummationStatus",
    "convergence_margin",
    "sum_series",
    "DEFAULT_MAX_TERMS",
]

DEFAULT_MAX_TERMS = 10_000_000

_BLOCK_START = 1024
_BLOCK_MAX = 65536

# The stop rule ignores the first few terms: ratios of small parameters can sit
# near 1 early on and fake convergence when the margin is small.
_MIN_STOP_INDEX = 20

_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of a unit-argument pFq series.

    ``numerators`` are the upper parameters a_1..a_p, ``denominators`` the
    lower parameters b_1..b_q.  The implicit n! is not listed.  Lower
    parameters must avoid nonpositive integers, and p <= q + 1 is required for
    the series to converge or terminate at unit argument.
    """

    numerators: tuple[float, ...]
    denominators: tuple[float, ...]

    def __init__(self, numerators: Sequence[float], denominators: Sequence[float]):
        nums = tuple(float(a) for a in numerators)
        dens = tuple(float(b) for b in denominators)
        for v in nums + dens:
            if math.isnan(v) or math.isinf(v):
                raise DomainError(f"series parameters must be finite, got {v!r}")
        for b in dens:
            if _is_nonpositive_integer(b):
                raise DegenerateError(f"lower parameter {b!r} is a nonpositive integer")
        if len(nums) > len(dens) + 1:
            raise DomainError(
                f"p = {len(nums)} upper parameters need q >= p - 1 lower "
                f"parameters at unit argument, got q = {len(dens)}"
            )
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominators", dens)

    @property
    def order_p(self) -> int:
        return len(self.numerators)

    @property
    def order_q(self) -> int:
        return len(self.denominators)

    @property
    def termination_index(self) -> int | None:
        """Index k of the last nonzero term, or None if non-terminating."""
        hits = [int(-a) for a in self.numerators if _is_nonpositive_integer(a)]
        return min(hits) if hits else None


class SummationStatus(str, enum.Enum):
    CONVERGED = "Converged"
    TERMINATED = "Terminated"
    MAX_TERMS_REACHED = "MaxTermsReached"


@dataclass(frozen=True)
class SummationResult:
    """Outcome of :func:`sum_series`.

    ``error_estimate`` is the result's one error figure.  It estimates the
    error of the value before extrapolation: the tail-corrected value V(N),
    or the partial sum where no correction applies.  Where ``value`` is the
    extrapolation of V, it overstates the error of ``value`` (see
    :func:`sum_series`).
    """

    value: float
    terms_used: int
    status: SummationStatus
    error_estimate: float


def convergence_margin(spec: SeriesSpec) -> float:
    """Sum of lower parameters minus sum of upper parameters.

    For a non-terminating series with p = q + 1 the unit-argument series
    converges iff this margin is positive (terms decay like n^(-1-margin)).
    Series with p <= q converge regardless.  Raises RangeError where a
    parameter sum exceeds the binary64 range.
    """
    try:
        return math.fsum(spec.denominators) - math.fsum(spec.numerators)
    except OverflowError:  # fsum's intermediate overflow
        raise RangeError("parameter sum exceeds binary64 range") from None


def _term_shape_coefficient(spec: SeriesSpec) -> float:
    # First-order deviation of t_n from a pure power law:
    # t_n = K n^(-1-s) (1 + c1/n + ...) with c1 from the parameter moments.
    try:
        upper = math.fsum(a * a - a for a in spec.numerators)
        lower = math.fsum(b * b - b for b in spec.denominators)
    except OverflowError:  # fsum's intermediate overflow
        return math.inf
    return 0.5 * (upper - lower)


def _tail_correction(t_last: float, n_last: int, s: float, c1: float) -> float:
    # Euler-Maclaurin sum of K n^(-1-s) (1 + c1/n) over n > n_last, with K
    # inferred from the last computed term.
    m = n_last + 1.0
    base = t_last * (n_last / m) ** (1.0 + s) / (1.0 + c1 / n_last)
    zeta_head = m / s + 0.5 + (1.0 + s) / (12.0 * m)
    zeta_next = 1.0 / (1.0 + s) + 0.5 / m
    return base * (zeta_head + c1 * zeta_next)


def _early_tail_bound(t_abs, n, model_index: int, s: float):
    # Tail after t_n for n below the model index M: at most M - n terms past
    # their peak, each no larger than |t_n|, then the tail from M on, which
    # the model puts at |t_M| (M+1) / s / (1 + c1/M) with 1 / (1 + c1/M) <= 4/3.
    return t_abs * ((model_index - n) + 4.0 * (model_index + 1.0) / (3.0 * s))


def _accumulate(total: float, comp: float, x: float) -> tuple[float, float]:
    # Neumaier two-sum update.
    y = total + x
    if abs(total) >= abs(x):
        comp += (total - y) + x
    else:
        comp += (x - y) + total
    return y, comp


def sum_series(
    spec: SeriesSpec,
    rel_tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SummationResult:
    """Sum the series directly, term by term.

    Stops in one of four ways:

    * the series terminates (status ``Terminated``);
    * |t_n| <= rel_tol * |partial sum| for three consecutive indices n >= 20
      (status ``Converged``);
    * for a non-terminating p = q + 1 series, at a block end N where
      err(N) <= rel_tol * |V(N)|, with err(N) defined below (status
      ``Converged``);
    * at ``max_terms`` (status ``MaxTermsReached``).

    The terms of a non-terminating p = q + 1 series go like
    t_n ~ K n^(-1-s) (1 + c1/n).  That tail model needs 1 + c1/n to be near 1,
    so the tail correction and the check on err(N) wait for the model index
    M = max(20, 4 |c1|).  In a block that reaches M the term test waits for
    M, as those terms are computed anyway.  In a block that ends before M it
    stops only where the bound

        B(n) = |t_n| ((M - n) + 4 (M+1) / (3 s))

    on the uncorrected tail also meets rel_tol * |partial sum|; B counts the
    M - n terms up to M at |t_n| each and the model's tail from M on.
    ``value`` is then the partial sum alone and ``error_estimate`` is B(N).

    For non-terminating p = q + 1 series, V(N) is the partial sum up to t_N
    plus the Euler-Maclaurin estimate of the omitted tail.  Its remaining
    error is O(N^-(2+s)), so with the latest earlier block end N_ref <= N/2

        err(N) = |d| + N u |tail correction|,
        d      = (V(N) - V(N_ref)) / ((N/N_ref)^(2+s) - 1),

    where u is the unit roundoff and the second part bounds the rounding that
    t_N, a product of N ratios, passes on to the correction.  Whenever such
    an N_ref exists for the last summed index N, whichever rule stopped the
    sum, ``value`` is the Richardson extrapolation V(N) + d and
    ``error_estimate`` is err(N), an estimate of the error of V(N) that the
    extrapolation improves on.

    In the remaining cases ``value`` is V(N), or the partial sum alone for
    p <= q, and ``error_estimate`` falls back to a bound on the omitted tail:
    B(N) below M, the integral-comparison bound |t_N| (N+1) / s for p = q + 1
    series, and |t_N| for the rest.  For a terminated series it is 0.

    Raises ConfigError for a rel_tol that is not positive or a max_terms
    that is not an integer or is below 1, DivergenceError for a
    non-terminating p = q + 1 series whose convergence margin is not
    positive, and RangeError when a term exceeds the binary64 range or, for
    a non-terminating p = q + 1 series only, a parameter sum or the model
    index 4 |c1| does.
    """
    # Imported here so that callers which never sum, such as CLI calls that
    # end in a usage error or an n/a, do not pay numpy's import time.
    import numpy as np

    if not (rel_tol > 0.0):
        raise ConfigError(f"rel_tol must be positive, got {rel_tol!r}")
    if not _is_integer(max_terms):
        raise ConfigError(f"max_terms must be an integer, got {max_terms!r}")
    if max_terms < 1:
        raise ConfigError(f"max_terms must be >= 1, got {max_terms!r}")

    k_term = spec.termination_index
    limit = int(max_terms) if k_term is None else min(k_term + 1, int(max_terms))
    first_lower, *lowers = spec.denominators + (1.0,)

    # Only a non-terminating p = q + 1 series can diverge or needs a tail model.
    tail_series = k_term is None and spec.order_p == spec.order_q + 1
    margin, c1, model_index = 0.0, 0.0, 0
    if tail_series:
        margin = convergence_margin(spec)
        if margin <= 0.0:
            raise DivergenceError(
                f"non-terminating series with margin {margin:.6g} <= 0 diverges "
                "at unit argument"
            )
        c1 = _term_shape_coefficient(spec)
        if not math.isfinite(4.0 * c1):
            raise RangeError(f"tail shape coefficient c1={c1!r} exceeds binary64 range")
        # Index from which the tail model t_n ~ K n^(-1-s) (1 + c1/n) is used.
        model_index = max(_MIN_STOP_INDEX, math.ceil(4.0 * abs(c1)))
    lowest = min(spec.numerators + spec.denominators, default=math.inf)

    total, comp = 1.0, 0.0  # t_0
    t_last = 1.0
    count = 1
    # Term-test flags of the last two terms of the previous block.
    carry = (False, False)
    block = _BLOCK_START
    converged = False
    ends: list[tuple[int, float]] = []  # (N, V(N)) at block ends
    n_last, value, error = 0, 1.0, None

    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        while count < limit:
            width = min(block, limit - count)
            block = min(2 * block, _BLOCK_MAX)
            # Ratios t_{n+1}/t_n for n = count-1 .. count+width-2, built in
            # one buffer that then becomes the block's terms.  It starts from
            # idx + a_1, which is 1.0 * (idx + a_1) exactly.
            idx = np.arange(count - 1, count - 1 + width, dtype=np.float64)
            terms = idx + spec.numerators[0] if spec.numerators else np.ones(width)
            for a in spec.numerators[1:]:
                terms *= idx + a
            den = idx + first_lower
            for b in lowers:
                den *= idx + b
            terms /= den
            np.multiply.accumulate(terms, out=terms)
            terms *= t_last
            if not math.isfinite(terms[-1]):
                raise RangeError("series terms exceed binary64 range")

            if k_term is None:
                mags = np.abs(terms, out=den)
                # No flag can be set where every |t_n| exceeds fl(2 Y rel_tol),
                # Y = |total + comp| + fl(sum |t_n|): with w <= 2^16 terms the
                # scan's |partial sums| are at most (1 + 2^18 u) Y < 2 Y,
                # rounding is monotone and the masks only clear flags.  If 2 Y
                # overflows the bound is inf and the scan runs.  A one-term
                # block is the budget's last, so its carry is never read.
                if mags.min() > 2.0 * (abs(total + comp) + mags.sum()) * rel_tol:
                    carry = (False, False)
                else:
                    # rel_tol |partial sum| at each term.
                    scaled = np.add.accumulate(terms)
                    scaled += total + comp
                    np.abs(scaled, out=scaled)
                    scaled *= rel_tol
                    # Term-test flags after the two carried over from the last
                    # block, so one search finds a run of three wherever it starts.
                    flags = np.empty(width + 2, dtype=bool)
                    flags[:2] = carry
                    small = np.less_equal(mags, scaled, out=flags[2:])
                    if model_index - count >= width:
                        # No tail correction is applied below the model index, so
                        # a stop there must also bound the uncorrected tail.
                        first = _MIN_STOP_INDEX
                        # idx + 1 are the term indices, as floats: exact below
                        # 2^53, and M may be past the int64 range.
                        small &= _early_tail_bound(mags, idx + 1.0, model_index, margin) <= scaled
                    else:
                        # A block that reaches the model index waits for it: the
                        # terms are computed anyway, and the stop gets the correction.
                        first = max(_MIN_STOP_INDEX, model_index)
                    small[: max(first - count, 0)] = False
                    run = small & flags[1:-1]
                    run &= flags[:-2]
                    stop = int(run.argmax())
                    if run[stop]:
                        terms = terms[: stop + 1]
                        converged = True
                    carry = flags[-2:]

            total, comp = _accumulate(total, comp, float(terms.sum()))
            t_last = float(terms[-1])
            count += len(terms)
            n_last = count - 1
            value, error = total + comp, None
            if tail_series and n_last >= model_index and n_last + lowest > 1.0:
                # The reference is at most N/2, so the divisor is at least
                # 2^(2+s) - 1 > 3 and does not amplify rounding in V.  t_N
                # comes from N rounded products, so the correction scaled
                # from it carries a relative rounding error of up to ~N u.
                correction = _tail_correction(t_last, n_last, margin, c1)
                value += correction
                ref = next((e for e in reversed(ends) if 2 * e[0] <= n_last), None)
                ends.append((n_last, value))
                if ref is not None:
                    delta = (value - ref[1]) / ((n_last / ref[0]) ** (2.0 + margin) - 1.0)
                    error = abs(delta) + n_last * _UNIT_ROUNDOFF * abs(correction)
                    converged = converged or error <= rel_tol * abs(value)
                    value += delta
            if converged:
                break

    if k_term is not None and count == k_term + 1:
        return SummationResult(value, count, SummationStatus.TERMINATED, 0.0)

    status = SummationStatus.CONVERGED if converged else SummationStatus.MAX_TERMS_REACHED
    if error is None:
        if n_last < model_index:
            error = _early_tail_bound(abs(t_last), n_last, model_index, margin)
        elif tail_series:
            error = abs(t_last) * (n_last + 1) / margin
        else:
            error = abs(t_last)
    return SummationResult(value, count, status, error)
