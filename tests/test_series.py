"""Summation kernel tests, anchored to the exact-rational oracle."""

import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypersum import series
from hypersum.errors import (
    ConfigError,
    DegenerateError,
    DivergenceError,
    DomainError,
    HypersumError,
    RangeError,
)
from hypersum.series import (
    DEFAULT_MAX_TERMS,
    SeriesSpec,
    SummationStatus,
    convergence_margin,
    sum_series,
)
from hypersum.specialfn import _is_nonpositive_integer
from hypersum.theorems import gauss_2f1
from hypersum.verify import IdentityCase, IdentityId, _summation_rel_tol, builtin_catalog

from oracles import (
    block_ends,
    random_terminating_spec,
    rational_abs_term_sum,
    rational_terminating_sum,
    reference_sum_series,
)

# 50-digit references, regenerate with scripts/gen_reference_values.py
RAMANUJAN_INVERSE = 1.3110287771460598  # 2F1(1/2, 1/4; 5/4; 1)
FOUR_OVER_PI = 4.0 / math.pi


def _first_end(at_least=0):
    # The kernel's first block end N >= at_least.
    return next(n for n in block_ends() if n >= at_least)


# The first two block ends, N1 = _BLOCK_START and N2 = 2 N1 (512 and 1024 at
# the kernel's sizes).  N2 is the first end with an earlier one at N/2 or
# below, so the first at which the block-end rule can stop.
_N1 = _first_end()
_N2 = _first_end(2 * _N1)


def _term_test_end(spec, rel_tol):
    # The first block end whose last three |t_n| are at most rel_tol |S_N|,
    # from the terms summed one at a time.
    for end in block_ends():
        ts = _terms_and_sums(spec, end)
        if max(abs(t) for t, _ in ts[-3:]) <= rel_tol * abs(ts[-1][1]):
            return end


class TestSeriesSpec:
    def test_margin_examples(self):
        assert convergence_margin(SeriesSpec((0.5, 0.25), (1.25,))) == pytest.approx(0.5)
        assert convergence_margin(SeriesSpec((0.7,), (0.7,))) == 0.0
        spec = SeriesSpec((0.5, 0.5, 0.25), (1.25, 1.25))
        assert convergence_margin(spec) == pytest.approx(1.25)

    def test_termination_index(self):
        assert SeriesSpec((-3.0, 2.0), (5.0,)).termination_index == 3
        assert SeriesSpec((-3.0, -7.0), (5.0,)).termination_index == 3
        assert SeriesSpec((0.5,), (5.0,)).termination_index is None
        assert SeriesSpec((0.0, 2.0), (5.0,)).termination_index == 0

    def test_termination_index_matches_a_rescan(self):
        # The index stored at construction against the numerators rescanned.
        rng = random.Random(20261020)
        pool = (0.0, -0.0, -1e16, -1.0, -7.0, -4096.0, -2.5, 0.5, 3.0, 1e16)
        for _ in range(500):
            nums = [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-9.0, 9.0)
                    for _ in range(rng.randint(0, 4))]
            spec = SeriesSpec(nums, [rng.uniform(0.1, 9.0) for _ in range(len(nums))])
            rescan = min((int(-a) for a in spec.numerators if a <= 0.0 and a == math.floor(a)),
                         default=None)
            assert spec.termination_index == rescan, spec

    def test_stored_termination_index_is_not_a_field(self):
        spec = SeriesSpec((-3.0, 2.0), (5.0,))
        assert [field.name for field in dataclasses.fields(SeriesSpec)] == [
            "numerators", "denominators"
        ]
        assert repr(spec) == "SeriesSpec(numerators=(-3.0, 2.0), denominators=(5.0,))"
        assert spec == SeriesSpec((-3.0, 2.0), (5.0,)) != SeriesSpec((-4.0, 2.0), (5.0,))
        assert hash(spec) == hash(((-3.0, 2.0), (5.0,)))
        copied = pickle.loads(pickle.dumps(spec))
        assert copied == spec and repr(copied) == repr(spec)
        assert copied.termination_index == 3

    def test_nonpositive_integer_denominator_rejected(self):
        with pytest.raises(DegenerateError):
            SeriesSpec((0.5,), (-2.0,))
        with pytest.raises(DegenerateError):
            SeriesSpec((0.5,), (0.0,))
        # -3 ends the series at n = 3, but (-2)_3 = 0 already.
        with pytest.raises(DegenerateError, match="lower parameter -2.0"):
            SeriesSpec((-3.0, 0.5), (-2.0,))
        with pytest.raises(DegenerateError, match="lower parameter -1.0"):
            SeriesSpec((-2.0, 0.5), (-5.0, -1.0))

    def test_upper_ending_first_allows_nonpositive_integer_denominator(self):
        # Upper -k with k <= m ends the series at n = k, before (-m)_n vanishes.
        # 2F1(-2, 1/2; -5; 1) = 1 + 1/10 + 3/20 = 99/80, and at m = k the
        # sum is 1 + 1/2 + 3/8 = 15/8.
        for lower, exact in ((-5.0, Fraction(99, 80)), (-2.0, Fraction(15, 8))):
            spec = SeriesSpec((-2.0, 0.5), (lower,))
            result = sum_series(spec)
            assert result.status is SummationStatus.TERMINATED
            assert result.terms_used == 3
            assert result.value == float(exact)
            oracle = rational_terminating_sum([Fraction(-2), Fraction(1, 2)], [Fraction(lower)])
            assert oracle == exact

    @pytest.mark.parametrize("uppers,lowers", [
        ((math.nan,), (1.5,)), ((0.5, math.inf), (1.5,)), ((0.5,), (-math.inf,)),
    ])
    def test_non_finite_parameter_rejected(self, uppers, lowers):
        with pytest.raises(DomainError, match="must be finite"):
            SeriesSpec(uppers, lowers)

    def test_too_many_upper_parameters_rejected(self):
        with pytest.raises(DomainError):
            SeriesSpec((0.5, 0.5, 0.5), (1.0,))

    def test_immutably_normalized(self):
        spec = SeriesSpec([1, 2], [3])
        assert spec.numerators == (1.0, 2.0)
        assert spec.denominators == (3.0,)


class TestTermination:
    def test_vandermonde_value(self):
        # 2F1(-3, 2; 5; 1) = (3)_3/(5)_3 = 2/7, checkable by hand, as
        # 1 - 6/5 + 3/5 - 4/35; the estimate is the rounding part alone,
        # 32 u sum |t_n| with sum |t_n| = 102/35.
        result = sum_series(SeriesSpec((-3.0, 2.0), (5.0,)), rel_tol=1e-6)
        assert result.status is SummationStatus.TERMINATED
        assert result.terms_used == 4
        assert result.error_estimate == pytest.approx(series._SUM_ROUNDING * 102 / 35)
        assert abs(Fraction(result.value) - Fraction(2, 7)) <= result.error_estimate
        assert result.value == pytest.approx(2.0 / 7.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize("k", [0, 1, 5, 8])
    def test_terminating_counts(self, k):
        result = sum_series(SeriesSpec((-float(k), 1.3), (2.2, 0.7)), rel_tol=1e-10)
        assert result.status is SummationStatus.TERMINATED
        assert result.terms_used == k + 1
        exact = rational_terminating_sum([Fraction(-k), Fraction(1.3)],
                                         [Fraction(2.2), Fraction(0.7)])
        assert 0.0 < result.error_estimate
        assert abs(Fraction(result.value) - exact) <= result.error_estimate

    def test_error_estimate_bounds_the_exact_error(self):
        # Each terminating sum against its exact rational value, with
        # termination indices on both sides of _PLAIN_TERMS and up to 600,
        # parameters in [-50, 50], and every other draw near-cancelling: a
        # lower parameter within 1e-3 of an upper one; 37 of the 151 values
        # are off by more than 1e-3 relative.  The first spec sums to
        # (-37.25)_60 / (3.25)_60 ~ 1.1e-22, its value to 5.9e19.
        rng = random.Random(20261021)
        specs = [SeriesSpec((-60.0, 40.5), (3.25,))]
        bands = ((0, series._PLAIN_TERMS - 1), (series._PLAIN_TERMS, 200), (201, 600))
        for i in range(150):
            p = rng.randint(1, 3)
            nums = [-float(rng.randint(*bands[i % 3]))]
            nums += [rng.uniform(-50.0, 50.0) for _ in range(p - 1)]
            dens = [rng.uniform(-50.0, 50.0) for _ in range(rng.randint(max(p - 1, 1), p))]
            if i % 2 and p > 1:
                dens[0] = nums[1] + rng.uniform(-1e-3, 1e-3)
            rng.shuffle(nums)
            specs.append(SeriesSpec(nums, dens))
        short = 0
        for spec in specs:
            result = sum_series(spec)
            short += result.terms_used <= series._PLAIN_TERMS
            assert result.status is SummationStatus.TERMINATED
            exact = rational_terminating_sum([Fraction(a) for a in spec.numerators],
                                             [Fraction(b) for b in spec.denominators])
            assert abs(Fraction(result.value) - exact) <= result.error_estimate, spec
        assert 40 <= short <= 60

    def test_oracle_agreement_50_random_specs(self):
        rng = random.Random(20260810)
        for _ in range(50):
            nums, dens = random_terminating_spec(rng)
            exact = float(rational_terminating_sum(nums, dens))
            spec = SeriesSpec([float(a) for a in nums], [float(b) for b in dens])
            got = sum_series(spec, rel_tol=1e-10).value
            # some alternating sums cancel exactly to zero (e.g. (1-1)^k);
            # scale the comparison by the term magnitudes then
            scale = max(abs(exact), float(rational_abs_term_sum(nums, dens)))
            assert abs(got - exact) <= 1e-13 * scale, (nums, dens)


class TestConvergence:
    def test_gauss_value_at_margin_half(self):
        result = sum_series(SeriesSpec((0.5, 0.25), (1.25,)), rel_tol=1e-12)
        assert abs(result.value - RAMANUJAN_INVERSE) <= 1e-10 * RAMANUJAN_INVERSE

    def test_compensation_invariant(self):
        # ~1e5 slowly decaying terms must still land within 1e-11 of 4/pi
        result = sum_series(SeriesSpec((0.5, 0.5), (2.0,)), rel_tol=1e-12)
        assert result.status is SummationStatus.CONVERGED
        assert abs(result.value - FOUR_OVER_PI) <= 1e-11 * FOUR_OVER_PI

    def test_monotone_refinement(self):
        for nums, dens in [
            ((0.5, 0.5, 0.25), (1.0, 1.25)),
            ((0.5, 0.25), (1.25,)),
            ((0.5, 0.5), (2.0,)),
        ]:
            spec = SeriesSpec(nums, dens)
            loose = sum_series(spec, rel_tol=1e-8)
            tight = sum_series(spec, rel_tol=1e-12)
            bound = loose.error_estimate + 10.0 * 1e-8 * abs(tight.value)
            assert abs(loose.value - tight.value) <= bound

    def test_exponential_type_series(self):
        # p = q: margin rule does not apply; sum is exp(1)
        result = sum_series(SeriesSpec((0.5,), (0.5,)), rel_tol=1e-12)
        assert result.status is SummationStatus.CONVERGED
        assert result.value == pytest.approx(math.e, rel=1e-13, abs=0)

    def test_stop_rule_waits_for_index_20(self):
        result = sum_series(SeriesSpec((0.5,), (0.5,)), rel_tol=1e-3)
        assert result.terms_used >= 22

    def test_max_terms_cap(self):
        # A budget of at most N2 terms leaves no block end N_ref <= N/2.
        budget = _N2 - 24
        result = sum_series(SeriesSpec((0.5, 0.25), (1.25,)), rel_tol=1e-12, max_terms=budget)
        assert result.status is SummationStatus.MAX_TERMS_REACHED
        assert result.terms_used == budget
        assert result.error_estimate > 0.0


class TestBlockEndStop:
    def test_value_beats_the_tolerance(self):
        # The stop rule fires at err(N) <= 1e-10, and err(N) is mostly the
        # error of V(N_ref); V(N) itself is far better.
        result = sum_series(SeriesSpec((0.5, 0.25), (1.25,)), rel_tol=1e-10)
        assert result.status is SummationStatus.CONVERGED
        assert result.terms_used <= 10_000
        actual = abs(result.value - RAMANUJAN_INVERSE)
        assert actual <= 1e-13 * RAMANUJAN_INVERSE
        assert actual <= result.error_estimate <= 1e-10 * result.value

    def test_error_estimate_is_far_below_tail_bound(self):
        result = sum_series(SeriesSpec((0.5, 0.5), (2.0,)), rel_tol=1e-12)
        assert result.error_estimate <= 1e-12 * result.value
        assert abs(result.value - FOUR_OVER_PI) <= result.error_estimate

    @pytest.mark.parametrize(
        "max_terms", [21, _N1 + 1, _N1 + 2, (_N1 + _N2) // 2, _N2 - 1, _N2]
    )
    def test_budget_of_at_most_1024_terms_is_not_converged(self, max_terms):
        # Block ends fall at N1 and at the budget, N = max_terms - 1 < N2, so
        # no block end has an earlier one at N/2 or below to stop on.  The
        # term test needs ~1e9 terms here.
        result = sum_series(SeriesSpec((0.5, 0.25), (1.25,)), rel_tol=1e-13, max_terms=max_terms)
        assert result.status is SummationStatus.MAX_TERMS_REACHED
        assert result.terms_used == max_terms
        assert abs(result.value - RAMANUJAN_INVERSE) <= result.error_estimate

    def test_first_block_end_stop_is_at_1025_terms(self):
        # N2 is the first end with an earlier one at N/2: N1.
        result = sum_series(SeriesSpec((0.5, 0.25), (1.25,)), rel_tol=1e-13, max_terms=_N2 + 1)
        assert result.status is SummationStatus.CONVERGED
        assert result.terms_used == _N2 + 1
        assert abs(result.value - RAMANUJAN_INVERSE) <= result.error_estimate

    def test_error_estimate_covers_rounding_of_last_term(self):
        # At margin 0.05 and rel_tol 1e-14 the sum never stops, and t_N after
        # ~1.3e5 rounded products is off by enough that the error (~4e-11)
        # exceeds |V(N) - V(N_ref)| alone, N_ref the latest end at most N/2
        # (65,536).
        spec = SeriesSpec((1.0, 1.0), (2.05,))
        *ends, n = block_ends(131_074)
        n_ref = max(end for end in ends if 2 * end <= n)
        result = sum_series(spec, rel_tol=1e-14, max_terms=131_074)
        error = abs(result.value - gauss_2f1(1.0, 1.0, 2.05))
        assert result.status is SummationStatus.MAX_TERMS_REACHED
        reference = sum_series(spec, rel_tol=1e-14, max_terms=n_ref + 1).value
        assert error > abs(result.value - reference)
        assert error <= result.error_estimate

    @pytest.mark.parametrize("c", [171, 1001, 5000])
    def test_large_lower_parameter_stops_on_the_term_test(self, c):
        # The tail's coefficients grow like c^k, but the terms fall like
        # n!/(c)_n, so at the term test t_N is far below the floor the tail
        # terms are checked against, and the stop comes at the first block end.
        result = sum_series(SeriesSpec((0.5, 0.5), (float(c),)), rel_tol=1e-12)
        assert result.status is SummationStatus.CONVERGED
        assert result.terms_used == _N1 + 1
        assert result.value == pytest.approx(_gauss_half_half(c), rel=1e-14, abs=0)

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("a,b,c", [(11, 12, 32), (6, 7, 20)])
    def test_stop_before_tail_model_bounds_the_tail(self, a, b, c, rel_tol):
        # Parameters of 20-32 make the tail coefficients grow fast, and the
        # term test can fire at a few hundred terms, where the tail needs
        # several of them.
        f = math.factorial
        exact = f(c - 1) * f(c - a - b - 1) / (f(c - a - 1) * f(c - b - 1))
        result = sum_series(SeriesSpec((a, b), (c,)), rel_tol=rel_tol)
        assert result.status is SummationStatus.CONVERGED
        error = abs(result.value - exact)
        assert error <= rel_tol * exact
        assert error <= result.error_estimate


def _mp_hyper(uppers, lowers):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return mpmath.hyper(uppers, lowers, 1)


def _gauss_mp(a, b, c):
    # 2F1(a, b; c; 1) by Gauss's theorem, at 30 digits.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        return mpmath.gamma(c) * mpmath.gamma(c - a - b) / (mpmath.gamma(c - a) * mpmath.gamma(c - b))


class TestHardCases:
    """Small margins, large parameters and tight tolerances against 30-digit
    mpmath.hyper: each ends ``Converged`` within its own error estimate."""

    @pytest.mark.parametrize(
        "uppers,lowers,rel_tol,max_terms,max_error",
        [
            # A term-test stop the first-order tail put at error 1.87e-8.
            ((12.0, 12.0), (28.0,), 1e-8, 3_073, 1e-13),
            ((8.0, 13.0), (26.0,), 1e-8, _N2 + 1, 1e-13),
            ((200.0, 0.5, 0.5), (201.0, 1.05), 1e-12, 3_073, 1e-14),
            # Margin 0.05, which ran the whole 1e7-term budget.
            ((0.5, 0.45), (1.0,), 1e-12, 3_073, 1e-13),
            # eq1.3 at a tolerance near the rounding floor.
            ((0.5, 0.25), (1.25,), 1e-14, 3_073, 1e-15),
            # Parameters of 50-110: the tail resolves from N = 4096 on.
            ((50.0, 60.0), (110.5,), 1e-12, 15_361, 1e-14),
            # Margin 0.05 at the rounding floor, which ran the whole budget while
            # the first block-end stop was at N = 3,072: N u |tail| in err(N)
            # exceeded rel_tol |V| from there on.  It stops at N2 (1,024).
            ((0.5, 0.45), (1.0,), 1e-13, _N2 + 1, 2e-14),
        ],
    )
    def test_against_mpmath(self, uppers, lowers, rel_tol, max_terms, max_error):
        result = sum_series(SeriesSpec(uppers, lowers), rel_tol=rel_tol)
        want = _mp_hyper(uppers, lowers)
        error = abs(result.value - want)
        assert result.status is SummationStatus.CONVERGED
        assert result.terms_used <= max_terms
        assert error <= result.error_estimate <= rel_tol * abs(result.value)
        assert error <= max_error * abs(want)

    def test_unresolved_candidate_passes_the_block_on(self):
        # At rel_tol 1e-3 the terms pass the test from near n = 20 on, where
        # the tail's e_k ~ 200^k leave it unresolved: its T_k fall like
        # (200/N)^k.  The test is checked at block ends only, and the tail is
        # resolved at the first one past 200.
        spec = SeriesSpec((200.0, 0.5, 0.5), (201.0, 1.05))
        result = sum_series(spec, rel_tol=1e-3)
        want = _mp_hyper(spec.numerators, spec.denominators)
        assert result == reference_sum_series(spec, rel_tol=1e-3)
        assert result.status is SummationStatus.CONVERGED
        assert result.terms_used == _first_end(200) + 1
        assert abs(result.value - want) <= result.error_estimate <= 1e-3 * abs(result.value)

    def test_eq2_8_at_p_11(self):
        # The first-order tail divided by 1 + c1/N with c1 = -58.88 at the
        # term-test stop N = 59.
        spec = IdentityCase(IdentityId.EQ_2_8, {"p": 11, "f1": 3.47, "f2": 3.77}).spec
        result = sum_series(spec, rel_tol=1e-12)
        want = _mp_hyper(spec.numerators, spec.denominators)
        assert result.status is SummationStatus.CONVERGED
        assert abs(result.value - want) <= result.error_estimate <= 1e-12 * abs(result.value)

    def test_error_estimate_states_the_error(self):
        # A stop at the first block end whose last three terms pass, or at N2
        # where the block-end rule can stop if that comes first (both 1,024),
        # with the tail ~70% of the value: the estimate is of the value's
        # error, not of rel_tol.
        spec = SeriesSpec((1.0, 1.0), (2.05,))
        result = sum_series(spec, rel_tol=2e-4)
        error = abs(result.value - _gauss_mp(1.0, 1.0, 2.05))
        assert result.status is SummationStatus.CONVERGED
        assert result.terms_used == min(_term_test_end(spec, 2e-4), _N2) + 1
        assert error <= result.error_estimate <= 1e-12 * result.value


@st.composite
def _positive_cases(draw):
    # Non-cancelling specs with known sums: 2F1(a, b; c) and the contiguous
    # 3F2(a, b, e + 1; d, e), both by Gauss's theorem, with margins 0.05-4,
    # and p <= q series for mpmath.hyper.
    param = st.floats(0.05, 8.0)
    a, b = draw(param), draw(param)
    margin = draw(st.floats(0.05, 4.0))
    rel_tol = 10.0 ** -draw(st.floats(3.0, 14.0))
    kind = draw(st.sampled_from(["2F1", "3F2", "p<=q"]))
    if kind == "2F1":
        c = a + b + margin
        return (a, b), (c,), rel_tol, lambda: _gauss_mp(a, b, c)
    if kind == "3F2":
        e = draw(param)
        d = a + b + 1.0 + margin

        def want():
            mpmath = pytest.importorskip("mpmath")
            with mpmath.workdps(30):
                ratio = mpmath.mpf(a) * b / (mpmath.mpf(e) * d)
                return _gauss_mp(a, b, d) + ratio * _gauss_mp(a + 1, b + 1, d + 1)

        return (a, b, e + 1.0), (d, e), rel_tol, want
    p = draw(st.integers(1, 3))
    uppers = tuple(draw(st.lists(param, min_size=p, max_size=p)))
    lowers = tuple(draw(st.lists(param, min_size=p, max_size=p + 1)))
    return uppers, lowers, rel_tol, lambda: _mp_hyper(uppers, lowers)


@given(_positive_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_value_is_within_its_error_estimate(case):
    uppers, lowers, rel_tol, want = case
    result = sum_series(SeriesSpec(uppers, lowers), rel_tol=rel_tol)
    if result.status is SummationStatus.CONVERGED:
        assert abs(result.value - want()) <= result.error_estimate, result


def _outcome(kernel, spec, rel_tol, max_terms):
    # The result's repr shows every field exactly; an error shows its type.
    try:
        result = kernel(spec, rel_tol=rel_tol, max_terms=max_terms)
    except HypersumError as err:
        return type(err).__name__, ""
    return result.status.value, repr(result)


def _random_kernel_spec(rng: random.Random) -> SeriesSpec:
    # Mostly convergent p = q + 1 series with margins 0.05-8, plus p <= q
    # series, terminating ones, large parameters (tail unresolved through
    # the first blocks), divergent ones and ones whose terms overflow.
    p = rng.randint(1, 4)
    spread = 40.0 if rng.random() < 0.1 else 6.0
    nums = [rng.uniform(-4.0, spread) for _ in range(p)]
    kind = rng.random()
    if kind < 0.6:
        p = max(p, 2)
        nums = (nums + [rng.uniform(0.1, spread)])[:p]
        dens = [rng.uniform(-3.5, spread) for _ in range(p - 2)]
        margin = rng.uniform(0.05, 8.0) if kind > 0.02 else -rng.uniform(0.0, 1.0)
        dens.append(math.fsum(nums) - math.fsum(dens) + margin)
    else:
        dens = [rng.uniform(-3.5, spread) for _ in range(rng.randint(p, p + 1))]
    if rng.random() < 0.15:
        nums[0] = -float(rng.randint(0, 5000))
    if rng.random() < 0.02:
        nums[-1] = 1e200
    return SeriesSpec(nums, dens)


def test_block_ends_at_the_kernel_sizes():
    # The one test that states the kernel's block sizes, 512 and 65536, as
    # numbers; the others place their stops and budgets through block_ends.
    assert list(itertools.islice(block_ends(), 10)) == [
        512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 196608
    ]
    assert list(block_ends(1000)) == [512, 999]
    assert list(block_ends(1)) == []


class TestKernelMatchesReference:
    """The in-place block kernel against the plain block loop, bit for bit.

    The seeded specs and the parameters below -500 are compared at three
    first-block sizes, so that kernel and loop agree at any block geometry."""

    BLOCK_STARTS = (512, 32, 1024)

    def test_seeded_specs(self, monkeypatch):
        for start in self.BLOCK_STARTS:
            monkeypatch.setattr(series, "_BLOCK_START", start)
            rng = random.Random(20261018)
            # Budgets around the first two block ends; N2 - 24 and N2 end
            # inside the first span of ratios, which covers the first two
            # blocks.
            n1, n2 = itertools.islice(block_ends(), 2)
            budgets = (1, 2, 50, n1, n1 + 1, n1 + 2, n2 - 24, n2, n2 + 1, n2 + 2, 70_000)
            outcomes = set()
            for _ in range(2400):
                try:
                    spec = _random_kernel_spec(rng)
                except DegenerateError:
                    continue
                rel_tol = 10.0 ** -rng.uniform(6.0, 13.0)
                budget = rng.choice(budgets)
                want = _outcome(reference_sum_series, spec, rel_tol, budget)
                got = _outcome(sum_series, spec, rel_tol, budget)
                assert got == want, (start, spec, rel_tol, budget)
                outcomes.add(want[0])
            # Every way out of the kernel was exercised.
            assert outcomes == {
                "Converged", "Terminated", "MaxTermsReached", "RangeError", "DivergenceError"
            }, start

    def test_first_span_indices_follow_the_block_start(self, monkeypatch):
        # The cached first-span indices n and n + 1 cover the first two
        # blocks at each size, grow with _BLOCK_START, and stay read-only.
        np = pytest.importorskip("numpy")
        monkeypatch.setattr(series, "_FIRST_SPAN", None)
        spec = SeriesSpec((0.5, 0.25), (1.25,))
        for start in (*self.BLOCK_STARTS, 512):
            monkeypatch.setattr(series, "_BLOCK_START", start)
            assert sum_series(spec) == reference_sum_series(spec)
            handle, idx, plus_one = series._FIRST_SPAN
            assert handle is np and len(idx) >= 2 * start
            assert np.array_equal(idx, np.arange(len(idx), dtype=np.float64))
            assert np.array_equal(plus_one, np.arange(len(idx), dtype=np.float64) + 1)
            assert not idx.flags.writeable and not plus_one.flags.writeable

    @pytest.mark.parametrize("max_terms", [600, _N2 - 24, _N2, _N2 + 1, 70_000])
    @pytest.mark.parametrize("spec", [
        SeriesSpec((0.5, -600.5), (-599.75,)),
        SeriesSpec((-1000.25,), (-999.5, 1.5)),
        SeriesSpec((0.5, -1050.5), (-1049.75,)),
    ], ids=["sign-change-at-600", "p<q", "sign-change-at-1050"])
    def test_parameters_below_minus_500(self, monkeypatch, spec, max_terms):
        # The terms change sign up to index -min(params), inside the second
        # or third block at the kernel's sizes, so sum |t_n| is summed term
        # by term there and taken from the block sum only past it.  The first
        # spec runs to 16,385 terms, the third to the budget.
        for start in self.BLOCK_STARTS:
            monkeypatch.setattr(series, "_BLOCK_START", start)
            want = _outcome(reference_sum_series, spec, 1e-12, max_terms)
            assert _outcome(sum_series, spec, 1e-12, max_terms) == want, start

    @pytest.mark.parametrize("first_small", [_N1 - 3, _N1 - 2, _N1 - 1, _N1,
                                             _N2 - 3, _N2 - 2, _N2 - 1, _N2])
    def test_three_in_a_row_across_a_block_end(self, first_small):
        # The first two blocks hold t_1..t_N1 and t_(N1+1)..t_N2.  Pick
        # rel_tol so that the term test first holds at n = first_small, just
        # before the block end N1 or N2.  The sum stops at the first end N
        # that closes a block of three terms or more with N - 2 >= first_small
        # (the term test), or at the first end from N2 on (the block-end
        # rule, N_ref = N1).  So where the block's last three terms pass, the
        # sum stops at its end; where a run of three crosses N1, at N2; and
        # where it crosses N2, the block-end rule stops at N2.  With
        # max_terms = first_small + 3 the budget ends a block of N1 - 1 or
        # N1 terms, or a next block of one or two terms, too narrow for the
        # term test.
        spec = SeriesSpec((0.5, 0.5), (2.5,))
        term, total = 1.0, 1.0
        ratios = []
        for n in range(first_small + 2):
            term *= (0.5 + n) * (0.5 + n) / ((2.5 + n) * (n + 1.0))
            total += term
            ratios.append(term / total)
        rel_tol = ratios[first_small - 1] * (1.0 + 1e-9)
        assert ratios[first_small - 2] > rel_tol
        for max_terms in (DEFAULT_MAX_TERMS, first_small + 3):
            terms, converged, before = max_terms, False, 0
            for end in block_ends(max_terms):
                if end >= _N2 or (end - before >= 3 and end - 2 >= first_small):
                    terms, converged = end + 1, True
                    break
                before = end
            want = reference_sum_series(spec, rel_tol=rel_tol, max_terms=max_terms)
            assert want.terms_used == terms
            assert (want.status is SummationStatus.CONVERGED) == converged
            assert sum_series(spec, rel_tol=rel_tol, max_terms=max_terms) == want

    @pytest.mark.parametrize("max_terms", [300_000, 195_585])
    def test_reference_is_not_the_previous_end(self, max_terms):
        # Margin 0.05 at rel_tol 1e-14 never stops, and runs past the
        # 65,536-term blocks.  At the budget's last end, N = 299,999 or
        # 195,584, the reference is 131,072 or 65,536, the latest end at most
        # N/2, not the previous end 262,144 or 131,072.
        *ends, n = block_ends(max_terms)
        assert max(end for end in ends if 2 * end <= n) != ends[-1]
        spec = SeriesSpec((1.0, 1.0), (2.05,))
        want = reference_sum_series(spec, rel_tol=1e-14, max_terms=max_terms)
        assert want.status is SummationStatus.MAX_TERMS_REACHED
        assert sum_series(spec, rel_tol=1e-14, max_terms=max_terms) == want

    def test_unresolved_tails_at_early_ends(self):
        # Parameters of 50-110 leave the tail unresolved at every block end
        # below 4,096, so neither rule stops there.  The first end with a
        # resolved tail is 4,096, and 8,192 is the first end that can use it.
        spec = SeriesSpec((50.0, 60.0), (110.5,))
        want = reference_sum_series(spec, rel_tol=1e-12)
        assert want.status is SummationStatus.CONVERGED
        assert want.terms_used == 8_193
        assert sum_series(spec, rel_tol=1e-12) == want


def _force_builder(monkeypatch, budget):
    # The next sums build their blocks in plain floats until ``budget`` terms
    # are built so, then with numpy, whether or not numpy is loaded.
    monkeypatch.setattr(series, "_FIRST_SPAN", None)
    monkeypatch.setattr(series, "_plain_built", 0)
    monkeypatch.setattr(series, "_plain_next", lambda: series._plain_built < budget)


def _differential_spec(rng: random.Random) -> SeriesSpec:
    # p <= 4; parameters below -20 and lower ones within 1e-9 to 1e-4 of a
    # pole; mostly p = q + 1 series of margin 0.05-2; a quarter terminating
    # after more than _PLAIN_TERMS terms.
    def param():
        r = rng.random()
        if r < 0.25:
            return rng.uniform(-60.0, -20.0)
        if r < 0.4:
            return -rng.randint(0, 40) + rng.choice((1e-9, -1e-9, 1e-4, -1e-4))
        return rng.uniform(-5.0, 8.0)

    p = rng.randint(0, 4)
    q = p - 1 if p > 1 and rng.random() < 0.6 else rng.randint(max(p - 1, 0), p + 1)
    nums, dens = [param() for _ in range(p)], [param() for _ in range(q)]
    if dens and p == q + 1 and rng.random() < 0.9:
        dens[-1] = math.fsum(nums) - math.fsum(dens[:-1]) + rng.uniform(0.05, 2.0)
    if nums and rng.random() < 0.25:
        nums[0] = -float(rng.randint(series._PLAIN_TERMS + 1, 3000))
    return SeriesSpec(nums, dens)


def _exact_outcome(spec, rel_tol, max_terms):
    # The status and every field of the result exactly, or the error's type
    # and message.
    try:
        result = sum_series(spec, rel_tol=rel_tol, max_terms=max_terms)
    except HypersumError as err:
        return type(err).__name__, str(err)
    return result.status.value, repr(result)


class TestPlainBuilder:
    """The plain-float block builder against the numpy one, bit for bit."""

    def test_pairwise_is_numpys_reduction_order(self):
        # Mixed signs over 16 decades, so that the order of the additions
        # shows in the bits: most of these sums are not correctly rounded.
        np = pytest.importorskip("numpy")
        rng = random.Random(20261021)
        inexact = 0
        for n in (*range(1, 301), 512, 513, 1024, 1025, 65536):
            x = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n)]
            want = float(np.add.reduce(np.array(x, dtype=np.float64)))
            assert (0.0 + series._pairwise(x, 0, n)).hex() == want.hex(), n
            inexact += math.fsum(x) != want
        assert inexact > 100

    def test_builders_agree(self, monkeypatch):
        # Each spec summed by numpy alone, in plain floats alone, and with a
        # plain budget that may run out at any block end.
        pytest.importorskip("numpy")
        rng = random.Random(20261022)
        budgets = (1, 20, 33, 512, 513, 1025, 1500, 5000, 20_000, 20_000)
        switched, outcomes = 0, set()
        for _ in range(480):
            try:
                spec = _differential_spec(rng)
            except DegenerateError:
                continue
            rel_tol, max_terms = 10.0 ** -rng.uniform(6.0, 13.0), rng.choice(budgets)
            _force_builder(monkeypatch, 0)
            want = _exact_outcome(spec, rel_tol, max_terms)
            _force_builder(monkeypatch, math.inf)
            assert _exact_outcome(spec, rel_tol, max_terms) == want, (spec, rel_tol, max_terms)
            _force_builder(monkeypatch, rng.choice((1, 512, 600, 1024, 3000)))
            assert _exact_outcome(spec, rel_tol, max_terms) == want, (spec, rel_tol, max_terms)
            switched += series._FIRST_SPAN is not None and series._plain_built > 0
            outcomes.add(want[0])
        assert switched >= 40
        assert outcomes >= {"Converged", "Terminated", "MaxTermsReached", "RangeError",
                            "DivergenceError"}

    @pytest.mark.parametrize("budget", [0, math.inf], ids=["numpy", "plain"])
    def test_block_sum_overflow_is_typed(self, monkeypatch, budget):
        # 41 finite terms, of which t_1 and t_2 are ~1.5e308: their sum overflows.
        spec = SeriesSpec((-40.0, -41.0, 1e10), (1.4e-308, 7.8e12))
        _force_builder(monkeypatch, budget)
        with pytest.raises(RangeError, match="series sum exceeds binary64 range"):
            sum_series(spec)
        with pytest.raises(RangeError, match="series sum exceeds binary64 range"):
            reference_sum_series(spec)


def _terms_and_sums(spec, n_max):
    # (t_n, S_n) for n = 0..n_max, one term at a time in binary64: close
    # enough to the kernel's values to place them against a rel_tol.
    out = [(1.0, 1.0)]
    term, total = 1.0, 1.0
    for n in range(n_max):
        ratio = 1.0 / (n + 1.0)
        for a in spec.numerators:
            ratio *= a + n
        for b in spec.denominators:
            ratio /= b + n
        term *= ratio
        total += term
        out.append((term, total))
    return out


@st.composite
def _term_test_cases(draw):
    # p <= q + 1 specs, convergent p = q + 1 ones down to margin 0.05, some
    # terminating, with a rel_tol and a budget.
    p = draw(st.integers(1, 4))
    q = draw(st.sampled_from([p - 1, p - 1, p, p + 1]))
    param = st.floats(-4.0, 8.0, allow_nan=False)
    nums = draw(st.lists(param, min_size=p, max_size=p))
    dens = draw(st.lists(param, min_size=q, max_size=q))
    if 0 < q == p - 1:
        margin = draw(st.floats(0.05, 4.0))
        dens = dens[:-1] + [math.fsum(nums) - math.fsum(dens[:-1]) + margin]
    if draw(st.booleans()):
        nums[0] = -float(draw(st.integers(0, 3000)))
    rel_tol = 10.0 ** -draw(st.floats(3.0, 14.0))
    budget = draw(
        st.sampled_from([200_000, 8193, _N2 + 3, _N2 + 2, _N2 + 1,
                         _N1 + 3, _N1 + 2, _N1 + 1, _N1, 22, 21, 2, 1])
        | st.integers(1, 200_000)
    )
    return nums, dens, rel_tol, budget


class TestTermTest:
    """The term test at a block end N: the block's last three |t_n| are at
    most rel_tol |S_N|.  Each case equals the plain block loop bit for bit."""

    @staticmethod
    def check(spec, rel_tol, max_terms=DEFAULT_MAX_TERMS):
        want = _outcome(reference_sum_series, spec, rel_tol, max_terms)
        assert _outcome(sum_series, spec, rel_tol, max_terms) == want, (spec, rel_tol)
        return want

    def test_catalog_runs(self):
        # Every builtin catalog case, and the two sweeps of
        # scripts/run_catalog.py: the six eq2.2 points at margins 1.5 down to
        # 0.05 (rel_tol 1e-8) and eq2.6 at p = 2..8 (rel_tol 1e-10).
        cases = list(builtin_catalog())
        pairs = ((1.3, 1),)
        for off in (1.5, 0.8, 0.4, 0.2, 0.1, 0.05):
            point = {"a": 0.4, "b": 0.3, "c": 1.7 + off, "pairs": pairs}
            cases.append(IdentityCase(IdentityId.EQ_2_2, point, 1e-8))
        for p in range(2, 9):
            for f in (0.3, 1.7, 5.0):
                cases.append(IdentityCase(IdentityId.EQ_2_6, {"p": p, "f": f}, 1e-10))
        assert len(cases) == 12 + 6 + 21
        for case in cases:
            self.check(case.spec, _summation_rel_tol(case.rel_tol))

    @pytest.mark.parametrize("factor", [1.001, 0.999])
    @pytest.mark.parametrize("last", [_N1, _N2 - 25, _N2])
    @pytest.mark.parametrize(
        "uppers,lowers", [((0.5, 0.25), (1.25,)), ((0.5, 0.5), (2.5,)), ((1.0, 1.0), (2.1,))]
    )
    def test_last_three_terms_at_the_bound(self, uppers, lowers, last, factor):
        # rel_tol puts the largest of t_(N-2), t_(N-1), t_N at 1 / factor
        # times rel_tol |S_N|, at the block end N = N1 or N2 or at the end of
        # an (N2 - 24)-term budget.  Below N2 no end N_ref <= N/2 lets the
        # block-end rule stop, and the sum stops at N just where factor > 1.
        # At N2 the block-end rule, N_ref = N1, stops where the term test
        # does not; the error estimate then carries the drift.
        spec = SeriesSpec(uppers, lowers)
        ts = _terms_and_sums(spec, last)
        last_three = max(abs(t) for t, _ in ts[last - 2:])
        rel_tol = factor * last_three / abs(ts[last][1])
        status, _ = self.check(spec, rel_tol, last + 1)
        assert status == ("Converged" if factor > 1.0 or last == _N2 else "MaxTermsReached")
        if last == _N1:
            status, _ = self.check(spec, rel_tol)
            terms = sum_series(spec, rel_tol).terms_used
            assert status == "Converged" and (terms == _N1 + 1) == (factor > 1.0)

    @pytest.mark.parametrize(
        "c,rel_tol",
        [(2.05, 3e-4), (2.1, 3e-4), (2.2, 2e-4), (2.05, 2e-4), (2.1, 1e-4), (2.2, 1e-4)],
    )
    def test_sum_grows_inside_the_block(self, c, rel_tol):
        # 2F1(1, 1; c; 1) is 6 to 21.  Its partial sum grows from 1 toward
        # those sizes inside the blocks, and the term test stops at the first
        # block end whose last three terms pass, N1 at the first three
        # tolerances and N2 at the last three (or N2 where the block-end rule
        # can stop there first), although every term summed exceeds 2 rel_tol
        # times the sum before it: the test compares with the sum at the
        # block end.
        spec = SeriesSpec((1.0, 1.0), (c,))
        end = min(_term_test_end(spec, rel_tol), _N2)
        ts = _terms_and_sums(spec, end)
        assert min(t for t, _ in ts[1:]) > 2.0 * rel_tol
        status, _ = self.check(spec, rel_tol)
        assert status == "Converged" and sum_series(spec, rel_tol).terms_used == end + 1

    def test_fast_series_stops_at_the_first_block_end(self):
        # 3F2(1, 1, 1; 4, 4; 1) has margin 5: its last three terms at the
        # first block end N1 pass the test, and no block-end rule can stop
        # before N2 (where it stops first if the terms pass only later).
        spec = SeriesSpec((1.0, 1.0, 1.0), (4.0, 4.0))
        end = min(_term_test_end(spec, 1e-12), _N2)
        status, _ = self.check(spec, 1e-12)
        assert status == "Converged" and sum_series(spec, 1e-12).terms_used == end + 1

    @given(_term_test_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_specs(self, case):
        nums, dens, rel_tol, budget = case
        try:
            spec = SeriesSpec(nums, dens)
        except DegenerateError:
            assume(False)
        self.check(spec, rel_tol, budget)


def _gauss_half_half(c: int) -> float:
    # 2F1(1/2, 1/2; c; 1) = G(c) G(c-1) / G(c-1/2)^2 for integer c, exact up
    # to one rounding of the integer quotient and the division by pi.
    f = math.factorial
    num = f(c - 1) ** 3 * f(c - 2) * 16 ** (c - 1)
    return num / f(2 * c - 2) ** 2 / math.pi


def test_term_overflow_is_typed():
    with pytest.raises(RangeError):
        sum_series(SeriesSpec((1e200,), (1e-200,)))


@pytest.mark.parametrize("nums,dens,message", [
    # (1e-200)^2 underflows to a zero divisor at n = 0.
    ((-2.0, 1.0), (1e-200, 1e-200), "series terms exceed"),
    # t_1 = t_2 = 1.5e308: finite terms whose sum overflows.
    ((-2.0, -3.0, 1e10), (4e-308, 1e10), "series sum exceeds"),
], ids=["zero-divisor", "sum-overflow"])
def test_short_terminating_overflow_is_typed(nums, dens, message):
    spec = SeriesSpec(nums, dens)
    for kernel in (sum_series, reference_sum_series):
        with pytest.raises(RangeError, match=message):
            kernel(spec)


def _direct_sum(uppers, lowers):
    # The series summed term by term at 40 digits, for specs whose terms
    # fall at least geometrically; mpmath.hyper returns garbage for some of
    # these parameter sizes.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        term = total = mpmath.mpf(1)
        for n in range(2000):
            term *= mpmath.fprod(mpmath.mpf(a) + n for a in uppers)
            term /= mpmath.fprod(mpmath.mpf(b) + n for b in lowers) * (n + 1)
            total += term
            if abs(term) < mpmath.mpf(10) ** -40 * abs(total):
                return float(total)
    raise AssertionError("direct sum did not converge")


# Huge parameters make the tail's coefficients grow like the largest one to
# the k: they overflow (first three), or the tail stays unresolved until the
# terms have fallen far (last two).  The first four were a RangeError on the
# old first-order tail model.  The overflow spec's terms exceed the binary64
# range.
@pytest.mark.parametrize(
    "uppers,lowers,overflows",
    [
        ((1.0, 1.0), (1e200,), False),
        ((1e160, 1.0), (2e160,), False),
        ((1.34e154, 0.5, 0.5, 0.5), (4.4666666666666674e153,) * 3, False),
        ((1.2e154, 1.2e154), (2.5e154,), True),
        ((0.5, 1e10), (2e10,), False),
        ((0.25, 1.0, 2e9), (1.5, 4e9), False),
    ],
)
def test_huge_parameters_are_accurate_or_typed(uppers, lowers, overflows):
    # Never nan and never a raw OverflowError: a value within its estimate
    # of the direct sum and within the default rel_tol, or a typed RangeError.
    if overflows:
        with pytest.raises(RangeError, match="binary64 range"):
            sum_series(SeriesSpec(uppers, lowers))
        return
    spec = SeriesSpec(uppers, lowers)
    result = sum_series(spec)
    want = _direct_sum(uppers, lowers)
    assert result.status is SummationStatus.CONVERGED
    assert result.terms_used == _term_test_end(spec, 1e-12) + 1
    assert abs(result.value - want) <= result.error_estimate <= 1e-12 * abs(result.value)
    assert abs(result.value - want) <= 1e-12 * abs(want)


# The upper parameter sum of a terminating series overflows inside the term
# recurrence (first), or the lower parameter sum of a p = q + 1 series
# overflows inside the margin's fsum (second).
PRELUDE_OVERFLOW_SPECS = [
    ((-1e308, -1e308), (0.5,)),
    ((0.5, 0.5, 0.5), (1e308, 1e308)),
]


@pytest.mark.parametrize("uppers,lowers", PRELUDE_OVERFLOW_SPECS)
def test_prelude_overflow_is_typed(uppers, lowers):
    with pytest.raises(RangeError, match="binary64 range"):
        sum_series(SeriesSpec(uppers, lowers))


def test_p_le_q_ignores_parameter_sum_overflow():
    # A p <= q series has no margin, so its overflowing parameter sum is
    # never formed; t_1 = 0.5 / 1e616 underflows to 0 and the value is 1.
    result = sum_series(SeriesSpec((0.5,), (1e308, 1e308)))
    assert result.status is SummationStatus.CONVERGED
    assert result.value == 1.0


class TestDivergenceGate:
    @pytest.mark.parametrize(
        "nums,dens",
        [((1.0, 1.0), (1.0,)), ((0.7,), ()), ((0.5, 0.8), (1.3,))],
    )
    def test_nonpositive_margin_raises(self, nums, dens):
        with pytest.raises(DivergenceError):
            sum_series(SeriesSpec(nums, dens), rel_tol=1e-10)

    def test_terminating_beats_margin(self):
        # negative margin but terminating: must sum, not raise
        result = sum_series(SeriesSpec((-4.0, 3.0), (0.5,)), rel_tol=1e-10)
        assert result.status is SummationStatus.TERMINATED

    def test_bad_rel_tol(self):
        with pytest.raises(ConfigError):
            sum_series(SeriesSpec((0.5,), (1.5,)), rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol,error,message", [
        (None, ConfigError, "rel_tol must be a real number, got None"),
        (math.inf, ConfigError, "rel_tol must be finite, got inf"),
        (-math.inf, ConfigError, "rel_tol must be finite, got -inf"),
        (10**400, RangeError, "rel_tol must be a real number in the binary64 range, got 1000"),
        (0, ConfigError, "rel_tol must be positive, got 0"),
        (math.nan, ConfigError, "rel_tol must be positive, got nan"),
    ], ids=["None", "inf", "-inf", "huge", "zero", "nan"])
    def test_rel_tol_is_typed(self, rel_tol, error, message):
        # An infinite rel_tol would let the first block end stop on anything.
        with pytest.raises(error, match=f"^{message}"):
            sum_series(SeriesSpec((0.5, 0.25), (1.25,)), rel_tol=rel_tol)

    @pytest.mark.parametrize("max_terms", [math.nan, 2.5, math.inf, -math.inf])
    def test_non_integer_max_terms(self, max_terms):
        with pytest.raises(ConfigError, match="max_terms must be a positive integer, got"):
            sum_series(SeriesSpec((0.5, 0.25), (1.25,)), max_terms=max_terms)

    def test_integral_float_max_terms(self):
        spec = SeriesSpec((0.5, 0.25), (1.25,))
        assert sum_series(spec, max_terms=1e4) == sum_series(spec, max_terms=10_000)


@given(
    st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=0, max_size=2),
    st.floats(min_value=0.2, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_margin_matches_sums(extra_dens, num):
    spec = SeriesSpec((num,), tuple(extra_dens) + (num + 1.0,))
    expected = math.fsum(spec.denominators) - num
    assert convergence_margin(spec) == pytest.approx(expected, rel=1e-15, abs=0)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=5),
    st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=5),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_margin_is_correctly_rounded(uppers, lowers):
    # One correctly rounded sum: the binary64 value nearest the exact margin.
    assume(not any(_is_nonpositive_integer(b) for b in lowers))
    assume(len(uppers) <= len(lowers) + 1)
    exact = sum(map(Fraction, lowers), Fraction(0)) - sum(map(Fraction, uppers), Fraction(0))
    assert convergence_margin(SeriesSpec(uppers, lowers)) == float(exact)


@pytest.mark.parametrize(
    "uppers,lowers,exact",
    [
        ((0.1, 0.2), (0.3,), Fraction(0.3) - Fraction(0.1) - Fraction(0.2)),
        ((0.4, 0.3, 2.3), (1.75, 1.3), Fraction(1.75) + Fraction(1.3) - Fraction(0.4)
         - Fraction(0.3) - Fraction(2.3)),
    ],
)
def test_margin_does_not_cancel(uppers, lowers, exact):
    # Two rounded sums and a subtraction put 2F1(0.1, 0.2; 0.3) at -5.55e-17
    # (100% off) and the boundary.0.05 3F2 7.8e-15 off.
    assert convergence_margin(SeriesSpec(uppers, lowers)) == float(exact)


def mu_spec(b, mu):
    return IdentityCase(IdentityId.EQ_1_6, {"b": b, "mu": mu}).spec


class TestMuSeries:
    def test_known_reductions(self):
        assert mu_spec(1.0, 4.0) == SeriesSpec((0.5, 0.25), (1.25,))
        assert mu_spec(1.0, 1.0) == SeriesSpec((0.5, 1.0), (2.0,))
        assert mu_spec(2.0, 2.0) == mu_spec(1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mu_spec(0.0, 1.0)
        with pytest.raises(DomainError):
            mu_spec(1.0, -2.0)

    def test_rewrite_matches_raw_terms(self):
        # (1/b) (1/2)_n (b/mu)_n / ((b/mu+1)_n n!) == (1/2)_n / (n! (b + n mu))
        b, mu = 0.7, 1.9
        spec = mu_spec(b, mu)
        half_poch = 1.0
        rewritten = 1.0 / b  # n = 0 term of the scaled 2F1
        for n in range(60):
            raw = half_poch / (b + n * mu)
            assert rewritten == pytest.approx(raw, rel=1e-12), n
            a1, a2 = spec.numerators
            (b1,) = spec.denominators
            rewritten *= (a1 + n) * (a2 + n) / ((b1 + n) * (n + 1.0))
            half_poch *= (0.5 + n) / (n + 1.0)
