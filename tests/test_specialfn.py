"""Special-function tests: frozen 50-digit references plus invariants."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hypersum import specialfn
from hypersum.errors import DomainError, PoleError, RangeError

# 50-digit references, regenerate with scripts/gen_reference_values.py
GAMMA_REF = {
    0.75: 1.2254167024651776,
    -0.5: -3.544907701811032,
    -2.5: -0.9453087204829419,
    -15.75: 4.271755731440195e-13,
    12.3: 83385367.89997,
    170.2: 1.1918411166366696e+305,
}
LOG_GAMMA_REF = {
    0.001: 6.907178885383853,
    7.25: 7.0521854507385395,
    100.5: 361.4355404677776,
}
DIGAMMA_REF = {
    1.0: -0.5772156649015329,
    0.1: -10.423754940411076,
    0.25: -4.2274535333762655,
    10.5: 2.3030010342976865,
    1234.5: 7.118016231827998,
    -6.3: 4.2003210041401875,
}


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestGamma:
    def test_half_integer_and_factorial_values(self):
        assert specialfn.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15, abs=0)
        assert specialfn.gamma(5.0) == pytest.approx(24.0, rel=1e-14, abs=0)
        assert specialfn.gamma(1.0) == pytest.approx(1.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize("x,want", sorted(GAMMA_REF.items()))
    def test_reference_values(self, x, want):
        assert rel_err(specialfn.gamma(x), want) < 1e-14

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -77.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            specialfn.gamma(x)

    def test_overflow(self):
        with pytest.raises(RangeError):
            specialfn.gamma(172.0)
        assert math.isfinite(specialfn.gamma(171.0))

    @pytest.mark.parametrize("x", [301.0, 1e6, 1e-310, -5e-324])
    def test_overflow_is_typed_before_math_overflows(self, x):
        # math.gamma raises a bare OverflowError past 171.62 and at
        # 0 < |x| < ~5.6e-309, where it returns 1/x.
        with pytest.raises(RangeError):
            specialfn.gamma(x)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            specialfn.gamma(float("nan"))

    @pytest.mark.parametrize("low,high", [(0.0, 171.6), (-170.0, 0.0)])
    def test_within_10_ulp_of_mpmath(self, low, high):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(5417)
        with mpmath.workdps(40):
            for _ in range(500):
                x = rng.uniform(low, high)
                want = mpmath.gamma(x)
                ulps = abs(specialfn.gamma(x) - want) / math.ulp(float(want))
                assert ulps <= 10.0, (x, float(ulps))

    def test_recurrence_1000_points(self):
        rng = random.Random(1138)
        for _ in range(1000):
            x = rng.uniform(0.1, 50.0)
            lhs = specialfn.gamma(x + 1.0)
            assert abs(lhs - x * specialfn.gamma(x)) <= 1e-12 * abs(lhs)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x):
        product = specialfn.gamma(x) * specialfn.gamma(1.0 - x)
        assert product * math.sin(math.pi * x) / math.pi == pytest.approx(1.0, rel=1e-12)


class TestLogGamma:
    def test_exact_zeros(self):
        assert specialfn.log_gamma(1.0) == 0.0
        assert specialfn.log_gamma(2.0) == 0.0

    @pytest.mark.parametrize("x,want", sorted(LOG_GAMMA_REF.items()))
    def test_reference_values(self, x, want):
        assert rel_err(specialfn.log_gamma(x), want) < 1e-14

    @pytest.mark.parametrize("x", [0.0, -0.5, -3.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            specialfn.log_gamma(x)

    def test_overflow(self):
        with pytest.raises(RangeError):
            specialfn.log_gamma(1e308)

    @given(st.floats(min_value=0.01, max_value=170.0))
    @settings(max_examples=200, deadline=None)
    def test_consistency_with_gamma(self, x):
        assert math.exp(specialfn.log_gamma(x)) == pytest.approx(
            specialfn.gamma(x), rel=1e-12
        )


class TestDigamma:
    @pytest.mark.parametrize("x,want", sorted(DIGAMMA_REF.items()))
    def test_reference_values(self, x, want):
        # absolute tolerance, relative once |psi| exceeds 1
        assert abs(specialfn.digamma(x) - want) <= 1e-13 * max(1.0, abs(want))

    def test_reflection_gap_is_pi(self):
        gap = specialfn.digamma(0.75) - specialfn.digamma(0.25)
        assert gap == pytest.approx(math.pi, rel=1e-13, abs=0)

    @pytest.mark.parametrize("x", [0.0, -1.0, -12.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            specialfn.digamma(x)

    @pytest.mark.parametrize("k", [0, 1, 2, 7])
    @pytest.mark.parametrize("d", [1e-12, -1e-12, 1e-6, -0.3, 0.49])
    def test_reflection_near_poles_matches_mpmath(self, k, d):
        # pi cot(pi x) carries the pole; reducing x to the nearest integer
        # keeps it accurate next to each pole.
        mpmath = pytest.importorskip("mpmath")
        x = d - k
        with mpmath.workdps(40):
            want = float(mpmath.digamma(x))
        assert rel_err(specialfn.digamma(x), want) <= 1e-13

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, x):
        lhs = specialfn.digamma(x + 1.0) - specialfn.digamma(x)
        assert abs(lhs - 1.0 / x) <= 1e-12


class TestPochhammer:
    def test_empty_product(self):
        assert specialfn.pochhammer(3.7, 0) == 1.0
        assert specialfn.pochhammer(-2.0, 0) == 1.0

    def test_known_values(self):
        assert specialfn.pochhammer(0.5, 3) == 1.875
        assert specialfn.pochhammer(1.0, 6) == 720.0

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence_is_exact(self, x, n):
        # same left-to-right product order, so equality is bitwise
        assert specialfn.pochhammer(x, n + 1) == specialfn.pochhammer(x, n) * (x + n)

    def test_overflow(self):
        with pytest.raises(RangeError):
            specialfn.pochhammer(300.0, 200)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            specialfn.pochhammer(1.0, -1)

    def test_overflow_ends_at_first_infinite_factor(self):
        # The product is inf after ~170 factors; the other ~1e9 are not run.
        start = time.perf_counter()
        with pytest.raises(RangeError, match=r"pochhammer\(2\.0, 1000000000\) exceeds"):
            specialfn.pochhammer(2.0, 10**9)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("x,n,sign", [(-200.0, 300, 1.0), (-3.0, 5, -1.0), (-2.0, 10**9, 1.0)])
    def test_zero_factor(self, x, n, sign):
        # A factor x + k is zero: the product is the signed zero of the
        # factors before it, although (-200)_200 alone overflows.
        value = specialfn.pochhammer(x, n)
        assert value == 0.0 and math.copysign(1.0, value) == sign


class TestGammaRatio:
    def test_identical_lists_exact(self):
        assert specialfn.gamma_ratio([3.7], [3.7]) == 1.0
        assert specialfn.gamma_ratio([0.4, 9.1], [9.1, 0.4]) == 1.0
        # Inside (1e-300, 171) the quotients come from math.gamma, outside
        # from log-gamma; x / x is exactly 1 either way.
        for args in ([170.9, 2.5], [171.0], [200.5, 0.5], [1e-301, 3.0], [-2.5, 1e-310], []):
            assert specialfn.gamma_ratio(args, args[::-1]) == 1.0, args

    def test_in_range_product_matches_mpmath(self):
        # Up to three numerators in (0.01, 170) over as many denominators
        # nearby, all inside the cut: a product of math.gamma quotients is within a few ulp,
        # where log space errs by ~u times the summed |lgamma|.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(1604)
        for _ in range(300):
            nums = [rng.uniform(0.01, 170.0) for _ in range(rng.randint(1, 3))]
            dens = [min(max(x + rng.uniform(-3.0, 3.0), 0.01), 170.9)
                    for x in nums[:rng.randint(1, len(nums))]]
            with mpmath.workdps(40):
                want = mpmath.fprod(map(mpmath.gamma, nums)) / mpmath.fprod(map(mpmath.gamma, dens))
            if not 1e-300 < want < 1e300:
                continue
            assert rel_err(specialfn.gamma_ratio(nums, dens), float(want)) <= 2e-15, (nums, dens)

    def test_in_range_product_is_the_sorted_quotient_product(self):
        # Both lists sorted descending, the shorter padded with 1.0, and the
        # quotients Gamma(a_i) / Gamma(b_i) multiplied from the largest pair
        # on: bit for bit, wherever every argument is in (1e-300, 171) and
        # the product is normal.
        rng = random.Random(1906)
        draw = (lambda: rng.uniform(1e-3, 170.99), lambda: rng.uniform(1e-300, 1e-3),
                lambda: 10.0 ** rng.uniform(-299.0, 2.0))
        checked = 0
        for _ in range(2000):
            nums, dens = ([rng.choice(draw)() for _ in range(rng.randint(0, 4))] for _ in range(2))
            width = max(len(nums), len(dens))
            padded = [sorted(x, reverse=True) + [1.0] * (width - len(x)) for x in (nums, dens)]
            want = 1.0
            for a, b in zip(*padded):
                want *= math.gamma(a) / math.gamma(b)
            if 2.2250738585072014e-308 <= want < math.inf:
                assert specialfn.gamma_ratio(nums, dens).hex() == want.hex(), (nums, dens)
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("nums,dens,error", [
        # A nan leaves the sorted order undefined: 200.0 and -2.0 stay
        # between the first and the last argument.
        ([1.0, math.nan, 200.0, 2.0], [1.0], DomainError),
        ([1.0, -2.0, math.nan, 2.0], [1.0], PoleError),
        # A pole among the lower arguments, where math.gamma raises ValueError.
        ([1.5], [-2.0], PoleError),
    ])
    def test_every_argument_is_range_checked(self, nums, dens, error):
        with pytest.raises(error):
            specialfn.gamma_ratio(nums, dens)

    def test_subnormal_product_is_taken_in_log_space(self):
        # 1 / (Gamma(170.5) Gamma(8)) ~ 3.5e-310 is below the normal range.
        mpmath = pytest.importorskip("mpmath")
        got = specialfn.gamma_ratio([1.0], [170.5, 8.0])
        with mpmath.workdps(40):
            want = float(1 / (mpmath.gamma(170.5) * mpmath.gamma(8)))
        assert 0.0 < got < 2.2250738585072014e-308
        assert rel_err(got, want) <= 1e-12

    def test_integer_ratio(self):
        assert specialfn.gamma_ratio([5.0], [3.0]) == pytest.approx(12.0, rel=1e-12)

    def test_reference_value(self):
        got = specialfn.gamma_ratio([1.25, 0.5], [0.75, 1.0])
        assert rel_err(got, 1.3110287771460598) < 1e-13

    def test_negative_arguments_track_sign(self):
        # Gamma(-0.5) = -2 sqrt(pi), Gamma(-2.5) > 0 ... signs via reflection
        got = specialfn.gamma_ratio([-0.5], [0.5])
        assert got == pytest.approx(-2.0, rel=1e-12)
        got = specialfn.gamma_ratio([-2.5], [-0.5])
        assert got == pytest.approx(
            GAMMA_REF[-2.5] / GAMMA_REF[-0.5], rel=1e-12
        )

    def test_large_cancelling_ratio(self):
        # Gamma(120.3)/Gamma(119.3) = 119.3 although both factors overflow
        got = specialfn.gamma_ratio([120.3], [119.3])
        assert got == pytest.approx(119.3, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            specialfn.gamma_ratio([1.0, -2.0], [0.5])

    def test_overflow(self):
        with pytest.raises(RangeError):
            specialfn.gamma_ratio([200.0, 200.0], [1.0])
        # Every gamma value is finite, but their product is ~1.8e310.
        with pytest.raises(RangeError):
            specialfn.gamma_ratio([170.0, 170.0], [2.0, 1e-299])
        # RangeError is still an OverflowError for existing callers.
        with pytest.raises(OverflowError):
            specialfn.gamma_ratio([300.0], [1.0])
