"""Closed-form evaluator tests: frozen oracle values and cross-identities."""

import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from hypersum import theorems
from hypersum.errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    HypersumError,
    PoleError,
    PreconditionError,
    RangeError,
)
from hypersum.series import SeriesSpec, sum_series
from hypersum.specialfn import gamma_ratio, pochhammer
from hypersum.theorems import ShiftedPair
from hypersum.verify import IdentityCase, verify_identity
from oracles import rational_ck_coefficient

# 50-digit references, regenerate with scripts/gen_reference_values.py
REF = {
    "ramanujan_sq_inverse": 1.0942198076132383,
    "ramanujan_sq_inverse_sq": 1.029679593731718,
    "ramanujan_inverse": 1.3110287771460598,
    "f32_half_half_quarter": 1.0512612274972233,
    "f32_contig_m1": 1.153108343670829,
    "f32_contig_m2": 1.09407825707972,
    "f32_contig_m3": 1.067800628898144,
    "f32_contig_0.7425_6": 1.1097003499570468,
    "f54_km": 1.1157702356196448,
    "ratio_sum_1_1": 1.2274112777602189,
    "ratio_sum_3_3": 1.73157413324905,
    "ratio_sum_40.5_45.25": 5.847188525564965,
    "ratio_sum_200_300": 13.820671197220946,
    "ratio_sum_1e6_1e6": 886.2272577878897,
    "ratio_sum_1e12_1e12": 886226.9254530903,
    "ratio_sum_1e16_1e16": 88622692.5452758,
    "ratio_sum_1e16_2e16": 103827942.71800315,
    "weighted_s2_3_0.7": 0.34337855810902074,
    "weighted_pair_4_0.3_2.2": 0.0463609326837627,
    "mu_sum_0.5_0.5": 4.0,
    "mu_sum_0.5_1": math.pi,
    "mu_sum_1_2": math.pi / 2.0,
    "mu_sum_2.7_4": 0.6415227596076354,
    "mu_sum_1_1e-6": 1772.4540724622614,
    "mu_sum_1_1e-12": 1772453.8509057376,
    "s_p_100": 1.0741924039183986e-158,
    "s_p_170": 1.379928780494128e-307,
}

# Relative error bounds against 40-digit mpmath for the closed forms built on
# g(x) = Gamma(x)/Gamma(x+1/2).
G_FORM_BOUND = 4e-15
S_P_BOUND = 2e-15


def _rel_err(got, want):
    return abs(got - want) / abs(want)


class TestGauss:
    def test_ramanujan_case(self):
        got = theorems.gauss_2f1(0.5, 0.25, 1.25)
        assert got == pytest.approx(REF["ramanujan_inverse"], rel=1e-13, abs=0)

    def test_zero_upper_parameter(self):
        assert theorems.gauss_2f1(0.0, 1.3, 2.0) == 1.0

    def test_symmetry_is_bitwise(self):
        for a, b, c in [(0.5, 0.25, 1.25), (0.123, 1.9, 4.4), (-1.5, 0.3, 0.7)]:
            assert theorems.gauss_2f1(a, b, c) == theorems.gauss_2f1(b, a, c)

    @pytest.mark.parametrize("a,b,c", [(0.5, 0.75, 1.25), (1.0, 1.0, 1.5)])
    def test_margin_precondition(self, a, b, c):
        with pytest.raises(PreconditionError):
            theorems.gauss_2f1(a, b, c)

    def test_pole_propagates(self):
        # margin is positive but c - a = -1 hits a gamma pole
        with pytest.raises(PoleError):
            theorems.gauss_2f1(3.0, -4.0, 2.0)


class TestDixon:
    def test_first_ramanujan_sum(self):
        got = theorems.dixon_3f2(0.5, 0.5, 0.25)
        assert got == pytest.approx(REF["ramanujan_sq_inverse"], rel=1e-13, abs=0)

    def test_second_ramanujan_sum(self):
        got = theorems.dixon_3f2(0.5, 0.25, 0.25)
        assert got == pytest.approx(REF["ramanujan_sq_inverse_sq"], rel=1e-13, abs=0)

    def test_zero_upper_parameter_is_exact_one(self):
        assert theorems.dixon_3f2(0.7, 0.0, 0.3) == 1.0

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            theorems.dixon_3f2(0.5, 1.0, 0.5)

    def test_against_direct_summation(self):
        a, b, c = 0.6, 0.2, 0.15
        spec = SeriesSpec((a, b, c), (1.0 + a - b, 1.0 + a - c))
        direct = sum_series(spec, rel_tol=1e-13).value
        assert theorems.dixon_3f2(a, b, c) == pytest.approx(direct, rel=1e-11)


class TestContiguous:
    @pytest.mark.parametrize(
        "m,key", [(1, "f32_contig_m1"), (2, "f32_contig_m2"), (3, "f32_contig_m3")]
    )
    def test_reference_values(self, m, key):
        got = theorems.contiguous_3f2(0.3, 1.7, 0.9, m)
        assert got == pytest.approx(REF[key], rel=2e-13, abs=0)

    def test_half_case_matches_ratio_sum(self):
        got = theorems.contiguous_3f2(0.5, 0.5, 0.25, 1)
        assert got == pytest.approx(REF["f32_half_half_quarter"], rel=1e-13, abs=0)

    def test_cancelling_braces(self):
        # The braces keep 1/28 of either gamma quotient, so a quotient from
        # lgamma terms near 1 and 2, which err by ~1e-15, would miss this bound.
        got = theorems.contiguous_3f2(0.7425, 1.8375, 0.9927, 6)
        assert got == pytest.approx(REF["f32_contig_0.7425_6"], rel=3e-14, abs=0)

    def test_degenerate_b_equals_c(self):
        with pytest.raises(DegenerateError):
            theorems.contiguous_3f2(0.3, 1.7, 1.7, 1)

    def test_degenerate_integer_gap(self):
        # b - c = -1 makes (b-c)_2 vanish
        with pytest.raises(DegenerateError):
            theorems.contiguous_3f2(0.3, 0.7, 1.7, 2)

    def test_degenerate_gap_past_overflow(self):
        # b - c = -200: (b-c)_300 has a zero factor after its first 200
        # factors overflow.
        with pytest.raises(DegenerateError, match=r"\(b-c\)_m vanishes"):
            theorems.contiguous_3f2(0.3, 1.7, 201.7, 300)

    def test_overflowing_pochhammer_is_quick(self):
        start = time.perf_counter()
        with pytest.raises(RangeError, match="exceeds binary64 range"):
            theorems.contiguous_3f2(0.3, 1.7, 0.9, 10**9)
        assert time.perf_counter() - start < 1.0

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            theorems.contiguous_3f2(2.0, 1.7, 0.9, 1)

    @pytest.mark.parametrize(
        "a,b,c,m", [(1.0, -3.0, 0.9, 5), (0.5, -0.5, 0.9, 6), (-1.0, -2.0, 1.0, 1)]
    )
    def test_degenerate_lower_pochhammer(self, a, b, c, m):
        # 1+b-a is 0 or a negative integer above -m, so one (1+b-a)_k in the
        # finite sum is zero.
        with pytest.raises(DegenerateError, match=r"\(1\+b-a\)_k vanishes"):
            theorems.contiguous_3f2(a, b, c, m)

    def test_bad_m(self):
        with pytest.raises(DomainError):
            theorems.contiguous_3f2(0.3, 1.7, 0.9, 0)

    def test_non_finite_value_is_typed(self):
        # The gamma ratios underflow to 0 and the prefactor overflows: inf * 0.
        with pytest.raises(RangeError):
            theorems.contiguous_3f2(
                -168.85721737734312, 229.48169173279283, 65.82665027714985, 4
            )

    def test_matches_ratio_sum_extension(self):
        rng = random.Random(99)
        for _ in range(25):
            b = rng.uniform(0.2, 3.0)
            c = rng.uniform(0.2, 3.0)
            if abs(b - c) <= 1e-4:
                continue
            lhs = theorems.contiguous_3f2(0.5, b, c, 1)
            rhs = theorems.ratio_sum_extension(b, c)
            assert lhs == pytest.approx(rhs, rel=1e-11), (b, c)


def _mp_ratio_sum(b, c, digits=40):
    """sqrt(pi) b c / (b - c) (g(c) - g(b)), g(x) = Gamma(x)/Gamma(x+1/2), to ``digits`` digits.

    The working precision grows with log10 max(b, c), so that x + 1/2 is exact
    and the cancelling difference keeps ``digits`` digits; b = c takes the
    limit sqrt(pi) b^2 g(b) (psi(b + 1/2) - psi(b)).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits + max(0, round(math.log10(max(b, c))))):
        b, c = mpmath.mpf(b), mpmath.mpf(c)
        g = lambda x: mpmath.gamma(x) / mpmath.gamma(x + 0.5)
        if b == c:
            return float(mpmath.sqrt(mpmath.pi) * b * b * g(b)
                         * (mpmath.digamma(b + 0.5) - mpmath.digamma(b)))
        return float(mpmath.sqrt(mpmath.pi) * b * c / (b - c) * (g(c) - g(b)))


class TestRatioSumExtension:
    def test_two_gamma_branch(self):
        got = theorems.ratio_sum_extension(0.5, 0.25)
        assert got == pytest.approx(REF["f32_half_half_quarter"], rel=1e-13, abs=0)

    def test_two_gamma_branch_at_larger_arguments(self):
        # The difference keeps 1/18 of either quotient, so quotients from
        # lgamma terms, which err by ~u lgamma(45), would miss this bound.
        got = theorems.ratio_sum_extension(40.5, 45.25)
        assert got == pytest.approx(REF["ratio_sum_40.5_45.25"], rel=2e-14, abs=0)

    def test_digamma_branch_quarter(self):
        got = theorems.ratio_sum_extension(0.25, 0.25)
        assert got == pytest.approx(REF["ramanujan_sq_inverse_sq"], rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "b,key", [(1.0, "ratio_sum_1_1"), (3.0, "ratio_sum_3_3")]
    )
    def test_digamma_branch_values(self, b, key):
        assert theorems.ratio_sum_extension(b, b) == pytest.approx(REF[key], rel=1e-13, abs=0)

    def test_branch_selection_is_continuous(self):
        for b in (0.25, 1.0, 3.0):
            near = theorems.ratio_sum_extension(b, b * (1.0 + 1e-12))
            exact = theorems.ratio_sum_extension(b, b)
            assert near == pytest.approx(exact, rel=5e-12)

    @pytest.mark.parametrize("b,c", [(0.25, 0.25000000375), (3.0, 3.00000006)])
    def test_relative_gap_near_1e_8(self, b, c):
        # Here the two quotients of the general form agree to ~8 digits.
        assert theorems.ratio_sum_extension(b, c) == pytest.approx(
            _mp_ratio_sum(b, c), rel=2e-12, abs=0)

    def test_near_equal_matches_mpmath(self):
        # b log-uniform in [0.05, 150], relative b/c gaps 1e-12 to 1.
        rng = random.Random(2300)
        for _ in range(400):
            b = math.exp(rng.uniform(math.log(0.05), math.log(150.0)))
            c = b * (1.0 + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-12.0, 0.0))
            got = theorems.ratio_sum_extension(b, c)
            assert got == pytest.approx(_mp_ratio_sum(b, c), rel=G_FORM_BOUND, abs=0), (b, c)

    def test_grid_matches_mpmath(self):
        # b log-uniform in [0.05, 1e16]; c = b (1 + gap) with the relative gap
        # 0 or log-uniform in [1e-12, 1e6]; both argument orders.
        rng = random.Random(1601)
        for _ in range(400):
            b = math.exp(rng.uniform(math.log(0.05), math.log(1e16)))
            gap = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-12.0, 6.0)
            c = b * (1.0 + gap)
            want = _mp_ratio_sum(b, c)
            for got in (theorems.ratio_sum_extension(b, c), theorems.ratio_sum_extension(c, b)):
                assert _rel_err(got, want) <= G_FORM_BOUND, (b, c)

    @pytest.mark.parametrize("b,c,key", [
        (200.0, 300.0, "ratio_sum_200_300"),
        (1e6, 1e6, "ratio_sum_1e6_1e6"),
        (1e12, 1e12, "ratio_sum_1e12_1e12"),
        (1e16, 1e16, "ratio_sum_1e16_1e16"),
        (1e16, 2e16, "ratio_sum_1e16_2e16"),
    ])
    def test_large_argument_references(self, b, c, key):
        # At (1e12, 1e12) a digamma difference psi(b + 1/2) - psi(b) keeps
        # only ~4 digits, and at 1e16 it is 0 since b + 1/2 rounds to b.
        assert _rel_err(theorems.ratio_sum_extension(b, c), REF[key]) <= G_FORM_BOUND

    @pytest.mark.parametrize("b,c", [(1e200, 1e200), (2e219, 1.9e227)])
    def test_finite_where_b_times_c_overflows(self, b, c):
        assert _rel_err(theorems.ratio_sum_extension(b, c), _mp_ratio_sum(b, c)) <= G_FORM_BOUND

    def test_finite_and_accurate_over_the_binary64_range(self):
        # b and c log-uniform in [1e-300, 1e300], a fifth of them with b = c.
        rng = random.Random(1602)
        for _ in range(80):
            b = 10.0 ** rng.uniform(-300.0, 300.0)
            c = b if rng.random() < 0.2 else 10.0 ** rng.uniform(-300.0, 300.0)
            got = theorems.ratio_sum_extension(b, c)
            assert math.isfinite(got), (b, c)
            assert _rel_err(got, _mp_ratio_sum(b, c)) <= G_FORM_BOUND, (b, c)

    @pytest.mark.parametrize("b,c", [
        (1e-310, 1e-310), (5e-324, 1.0), (1e-310, 1e300), (2.0**-55, 3.0),
        (2.0**-54, 3.0), (math.nextafter(2.0**-54, 1.0), 3.0),
    ])
    def test_below_the_normal_range(self, b, c):
        # At and below min(b, c) = 2^-54 the value rounds to 1, where phi's
        # step 1/b can overflow; just above, the general formula takes over.
        got = theorems.ratio_sum_extension(b, c)
        assert _rel_err(got, _mp_ratio_sum(b, c, digits=50)) <= G_FORM_BOUND, (b, c)

    def test_domain(self):
        with pytest.raises(DomainError):
            theorems.ratio_sum_extension(-0.5, 0.25)
        with pytest.raises(DomainError):
            theorems.ratio_sum_extension(0.5, 0.0)

    def test_symmetry(self):
        for b, c in [(0.5, 0.25), (3.0, 3.00000006), (40.5, 45.25), (0.07, 1e9)]:
            assert theorems.ratio_sum_extension(b, c) == theorems.ratio_sum_extension(c, b)


class TestShiftedPair:
    def test_rejects_nonpositive_integer_f(self):
        with pytest.raises(DegenerateError):
            ShiftedPair(0.0, 1)
        with pytest.raises(DegenerateError):
            ShiftedPair(-2.0, 1)

    def test_rejects_bad_shift(self):
        with pytest.raises(DegenerateError):
            ShiftedPair(1.3, 0)

    def test_rejects_shift_past_binary64(self):
        with pytest.raises(DegenerateError, match=r"^pair shift must be a positive integer in "
                           r"the binary64 range, got 1000\.\.\.000 \(401 digits\)$"):
            ShiftedPair(1.3, 10**400)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_f(self, f):
        with pytest.raises(DegenerateError, match="must be finite"):
            ShiftedPair(f, 1)

    def test_negative_noninteger_allowed(self):
        assert ShiftedPair(-0.7, 2).f == -0.7


class TestCkCoefficient:
    def test_k_zero_is_one(self):
        assert theorems.ck_coefficient(0, [ShiftedPair(1.3, 1)]) == 1.0
        assert theorems.ck_coefficient(0, []) == 1.0

    @pytest.mark.parametrize("m", range(1, 7))
    def test_vandermonde_shortcut(self, m):
        for f in (0.2, 0.7, 1.0, 2.5, 5.0):
            for k in range(m + 1):
                got = theorems.ck_coefficient(k, [ShiftedPair(f, m)])
                want = math.comb(m, k) / pochhammer(f, k)
                assert abs(got - want) <= 1e-13 * abs(want), (m, f, k)

    def test_two_pair_closed_forms(self):
        f1, f2 = 1.3, 2.1
        pairs = [ShiftedPair(f1, 1), ShiftedPair(f2, 1)]
        c1 = theorems.ck_coefficient(1, pairs)
        c2 = theorems.ck_coefficient(2, pairs)
        assert c1 == pytest.approx((1.0 + f1 + f2) / (f1 * f2), rel=1e-14, abs=0)
        assert c2 == pytest.approx(1.0 / (f1 * f2), rel=1e-14, abs=0)

    def test_matches_rational_oracle_bitwise(self):
        # The difference table and the oracle's alternating Fraction sum are
        # the same rational number, each rounded once, so they agree exactly.
        rng = random.Random(3141)
        for _ in range(150):
            pairs = [ShiftedPair(_random_pair_f(rng), rng.randint(1, 4))
                     for _ in range(rng.randint(0, 4))]
            m_total = sum(p.m for p in pairs)
            for k in range(m_total + 3):
                got = theorems.ck_coefficient(k, pairs)
                assert got == rational_ck_coefficient(k, pairs), (k, pairs)
                if k > m_total:
                    assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_bad_order(self):
        for k in (-1, 1.5):
            with pytest.raises(DomainError):
                theorems.ck_coefficient(k, [ShiftedPair(1.3, 1)])

    def test_overflow_is_typed(self):
        # C_1 ~ -1e300 is finite; C_2 ~ 1e300 / (f_2 + 1) ~ 1e316 is not.
        pairs = [ShiftedPair(1e-300, 1), ShiftedPair(-1.0 + 2.0**-52, 2)]
        assert theorems.ck_coefficient(1, pairs) == rational_ck_coefficient(1, pairs)
        with pytest.raises(RangeError):
            theorems.ck_coefficient(2, pairs)
        with pytest.raises(RangeError):
            theorems.karlsson_minton(0.1, 0.2, 3.5, pairs)


def _random_pair_f(rng: random.Random) -> float:
    """A pair parameter f in (-40, 40): negative non-integer, dyadic, or not."""
    kind = rng.randrange(3)
    if kind == 0:
        f = -rng.uniform(0.01, 40.0)
        return f - 0.5 if f == math.floor(f) else f
    if kind == 1:
        f = rng.randint(-320, 320) / 8.0
        return f + 0.125 if f <= 0.0 and f == math.floor(f) else f
    return rng.uniform(1e-3, 40.0)


def _karlsson_minton_from_oracle(a, b, c, pairs):
    # The closed form's arithmetic, step for step, on the oracle's C_k.
    terms = []
    sign = 1.0
    poch_a = poch_b = poch_low = 1.0
    for k in range(sum(p.m for p in pairs) + 1):
        terms.append(sign * poch_a * poch_b * rational_ck_coefficient(k, pairs) / poch_low)
        sign = -sign
        poch_a *= a + k
        poch_b *= b + k
        poch_low *= 1.0 + a + b - c + k
    return gamma_ratio([c, c - a - b], [c - a, c - b]) * math.fsum(terms)


class TestKarlssonMinton:
    def test_empty_pairs_is_gauss(self):
        a, b, c = 0.4, 0.3, 2.0
        assert theorems.karlsson_minton(a, b, c, []) == theorems.gauss_2f1(a, b, c)

    def test_reference_value(self):
        got = theorems.karlsson_minton(
            0.4, 0.3, 6.0, [ShiftedPair(1.3, 1), ShiftedPair(2.1, 2)]
        )
        assert got == pytest.approx(REF["f54_km"], rel=1e-13, abs=0)

    def test_single_pair_matches_weighted_form(self):
        # a = b = 1/2, c = p+1, one unit shift: the closed forms must agree
        for p in (2, 4, 6):
            f = 0.8
            km = theorems.karlsson_minton(0.5, 0.5, p + 1.0, [ShiftedPair(f, 1)])
            want = theorems.weighted_s1(p, f) * math.factorial(p) / f
            assert km == pytest.approx(want, rel=1e-12), p

    def test_plain_pairs(self):
        # Plain (f, m) pairs, as verify takes them, give the same value.
        pairs = [ShiftedPair(1.3, 1), ShiftedPair(2.1, 2)]
        want = theorems.karlsson_minton(0.4, 0.3, 6.0, pairs)
        assert theorems.karlsson_minton(0.4, 0.3, 6.0, [(1.3, 1), (2.1, 2)]) == want
        assert theorems.karlsson_minton(0.4, 0.3, 6.0, [pairs[0], (2.1, 2)]) == want
        assert theorems.ck_coefficient(2, [(1.3, 1), (2.1, 2)]) == theorems.ck_coefficient(2, pairs)

    @pytest.mark.parametrize("pairs,error", [
        ([(1.3,)], ConfigError),
        ([(1.3, 1, 2)], ConfigError),
        (None, ConfigError),
        ([1.3], ConfigError),
        ([(1.3, 0.5)], DegenerateError),
        ([(-2.0, 1)], DegenerateError),
        ([(None, 1)], ConfigError),
        ([(10**5000,)], ConfigError),  # its repr is past Python's 4,300 digits
    ])
    def test_malformed_pairs_are_typed(self, pairs, error):
        with pytest.raises(error):
            theorems.karlsson_minton(0.4, 0.3, 6.0, pairs)
        with pytest.raises(error):
            theorems.ck_coefficient(1, pairs)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            theorems.karlsson_minton(0.4, 0.3, 1.0, [ShiftedPair(1.3, 1)])
        # boundary c - a - b == m is also rejected
        with pytest.raises(PreconditionError):
            theorems.karlsson_minton(0.5, 0.5, 2.0, [ShiftedPair(1.3, 1)])

    def test_non_finite_value_is_typed(self):
        # The prefactor and the C_k sum are finite; their product is inf.
        with pytest.raises(RangeError):
            theorems.karlsson_minton(
                415.43203119572644,
                587.3192595389283,
                1005.7551719567946,
                [ShiftedPair(0.0011063682818082694, 1), ShiftedPair(-1.4670267235709928, 2)],
            )

    @pytest.mark.parametrize("m_total", range(1, 9))
    def test_bit_identical_to_oracle_coefficients(self, m_total):
        rng = random.Random(2718 + m_total)
        for _ in range(10):
            shifts = []
            while sum(shifts) < m_total:
                shifts.append(rng.randint(1, m_total - sum(shifts)))
            pairs = [ShiftedPair(_random_pair_f(rng), m) for m in shifts]
            a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            c = a + b + m_total + rng.uniform(0.05, 4.0)
            want = _karlsson_minton_from_oracle(a, b, c, pairs)
            assert theorems.karlsson_minton(a, b, c, pairs) == want

    def test_pair_permutation_invariance(self):
        rng = random.Random(4242)
        for _ in range(20):
            pairs = [
                ShiftedPair(rng.uniform(0.3, 3.0), rng.randint(1, 2))
                for _ in range(3)
            ]
            a, b = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
            c = a + b + sum(p.m for p in pairs) + rng.uniform(0.5, 2.0)
            base = theorems.karlsson_minton(a, b, c, pairs)
            for _ in range(3):
                rng.shuffle(pairs)
                got = theorems.karlsson_minton(a, b, c, pairs)
                assert abs(got - base) <= 1e-13 * abs(base)


INTEGER_ENTRY_POINTS = {
    "pochhammer": (DomainError, lambda n: pochhammer(0.5, n)),
    "contiguous_3f2": (DomainError, lambda m: theorems.contiguous_3f2(0.3, 1.7, 0.9, m)),
    "ck_coefficient": (DomainError, lambda k: theorems.ck_coefficient(k, (ShiftedPair(1.3, 1),))),
    "s_p": (DomainError, theorems.s_p),
    "weighted_s1": (PreconditionError, lambda p: theorems.weighted_s1(p, 0.5)),
    "weighted_s2": (PreconditionError, lambda p: theorems.weighted_s2(p, 0.7)),
    "weighted_pair": (PreconditionError, lambda p: theorems.weighted_pair(p, 0.3, 2.2)),
    "ShiftedPair": (DegenerateError, lambda m: ShiftedPair(1.3, m)),
    "sum_series": (ConfigError, lambda n: sum_series(SeriesSpec((0.5, 0.25), (1.25,)), max_terms=n)),
    "verify_p": (DomainError, lambda p: verify_identity(IdentityCase("eq2.5", {"p": p}))),
    "verify_m": (DomainError, lambda m: verify_identity(
        IdentityCase("eq2.1", {"a": 0.3, "b": 1.7, "c": 0.9, "m": m}))),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_non_finite_integer_argument_is_typed(entry, value):
    # int() raises ValueError on nan and OverflowError on inf; each entry
    # point reports its own error instead.
    error, call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(HypersumError) as info:
        call(value)
    assert type(info.value) is error


@pytest.mark.parametrize("value, digits", [
    pytest.param(10**400, 401, id=str(10**400)),
    pytest.param(-10**400, 401, id=str(-10**400)),
    pytest.param(10**5000, 5001, id="10**5000"),
])
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_integer_past_binary64_is_typed(entry, value, digits):
    # float() raises OverflowError on such an integer; each entry point
    # reports its own error instead, in the one wording with shortened digits.
    # str() refuses 10**5000 (past 4,300 digits), so the digits are counted
    # without it.
    error, call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(HypersumError) as info:
        call(value)
    assert type(info.value) is error
    message = str(info.value)
    assert re.search(r" must be (an|a \w+) integer( >= \d)? in the binary64 range, "
                     rf"got -?1000\.\.\.000 \({digits} digits\)$", message)
    assert len(message) < 120


# Each closed form's real arguments at its catalog point, then its other arguments.
REAL_ENTRY_POINTS = {
    "gauss_2f1": ({"a": 0.5, "b": 0.25, "c": 1.25}, {}),
    "dixon_3f2": ({"a": 0.5, "b": 0.5, "c": 0.25}, {}),
    "contiguous_3f2": ({"a": 0.3, "b": 1.7, "c": 0.9}, {"m": 2}),
    "ratio_sum_extension": ({"b": 0.5, "c": 0.25}, {}),
    "karlsson_minton": ({"a": 0.4, "b": 0.3, "c": 6.0}, {"pairs": [(1.3, 1), (2.1, 2)]}),
    "mu_spaced_sum": ({"b": 1.0, "mu": 2.0}, {}),
    "weighted_s1": ({"f": 0.5}, {"p": 2}),
    "weighted_s2": ({"f": 0.7}, {"p": 3}),
    "weighted_pair": ({"f1": 0.3, "f2": 2.2}, {"p": 4}),
}
REAL_ARGUMENTS = [(entry, arg) for entry, (reals, _) in REAL_ENTRY_POINTS.items() for arg in reals]


@pytest.mark.parametrize("entry, arg", REAL_ARGUMENTS, ids=[f"{e}-{a}" for e, a in REAL_ARGUMENTS])
def test_real_argument_is_read_at_entry(entry, arg):
    # Each real argument is read at entry under its own name, whatever the
    # arithmetic would have made of it.
    assert len(REAL_ARGUMENTS) == 20
    reals, others = REAL_ENTRY_POINTS[entry]

    def call(value):
        return getattr(theorems, entry)(**{**reals, **others, arg: value})

    for value in (None, "x"):
        with pytest.raises(ConfigError, match=rf"^{entry} argument {arg} must be a real number, got "):
            call(value)
    with pytest.raises(RangeError, match=rf"^{entry} argument {arg} must be a real number in the "):
        call(10**400)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=rf"^{entry} argument {arg} must be finite, got "):
            call(value)
    assert call(str(reals[arg])) == call(reals[arg])


# Finite arguments whose sums or differences overflow binary64.
OVERFLOWING_SUMS = [
    ("gauss_2f1", (-1e308, 0.25, 1e308)),
    ("dixon_3f2", (1e308, -1e308, 0.5)),
    ("karlsson_minton", (-1e308, 0.3, 1e308, [(1.3, 1)])),
    ("contiguous_3f2", (0.3, 1e308, -1e308, 2)),
]


@pytest.mark.parametrize("entry, args", OVERFLOWING_SUMS, ids=[e for e, _ in OVERFLOWING_SUMS])
def test_overflowing_argument_sums_are_a_range_error(entry, args):
    # The closed form names itself, not the special function it would call.
    with pytest.raises(RangeError, match=rf"^{entry} argument sums exceed binary64 range$"):
        getattr(theorems, entry)(*args)


class TestSpFamily:
    def test_classic_values(self):
        assert theorems.s_p(1) == pytest.approx(4.0 / math.pi, rel=1e-13, abs=0)
        assert theorems.s_p(2) == pytest.approx(16.0 / (9.0 * math.pi), rel=1e-13, abs=0)
        assert theorems.s_p(3) == pytest.approx(128.0 / (225.0 * math.pi), rel=1e-13, abs=0)

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            theorems.s_p(0)

    def test_matches_mpmath_to_the_end_of_the_range(self):
        # Gamma(170)/Gamma(170.5)^2 ~ 1.4e-307 is still a normal number.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for p in range(1, 171):
                want = float(mpmath.gamma(p) / mpmath.gamma(p + mpmath.mpf(0.5)) ** 2)
                assert _rel_err(theorems.s_p(p), want) <= S_P_BOUND, p

    @pytest.mark.parametrize("p", [100, 170])
    def test_references(self, p):
        assert _rel_err(theorems.s_p(p), REF[f"s_p_{p}"]) <= S_P_BOUND

    def test_weighted_s1_values(self):
        assert theorems.weighted_s1(2, 0.5) == pytest.approx(
            4.0 / (3.0 * math.pi), rel=1e-13, abs=0
        )
        # f = 0 isolates the 1/(4(p-1)) term
        assert theorems.weighted_s1(3, 0.0) == pytest.approx(
            theorems.s_p(3) / 8.0, rel=1e-14, abs=0
        )

    def test_weighted_s1_precondition(self):
        with pytest.raises(PreconditionError):
            theorems.weighted_s1(1, 0.5)

    def test_weighted_s2_reference(self):
        assert theorems.weighted_s2(3, 0.7) == pytest.approx(
            REF["weighted_s2_3_0.7"], rel=1e-13, abs=0
        )
        # f = -1 zeroes the polynomial's first two terms
        assert theorems.weighted_s2(3, -1.0) == pytest.approx(
            theorems.s_p(3) * 9.0 / 32.0, rel=1e-14, abs=0
        )

    def test_weighted_s2_precondition(self):
        with pytest.raises(PreconditionError):
            theorems.weighted_s2(2, 0.7)

    def test_weighted_pair_reference(self):
        assert theorems.weighted_pair(4, 0.3, 2.2) == pytest.approx(
            REF["weighted_pair_4_0.3_2.2"], rel=1e-13, abs=0
        )

    @pytest.mark.parametrize("call", [
        lambda: theorems.weighted_s2(3, 1e200),
        lambda: theorems.weighted_pair(3, 1e300, -1e300),
        lambda: theorems.weighted_pair(3, -1e308, -1e308),
    ], ids=["s2-inf", "pair-minus-inf", "pair-nan"])
    def test_weighted_overflow_is_typed(self, call):
        # Finite f past ~1e154 overflows the polynomial to ±inf, or to nan
        # where f1 f2 = inf meets f1 + f2 = -inf.
        with pytest.raises(RangeError, match=r"value is not finite in binary64"):
            call()

    @given(
        st.integers(min_value=3, max_value=9),
        st.floats(min_value=-3.0, max_value=5.0),
        st.floats(min_value=-3.0, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_pair_symmetry(self, p, f1, f2):
        assert theorems.weighted_pair(p, f1, f2) == theorems.weighted_pair(p, f2, f1)

    @given(
        st.integers(min_value=3, max_value=9),
        st.floats(min_value=-3.0, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_s2_is_pair_specialization(self, p, f):
        lhs = theorems.weighted_s2(p, f)
        rhs = theorems.weighted_pair(p, f, f + 1.0)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1e-300)

    def test_telescoping_relation(self):
        for p in range(2, 9):
            for f in (0.3, 1.0, 2.5, float(p)):
                lhs = theorems.weighted_s1(p, f)
                rhs = theorems.s_p(p - 1) + (f - p) * theorems.s_p(p)
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (p, f)

    def test_reduction_chain_from_karlsson_minton(self):
        for p in range(3, 8):
            f1, f2 = 0.6, 2.3
            km = theorems.karlsson_minton(
                0.5, 0.5, p + 1.0, [ShiftedPair(f1, 1), ShiftedPair(f2, 1)]
            )
            got = km * f1 * f2 / math.factorial(p)
            assert got == pytest.approx(
                theorems.weighted_pair(p, f1, f2), rel=1e-12
            ), p


class TestMuSpacedSum:
    @pytest.mark.parametrize(
        "b,mu,key",
        [
            (0.5, 0.5, "mu_sum_0.5_0.5"),
            (0.5, 1.0, "mu_sum_0.5_1"),
            (1.0, 2.0, "mu_sum_1_2"),
            (2.7, 4.0, "mu_sum_2.7_4"),
        ],
    )
    def test_reference_values(self, b, mu, key):
        assert theorems.mu_spaced_sum(b, mu) == pytest.approx(REF[key], rel=1e-13, abs=0)

    @pytest.mark.parametrize("b,mu,key", [(1.0, 1e-6, "mu_sum_1_1e-6"),
                                          (1.0, 1e-12, "mu_sum_1_1e-12")])
    def test_large_ratio_references(self, b, mu, key):
        assert _rel_err(theorems.mu_spaced_sum(b, mu), REF[key]) <= G_FORM_BOUND

    def test_grid_matches_mpmath(self):
        # b log-uniform in [1e-3, 1e3] and b/mu log-uniform in [1e-6, 1e16];
        # the reference takes the exact quotient of the two doubles.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(1603)
        for _ in range(300):
            b = 10.0 ** rng.uniform(-3.0, 3.0)
            mu = b / 10.0 ** rng.uniform(-6.0, 16.0)
            with mpmath.workdps(40):
                r = mpmath.mpf(b) / mpmath.mpf(mu)
                want = float(mpmath.sqrt(mpmath.pi) * mpmath.gamma(r)
                             / (mu * mpmath.gamma(r + mpmath.mpf(0.5))))
            assert _rel_err(theorems.mu_spaced_sum(b, mu), want) <= G_FORM_BOUND, (b, mu)

    def test_reduces_to_gauss_route(self):
        b, mu = 1.0, 4.0
        via_gauss = theorems.gauss_2f1(0.5, b / mu, b / mu + 1.0) / b
        assert theorems.mu_spaced_sum(b, mu) == pytest.approx(via_gauss, rel=1e-13, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            theorems.mu_spaced_sum(0.0, 1.0)
        with pytest.raises(DomainError):
            theorems.mu_spaced_sum(1.0, 0.0)

    def test_ratio_overflow_is_range_error(self):
        with pytest.raises(RangeError, match="b/mu value is not finite"):
            theorems.mu_spaced_sum(1e300, 1e-10)

    def test_subnormal_ratio_is_finite(self):
        # b/mu = 1e-310 loses digits, but r g(r) -> 1/sqrt(pi) as r -> 0, so
        # the value is 1/b to within u.
        assert _rel_err(theorems.mu_spaced_sum(1e-300, 1e10), 1e300) <= G_FORM_BOUND

    def test_ratio_underflow_is_range_error(self):
        # b/mu underflows to 0, where the value is 1/b to within u; a RangeError
        # only where 1/b overflows.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            r = mpmath.mpf(1e-300) / mpmath.mpf(1e300)
            want = float(mpmath.sqrt(mpmath.pi) * mpmath.gamma(r)
                         / (mpmath.mpf(1e300) * mpmath.gamma(r + mpmath.mpf(0.5))))
        assert _rel_err(theorems.mu_spaced_sum(1e-300, 1e300), want) <= G_FORM_BOUND
        with pytest.raises(RangeError, match="mu_spaced_sum value is not finite"):
            theorems.mu_spaced_sum(5e-324, 1e300)
