#!/usr/bin/env python3
"""Regenerate the frozen reference values used by the test suite.

Computes every anchor with mpmath at 50 significant digits, independently of
the package under test, and prints them as Python literals.  Arguments are
passed to mpmath as binary doubles (not decimal strings) so each reference is
the true function value at the exact float the tests will use (rounded to the
nearest binary64).  The tests embed these literals; rerun this script if you
ever need to audit or extend them.

Usage:
    python scripts/gen_reference_values.py
"""

from mpmath import mp, mpf, gamma, loggamma, digamma, sqrt, pi, hyper

mp.dps = 50

HALF = mpf(1) / 2
QUARTER = mpf(1) / 4


def emit(name: str, value) -> None:
    print(f'    "{name}": {float(value)!r},')


def s_p(p):
    return gamma(p) / gamma(p + HALF) ** 2


def ratio_sum(b, c):
    if b == c:
        return sqrt(pi) * b * b * gamma(b) / gamma(b + HALF) * (digamma(b + HALF) - digamma(b))
    return sqrt(pi) * b * c / (b - c) * (gamma(c) / gamma(c + HALF) - gamma(b) / gamma(b + HALF))


def mu_sum(b, mu):
    return sqrt(pi) * gamma(b / mu) / (mu * gamma(b / mu + HALF))


def main() -> None:
    print("REFERENCE = {")
    # gamma / log-gamma / digamma spot values
    emit("gamma_0.75", gamma(mpf(0.75)))
    emit("gamma_-0.5", gamma(mpf(-0.5)))
    emit("gamma_-2.5", gamma(mpf(-2.5)))
    emit("gamma_-15.75", gamma(mpf(-15.75)))
    emit("gamma_12.3", gamma(mpf(12.3)))
    emit("gamma_170.2", gamma(mpf(170.2)))
    emit("log_gamma_0.001", loggamma(mpf(0.001)))
    emit("log_gamma_7.25", loggamma(mpf(7.25)))
    emit("log_gamma_100.5", loggamma(mpf(100.5)))
    emit("digamma_1", digamma(mpf(1)))
    emit("digamma_0.1", digamma(mpf(0.1)))
    emit("digamma_0.25", digamma(mpf(0.25)))
    emit("digamma_10.5", digamma(mpf(10.5)))
    emit("digamma_1234.5", digamma(mpf(1234.5)))
    emit("digamma_-6.3", digamma(mpf(-6.3)))

    # the three classical numeric sums and their gamma forms
    emit("ramanujan_sq_inverse", pi ** 2 / (4 * gamma(mpf(0.75)) ** 4))
    emit("ramanujan_sq_inverse_sq", pi ** (mpf(5)/2) / (8 * sqrt(2) * gamma(mpf(0.75)) ** 2))
    emit("ramanujan_inverse", pi ** (mpf(3)/2) / (2 * sqrt(2) * gamma(mpf(0.75)) ** 2))

    # direct hypergeometric values used by theorem tests
    emit("f32_half_half_quarter", hyper([HALF, HALF, QUARTER], [mpf(3) / 2, mpf(5) / 4], 1))
    emit("f32_contig_m1", hyper([mpf(0.3), mpf(1.7), mpf(0.9)], [mpf(2.7), mpf(1.9)], 1))
    emit("f32_contig_m2", hyper([mpf(0.3), mpf(1.7), mpf(0.9)], [mpf(3.7), mpf(1.9)], 1))
    emit("f32_contig_m3", hyper([mpf(0.3), mpf(1.7), mpf(0.9)], [mpf(4.7), mpf(1.9)], 1))
    emit("f32_contig_0.7425_6", hyper(
        [mpf(0.7425), mpf(1.8375), mpf(0.9927)], [mpf(1.8375) + 6, mpf(0.9927) + 1], 1))
    emit("f54_km", hyper(
        [mpf(0.4), mpf(0.3), mpf(2.3), mpf(4.1)],
        [mpf(6), mpf(1.3), mpf(2.1)], 1))

    # ratio-sum values, at b = c and apart, up to b, c = 1e16
    emit("ratio_sum_1_1", ratio_sum(mpf(1), mpf(1)))
    emit("ratio_sum_3_3", ratio_sum(mpf(3), mpf(3)))
    emit("ratio_sum_40.5_45.25", ratio_sum(mpf(40.5), mpf(45.25)))
    emit("ratio_sum_200_300", ratio_sum(mpf(200), mpf(300)))
    emit("ratio_sum_1e6_1e6", ratio_sum(mpf(1e6), mpf(1e6)))
    emit("ratio_sum_1e12_1e12", ratio_sum(mpf(1e12), mpf(1e12)))
    emit("ratio_sum_1e16_1e16", ratio_sum(mpf(1e16), mpf(1e16)))
    emit("ratio_sum_1e16_2e16", ratio_sum(mpf(1e16), mpf(2e16)))

    # weighted sums
    emit("weighted_s2_3_0.7", s_p(3) * (mpf(0.7) * mpf(1.7) + mpf(1.7) / 4 + mpf(9) / 32))
    emit("weighted_pair_4_0.3_2.2", s_p(4) * (
        mpf(0.3) * mpf(2.2) + (mpf(0.3) + mpf(2.2) + 1) / 12 + mpf(9) / 96))
    emit("telescope_15_0.3", s_p(14) + (mpf(0.3) - 15) * s_p(15))
    emit("telescope_4_1.5", s_p(3) + (mpf(1.5) - 4) * s_p(4))
    emit("s_p_100", s_p(mpf(100)))
    emit("s_p_170", s_p(mpf(170)))

    # mu-spaced sums
    emit("mu_sum_0.5_0.5", mu_sum(mpf(0.5), mpf(0.5)))
    emit("mu_sum_0.5_1", mu_sum(mpf(0.5), mpf(1)))
    emit("mu_sum_1_2", mu_sum(mpf(1), mpf(2)))
    emit("mu_sum_2.7_4", mu_sum(mpf(2.7), mpf(4)))
    emit("mu_sum_1_1e-6", mu_sum(mpf(1), mpf(1e-6)))
    emit("mu_sum_1_1e-12", mu_sum(mpf(1), mpf(1e-12)))

    # gamma-ratio spot value
    emit("gamma_ratio_example", gamma(mpf("1.25")) * gamma(HALF) / gamma(mpf(0.75)))
    print("}")


if __name__ == "__main__":
    main()
