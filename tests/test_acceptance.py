"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N ...: PASS/FAIL" line (visible with
pytest -s and in failure reports) and then asserts the criterion at its
stated tolerance.  Reference decimals are frozen from the 50-digit oracle
(scripts/gen_reference_values.py), never copied from prose.

Criterion 8's branch-continuity bound is mathematically unattainable.  The
test asserts the bound as stated and is marked strict-xfail; the docstring
of test_criterion_8_branch_continuity_bound has the full analysis.
"""

import math
import random
import time

import pytest

from hypersum import specialfn, theorems
from hypersum.cli import _table_entries
from hypersum.series import SeriesSpec, sum_series
from hypersum.theorems import ShiftedPair
from hypersum.verify import IdentityCase, IdentityId, sweep, verify_identity

from oracles import (
    random_terminating_spec,
    rational_abs_term_sum,
    rational_terminating_sum,
)

# 50-digit references (scripts/gen_reference_values.py)
RAMANUJAN_SQ_INVERSE = 1.0942198076132383      # sum ((1/2)_n/n!)^2/(4n+1)
RAMANUJAN_SQ_INVERSE_SQ = 1.029679593731718    # sum ((1/2)_n/n!)/(4n+1)^2
RAMANUJAN_INVERSE = 1.3110287771460598         # sum ((1/2)_n/n!)/(4n+1)


def announce(number: int, label: str, ok: bool) -> bool:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_numeric_table():
    t0 = time.perf_counter()
    entries = _table_entries(rel_tol=1e-10, max_terms=10_000_000)
    elapsed = time.perf_counter() - t0
    by_id = {e["identity"]: e for e in entries}
    anchors = {
        "eq1.1": RAMANUJAN_SQ_INVERSE,
        "eq1.2": RAMANUJAN_SQ_INVERSE_SQ,
        "eq1.3": RAMANUJAN_INVERSE,
    }
    ok = elapsed < 2.0
    for name, anchor in anchors.items():
        entry = by_id[name]
        ok &= entry["rel_err"] <= 1e-10
        # closed forms computed by the package must match the independent oracle
        ok &= abs(entry["closed"] - anchor) <= 1e-12 * anchor
    assert announce(1, f"numeric table, {elapsed:.2f}s", ok)


def test_criterion_2_s_p_values():
    exact = {1: 4.0 / math.pi, 2: 16.0 / (9.0 * math.pi), 3: 128.0 / (225.0 * math.pi)}
    ok = True
    for p, want in exact.items():
        closed = theorems.s_p(p)
        direct = sum_series(
            SeriesSpec((0.5, 0.5), (p + 1.0,)), rel_tol=1e-12
        ).value / math.factorial(p)
        ok &= abs(closed - want) <= 1e-10 * want
        ok &= abs(direct - want) <= 1e-10 * want
    assert announce(2, "S_p closed and direct", ok)


def test_criterion_3_mu_spaced_family():
    ok = True
    for b in (0.5, 1.0, 2.7):
        for mu in (0.5, 1.0, 2.0, 4.0):
            spec = IdentityCase(IdentityId.EQ_1_6, {"b": b, "mu": mu}).spec
            direct = sum_series(spec, rel_tol=1e-12).value / b
            closed = theorems.mu_spaced_sum(b, mu)
            ok &= abs(direct - closed) <= 1e-10 * abs(closed)
    # the (b=1, mu=4) member is the third Ramanujan sum
    special = theorems.mu_spaced_sum(1.0, 4.0)
    ok &= abs(special - RAMANUJAN_INVERSE) <= 1e-12 * RAMANUJAN_INVERSE
    assert announce(3, "mu-spaced sums over 12 (b, mu) points", ok)


def _away_from_integers(rng: random.Random, low: float, high: float, gap: float) -> float:
    while True:
        x = rng.uniform(low, high)
        if abs(x - round(x)) > gap:
            return x


def test_criterion_4_contiguous_sweep():
    rng = random.Random(40426)
    failures = 0
    points = 0
    for m in (1, 2, 3, 4):
        for _ in range(20):
            # enforce the validity region with a 0.05 moat: (b-c)_m != 0 and
            # the gamma arguments 1-a, 1+b-a away from their poles
            a = _away_from_integers(rng, -2.0, m + 0.5, 0.05)
            while True:
                b = rng.uniform(0.2, 4.0)
                c = rng.uniform(0.2, 4.0)
                if all(abs(b - c + j) > 0.05 for j in range(m)) and abs(
                    (1.0 + b - a) - round(1.0 + b - a)
                ) > 0.05:
                    break
            report = verify_identity(
                IdentityCase(IdentityId.EQ_2_1, {"a": a, "b": b, "c": c, "m": m}, 1e-9)
            )
            points += 1
            if report.passed is not True:
                failures += 1
    assert announce(4, f"contiguous 3F2 sweep, {points} points", failures == 0)


def test_criterion_5_karlsson_minton():
    rng = random.Random(50551)
    failures = 0
    for r in (1, 2, 3):
        for _ in range(20):
            pairs = tuple(
                ShiftedPair(rng.uniform(0.3, 3.0), rng.randint(1, 2)) for _ in range(r)
            )
            m_total = sum(p.m for p in pairs)
            a = rng.uniform(0.2, 1.5)
            b = rng.uniform(0.2, 1.5)
            while True:
                offset = 0.5 + rng.uniform(0.0, 2.0)
                if abs((offset % 1.0) - 0.5) < 0.45:  # keep (1+a+b-c)_k off zero
                    break
            c = a + b + m_total + offset
            report = verify_identity(
                IdentityCase(
                    IdentityId.EQ_2_2, {"a": a, "b": b, "c": c, "pairs": pairs}, 1e-9
                )
            )
            if report.passed is not True:
                failures += 1
    ok = failures == 0

    # single-pair coefficients against the binomial shortcut
    for m in range(1, 7):
        for f in (0.2, 0.5, 1.0, 2.5, 5.0):
            for k in range(m + 1):
                got = theorems.ck_coefficient(k, [ShiftedPair(f, m)])
                want = math.comb(m, k) / specialfn.pochhammer(f, k)
                ok &= abs(got - want) <= 1e-13 * abs(want)
    assert announce(5, "Karlsson-Minton sweep and C_k shortcut", ok)


def test_criterion_6_weighted_identities():
    ok = True
    reports = sweep(
        IdentityId.EQ_2_6, {"p": [2, 3, 4, 5, 6], "f": [0.3, 1.7, 5.0]}, rel_tol=1e-10
    )
    ok &= all(r.passed is True for r in reports)
    reports = sweep(
        IdentityId.EQ_2_7, {"p": [3, 4, 5, 6], "f": [0.3, 1.7]}, rel_tol=1e-10
    )
    ok &= all(r.passed is True for r in reports)
    reports = sweep(
        IdentityId.EQ_2_8,
        {"p": [3, 4, 5, 6], "f1": [0.3, 1.1], "f2": [2.2, 1.1]},
        rel_tol=1e-10,
    )
    ok &= all(r.passed is True for r in reports)
    for p in range(3, 7):
        for f in (0.3, 1.1, 1.7, 5.0):
            lhs = theorems.weighted_pair(p, f, f + 1.0)
            rhs = theorems.weighted_s2(p, f)
            ok &= abs(lhs - rhs) <= 1e-13 * abs(rhs)
    assert announce(6, "weighted identity grids", ok)


def test_criterion_7_telescoping():
    ok = True
    for p in range(2, 9):
        for f in (0.3, 1.0, 2.5, float(p)):
            lhs = theorems.weighted_s1(p, f)
            rhs = theorems.s_p(p - 1) + (f - p) * theorems.s_p(p)
            ok &= abs(lhs - rhs) <= 1e-12 * abs(lhs)
    assert announce(7, "telescoping relation", ok)


def test_criterion_8_digamma_branch():
    value = theorems.ratio_sum_extension(0.25, 0.25)
    ok = abs(value - RAMANUJAN_SQ_INVERSE_SQ) <= 1e-10 * RAMANUJAN_SQ_INVERSE_SQ
    gap = specialfn.digamma(0.75) - specialfn.digamma(0.25)
    ok &= abs(gap - math.pi) <= 1e-13 * math.pi
    assert announce(8, "digamma branch at b=c=1/4", ok)


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the two inputs are genuinely different "
    "sums, |S(b, b(1+1e-7)) - S(b, b)| ~ 2.4e-9..1.9e-8 of the value "
    "(50-digit arithmetic); see this test's docstring",
)
def test_criterion_8_branch_continuity_bound():
    """|S(b, b(1+delta)) - S(b, b)| <= 1e-9 |S(b, b)| at delta = 1e-7.

    Unattainable: the two inputs are different sums whose true values differ
    by ~(delta/2) * value * (2 + b g''(b)/g'(b)), which is 2.4e-9 / 1.1e-8 /
    1.9e-8 of the value at b = 0.25 / 1 / 3 (50-digit arithmetic), above the
    demanded 1e-9 for every b.
    """
    ok = True
    for b in (0.25, 1.0, 3.0):
        near = theorems.ratio_sum_extension(b, b * (1.0 + 1e-7))
        exact = theorems.ratio_sum_extension(b, b)
        ok &= abs(near - exact) <= 1e-9 * abs(exact)
    announce(8, "branch continuity at gap 1e-7", ok)
    assert ok


def test_criterion_9_property_suites():
    rng = random.Random(90909)
    ok = True
    for _ in range(1000):
        x = rng.uniform(0.1, 50.0)
        lhs = specialfn.gamma(x + 1.0)
        ok &= abs(lhs - x * specialfn.gamma(x)) <= 1e-12 * abs(lhs)
    for _ in range(200):
        x = rng.uniform(0.01, 0.99)
        prod = specialfn.gamma(x) * specialfn.gamma(1.0 - x)
        ok &= abs(prod * math.sin(math.pi * x) / math.pi - 1.0) <= 1e-12
    for _ in range(500):
        x = rng.uniform(0.1, 100.0)
        gap = specialfn.digamma(x + 1.0) - specialfn.digamma(x)
        ok &= abs(gap - 1.0 / x) <= 1e-12
    for _ in range(200):
        x = rng.uniform(-10.0, 10.0)
        n = rng.randint(0, 12)
        ok &= specialfn.pochhammer(x, n + 1) == specialfn.pochhammer(x, n) * (x + n)

    oracle_rng = random.Random(20260810)
    for _ in range(50):
        nums, dens = random_terminating_spec(oracle_rng)
        exact = float(rational_terminating_sum(nums, dens))
        got = sum_series(
            SeriesSpec([float(a) for a in nums], [float(b) for b in dens]),
            rel_tol=1e-10,
        ).value
        scale = max(abs(exact), float(rational_abs_term_sum(nums, dens)))
        ok &= abs(got - exact) <= 1e-13 * scale
    assert announce(9, "special-function and oracle property suites", ok)


def test_criterion_10_wall_time(session_elapsed):
    elapsed = session_elapsed()
    assert announce(10, f"suite wall time {elapsed:.1f}s < 30s", elapsed < 30.0)
