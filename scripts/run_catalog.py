#!/usr/bin/env python3
"""Run the built-in identity catalog and a pair of demonstration sweeps.

Prints one line per catalog case (value agreement, terms used, convergence
margin) followed by two sweeps that probe interesting regions: the slowly
convergent boundary of the Karlsson-Minton condition and the weighted-sum
family across its whole valid (p, f) range.

Usage:
    python scripts/run_catalog.py
"""

from hypersum.series import convergence_margin
from hypersum.theorems import ShiftedPair
from hypersum.verify import IdentityId, builtin_catalog, sweep, verify_identity


def show_catalog() -> None:
    print("built-in catalog (pass tolerance 1e-10):")
    print(f"{'identity':<11s} {'lhs=series':<22s} {'rel_err':<10s} {'terms':>9s}  margin")
    for case in builtin_catalog():
        report = verify_identity(case)
        margin = convergence_margin(case.spec)
        flag = "ok" if report.passed else "FAIL"
        print(
            f"{case.identity.value:<11s} {report.lhs:<22.15g} "
            f"{report.rel_err:<10.2e} {report.summation.terms_used:>9d}  "
            f"{margin:.3g} [{flag}]"
        )


def show_boundary_sweep() -> None:
    print()
    print("margin boundary for the shifted-parameter sum (c-a-b-m from 1.5 to 0.05):")
    pairs = (ShiftedPair(1.3, 1),)
    offsets = [1.5, 0.8, 0.4, 0.2, 0.1, 0.05]
    grid = {
        "a": [0.4],
        "b": [0.3],
        "c": [0.4 + 0.3 + 1.0 + off for off in offsets],
        "pairs": [pairs],
    }
    for off, report in zip(offsets, sweep(IdentityId.EQ_2_2, grid, rel_tol=1e-8)):
        print(
            f"  margin-m={off:<5g} rel_err={report.rel_err:.2e} "
            f"terms={report.summation.terms_used:>9d} status={report.summation.status.value}"
        )


def show_weighted_sweep() -> None:
    print()
    print("weighted sums over p in 2..8, f in {0.3, 1.7, 5}:")
    reports = sweep(
        IdentityId.EQ_2_6,
        {"p": list(range(2, 9)), "f": [0.3, 1.7, 5.0]},
        rel_tol=1e-10,
    )
    worst = max(reports, key=lambda r: r.rel_err)
    print(f"  {len(reports)} points, all passed: {all(r.passed for r in reports)}")
    print(
        f"  worst point p={worst.case.parameters['p']} f={worst.case.parameters['f']}: "
        f"rel_err={worst.rel_err:.2e}"
    )


if __name__ == "__main__":
    show_catalog()
    show_boundary_sweep()
    show_weighted_sweep()
