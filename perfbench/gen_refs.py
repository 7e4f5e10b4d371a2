#!/usr/bin/env python3
"""Compute the frozen mpmath references the benchmark checks against.

Every operation's value is its documented series times its scale
(``ops.series_of``), summed by ``mpmath.hyper(..., 1)`` at 40 digits from the
exact binary64 inputs.  Each value is computed a second time at 30 digits and
must agree to 1e-18 relative, so a reference that mpmath could not sum
accurately stops the generator.  hypersum is not imported.

Writes perfbench/refs.json.  Run from the repository root after changing
ops.py (takes about ten minutes on one core):

    python3 perfbench/gen_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
from mpmath import mp, mpf

import ops

OUT = Path(__file__).resolve().parent / "refs.json"
AGREEMENT = mpf("1e-18")


def reference(identity: str, args: dict, dps: int):
    mp.dps = dps
    uppers, lowers, scale = ops.series_of(identity, args, num=mpf)
    return scale * mpmath.hyper(uppers, lowers, 1)


def main() -> int:
    # mpmath's Euler-Maclaurin tail for small convergence margins recurses
    # once per term it sums.
    sys.setrecursionlimit(100_000)
    refs = {}
    for key, (identity, args) in sorted(ops.all_reference_keys().items()):
        fine = reference(identity, args, 40)
        coarse = reference(identity, args, 30)
        mp.dps = 40
        if abs(fine - coarse) > AGREEMENT * abs(fine):
            raise SystemExit(f"{key}: mpmath disagrees with itself: {fine} vs {coarse}")
        refs[key] = mpmath.nstr(fine, 25, min_fixed=1, max_fixed=0)
    OUT.write_text(json.dumps({"mpmath": mpmath.__version__, "dps": 40, "values": refs},
                              indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
