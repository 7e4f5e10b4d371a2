#!/usr/bin/env python3
"""Print a digest of the CLI's output over a fixed matrix of calls.

Each call runs in-process through ``hypersum.cli.main`` and prints one line:
the exit code, the first 12 hex digits of the sha256 of stdout and of
stderr, and the argv.  ``tests/cli_digest.txt`` holds the expected digest,
which ``tests/test_scripts.py`` compares line for line; diff a new digest
with it to see which calls changed their output or exit code, and rewrite it
when a change alters output on purpose:

    PYTHONPATH=src python scripts/cli_digest.py > tests/cli_digest.txt

A call that raises instead of returning an exit code prints ``!`` as its
code and its traceback on stderr, and the script then exits 1.

Usage:
    python scripts/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
import traceback

from hypersum.cli import main

_EQ13 = "0.5,0.25;1.25"
_HUGE = "1" + "0" * 400  # an integer past the binary64 range

# The calls of the benchmark's cli workload, verbatim.
BENCHMARK = (
    ("eval", _EQ13, "--format", "json"),
    ("eval", "-3,2;5"),
    ("eval", _EQ13, "--max-terms", "1000", "--format", "csv"),
    ("verify", "--identity", "eq2.6", "--p", "3", "--f", "0.7"),
    ("verify", "--identity", "eq1.3", "--format", "json"),
    ("verify", "--identity", "eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6",
     "--pairs", "1.3:1,2.1:2", "--format", "csv"),
    ("sweep", "--identity", "eq2.7", "--p", "2,4,6", "--f", "0.7", "--format", "csv"),
    ("table", "--format", "csv"),
    ("verify", "--identity", "eq9.9"),
    ("verify", "--identity", "eq2.7", "--p", "2", "--f", "0.5", "--format", "json"),
    ("verify", "--identity", "eq2.1", "--a", "-300", "--b", "1.7", "--c", "0.9", "--m", "2"),
)

# Every identity at a valid point, then at points outside its validity
# region (eq1.1-eq1.3 take no parameters, so they have none).  In the last
# two eq2.1 points (b-c)_m overflows at m = 1e7, and is an exact zero at
# b-c = -200, m = 300, although its first 200 factors overflow.  Two eq2.3
# points have b and c within a relative 1.5e-8 and 2e-8.  The last eq1.6
# and eq2.3 points have large b/mu and b = c; at b = c = 1e12 the series
# still runs out of budget.  One eq1.6 point has b/mu underflow to 0, and one
# eq2.3 point has b = c below the normal range.  The last three points give
# an integer parameter past the binary64 range.
VERIFY = (
    ("eq1.1",),
    ("eq1.2",),
    ("eq1.3",),
    ("eq1.6", "--b", "1", "--mu", "2"),
    ("eq1.6", "--b", "-1", "--mu", "2"),
    ("eq1.6", "--b", "1", "--mu", "0"),
    ("eq1.6", "--b", "1e300", "--mu", "1e-10"),
    ("eq1.6", "--b", "1e-300", "--mu", "1e300"),
    ("eq1.6", "--b", "1", "--mu", "1e-6"),
    ("eq2.1", "--a", "0.3", "--b", "1.7", "--c", "0.9", "--m", "2"),
    ("eq2.1", "--a", "3.5", "--b", "1.7", "--c", "0.9", "--m", "2"),
    ("eq2.1", "--a", "1", "--b", "-3", "--c", "0.9", "--m", "5"),
    ("eq2.1", "--a", "0.3", "--b", "1.7", "--c", "0.9", "--m", "10000000"),
    ("eq2.1", "--a", "0.3", "--b", "1.7", "--c", "201.7", "--m", "300"),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6", "--pairs", "1.3:1,2.1:2"),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "1", "--pairs", "1.3:1"),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6", "--pairs", "0:1"),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6", "--pairs", "1.3:0"),
    ("eq2.2", "--a", "0.3", "--b", "0.2", "--c", "1e200", "--pairs", "1.3:1"),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "1e17", "--pairs", "1.3:1"),
    ("eq2.3", "--b", "0.5", "--c", "0.25"),
    ("eq2.3", "--b", "-0.5", "--c", "0.25"),
    ("eq2.3", "--b", "1e160", "--c", "0.25"),
    ("eq2.3", "--b", "1e-310", "--c", "1e-310"),
    ("eq2.3", "--b", "0.25", "--c", "0.25000000375"),
    ("eq2.3", "--b", "3", "--c", "3.00000006"),
    ("eq2.3", "--b", "1e6", "--c", "1e6"),
    ("eq2.3", "--b", "1e12", "--c", "1e12"),
    ("eq2.5", "--p", "1"),
    ("eq2.5", "--p", "0"),
    ("eq2.5", "--p", "200"),
    ("eq2.6", "--p", "3", "--f", "0.7"),
    ("eq2.6", "--p", "1", "--f", "0.7"),
    ("eq2.6", "--p", "3", "--f", "0"),
    ("eq2.6", "--p", "3", "--f", "1e17"),
    ("eq2.7", "--p", "3", "--f", "0.7"),
    ("eq2.7", "--p", "2", "--f", "0.5"),
    ("eq2.8", "--p", "4", "--f1", "0.3", "--f2", "2.2"),
    ("eq2.8", "--p", "2", "--f1", "0.3", "--f2", "2.2"),
    ("telescope", "--p", "3", "--f", "1"),
    ("telescope", "--p", "1", "--f", "1"),
    ("eq2.5", "--p", _HUGE),
    ("eq2.1", "--a", "0.3", "--b", "1.7", "--c", "0.9", "--m", _HUGE),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6", "--pairs", f"1.3:{_HUGE}"),
)

# Terminating series, one with a nonpositive-integer lower parameter that
# an upper one ends the series before, one whose 61 terms cancel to ~1e-22
# against a rounding error of ~1e21, one whose 41 finite terms sum past
# binary64, and one cut by its budget; margin-1/2,
# small-margin and p = q series; two that run out of budget; divergent and overflowing ones; one whose tail model starts
# past the int64 range; two whose parameter sums overflow and one whose
# model index 4|c1| does; a budget past the binary64 range.
EVAL = (
    ("-3,2;5",),
    ("-2.5,1;3",),
    ("-2,0.5;-5",),
    ("-60,40.5;3.25",),
    ("-40,-41,1e10;1.4e-308,7.8e12",),
    ("-40,0.5;1.5", "--max-terms", "10"),
    (_EQ13,),
    ("0.5,0.45;1.05",),
    ("0.5;0.5",),
    (_EQ13, "--max-terms", "1000"),
    (_EQ13, "--rel-tol", "1e-14", "--max-terms", "10000"),
    ("1,1;1",),
    ("1e200;1e-200",),
    ("1e160,1;2e160",),
    ("0.5,1e10;2e10",),
    ("0.5;1e308,1e308",),
    ("-1e308,-1e308;0.5",),
    ("1.34e154,0.5,0.5,0.5;4.4666666666666674e+153,4.4666666666666674e+153,"
     "4.4666666666666674e+153",),
    (_EQ13, "--max-terms", _HUGE),
)

SWEEP = (
    ("eq2.8", "--p", "3,4,5", "--f1", "0.3,1.1", "--f2", "2.2"),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6,7", "--pairs", "1.3:1,2.1:2"),
    ("eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6,7", "--pairs", "1.3:0"),
    ("eq2.5", "--p", "1,200"),
    ("eq2.1", "--a", "0.3", "--b", "1.7", "--c", "0.9", "--m", "1,2,3"),
    ("eq1.6", "--b", "0.5,1", "--mu", "2,-1"),
    ("eq2.5", "--p", f"1,{_HUGE}"),
)

USAGE = (
    (),
    ("verify",),
    ("verify", "--identity", "eq2.6", "--p", "3"),
    ("verify", "--identity", "eq1.1", "--a", "1"),
    ("verify", "--identity", "eq2.5", "--p", ""),
    ("verify", "--identity", "eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6", "--pairs", "1.3"),
    ("sweep", "--identity", "eq2.5", "--p", "1,,2"),
    ("eval", "0.5,oops;1.25"),
    ("eval", "0.5,0.25"),
    ("eval", "0.5;-2"),
    ("eval", "-3,0.5;-2"),
    ("eval", "0.5,;1"),
    ("eval", "0.5;1", "--max-terms", "0"),
    ("eval", "0.5;1", "--rel-tol", "0"),
)

FORMATS = ((), ("--format", "json"), ("--format", "csv"))


def matrix() -> list[tuple[str, ...]]:
    bases = [("verify", "--identity", *rest) for rest in VERIFY]
    bases += [("eval", *rest) for rest in EVAL]
    bases += [("sweep", "--identity", *rest) for rest in SWEEP]
    bases += [("table",), *USAGE]
    return list(BENCHMARK) + [base + fmt for base in bases for fmt in FORMATS]


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def digest(argv: tuple[str, ...]) -> tuple[str, bool]:
    """The digest line of one call, and whether the call raised."""
    out, err = io.StringIO(), io.StringIO()
    raised = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception:
            code, raised = "!", True
            err.write(traceback.format_exc())
    if raised:
        sys.stderr.write(f"{shlex.join(argv)}\n{err.getvalue()}")
    return f"{code} {_short(out.getvalue())} {_short(err.getvalue())} {shlex.join(argv)}", raised


def run() -> int:
    any_raised = False
    for argv in matrix():
        line, raised = digest(argv)
        print(line)
        any_raised |= raised
    return 1 if any_raised else 0


if __name__ == "__main__":
    sys.exit(run())
