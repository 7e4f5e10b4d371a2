#!/usr/bin/env python3
"""hypersum benchmark: one client, one closed loop, one process.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Runs the workload's operations (see ops.py) in passes for ``--seconds``
seconds, checks every result against the frozen mpmath references in
refs.json, and prints the metrics named in BENCHMARK.json: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the environment and the
details behind the numbers.

hypersum is imported from src/ of the checkout, and ``python -m
hypersum.cli`` runs in a child process, one at a time.  Exact counts (terms
summed, term-budget hits, n/a and failed operations, worst digits) must be
the same in every pass and in every run of the same sources and seed; runs
record them under .perfbench/ and compare.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from importlib import metadata
from pathlib import Path

# One thread per process: numpy's BLAS pool would otherwise start a thread
# per core at import, in this process and in every child, and on a two-core
# host those threads compete with the one being timed.  The summation kernel
# uses element-wise numpy only, which is single-threaded either way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COUNTS_FILE = ROOT / ".perfbench" / "counts.json"

sys.path.insert(0, str(HERE))
import ops  # noqa: E402
import spans  # noqa: E402

# Fresh-process set-ups per untraced run, spread evenly over the run so that
# a noisy moment on the host moves a few samples rather than all of them.
SETUP_SAMPLES = 21
PROBE_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# Half-decade term budgets for series.useful_term_frac: 1e2, 10^2.5, ..., 1e7.
LADDER = [round(10 ** (2 + k / 2)) for k in range(11)]
DIGITS_CAP = 17.0  # -log10 of a relative error of 1e-17

# Fresh-process set-up: import hypersum and finish one warm-up call.
_SETUP_CODE = {
    "library": (
        "import time\nt = time.perf_counter()\nimport hypersum\n"
        "hypersum.verify_identity(hypersum.IdentityCase('eq2.7', {'p': 8, 'f': 0.7}))\n"
        "print(time.perf_counter() - t)\n"
    ),
    "cli": (
        "import contextlib, io, time\nt = time.perf_counter()\nimport hypersum.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    hypersum.cli.main(['eval', '-3,2;5'])\n"
        "print(time.perf_counter() - t)\n"
    ),
}
_IMPORT_CODE = "import time\nt = time.perf_counter()\nimport {}\nprint(time.perf_counter() - t)\n"


# ------------------------------------------------------------- helpers ----

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, timeout: float = CHILD_TIMEOUT_S):
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)


def child_seconds(code: str) -> float:
    """Run ``code`` in a fresh interpreter; it prints the seconds it measured."""
    proc = run_child([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"timing child failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def tail(values: list) -> dict:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it.

    Runs with fewer than 20 samples fall back to the median and say how many
    samples lie beyond it.
    """
    q = max([50] + [q for q in TAIL_PERCENTILES if len(values) * (1 - q / 100) >= 10])
    value = percentile(values, q)
    return {"value": value, "percentile": q, "samples": len(values),
            "beyond": sum(v > value for v in values)}


def rel_err(value, ref: Decimal) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return math.inf
    with localcontext() as ctx:
        ctx.prec = 40
        return float(abs(Decimal(value) - ref) / abs(ref))


def digits(err: float) -> float:
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def load_refs() -> dict:
    data = json.loads((HERE / "refs.json").read_text())
    return {key: Decimal(text) for key, text in data["values"].items()}


def source_hash() -> str:
    digest = hashlib.sha256()
    files = sorted(SRC.joinpath("hypersum").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [HERE / "refs.json"]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"), "git_commit": commit,
            "source_hash": source_hash(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Tally:
    """Outcomes of one pass; ``counts`` must repeat exactly."""

    def __init__(self) -> None:
        self.terms = self.max_terms_hits = self.na = self.untyped = 0
        self.failures: list[str] = []
        self.worst_digits = DIGITS_CAP
        self.attempted = 0

    def summation(self, terms: int, status: str) -> None:
        self.terms += terms
        self.max_terms_hits += status == "MaxTermsReached"

    def checked_digits(self, values: list, ref: Decimal, rel_tol: float) -> float:
        """Digits of the worst value, or -1 when one is off by more than rel_tol."""
        err = max(rel_err(v, ref) for v in values)
        return digits(err) if err <= rel_tol else -1.0

    def succeeded(self, found_digits: float) -> None:
        self.worst_digits = min(self.worst_digits, found_digits)

    def fail(self, op, reason: str) -> None:
        self.failures.append(f"{op.id}: {reason}" + (" [known defect]" if op.known_defect else ""))

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if not f.endswith("[known defect]")]

    @property
    def counts(self) -> dict:
        return {"series.terms": self.terms, "series.max_terms_hits": self.max_terms_hits,
                "verify.na_ops": self.na, "failed": len(self.failures),
                "worst_digits": self.worst_digits}


# ---------------------------------------------------- library workloads ----

def call(op: ops.Op, max_terms=None):
    """Run one library operation; returns (lhs, rhs, passed, summation)."""
    from hypersum import series, theorems, verify

    limit = {} if max_terms is None else {"max_terms": max_terms}
    args = op.args
    if op.kind == "verify":
        report = verify.verify_identity(verify.IdentityCase(op.identity, args, op.rel_tol),
                                        **limit)
        return report.lhs, report.rhs, report.passed, report.summation
    uppers, lowers, _ = ops.series_of(op.identity, args)
    if op.kind == "series":
        result = series.sum_series(series.SeriesSpec(uppers, lowers), rel_tol=op.rel_tol,
                                   **limit)
        return result.value, None, True, result
    closed_form = {"gauss": theorems.gauss_2f1, "dixon": theorems.dixon_3f2}[op.kind]
    closed = closed_form(args["a"], args["b"], args["c"])
    result = series.sum_series(series.SeriesSpec(uppers, lowers), **limit)
    return result.value, closed, abs(result.value - closed) <= op.rel_tol * abs(closed), result


def library_pass(op_list: list, refs: dict):
    from hypersum import HypersumError

    outcomes, latencies = [], []
    start = time.perf_counter()
    for op in op_list:
        t0 = time.perf_counter()
        try:
            outcome = ("value", call(op))
        except HypersumError as err:
            outcome = ("na", err)
        except Exception as err:  # an untyped error is a failed operation
            outcome = ("untyped", err)
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    wall = time.perf_counter() - start

    tally = Tally()
    for op, (kind, out) in zip(op_list, outcomes):
        tally.attempted += 1
        if kind == "untyped":
            tally.untyped += 1
            tally.fail(op, f"untyped {type(out).__name__}: {out}")
        elif kind == "na":
            tally.na += 1
            if op.expect == ops.VALUE:
                tally.fail(op, f"unexpected n/a: {out}")
        elif op.expect == ops.NA:
            tally.fail(op, "returned a value outside the validity region")
        else:
            lhs, rhs, passed, summation = out
            tally.summation(summation.terms_used, summation.status.value)
            values = [v for v in (lhs, rhs) if v is not None]
            found = tally.checked_digits(values, refs[op.key], op.rel_tol)
            if passed and found >= 0:
                tally.succeeded(found)
            else:
                tally.fail(op, f"passed={passed}, values {values} vs reference "
                               f"{refs[op.key]:.17} (rel_tol {op.rel_tol:g})")
    return wall, latencies, tally


def terms_needed(op: ops.Op, refs: dict):
    """(terms needed, terms used): the first ladder budget that meets rel_tol."""
    used = call(op)[3].terms_used
    for budget in LADDER:
        lhs, _, _, summation = call(op, max_terms=budget)
        if rel_err(lhs, refs[op.key]) <= op.rel_tol or budget >= used:
            return min(summation.terms_used, used), used
    return used, used


def useful_term_frac(op_list: list, refs: dict) -> float:
    from hypersum import HypersumError

    needed = used = 0
    for op in op_list:
        if op.expect == ops.NA:
            continue
        try:
            n, u = terms_needed(op, refs)
        except (HypersumError, OverflowError):
            continue
        needed, used = needed + n, used + u
    return needed / used if used else 0.0


def specialfn_ns(seed: int) -> dict:
    """ns per call on seeded arguments: small positive, near the overflow
    edge at 171, and negative non-integer."""
    from hypersum import specialfn

    rng = random.Random(seed)
    small = [rng.uniform(0.05, 10.0) for _ in range(100)]
    edge = [rng.uniform(165.0, 171.5) for _ in range(100)]
    negative = [-rng.uniform(0.05, 20.0) for _ in range(100)]
    every = small + edge + negative
    # Ratios pair arguments from the same set, so none leaves binary64 range.
    pairs = [(x, y) for group in (small, edge, negative)
             for x, y in zip(group, rng.sample(group, len(group)))]
    arg_sets = {
        "gamma": [(x,) for x in every],
        "log_gamma": [(x,) for x in small + edge],
        "digamma": [(x,) for x in every],
        "pochhammer": [(x, rng.randint(1, 20)) for x in small + negative],
        "gamma_ratio": [([x], [y]) for x, y in pairs],
    }
    out = {}
    for name, arg_list in arg_sets.items():
        fn = getattr(specialfn, name)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for a in arg_list:
                fn(*a)
            samples.append((time.perf_counter_ns() - t0) / len(arg_list))
        out[f"specialfn.{name}_ns"] = statistics.median(samples)
    return out


# --------------------------------------------------------- cli workload ----

def parse_rows(op: ops.CliOp, out: str) -> list:
    """Result rows printed by one CLI call: values, passed, terms, status."""
    if op.fmt == "json":
        rows = []
        for r in json.loads(out)["results"]:
            if op.command == "eval":
                rows.append({"values": [r["value"]], "passed": True,
                             "terms": r["terms_used"], "status": r["status"]})
            elif r["passed"] is None:
                rows.append({"values": None})
            else:
                rows.append({"values": [r["lhs"], r["rhs"]], "passed": r["passed"],
                             "terms": r["summation"]["terms_used"],
                             "status": r["summation"]["status"]})
        return rows
    if op.fmt == "csv":
        rows = []
        for r in csv.DictReader(io.StringIO(out)):
            if op.command == "eval":
                rows.append({"values": [float(r["value"])], "passed": True,
                             "terms": int(r["terms_used"]), "status": r["status"]})
            elif op.command == "table":
                rows.append({"values": [float(r["closed"]), float(r["direct"])], "passed": True})
            elif r["passed"] == "na":
                rows.append({"values": None})
            else:
                rows.append({"values": [float(r["lhs"]), float(r["rhs"])],
                             "passed": r["passed"] == "true", "terms": int(r["terms_used"]),
                             "status": r["status"]})
        return rows
    field = {l[:15].strip(): l[15:].strip() for l in out.splitlines()}
    if op.command == "eval":
        return [{"values": [float(field["value"])], "passed": True,
                 "terms": int(field["terms_used"]), "status": field["status"]}]
    return [{"values": [float(field["lhs (series)"]), float(field["rhs (closed)"])],
             "passed": field["passed"] == "yes", "terms": int(field["terms_used"])}]


def check_cli(op: ops.CliOp, code: int, out: str, err: str, refs: dict, tally: Tally):
    tally.attempted += 1
    if "Traceback" in err:
        tally.untyped += 1
        return tally.fail(op, f"exit {code} with a traceback: {err.strip().splitlines()[-1]}")
    if code not in op.exits:
        return tally.fail(op, f"exit {code}, expected {op.exits}")
    if code == 2:
        tally.na += 1
    if code != 0:
        return None
    expected = ops.cli_rows(op)
    try:
        rows = parse_rows(op, out)
    except (ValueError, KeyError, IndexError) as parse_error:
        return tally.fail(op, f"unparsable output: {parse_error!r}")
    if len(rows) != len(expected):
        return tally.fail(op, f"{len(rows)} result rows, expected {len(expected)}")
    worst = DIGITS_CAP
    for row, want in zip(rows, expected):
        if (row["values"] is None) != (want is None):
            return tally.fail(op, f"row n/a mismatch: {row}")
        if want is None:
            continue
        if "terms" in row:
            tally.summation(row["terms"], row.get("status", ""))
        ref = refs[ops.ref_key(want[0], dict(want[1]))]
        found = tally.checked_digits(row["values"], ref, op.rel_tol)
        if not (row["passed"] and found >= 0):
            return tally.fail(op, f"row {row} vs reference {ref:.17}")
        worst = min(worst, found)
    # The human format prints 12 digits, so only machine formats count.
    if op.fmt != "human":
        tally.succeeded(worst)
    return None


def cli_pass(op_list: list, refs: dict, traced: bool):
    base = [sys.executable, str(HERE / "spans.py")] if traced else [sys.executable, "-m", "hypersum.cli"]
    results, latencies, span_lists = [], [], []
    start = time.perf_counter()
    for op in op_list:
        t0 = time.perf_counter()
        try:
            proc = run_child(base + list(op.argv))
            result = (proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:
            result = (None, "", "Traceback: timed out")
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    wall = time.perf_counter() - start

    tally = Tally()
    for op, (code, out, err) in zip(op_list, results):
        if traced:
            # A traceback, if any, follows the spans line.
            head, _, body = err.partition(spans.SPANS_MARKER)
            if body:
                line, _, rest = body.partition("\n")
                err = head + rest
                span_lists.append(json.loads(line))
        check_cli(op, code, out, err, refs, tally)
    return wall, latencies, tally, span_lists


# ------------------------------------------------------------ the loop ----

def measure(run_pass, seconds: float, trace: bool, setup_code=None):
    """Passes until ``seconds`` have elapsed; with tracing, every other pass is traced.

    With ``setup_code``, SETUP_SAMPLES fresh-process set-ups run between
    passes, evenly spread over the run.  Returns (passes, set-up seconds).
    """
    results, setup = [], []
    target = SETUP_SAMPLES if setup_code else 0
    start = time.perf_counter()
    while len(results) < (4 if trace else 2) or time.perf_counter() - start < seconds:
        due = min(target, 1 + int(target * (time.perf_counter() - start) / seconds))
        while len(setup) < due:
            setup.append(child_seconds(setup_code))
        traced = trace and len(results) % 2 == 1
        results.append((traced, run_pass(traced)))
    while len(setup) < target:
        setup.append(child_seconds(setup_code))
    return results, setup


def check_counts(key: str, counts: dict) -> str:
    """Compare with the counts an earlier run of the same sources and seed saw."""
    COUNTS_FILE.parent.mkdir(exist_ok=True)
    seen = json.loads(COUNTS_FILE.read_text()) if COUNTS_FILE.exists() else {}
    if key in seen and seen[key] != counts:
        return f"exact counts differ from an earlier run: {seen[key]} != {counts}"
    seen[key] = counts
    tmp = COUNTS_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, COUNTS_FILE)
    return ""


IDENTITIES = ("eq1.1", "eq1.2", "eq1.3", "eq1.6", "eq2.1", "eq2.2", "eq2.3", "eq2.5",
              "eq2.6", "eq2.7", "eq2.8", "telescope")
CLI_COMMANDS = ("eval", "verify", "sweep", "table")
CLI_METRICS = ("interpreter_s", "numpy_import_s", "import_s", "eval_s", "verify_s",
               "sweep_s", "table_s", "self_s")
PER_LAYER_UNITS = {
    "series.terms": "count", "series.max_terms_hits": "count", "series.calls": "count",
    "series.busy_s": "s", "series.self_s": "s", "series.ns_per_term": "ns",
    "series.useful_term_frac": "fraction",
    "theorems.busy_s": "s", "theorems.self_s": "s",
    **{f"theorems.{fn}_us": "us" for fn in spans.CLOSED_FORMS},
    "specialfn.busy_s": "s", "specialfn.self_s": "s",
    **{f"specialfn.{fn}_ns": "ns" for fn in spans.SPECIAL_FUNCTIONS},
    "verify.busy_s": "s", "verify.self_s": "s", "verify.na_ops": "count",
    "verify.untyped_errors": "count",
    **{f"verify.{identity}_ms": "ms" for identity in IDENTITIES},
    **{f"cli.{name}": "s" for name in CLI_METRICS},
    "trace.pass_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(traced_spans: list, tally: Tally) -> dict:
    """Per-layer metrics from the spans of each traced pass."""
    summaries = [spans.summarize(s) for s in traced_spans]
    calls: dict[str, list] = {}
    for s in summaries:
        for name, durations in s["calls"].items():
            calls.setdefault(name, []).extend(durations)
    m = {}
    for layer in ("series", "theorems", "specialfn", "verify"):
        m[f"{layer}.busy_s"] = statistics.median(s["busy"][layer] for s in summaries)
        m[f"{layer}.self_s"] = statistics.median(s["self"][layer] for s in summaries)
    # Counted at the sum_series boundary, so they include sums whose terms
    # the CLI does not print (table).
    m["series.terms"] = statistics.median(s["terms"] for s in summaries)
    m["series.max_terms_hits"] = statistics.median(s["max_terms_hits"] for s in summaries)
    m["series.calls"] = statistics.median(
        len(s["calls"].get("series.sum_series", [])) for s in summaries)
    m["series.ns_per_term"] = (m["series.busy_s"] / m["series.terms"] * 1e9
                               if m["series.terms"] else 0.0)
    for fn in spans.CLOSED_FORMS:
        name = "theorems.ck_coefficient:top" if fn == "ck_coefficient" else f"theorems.{fn}"
        m[f"theorems.{fn}_us"] = spans.median_or_zero(calls.get(name)) * 1e6
    m["verify.na_ops"] = tally.na
    m["verify.untyped_errors"] = tally.untyped
    for identity in IDENTITIES:
        m[f"verify.{identity}_ms"] = spans.median_or_zero(
            calls.get(f"verify.verify_identity:{identity}")) * 1e3
    return m


def cli_metrics(op_list: list, plain: list) -> dict:
    """Interpreter start and import times from fresh children, and call
    times by subcommand from the untraced passes."""
    interpreter = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interpreter.append(time.perf_counter() - t0)
    m = {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.numpy_import_s": statistics.median(
            child_seconds(_IMPORT_CODE.format("numpy")) for _ in range(PROBE_SAMPLES)),
        "cli.import_s": statistics.median(
            child_seconds(_IMPORT_CODE.format("hypersum.cli")) for _ in range(PROBE_SAMPLES)),
    }
    by_command = {name: [] for name in CLI_COMMANDS}
    for _, latencies, *_ in plain:
        for op, seconds in zip(op_list, latencies):
            by_command[op.command].append(seconds)
    for name, values in by_command.items():
        m[f"cli.{name}_s"] = statistics.median(values)
    every = [s for values in by_command.values() for s in values]
    m["cli.self_s"] = statistics.median(every) - m["cli.interpreter_s"] - m["cli.import_s"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "hypersum" / "__init__.py").is_file():
        print(f"error: hypersum sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = load_refs()
    is_cli = args.workload == "cli"
    trace = bool(args.trace)

    metrics, details = {}, {}
    if is_cli:
        op_list = ops.cli_ops(args.seed)
        run_pass = lambda traced: cli_pass(op_list, refs, traced)
    else:
        op_list = (ops.catalog_ops() if args.workload == "catalog"
                   else ops.closed_forms_ops(args.seed))
        run_pass = lambda traced: library_pass(op_list, refs)

    tracer = spans.Tracer()
    traced_spans = []

    def one_pass(traced):
        if is_cli:
            wall, lat, tally, child_spans = run_pass(traced)
            if traced:
                traced_spans.append(spans.concat(child_spans))
            return wall, lat, tally
        if traced:
            tracer.install()
        try:
            result = run_pass(traced)
        finally:
            if traced:
                tracer.uninstall()
                traced_spans.append(tracer.take())
        return result

    setup_code = None if trace else _SETUP_CODE["cli" if is_cli else "library"]
    passes, setup = measure(one_pass, args.seconds, trace, setup_code)
    plain = [r for traced, r in passes if not traced]
    tallies = [r[2] for _, r in passes]
    tally = tallies[0]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failures) for t in tallies)

    problems = sorted({f for t in tallies for f in t.unexpected})
    mismatch = check_counts(f"{source_hash()}:{args.workload}:{args.seed}", tally.counts)
    if any(t.counts != tally.counts for t in tallies):
        mismatch = f"exact counts differ between passes: {[t.counts for t in tallies]}"
    if mismatch:
        problems.append(mismatch)

    walls = [r[0] for r in plain]
    if not trace:
        # On a shared host, slow phases lasting seconds to minutes move the
        # median pass of a run by up to 50% from run to run, and the fastest
        # sample of each operation by a few times less.  So each operation's latency
        # is its fastest over the passes, pass_s is their sum, and the call
        # percentiles are taken over operations, so that a percentile
        # follows one operation instead of jumping across the gap between
        # two whenever the host's speed shifts.  Set-up is taken the same
        # way.  The median and tail passes, which show the slow phases, are
        # in the details line.
        per_op = [min(calls) for calls in zip(*(r[1] for r in plain))]
        metrics["setup_s"] = (min(setup), "s")
        details["setup_samples_s"] = setup
        details["setup_s_median"] = statistics.median(setup)
        details["pass_s_median"] = statistics.median(walls)
        details["pass_s_tail"] = tail(walls)
        metrics["pass_s"] = (sum(per_op), "s")
        metrics["call_s_p50"] = (percentile(per_op, 50), "s")
        metrics["call_s_p90"] = (percentile(per_op, 90), "s")
        metrics["worst_digits"] = (tally.worst_digits, "digits")
        metrics["ok_frac"] = (1.0 - failed / attempted, "fraction")
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
        details["operations"] = len(per_op)
    else:
        layer = layer_metrics(traced_spans, tally)
        traced_walls = [r[0] for traced, r in passes if traced]
        layer["trace.pass_s"] = statistics.median(traced_walls)
        layer["trace.overhead_s"] = layer["trace.pass_s"] - statistics.median(walls)
        layer.update(specialfn_ns(args.seed))
        # The ladder reruns library operations; cli has none of its own.
        layer["series.useful_term_frac"] = 0.0 if is_cli else useful_term_frac(op_list, refs)
        layer.update(cli_metrics(op_list, plain) if is_cli else
                     {f"cli.{name}": 0.0 for name in CLI_METRICS})
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}

    details["passes"] = len(passes)
    details["counts"] = tally.counts
    details["failures"] = sorted({f for t in tallies for f in t.failures})
    details["problems"] = problems
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13s} {name:<34s} {value:>16.6g} {unit}")
    print(json.dumps({"environment": environment(args), "details": details}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
