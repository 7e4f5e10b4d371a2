"""The scripts under scripts/ run against the current package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hypersum

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[path.stem]
    return module


def run_script(name):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hypersum.__file__)))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_run_catalog():
    proc = run_script("run_catalog.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    catalog = [line for line in lines if line.endswith(("[ok]", "[FAIL]"))]
    assert len(catalog) == 12
    assert all(line.endswith("[ok]") for line in catalog)
    assert sum(line.startswith("  margin-m=") for line in lines) == 6
    assert "all passed: True" in proc.stdout


def test_cli_digest():
    # tests/cli_digest.txt pins every exit code and output hash of the CLI's
    # call matrix; a change that alters output on purpose rewrites it with
    #     PYTHONPATH=src python scripts/cli_digest.py > tests/cli_digest.txt
    proc = run_script("cli_digest.py")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert {line.split()[0] for line in lines} <= {"0", "1", "2", "3"}
    golden = (Path(__file__).resolve().parent / "cli_digest.txt").read_text()
    assert lines == golden.splitlines()


def test_benchmark_trace_hooks_resolve(monkeypatch):
    # perfbench/run.py --trace 1 wraps each target of spans._targets() with
    # a plain getattr and times the special functions by name, so a rename
    # in the package would break the benchmark's traced runs.
    import hypersum.cli  # spans wraps the CLI's names only once it is imported

    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ first
    before = set(sys.modules)
    try:
        run = load_module(ROOT / "perfbench" / "run.py")
        targets = run.spans._targets()
        timings = run.specialfn_ns(1)
    finally:
        for name in {"ops", "spans"} - before:
            sys.modules.pop(name, None)
    assert all(hasattr(module, attr) for module, attr, _, _ in targets)
    cli_attrs = {attr for module, attr, _, _ in targets if module is hypersum.cli}
    assert cli_attrs == {"sum_series", "verify_identity", "sweep", "main"}
    assert {name for _, _, name, _ in targets} >= {
        f"theorems.{fn}" for fn in run.spans.CLOSED_FORMS}
    assert sorted(timings) == sorted(f"specialfn.{fn}_ns" for fn in run.spans.SPECIAL_FUNCTIONS)
    assert all(ns > 0 for ns in timings.values())


def test_cli_digest_covers_the_benchmark_calls():
    # The digest's BENCHMARK calls are the benchmark's cli workload, verbatim.
    digest = load_module(SCRIPTS / "cli_digest.py")
    ops = load_module(ROOT / "perfbench" / "ops.py")
    assert digest.BENCHMARK == tuple(op.argv for op in ops.CLI_OPS)
