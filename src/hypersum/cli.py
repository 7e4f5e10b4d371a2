"""Command-line front end.

Usage:
    hypersum eval "0.5,0.25;1.25"              # sum a series directly
    hypersum verify --identity eq2.6 --p 3 --f 0.7
    hypersum sweep --identity eq2.8 --p 3,4,5 --f1 0.3,1.1 --f2 2.2
    hypersum table --format csv                # the built-in numeric table

Global flags: --format human|json|csv, --rel-tol (default 1e-10),
--max-terms (default 10000000).

Exit codes: 0 success, 1 usage error (ConfigError), 2 not applicable (any
NotApplicableError) or eval's term budget exhausted, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from collections import Counter
from collections.abc import Callable, Sequence
from typing import Any

from .errors import ConfigError, DivergenceError, NotApplicableError
from .series import DEFAULT_MAX_TERMS, SeriesSpec, SummationStatus, sum_series
from .verify import (
    DEFAULT_REL_TOL,
    IdentityCase,
    IdentityId,
    VerificationReport,
    identity_signature,
    sweep,
    verify_identity,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_APPLICABLE = 2
EXIT_FAILURE = 3

# Also the key order of verify's JSON "parameters" and of sweep's "grid";
# human and CSV output use signature order.  Deriving this from
# identity_signature would reorder those JSON keys.
_PARAM_FLAGS = ("a", "b", "c", "f", "f1", "f2", "mu", "p", "m", "pairs")


def _human(x: float) -> str:
    return format(x, ".12g")


def _machine(x: float) -> str:
    return format(x, ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json", "csv"), default="human")
    common.add_argument("--rel-tol", dest="rel_tol", type=float, default=DEFAULT_REL_TOL)
    common.add_argument("--max-terms", dest="max_terms", type=int, default=DEFAULT_MAX_TERMS)

    parser = _Parser(
        prog="hypersum",
        description="Evaluate and verify unit-argument hypergeometric summations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="sum a series directly")
    p_eval.add_argument("spec", help="series parameters as 'a1,a2,...;b1,b2,...'")
    # Let specs with a leading negative parameter ("-3,2;5") parse as
    # positionals instead of being mistaken for option flags.
    p_eval._negative_number_matcher = re.compile(r"^-\d")

    for name, helptext in (
        ("verify", "check one identity instance"),
        ("sweep", "check an identity over a parameter grid"),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--identity", required=True, help="identity id, e.g. eq2.6")
        for flag in _PARAM_FLAGS:
            p.add_argument(f"--{flag}", type=str, default=None)

    sub.add_parser("table", parents=[common], help="emit the built-in numeric table")
    return parser


def _parse_float(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"not a number: {token!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise ConfigError(f"not a finite number: {token!r}")
    return value


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"not an integer: {token!r}") from None


def _parse_pair(token: str) -> tuple[float, int]:
    # A plain (f, m) pair: the eq2.2 builder checks it, so an invalid pair is
    # not applicable instead of a usage error.
    if ":" not in token:
        raise ConfigError(f"pair must look like f:m, got {token!r}")
    f_part, m_part = token.split(":", 1)
    return _parse_float(f_part), _parse_int(m_part)


def _parse_list(text: str, parse: Callable[[str], Any]) -> list[Any]:
    """A comma-separated list; blank text is empty, an empty token an error."""
    if text.strip() == "":
        return []
    return [parse(tok.strip()) for tok in text.split(",")]


def _parse_pairs(text: str) -> tuple[tuple[float, int], ...]:
    # One pair list is one value, so unlike a list flag it is never blank.
    return tuple(_parse_pair(tok.strip()) for tok in text.split(","))


_PARSERS = {"p": _parse_int, "m": _parse_int, "pairs": _parse_pairs}


def _parse_series_spec(text: str) -> SeriesSpec:
    parts = text.split(";")
    if len(parts) != 2:
        raise ConfigError(
            f"series spec must look like 'a1,a2,...;b1,b2,...', got {text!r}"
        )
    try:
        return SeriesSpec(*(_parse_list(part, _parse_float) for part in parts))
    except NotApplicableError as err:  # the spec is input: a usage error
        raise ConfigError(str(err)) from None


def _parameter_values(identity: IdentityId, args: argparse.Namespace, listy: bool) -> dict[str, Any]:
    """Collect the identity's parameters from CLI flags.

    With ``listy`` each flag holds a comma-separated list (sweep grids), except
    ``--pairs``, which is one pair list; otherwise one value per flag (verify).
    """
    signature = identity_signature(identity)
    params: dict[str, Any] = {}
    for flag in _PARAM_FLAGS:
        raw = getattr(args, flag)
        if flag not in signature:
            if raw is not None:
                raise ConfigError(f"--{flag} does not apply to {identity.value}")
            continue
        if raw is None:
            raise ConfigError(
                f"{identity.value} requires --{flag} "
                f"(signature: {', '.join(signature)})"
            )
        parse = _PARSERS.get(flag, _parse_float)
        if not listy:
            params[flag] = parse(raw)
        elif flag == "pairs":
            params[flag] = [parse(raw)]
        else:
            params[flag] = _parse_list(raw, parse)
            if not params[flag]:
                raise ConfigError(f"--{flag} has an empty value list")
    return params


def _csv_line(fields: Sequence[Any]) -> str:
    # proper quoting: parameter and note fields may contain commas
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(fields)
    return buffer.getvalue()


def _finish(args: argparse.Namespace, command: str, inputs: dict[str, Any], results: list[Any],
            summary: dict[str, Any], human_lines: Sequence[str],
            csv_rows: Sequence[Sequence[Any]] | None = None) -> int:
    """Print a command's result in the chosen format; return its exit code.

    CSV writes ``csv_rows`` through :func:`_csv_line`; without them (an n/a
    message) it prints the human lines as they are.
    """
    if args.format == "json":
        inputs = {**inputs, "rel_tol": args.rel_tol, "max_terms": args.max_terms}
        document = {"command": command, "inputs": inputs, "results": results,
                    "summary": summary}
        lines: Sequence[str] = [json.dumps(document, indent=2)]
    elif args.format == "csv" and csv_rows is not None:
        lines = [_csv_line(row) for row in csv_rows]
    else:
        lines = human_lines
    sys.stdout.write("\n".join(lines) + "\n")
    return summary["exit"]


# A JSON row is a dataclass's fields in declaration order: json.dumps writes
# the str enums as their values and the parameters' (f, m) tuples as arrays.
def _report_json(report: VerificationReport) -> dict[str, Any]:
    row = {**vars(report.case), **vars(report)}
    del row["case"]
    row["summation"] = None if report.summation is None else vars(report.summation)
    return row


def _params_text(identity: IdentityId, params: dict[str, Any]) -> str:
    chunks = []
    for name in identity_signature(identity):
        value = params[name]
        if name == "pairs":
            body = ",".join(f"{f:g}:{m}" for f, m in value)
            chunks.append(f"pairs={body}")
        elif isinstance(value, int):
            chunks.append(f"{name}={value}")
        else:
            chunks.append(f"{name}={value:g}")
    return " ".join(chunks)


# ----------------------------------------------------------------- eval ----


def _cmd_eval(args: argparse.Namespace) -> int:
    spec = _parse_series_spec(args.spec)
    inputs = {
        "spec": args.spec,
        "numerators": list(spec.numerators),
        "denominators": list(spec.denominators),
    }
    try:
        result = sum_series(spec, rel_tol=args.rel_tol, max_terms=args.max_terms)
    except NotApplicableError as err:
        kind = "divergent" if isinstance(err, DivergenceError) else "not applicable"
        summary = {"error": str(err), "exit": EXIT_NOT_APPLICABLE}
        return _finish(args, "eval", inputs, [], summary, [f"{kind}: {err}"])

    code = EXIT_OK if result.status != SummationStatus.MAX_TERMS_REACHED else EXIT_NOT_APPLICABLE
    return _finish(
        args, "eval", inputs, [vars(result)],
        {"status": result.status.value, "exit": code},
        [
            f"value          {_human(result.value)}",
            f"terms_used     {result.terms_used}",
            f"error_estimate {_human(result.error_estimate)}",
            f"status         {result.status.value}",
        ],
        [
            ("value", "terms_used", "error_estimate", "status"),
            (_machine(result.value), result.terms_used, _machine(result.error_estimate),
             result.status.value),
        ],
    )


# --------------------------------------------------------------- verify ----


def _cmd_verify(args: argparse.Namespace) -> int:
    identity = IdentityId(args.identity)
    params = _parameter_values(identity, args, listy=False)
    inputs = {"identity": identity.value, "parameters": params}
    case = IdentityCase(identity, params, rel_tol=args.rel_tol)
    try:
        report = verify_identity(case, max_terms=args.max_terms)
    except NotApplicableError as err:
        summary = {"not_applicable": str(err), "exit": EXIT_NOT_APPLICABLE}
        return _finish(args, "verify", inputs, [], summary, [f"not applicable: {err}"])

    assert report.summation is not None
    return _finish(
        args, "verify", inputs, [_report_json(report)],
        {"passed": report.passed, "exit": EXIT_OK if report.passed else EXIT_FAILURE},
        [
            f"identity       {identity.value}",
            f"parameters     {_params_text(identity, params) or '(none)'}",
            f"lhs (series)   {_human(report.lhs)}",
            f"rhs (closed)   {_human(report.rhs)}",
            f"abs_err        {_human(report.abs_err)}",
            f"rel_err        {_human(report.rel_err)}",
            f"terms_used     {report.summation.terms_used}",
            f"precondition   {report.precondition_note}",
            f"passed         {'yes' if report.passed else 'NO'}",
        ],
        [_REPORT_CSV_HEADER, _report_csv_row(report)],
    )


# ---------------------------------------------------------------- sweep ----

_REPORT_CSV_HEADER = ("identity", "parameters", "lhs", "rhs", "abs_err", "rel_err", "passed",
                      "terms_used", "status", "note")


def _report_csv_row(report: VerificationReport) -> list[Any]:
    case = report.case
    params = _params_text(case.identity, case.parameters)
    if report.passed is None:
        return [case.identity.value, params, "", "", "", "", "na", "", "",
                report.precondition_note]
    values = map(_machine, (report.lhs, report.rhs, report.abs_err, report.rel_err))
    return [case.identity.value, params, *values, "true" if report.passed else "false",
            report.summation.terms_used, report.summation.status.value, report.precondition_note]


def _cmd_sweep(args: argparse.Namespace) -> int:
    identity = IdentityId(args.identity)
    grid = _parameter_values(identity, args, listy=True)
    reports = sweep(identity, grid, rel_tol=args.rel_tol, max_terms=args.max_terms)
    tally = Counter(r.passed for r in reports)
    human = []
    for r in reports:
        ptxt = _params_text(identity, r.case.parameters)
        if r.passed is None:
            human.append(f"{ptxt:<40s} n/a: {r.precondition_note}")
        else:
            verdict = "pass" if r.passed else "FAIL"
            human.append(
                f"{ptxt:<40s} lhs={_human(r.lhs)} rhs={_human(r.rhs)} "
                f"rel_err={r.rel_err:.3e} {verdict}"
            )
    human.append(f"passed={tally[True]} failed={tally[False]} not_applicable={tally[None]}")
    return _finish(
        args, "sweep", {"identity": identity.value, "grid": grid}, [_report_json(r) for r in reports],
        {
            "passed": tally[True],
            "failed": tally[False],
            "not_applicable": tally[None],
            "exit": EXIT_OK if tally[False] == 0 else EXIT_FAILURE,
        },
        human,
        [_REPORT_CSV_HEADER, *(_report_csv_row(r) for r in reports)],
    )


# ---------------------------------------------------------------- table ----

# The table is a view over catalog cases: each row is one verify_identity
# call.  The symbolic forms are classical: the first row's denominator
# carries the fourth power of Gamma(3/4), which the closed form and the
# series agree on.
_TABLE_ROWS: tuple[tuple[str, str, IdentityId, dict[str, Any]], ...] = (
    ("eq1.1", "pi^2/(4*Gamma(3/4)^4)", IdentityId.EQ_1_1, {}),
    ("eq1.2", "pi^(5/2)/(8*sqrt(2)*Gamma(3/4)^2)", IdentityId.EQ_1_2, {}),
    ("eq1.3", "pi^(3/2)/(2*sqrt(2)*Gamma(3/4)^2)", IdentityId.EQ_1_3, {}),
    ("S_1", "4/pi", IdentityId.EQ_2_5, {"p": 1}),
    ("S_2", "16/(9*pi)", IdentityId.EQ_2_5, {"p": 2}),
    ("S_3", "128/(225*pi)", IdentityId.EQ_2_5, {"p": 3}),
)


def _table_entries(rel_tol: float, max_terms: int) -> list[dict[str, Any]]:
    entries = []
    for name, symbolic, identity, params in _TABLE_ROWS:
        report = verify_identity(IdentityCase(identity, params, rel_tol), max_terms=max_terms)
        entries.append({
            "identity": name,
            "symbolic": symbolic,
            "closed": report.rhs,
            "direct": report.lhs,
            "rel_err": report.rel_err,
            "passed": report.passed,
        })
    return entries


def _cmd_table(args: argparse.Namespace) -> int:
    entries = _table_entries(args.rel_tol, args.max_terms)
    n_fail = sum(1 for e in entries if not e["passed"])
    csv_rows: list[Sequence[Any]] = [("identity", "symbolic", "closed", "direct", "rel_err")]
    human = [
        f"{'identity':<8s} {'closed form':<36s} {'closed':<18s} "
        f"{'direct':<18s} {'rel_err':<10s}"
    ]
    for e in entries:
        csv_rows.append((e["identity"], e["symbolic"],
                         *(_machine(e[k]) for k in ("closed", "direct", "rel_err"))))
        mark = "" if e["passed"] else "  FAIL"
        human.append(
            f"{e['identity']:<8s} {e['symbolic']:<36s} "
            f"{_human(e['closed']):<18s} {_human(e['direct']):<18s} "
            f"{e['rel_err']:.3e}{mark}"
        )
    summary = {
        "passed": len(entries) - n_fail,
        "failed": n_fail,
        "exit": EXIT_OK if n_fail == 0 else EXIT_FAILURE,
    }
    return _finish(args, "table", {}, entries, summary, human, csv_rows)


# ----------------------------------------------------------------- main ----


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "eval": _cmd_eval,
            "verify": _cmd_verify,
            "sweep": _cmd_sweep,
            "table": _cmd_table,
        }[args.command]
        return handler(args)
    except ConfigError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
