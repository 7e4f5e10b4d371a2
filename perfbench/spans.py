"""Spans around the calls the benchmark makes into each hypersum layer.

The layers are the package's modules: specialfn, series, theorems, verify
and cli.  ``Tracer.install`` swaps each public function a layer boundary
calls through (for example ``hypersum.verify.sum_series`` or
``hypersum.theorems.gamma_ratio``) for a wrapper that records a span: name,
label, start, end and parent.  Spans stay in memory until ``summarize``.
Nothing under src/ is changed.

Run as a script, this file is a traced stand-in for ``python -m
hypersum.cli``: it runs the CLI with the tracer installed and writes the
spans as the last line of stderr, after ``SPANS_MARKER``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

SPANS_MARKER = "perfbench-spans "

CLOSED_FORMS = ("gauss_2f1", "dixon_3f2", "contiguous_3f2", "karlsson_minton",
                 "ck_coefficient", "ratio_sum_extension", "mu_spaced_sum", "s_p",
                 "weighted_s1", "weighted_s2", "weighted_pair")
SPECIAL_FUNCTIONS = ("gamma", "log_gamma", "digamma", "pochhammer", "gamma_ratio")
LAYERS = ("specialfn", "series", "theorems", "verify", "cli")


def _targets():
    """(module, attribute, span name, labeller) for every wrapped boundary."""
    import hypersum.series
    import hypersum.theorems
    import hypersum.verify

    identity = lambda args: args[0].identity.value
    # ck_coefficient(k, pairs) costs most at the top order k = m_total.
    top_order = lambda args: "top" if args[0] == sum(p.m for p in args[1]) else ""
    out = [(hypersum.series, "sum_series", "series.sum_series", None),
           (hypersum.verify, "sum_series", "series.sum_series", None),
           (hypersum.verify, "verify_identity", "verify.verify_identity", identity)]
    out += [(hypersum.theorems, fn, f"theorems.{fn}",
             top_order if fn == "ck_coefficient" else None) for fn in CLOSED_FORMS]
    out += [(hypersum.theorems, fn, f"specialfn.{fn}", None)
            for fn in SPECIAL_FUNCTIONS if hasattr(hypersum.theorems, fn)]
    cli = sys.modules.get("hypersum.cli")
    if cli is not None:
        out += [(cli, "sum_series", "series.sum_series", None),
                (cli, "verify_identity", "verify.verify_identity", identity),
                (cli, "sweep", "verify.sweep", None),
                (cli, "main", "cli.main", None)]
    return out


class Tracer:
    """Records spans as [name, label, start_ns, end_ns, parent index, terms].

    A ``sum_series`` span is labelled with the summation status and carries
    the number of terms summed.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, labeller):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            label = labeller(args) if labeller else ""
            spans.append([name, label, clock(), 0, stack[-1] if stack else -1, 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if name == "series.sum_series":
                spans[index][1] = result.status.value
                spans[index][5] = result.terms_used
            return result
        return traced

    def install(self) -> None:
        for module, attr, name, labeller in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, labeller))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def concat(span_lists: list[list[list]]) -> list[list]:
    """Join span lists recorded separately, keeping parent indices valid."""
    out: list[list] = []
    for part in span_lists:
        offset = len(out)
        out += [[*span[:4], span[4] + offset if span[4] >= 0 else -1, span[5]]
                for span in part]
    return out


def summarize(spans: list[list]) -> dict:
    """Busy and self time per layer, durations per function and label, and
    the terms and term-budget hits of the sum_series calls.

    A layer is busy while any of its spans is open; nested spans of the same
    layer are not counted twice.  Self time is a span's duration minus the
    durations of its direct children.
    """
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, list[float]] = {}
    terms = max_terms_hits = 0
    for name, label, start, end, parent, span_terms in spans:
        terms += span_terms
        max_terms_hits += label == "MaxTermsReached"
        layer = name.split(".")[0]
        duration = (end - start) * 1e-9
        self_s[layer] += duration
        if parent >= 0:
            self_s[spans[parent][0].split(".")[0]] -= duration
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            busy[layer] += duration
        calls.setdefault(name, []).append(duration)
        if label:
            calls.setdefault(f"{name}:{label}", []).append(duration)
    return {"busy": busy, "self": self_s, "calls": calls, "terms": terms,
            "max_terms_hits": max_terms_hits}


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _cli_main(argv: list[str]) -> int:
    import hypersum.cli

    tracer = Tracer()
    tracer.install()
    try:
        return hypersum.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(SPANS_MARKER + json.dumps(tracer.spans) + "\n")


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
