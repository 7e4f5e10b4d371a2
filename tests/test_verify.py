"""Verification harness tests: catalog, sweeps, reports."""

import json
import math
import re
from dataclasses import fields

import pytest

from hypersum import theorems, verify
from hypersum.cli import _PARAM_FLAGS, _report_json, _table_entries
from hypersum.errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    PreconditionError,
    RangeError,
)
from hypersum.series import SeriesSpec, SummationResult, SummationStatus
from hypersum.specialfn import gamma, gamma_ratio
from hypersum.theorems import ShiftedPair
from hypersum.verify import (
    IdentityCase,
    IdentityId,
    VerificationReport,
    builtin_catalog,
    identity_signature,
    sweep,
    verify_identity,
)

from oracles import block_ends

# 50-digit reference, regenerate with scripts/gen_reference_values.py
RAMANUJAN_INVERSE = 1.3110287771460598  # 2F1(1/2, 1/4; 5/4; 1)


class TestIdentityCase:
    def test_signature_enforced(self):
        with pytest.raises(ConfigError):
            IdentityCase(IdentityId.EQ_2_6, {"p": 3})
        with pytest.raises(ConfigError):
            IdentityCase(IdentityId.EQ_1_1, {"p": 3})
        with pytest.raises(ConfigError):
            IdentityCase(IdentityId.EQ_2_6, {"p": 3, "f": 0.7, "x": 1.0})

    def test_rel_tol_positive(self):
        with pytest.raises(ConfigError):
            IdentityCase(IdentityId.EQ_1_1, {}, rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol,error", [
        (None, ConfigError), (math.inf, ConfigError), (-math.inf, ConfigError),
        ("x", ConfigError), (10**400, RangeError),
    ], ids=["None", "inf", "-inf", "str", "huge"])
    def test_rel_tol_is_typed(self, rel_tol, error):
        # Checked like every other real argument; sweep checks it before the
        # grid, so an empty grid raises too.
        with pytest.raises(error, match="^rel_tol must be"):
            IdentityCase("eq1.3", {}, rel_tol)
        with pytest.raises(error, match="^rel_tol must be"):
            sweep("eq1.1", {}, rel_tol=rel_tol)

    @pytest.mark.parametrize("rel_tol", [0, 0.0, -1e-10, math.nan])
    def test_rel_tol_not_positive_message(self, rel_tol):
        with pytest.raises(ConfigError, match=re.escape(f"rel_tol must be positive, got {rel_tol!r}")):
            IdentityCase("eq1.3", {}, rel_tol)

    def test_string_identity_accepted(self):
        case = IdentityCase("eq2.6", {"p": 3, "f": 0.7})
        assert case.identity is IdentityId.EQ_2_6


class TestVerifyIdentity:
    def test_first_ramanujan_sum(self):
        report = verify_identity(IdentityCase(IdentityId.EQ_1_1, {}, 1e-10))
        assert report.passed is True
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    def test_weighted_case_closed_form(self):
        report = verify_identity(IdentityCase(IdentityId.EQ_2_6, {"p": 2, "f": 0.5}))
        assert report.passed is True
        # Gamma(2)/Gamma(5/2)^2 * (1/2 + 1/4) = 4/(3 pi)
        assert report.rhs == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-13, abs=0)

    def test_precondition_violation_raises_with_note(self):
        case = IdentityCase(
            IdentityId.EQ_2_2,
            {"a": 0.4, "b": 0.3, "c": 1.0, "pairs": (ShiftedPair(1.3, 1),)},
        )
        with pytest.raises(PreconditionError, match="c-a-b>m violated"):
            verify_identity(case)

    def test_weighted_zero_f_is_degenerate(self):
        with pytest.raises(DegenerateError):
            verify_identity(IdentityCase(IdentityId.EQ_2_6, {"p": 3, "f": 0.0}))

    def test_telescope_matches_weighted_sum(self):
        r1 = verify_identity(IdentityCase(IdentityId.TELESCOPE, {"p": 4, "f": 1.5}))
        assert r1.passed is True
        # telescope_4_1.5 of scripts/gen_reference_values.py: S_3 + (1.5 - 4) S_4
        assert r1.rhs == pytest.approx(0.07021584065296861, rel=1e-15, abs=0)

    def test_telescope_closed_form_does_not_cancel(self):
        # S_14 + (0.3 - 15) S_15 is 1/47 of S_14: formed that way, the closed
        # form is off by ~1e-12 and the exact identity fails at rel_tol 1e-13.
        case = IdentityCase(IdentityId.TELESCOPE, {"p": 15, "f": 0.3}, rel_tol=1e-13)
        report = verify_identity(case)
        assert report.passed is True
        # telescope_15_0.3 of scripts/gen_reference_values.py
        assert report.rhs == pytest.approx(2.4715492382771203e-13, rel=1e-14, abs=0)

    @pytest.mark.parametrize("f1,f2", [(3.47, 3.77), (4.2093, 3.159)])
    def test_eq28_no_stop_where_tail_model_breaks(self, f1, f2):
        # The term test fires at n ~ 59, where a first-order tail model with
        # c1 ~ -59 divided by 1 + c1/n ~ 0 (rel_err ~3e-9)
        report = verify_identity(IdentityCase(IdentityId.EQ_2_8, {"p": 11, "f1": f1, "f2": f2}))
        assert report.passed is True
        assert report.rel_err <= 1e-13

    def test_eq_2_5_large_p_stops_early(self):
        # Parameters near 170 make the tail unresolved for a while; the terms
        # fall fast, so the term test must still stop at the first block end
        report = verify_identity(IdentityCase(IdentityId.EQ_2_5, {"p": 170}))
        assert report.passed is True
        assert report.summation.status is SummationStatus.CONVERGED
        assert report.summation.terms_used == next(block_ends()) + 1

    def test_report_invariant_passed_iff_rel_err_small(self):
        report = verify_identity(IdentityCase(IdentityId.EQ_2_8, {"p": 4, "f1": 0.3, "f2": 2.2}))
        assert report.passed == (report.rel_err <= report.case.rel_tol)
        assert report.summation is not None
        assert report.precondition_note


class TestCatalog:
    def test_twelve_distinct_cases(self):
        catalog = builtin_catalog()
        assert len(catalog) == 12
        assert {case.identity for case in catalog} == set(IdentityId)

    def test_fixed_parameter_choices(self):
        by_id = {case.identity: case for case in builtin_catalog()}
        assert by_id[IdentityId.EQ_1_1].parameters == {}
        assert by_id[IdentityId.EQ_1_2].parameters == {}
        assert by_id[IdentityId.EQ_1_3].parameters == {}
        assert by_id[IdentityId.EQ_2_5].parameters == {"p": 1}
        assert all(case.rel_tol == 1e-10 for case in by_id.values())

    def test_catalog_soundness(self):
        for case in builtin_catalog():
            report = verify_identity(case)
            assert report.passed is True, (case.identity, report.rel_err)

    @pytest.mark.parametrize(
        "identity,constant",
        [(IdentityId.EQ_1_3, RAMANUJAN_INVERSE), (IdentityId.EQ_1_6, math.pi / 2.0)],
    )
    def test_margin_half_sums_converge(self, identity, constant):
        by_id = {case.identity: case for case in builtin_catalog()}
        report = verify_identity(by_id[identity])
        summation = report.summation
        assert summation.status is SummationStatus.CONVERGED
        assert summation.terms_used <= 100_000
        actual = abs(report.lhs - constant)
        assert actual <= 1e-13 * constant
        assert actual <= abs(report.lhs / summation.value) * summation.error_estimate

    def test_eq_2_5_expects_four_over_pi(self):
        by_id = {case.identity: case for case in builtin_catalog()}
        report = verify_identity(by_id[IdentityId.EQ_2_5])
        assert report.rhs == pytest.approx(4.0 / math.pi, rel=1e-13, abs=0)


class TestIdentityTable:
    def test_one_record_per_identity(self):
        # TestCatalog checks one builtin_catalog case per identity.
        assert list(verify._IDENTITIES) == list(IdentityId)

    def test_signatures_cover_the_cli_flags(self):
        names = set()
        for identity in IdentityId:
            names.update(identity_signature(identity))
        assert names == set(_PARAM_FLAGS)

    @pytest.mark.parametrize("rel_tol,max_terms", [(1e-10, 10_000_000), (1e-6, 1000)])
    def test_table_rows_are_verify_reports(self, rel_tol, max_terms):
        by_id = {case.identity: case for case in builtin_catalog(rel_tol)}
        cases = [
            by_id[IdentityId.EQ_1_1],
            by_id[IdentityId.EQ_1_2],
            by_id[IdentityId.EQ_1_3],
            by_id[IdentityId.EQ_2_5],
            IdentityCase(IdentityId.EQ_2_5, {"p": 2}, rel_tol),
            IdentityCase(IdentityId.EQ_2_5, {"p": 3}, rel_tol),
        ]
        entries = _table_entries(rel_tol, max_terms)
        assert [e["identity"] for e in entries] == ["eq1.1", "eq1.2", "eq1.3", "S_1", "S_2", "S_3"]
        for entry, case in zip(entries, cases, strict=True):
            report = verify_identity(case, max_terms=max_terms)
            assert (entry["closed"], entry["direct"], entry["rel_err"], entry["passed"]) == (
                report.rhs, report.lhs, report.rel_err, report.passed
            )

    def test_catalog_points(self):
        pairs = (ShiftedPair(1.3, 1), ShiftedPair(2.1, 2))
        assert [(case.identity.value, case.parameters) for case in builtin_catalog()] == [
            ("eq1.1", {}),
            ("eq1.2", {}),
            ("eq1.3", {}),
            ("eq1.6", {"b": 1.0, "mu": 2.0}),
            ("eq2.1", {"a": 0.3, "b": 1.7, "c": 0.9, "m": 2}),
            ("eq2.2", {"a": 0.4, "b": 0.3, "c": 6.0, "pairs": pairs}),
            ("eq2.3", {"b": 0.5, "c": 0.25}),
            ("eq2.5", {"p": 1}),
            ("eq2.6", {"p": 2, "f": 0.5}),
            ("eq2.7", {"p": 3, "f": 0.7}),
            ("eq2.8", {"p": 4, "f1": 0.3, "f2": 2.2}),
            ("telescope", {"p": 3, "f": 1.0}),
        ]
        first, second = builtin_catalog(), builtin_catalog()
        first[3].parameters["b"] = 5.0
        assert second[3].parameters["b"] == 1.0

    # Each weight (n+f)_m of the S_p family is an upper parameter f+m over a
    # lower f; the scale (f)_m / p! restores the factors left out of the series.
    @pytest.mark.parametrize(
        "identity,params,spec,scale",
        [
            (IdentityId.EQ_2_5, {"p": 1}, ((0.5, 0.5), (2.0,)), 1.0 / 1.0),
            (IdentityId.EQ_2_5, {"p": 7}, ((0.5, 0.5), (8.0,)), 1.0 / 5040.0),
            (IdentityId.EQ_2_6, {"p": 2, "f": 0.5}, ((0.5, 0.5, 0.5 + 1.0), (3.0, 0.5)), 0.5 / 2.0),
            (IdentityId.EQ_2_6, {"p": 5, "f": -1.3}, ((0.5, 0.5, -1.3 + 1.0), (6.0, -1.3)), -1.3 / 120.0),
            (IdentityId.EQ_2_7, {"p": 3, "f": 0.7}, ((0.5, 0.5, 0.7 + 2.0), (4.0, 0.7)), 0.7 * (0.7 + 1.0) / 6.0),
            (IdentityId.EQ_2_7, {"p": 6, "f": 2.9}, ((0.5, 0.5, 2.9 + 2.0), (7.0, 2.9)), 2.9 * (2.9 + 1.0) / 720.0),
            (
                IdentityId.EQ_2_8,
                {"p": 4, "f1": 0.3, "f2": 2.2},
                ((0.5, 0.5, 0.3 + 1.0, 2.2 + 1.0), (5.0, 0.3, 2.2)),
                0.3 * 2.2 / 24.0,
            ),
            (
                IdentityId.EQ_2_8,
                {"p": 5, "f1": 1.1, "f2": -0.6},
                ((0.5, 0.5, 1.1 + 1.0, -0.6 + 1.0), (6.0, 1.1, -0.6)),
                1.1 * -0.6 / 120.0,
            ),
            (IdentityId.TELESCOPE, {"p": 3, "f": 1.0}, ((0.5, 0.5, 2.0), (4.0, 1.0)), 1.0 / 6.0),
            (IdentityId.TELESCOPE, {"p": 4, "f": 1.5}, ((0.5, 0.5, 1.5 + 1.0), (5.0, 1.5)), 1.5 / 24.0),
        ],
    )
    def test_sp_family_spec_and_scale(self, identity, params, spec, scale):
        case = IdentityCase(identity, params)
        assert case.spec == SeriesSpec(*spec)
        report = verify_identity(case)
        assert report.lhs == scale * report.summation.value

    def test_spec_raises_like_verify(self):
        case = IdentityCase(IdentityId.EQ_2_7, {"p": 2, "f": 0.5})
        for evaluate in (lambda: case.spec, lambda: verify_identity(case)):
            with pytest.raises(PreconditionError, match="p>=3 violated: p=2"):
                evaluate()


class TestLostShifts:
    # A shift x + m that rounds to x changes the series' margin, so a
    # convergent series such as eq2.3 at b = 1e160 would read as divergent.
    @pytest.mark.parametrize(
        "identity,params,name",
        [
            (IdentityId.EQ_1_6, {"b": 1e17, "mu": 1.0}, "b/mu"),
            (IdentityId.EQ_2_1, {"a": 0.3, "b": 1e17, "c": 0.9, "m": 2}, "b"),
            (IdentityId.EQ_2_2, {"a": 0.4, "b": 0.3, "c": 1e18, "pairs": ((1e17, 1),)}, "f"),
            (IdentityId.EQ_2_3, {"b": 1e160, "c": 0.25}, "b"),
            (IdentityId.EQ_2_3, {"b": 0.25, "c": 1e160}, "c"),
            (IdentityId.EQ_2_5, {"p": 10**17}, "p"),
            (IdentityId.EQ_2_6, {"p": 3, "f": 1e17}, "f"),
            (IdentityId.EQ_2_8, {"p": 3, "f1": 0.5, "f2": 2e17}, "f2"),
        ],
    )
    def test_lost_shift_is_range_error(self, identity, params, name):
        name = re.escape(name)
        with pytest.raises(RangeError, match=rf"^{name} \+ \d+ rounds to {name} in binary64$"):
            verify_identity(IdentityCase(identity, params))

    def test_lost_shift_is_one_na_row(self):
        reports = sweep(IdentityId.EQ_2_3, {"b": [0.5, 1e160], "c": [0.25]})
        assert [r.passed for r in reports] == [True, None]
        assert reports[1].precondition_note == "b + 1 rounds to b in binary64"

    def test_large_p_fails_fast(self):
        # p! is never computed past 170!, which is the binary64 limit.
        with pytest.raises(RangeError, match=r"^1000000! exceeds binary64 range$"):
            verify_identity(IdentityCase(IdentityId.EQ_2_5, {"p": 10**6}))


class TestMalformedBudget:
    # A budget below one term is a malformed request, not an n/a point.
    def test_verify_identity_raises_config_error(self):
        with pytest.raises(ConfigError, match="^max_terms must be a positive integer, got 0$"):
            verify_identity(IdentityCase(IdentityId.EQ_1_3, {}), max_terms=0)

    def test_sweep_raises_config_error(self):
        with pytest.raises(ConfigError, match="^max_terms must be a positive integer, got 0$"):
            sweep(IdentityId.EQ_2_6, {"p": [2, 3], "f": [0.5]}, max_terms=0)

    @pytest.mark.parametrize("max_terms", [0, 2.5])
    def test_checked_before_the_point(self, max_terms):
        # p = 0 is outside eq2.5's region; the malformed budget is reported first.
        match = f"^max_terms must be a positive integer, got {max_terms!r}$"
        with pytest.raises(ConfigError, match=match):
            verify_identity(IdentityCase(IdentityId.EQ_2_5, {"p": 0}), max_terms=max_terms)
        with pytest.raises(ConfigError, match=match):
            sweep(IdentityId.EQ_2_5, {"p": [0]}, max_terms=max_terms)


class TestUnknownIdentity:
    MESSAGE = r"^unknown identity 'eq9\.9'; valid ids: eq1\.1, .*, telescope$"

    @pytest.mark.parametrize("call", [
        lambda: IdentityId("eq9.9"),
        lambda: IdentityCase("eq9.9", {}),
        lambda: identity_signature("eq9.9"),
        lambda: sweep("eq9.9", {"p": [1]}),
    ])
    def test_raises_config_error(self, call):
        with pytest.raises(ConfigError, match=self.MESSAGE) as info:
            call()
        assert isinstance(info.value, ValueError)  # older handlers still catch it


class TestNonFiniteIntegerParameter:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("identity,params,name", [
        (IdentityId.EQ_2_1, {"a": 0.3, "b": 1.7, "c": 0.9}, "m"),
        (IdentityId.EQ_2_5, {}, "p"),
    ])
    def test_verify_identity_raises_domain_error(self, identity, params, name, value):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            verify_identity(IdentityCase(identity, {**params, name: value}))

    def test_sweep_gives_na_row(self):
        na, row = sweep(IdentityId.EQ_2_5, {"p": [math.nan, 2]})
        assert na.passed is None
        assert na.precondition_note == "p must be an integer, got nan"
        assert row.passed is True
        assert row.case.parameters == {"p": 2}


class TestIntegerPastBinary64:
    # 10**400 is an integer, but float() of it overflows.  The message names
    # the range and shortens the digits.
    HUGE = 10**400
    SHORT = "in the binary64 range, got 1000...000 (401 digits)"

    @pytest.mark.parametrize("identity,params,error", [
        (IdentityId.EQ_2_1, {"a": 0.3, "b": 1.7, "c": 0.9, "m": HUGE}, DomainError),
        (IdentityId.EQ_2_5, {"p": HUGE}, DomainError),
        (IdentityId.EQ_2_2, {"a": 0.4, "b": 0.3, "c": 6.0, "pairs": ((1.3, HUGE),)},
         DegenerateError),
    ])
    def test_verify_identity_raises_typed_error(self, identity, params, error):
        with pytest.raises(error) as info:
            verify_identity(IdentityCase(identity, params))
        assert str(info.value).endswith(f" integer {self.SHORT}")

    def test_sweep_gives_na_row(self):
        row, na = sweep(IdentityId.EQ_2_5, {"p": [1, self.HUGE]})
        assert row.passed is True
        assert na.passed is None
        assert na.precondition_note == f"p must be an integer {self.SHORT}"

    def test_max_terms_is_config_error(self):
        case = IdentityCase(IdentityId.EQ_1_3, {})
        with pytest.raises(ConfigError) as info:
            verify_identity(case, max_terms=self.HUGE)
        assert str(info.value) == f"max_terms must be a positive integer {self.SHORT}"
        with pytest.raises(ConfigError, match=r"got -1000\.\.\.000 \(401 digits\)$"):
            verify_identity(case, max_terms=-self.HUGE)


_CATALOG_POINTS = {case.identity: case.parameters for case in builtin_catalog()}
REAL_PARAMETERS = [(identity, name) for identity in IdentityId
                   for name in identity_signature(identity) if name not in ("p", "m", "pairs")]


class TestRealParameter:
    # Every real parameter is read as a finite float: a value float() rejects
    # is a usage error, and a number past binary64 or a non-finite one is not
    # applicable.
    HUGE = 10**400

    @staticmethod
    def _case(identity, name, value):
        return IdentityCase(identity, {**_CATALOG_POINTS[identity], name: value})

    @pytest.mark.parametrize("identity,name", REAL_PARAMETERS)
    def test_past_binary64_is_range_error(self, identity, name):
        with pytest.raises(RangeError) as info:
            verify_identity(self._case(identity, name, self.HUGE))
        assert str(info.value) == (f"{name} must be a real number in the binary64 range, "
                                   "got 1000...000 (401 digits)")

    @pytest.mark.parametrize("identity,name", REAL_PARAMETERS)
    def test_non_number_is_config_error(self, identity, name):
        for value in ("x", None):
            with pytest.raises(ConfigError, match=rf"^{name} must be a real number, got "):
                verify_identity(self._case(identity, name, value))

    @pytest.mark.parametrize("identity,name", REAL_PARAMETERS)
    def test_non_finite_is_domain_error(self, identity, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=rf"^{name} must be finite, got "):
                verify_identity(self._case(identity, name, value))

    def test_sweep_gives_na_row(self):
        na, row = sweep("eq2.3", {"b": [self.HUGE, 0.5], "c": [1.0]})
        assert (na.passed, row.passed) == (None, True)
        assert na.precondition_note.endswith("got 1000...000 (401 digits)")
        with pytest.raises(ConfigError):
            sweep("eq2.3", {"b": ["x"], "c": [1.0]})

    @pytest.mark.parametrize("call,error", [
        (lambda: gamma(None), ConfigError),
        (lambda: gamma("x"), ConfigError),
        (lambda: SeriesSpec((10**400,), (1.0,)), RangeError),
        (lambda: SeriesSpec((0.5,), ("x",)), ConfigError),
        (lambda: ShiftedPair("x", 1), ConfigError),
        (lambda: ShiftedPair(10**400, 1), RangeError),
        (lambda: gamma(10**5000), RangeError),
        (lambda: gamma_ratio([None], [1.0]), ConfigError),
        (lambda: gamma_ratio([1.0], [2.0, "x"]), ConfigError),
        (lambda: gamma_ratio([10**400], [1.0]), RangeError),
        (lambda: gamma([10**5000]), ConfigError),
        (lambda: theorems.gauss_2f1(None, 0.25, 1.25), ConfigError),
        (lambda: theorems.dixon_3f2(None, 0.5, 0.5), ConfigError),
        (lambda: theorems.contiguous_3f2(None, 1.7, 0.9, 2), ConfigError),
        (lambda: theorems.ratio_sum_extension(None, 1.0), ConfigError),
        (lambda: theorems.mu_spaced_sum(None, 1.0), ConfigError),
        (lambda: theorems.karlsson_minton(None, 0.3, 6.0, [(1.3, 1)]), ConfigError),
        (lambda: theorems.weighted_s1(3, None), ConfigError),
        (lambda: theorems.weighted_s2(3, None), ConfigError),
        (lambda: theorems.weighted_pair(3, 0.3, None), ConfigError),
        (lambda: theorems.gauss_2f1(10**400, 0.25, 1.25), RangeError),
        (lambda: theorems.dixon_3f2(10**400, 0.25, 1.25), RangeError),
        (lambda: theorems.weighted_s1(3, 10**400), RangeError),
        (lambda: theorems.ratio_sum_extension(10**400, 1.0), RangeError),
    ], ids=["gamma-None", "gamma-str", "SeriesSpec-huge", "SeriesSpec-str", "ShiftedPair-str",
            "ShiftedPair-huge", "gamma-past-str-limit", "gamma_ratio-None", "gamma_ratio-str",
            "gamma_ratio-huge", "gamma-list-past-str-limit", "gauss_2f1-None", "dixon_3f2-None",
            "contiguous_3f2-None", "ratio_sum_extension-None", "mu_spaced_sum-None",
            "karlsson_minton-None", "weighted_s1-None", "weighted_s2-None", "weighted_pair-None",
            "gauss_2f1-huge", "dixon_3f2-huge", "weighted_s1-huge", "ratio_sum_extension-huge"])
    def test_library_calls_are_typed(self, call, error):
        with pytest.raises(error):
            call()


class TestSweep:
    def test_weighted_grid(self):
        reports = sweep(
            IdentityId.EQ_2_6,
            {"p": [2, 3, 4, 5], "f": [0.3, 1.0, 2.5]},
            rel_tol=1e-10,
        )
        assert len(reports) == 12
        assert all(r.passed is True for r in reports)

    def test_contiguous_shift_grid(self):
        reports = sweep(
            IdentityId.EQ_2_1,
            {"a": [0.3], "b": [1.7], "c": [0.9], "m": [1, 2, 3]},
        )
        assert len(reports) == 3
        assert all(r.passed is True for r in reports)

    def test_row_major_order(self):
        reports = sweep(IdentityId.EQ_2_6, {"p": [2, 3], "f": [0.5, 1.5]})
        combos = [(r.case.parameters["p"], r.case.parameters["f"]) for r in reports]
        assert combos == [(2, 0.5), (2, 1.5), (3, 0.5), (3, 1.5)]

    def test_overflow_points_are_not_applicable(self):
        # gamma(301) in the eq2.1 closed form, 200! in the eq2.5 scale
        with pytest.raises(RangeError):
            verify_identity(
                IdentityCase(IdentityId.EQ_2_1, {"a": -300.0, "b": 1.7, "c": 0.9, "m": 2})
            )
        reports = sweep(IdentityId.EQ_2_5, {"p": [1, 200]})
        assert [r.passed for r in reports] == [True, None]
        assert "exceeds binary64 range" in reports[1].precondition_note

    def test_non_finite_closed_forms_are_not_applicable(self):
        contiguous = sweep(
            IdentityId.EQ_2_1,
            {
                "a": [-168.85721737734312],
                "b": [229.48169173279283],
                "c": [65.82665027714985],
                "m": [4],
            },
        )
        km = sweep(
            IdentityId.EQ_2_2,
            {
                "a": [415.43203119572644],
                "b": [587.3192595389283],
                "c": [1005.7551719567946],
                "pairs": [
                    (ShiftedPair(0.0011063682818082694, 1), ShiftedPair(-1.4670267235709928, 2))
                ],
            },
        )
        for reports, name in [(contiguous, "contiguous_3f2"), (km, "karlsson_minton")]:
            assert [r.passed for r in reports] == [None]
            assert f"{name} value is not finite" in reports[0].precondition_note

    def test_not_applicable_rows(self):
        reports = sweep(
            IdentityId.EQ_2_1,
            {"a": [0.3], "b": [1.7], "c": [1.7], "m": [1, 2]},
        )
        assert len(reports) == 2
        assert all(r.passed is None for r in reports)
        assert all("(b-c)_m" in r.precondition_note for r in reports)

    def test_precondition_honesty(self):
        # mixed grid: valid and degenerate points; no violated point passes
        reports = sweep(
            IdentityId.EQ_2_1,
            {"a": [0.3], "b": [1.7], "c": [0.9, 1.7], "m": [1]},
        )
        assert [r.passed for r in reports] == [True, None]

    def test_empty_grid(self):
        assert sweep(IdentityId.EQ_2_6, {}) == []

    def test_malformed_grids(self):
        with pytest.raises(ConfigError):
            sweep(IdentityId.EQ_2_6, {"p": [2]})  # missing f
        with pytest.raises(ConfigError):
            sweep(IdentityId.EQ_2_6, {"p": [2], "f": []})
        with pytest.raises(ConfigError):
            sweep(IdentityId.EQ_2_6, {"p": [2], "f": [0.5], "x": [1]})

    def test_determinism(self):
        grid = {"p": [3, 4], "f": [0.3, 1.7]}
        first = sweep(IdentityId.EQ_2_6, grid, rel_tol=1e-10)
        second = sweep(IdentityId.EQ_2_6, grid, rel_tol=1e-10)
        assert first == second
        as_json = [json.dumps(_report_json(r), sort_keys=True) for r in first]
        again = [json.dumps(_report_json(r), sort_keys=True) for r in second]
        assert as_json == again

    def test_boundary_margin_slow_convergence(self):
        # c - a - b = m + 0.05: barely applicable; the block-end stop on the
        # tail-corrected value still converges well inside the term budget
        pairs = (ShiftedPair(1.3, 1),)
        reports = sweep(
            IdentityId.EQ_2_2,
            {"a": [0.4], "b": [0.3], "c": [0.4 + 0.3 + 1.05], "pairs": [pairs]},
            rel_tol=1e-8,
        )
        (report,) = reports
        assert report.passed is True
        assert report.summation.status is SummationStatus.CONVERGED
        assert report.summation.terms_used <= 100_000

    @pytest.mark.parametrize("offset", [0.4, 0.2, 0.1, 0.05])
    def test_boundary_error_estimate_bounds_actual_error(self, offset):
        pairs = (ShiftedPair(1.3, 1),)
        (report,) = sweep(
            IdentityId.EQ_2_2,
            {"a": [0.4], "b": [0.3], "c": [0.4 + 0.3 + 1.0 + offset], "pairs": [pairs]},
            rel_tol=1e-8,
        )
        summation = report.summation
        scale = report.lhs / summation.value
        assert report.abs_err <= abs(scale) * summation.error_estimate


REPORT_KEYS = [
    "identity", "parameters", "rel_tol", "lhs", "rhs", "abs_err", "rel_err",
    "passed", "precondition_note", "summation",
]
SUMMATION_KEYS = ["value", "terms_used", "status", "error_estimate"]


def test_json_keys_are_the_dataclass_fields():
    # The CLI writes a report row as the case's fields, then the report's
    # without the case, each in declaration order.
    names = lambda cls: [field.name for field in fields(cls)]
    assert REPORT_KEYS == names(IdentityCase) + names(VerificationReport)[1:]
    assert names(VerificationReport)[0] == "case"
    assert SUMMATION_KEYS == names(SummationResult)


def encoded(report):
    """The report as the CLI writes it, after a trip through JSON text."""
    data = json.loads(json.dumps(_report_json(report)))
    assert list(data) == REPORT_KEYS
    assert data["passed"] is report.passed
    if report.summation is None:
        assert data["summation"] is None
    else:
        assert list(data["summation"]) == SUMMATION_KEYS
        assert data["summation"]["error_estimate"] == report.summation.error_estimate
    return data


class TestReportSerialization:
    def test_round_trip_plain(self):
        report = verify_identity(IdentityCase(IdentityId.EQ_2_7, {"p": 3, "f": 0.7}))
        data = encoded(report)
        assert data["passed"] is True
        assert data["parameters"] == {"p": 3, "f": 0.7}
        assert data["summation"]["status"] == report.summation.status.value

    def test_shifted_pairs_sweep_pass_and_na(self):
        reports = sweep(
            IdentityId.EQ_2_2,
            {
                "a": [0.4],
                "b": [0.3],
                "c": [6.0, 1.0],
                "pairs": [(ShiftedPair(1.3, 1), ShiftedPair(2.1, 2))],
            },
        )
        assert [r.passed for r in reports] == [True, None]
        assert reports[1].summation is None

    def test_round_trip_empty_pairs_na(self):
        # Encoding never checks the pairs, so an n/a row whose pair list the
        # builder rejected is still written.
        (report,) = sweep(
            IdentityId.EQ_2_2, {"a": [0.4], "b": [0.3], "c": [6.0], "pairs": [()]}
        )
        assert report.passed is None
        assert report.precondition_note == "at least one (f, m) pair is required"
        data = encoded(report)
        assert data["parameters"]["pairs"] == []
        assert data["precondition_note"] == "at least one (f, m) pair is required"

    def test_non_integer_shift_is_not_applicable(self):
        # A plain pair keeps its shift as given, so ShiftedPair rejects 1.9
        # instead of the builder summing the m = 1 identity.
        params = {"a": 0.4, "b": 0.3, "c": 6.0, "pairs": ((1.3, 1.9),)}
        with pytest.raises(DegenerateError, match="positive integer, got 1.9"):
            verify_identity(IdentityCase(IdentityId.EQ_2_2, params))
        (report,) = sweep(IdentityId.EQ_2_2, {k: [v] for k, v in params.items()})
        assert report.passed is None
        for m in (math.nan, math.inf):
            with pytest.raises(DegenerateError, match="positive integer"):
                verify_identity(IdentityCase(IdentityId.EQ_2_2, {**params, "pairs": ((1.3, m),)}))

    def test_pair_shapes(self):
        # ShiftedPairs, plain (f, m) pairs with an integral float shift, and
        # one bare ShiftedPair all build the same series.
        def lhs(pairs):
            params = {"a": 0.4, "b": 0.3, "c": 6.0, "pairs": pairs}
            report = verify_identity(IdentityCase(IdentityId.EQ_2_2, params))
            assert report.passed
            return report.lhs

        assert lhs(((1.3, 1.0), ShiftedPair(2.1, 2))) == lhs((ShiftedPair(1.3, 1), (2.1, 2)))
        assert lhs(ShiftedPair(1.3, 1)) == lhs(((1.3, 1),))

    @pytest.mark.parametrize("pairs", [((1.3,),), (1.3, 1), 5])
    def test_malformed_pairs_are_config_errors(self, pairs):
        # A pair without its shift, a bare (f, m) and a number are no
        # sequence of pairs; sweep raises as verify_identity does.
        params = {"a": 0.4, "b": 0.3, "c": 6.0, "pairs": pairs}
        with pytest.raises(ConfigError, match="pairs must be"):
            verify_identity(IdentityCase(IdentityId.EQ_2_2, params))
        with pytest.raises(ConfigError, match="pairs must be"):
            sweep(IdentityId.EQ_2_2, {k: [v] for k, v in params.items()})

    def test_empty_pairs_raise_in_verify(self):
        case = IdentityCase(IdentityId.EQ_2_2, {"a": 0.4, "b": 0.3, "c": 6.0, "pairs": ()})
        with pytest.raises(DegenerateError, match="at least one"):
            verify_identity(case)

    def test_signature_helper(self):
        assert identity_signature("eq2.8") == ("p", "f1", "f2")
        assert identity_signature(IdentityId.EQ_1_1) == ()
