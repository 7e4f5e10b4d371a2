"""The public API: every name hypersum exports, pinned so growth is a choice."""

from pathlib import Path

import hypersum

PUBLIC_NAMES = [
    "ConfigError", "DEFAULT_MAX_TERMS", "DEFAULT_REL_TOL", "DegenerateError",
    "DivergenceError", "DomainError", "HypersumError", "IdentityCase", "IdentityId",
    "NotApplicableError", "PoleError", "PreconditionError", "RangeError",
    "SeriesSpec", "ShiftedPair", "SummationResult", "SummationStatus",
    "VerificationReport", "__version__", "builtin_catalog", "contiguous_3f2",
    "convergence_margin", "digamma", "dixon_3f2", "gamma", "gamma_ratio",
    "gauss_2f1", "identity_signature", "karlsson_minton", "log_gamma",
    "mu_spaced_sum", "pochhammer", "ratio_sum_extension", "s_p", "sum_series", "sweep", "verify_identity", "weighted_pair",
    "weighted_s1", "weighted_s2",
]


def test_public_names():
    assert sorted(hypersum.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 40



def test_integer_rule_lives_in_specialfn():
    # The integer rule is checked only through specialfn._require_integer.
    source = Path(hypersum.__file__).resolve().parent
    named = sorted(path.name for path in source.glob("*.py") if "_is_integer" in path.read_text())
    assert named == ["specialfn.py"]


def test_raw_argument_errors_are_caught_in_specialfn():
    # Arguments are read only through specialfn's checkers, the one module
    # that catches the raw errors float() and int() raise on a bad value.
    source = Path(hypersum.__file__).resolve().parent
    triple = "TypeError, ValueError, OverflowError"
    named = sorted(path.name for path in source.glob("*.py") if triple in path.read_text())
    assert named == ["specialfn.py"]
