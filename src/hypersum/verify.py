"""Identity catalog and verification harness.

Each identity pairs a direct summation (the left side, evaluated by
:func:`hypersum.series.sum_series`) with its closed form (the right side, from
:mod:`hypersum.theorems`) and reports absolute/relative agreement.  The
summation is driven two decades tighter than the pass tolerance so the
comparison measures the identity, not the stop rule.

Grid sweeps evaluate the Cartesian product of parameter lists in row-major
order; points that violate an identity's validity conditions produce
not-applicable reports (``passed is None``) instead of being dropped.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from .errors import (
    ConfigError,
    DegenerateError,
    NotApplicableError,
    PreconditionError,
    RangeError,
)
from .series import DEFAULT_MAX_TERMS, SeriesSpec, SummationResult, _require_rel_tol, sum_series
from . import theorems
from .specialfn import _is_nonpositive_integer, _require_finite, _require_integer
from .theorems import ShiftedPair

__all__ = [
    "IdentityId",
    "IdentityCase",
    "VerificationReport",
    "verify_identity",
    "sweep",
    "builtin_catalog",
    "identity_signature",
    "DEFAULT_REL_TOL",
]

DEFAULT_REL_TOL = 1e-10

# Floor on the summation tolerance: two decades of headroom under the pass
# tolerance, but never so tight that the stop rule cannot fire at all.
_SUMMATION_HEADROOM = 1e-2
_SUMMATION_TOL_FLOOR = 1e-13


class IdentityId(str, enum.Enum):
    """Catalog identifiers, also used as CLI identity names.

    ``IdentityId(name)`` raises ConfigError for a name outside the catalog.
    """

    EQ_1_1 = "eq1.1"
    EQ_1_2 = "eq1.2"
    EQ_1_3 = "eq1.3"
    EQ_1_6 = "eq1.6"
    EQ_2_1 = "eq2.1"
    EQ_2_2 = "eq2.2"
    EQ_2_3 = "eq2.3"
    EQ_2_5 = "eq2.5"
    EQ_2_6 = "eq2.6"
    EQ_2_7 = "eq2.7"
    EQ_2_8 = "eq2.8"
    TELESCOPE = "telescope"

    @classmethod
    def _missing_(cls, value: object) -> IdentityId:
        valid = ", ".join(i.value for i in cls)
        raise ConfigError(f"unknown identity {value!r}; valid ids: {valid}")


def identity_signature(identity: IdentityId | str) -> tuple[str, ...]:
    """Parameter names required by an identity, in canonical order."""
    return tuple(_IDENTITIES[IdentityId(identity)][0])


@dataclass(frozen=True)
class IdentityCase:
    """One catalog instance: an identity plus concrete parameters."""

    identity: IdentityId
    parameters: dict[str, Any]
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self) -> None:
        identity = IdentityId(self.identity)
        object.__setattr__(self, "identity", identity)
        expected = set(_IDENTITIES[identity][0])
        got = set(self.parameters)
        if got != expected:
            raise ConfigError(
                f"{identity.value} expects parameters {sorted(expected)}, got {sorted(got)}"
            )
        object.__setattr__(self, "rel_tol", _require_rel_tol(self.rel_tol))

    @property
    def spec(self) -> SeriesSpec:
        """The series summed before scaling; raises as :func:`verify_identity`."""
        return _assemble(self).spec


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity instance.

    ``passed`` is True/False for applicable points and None when the
    identity's validity conditions exclude the point; the violated (or
    checked) condition is recorded in ``precondition_note``.
    """

    case: IdentityCase
    lhs: float | None
    rhs: float | None
    abs_err: float | None
    rel_err: float | None
    passed: bool | None
    precondition_note: str
    summation: SummationResult | None


@dataclass  # built once per verification and never shared, so not frozen
class _Assembled:
    spec: SeriesSpec
    scale: float
    closed: float
    note: str


# One record per identity: its catalog point, whose keys in order are its
# signature, and a builder that checks the parameters and returns the series,
# the scale that turns its sum into the left side, the closed form and the
# note.  Builders look up theorems.* at call time, so the functions can be
# replaced (for tracing) after import.
_Builder = Callable[[Mapping[str, Any]], _Assembled]
_IDENTITIES: dict[IdentityId, tuple[dict[str, Any], _Builder]] = {}


def _identity(identity: IdentityId, **point: Any) -> Callable[[_Builder], _Builder]:
    def register(build: _Builder) -> _Builder:
        _IDENTITIES[identity] = (point, build)
        return build
    return register


def _assemble(case: IdentityCase) -> _Assembled:
    return _IDENTITIES[case.identity][1](case.parameters)


def _require_series_safe_f(name: str, f: float) -> float:
    f = _require_finite(name, f)
    if _is_nonpositive_integer(f):
        raise DegenerateError(
            f"{name}={f!r} is a nonpositive integer; the weighted series has "
            "no hypergeometric parameterization there"
        )
    return f


def _shifted(name: str, x: float, m: int) -> float:
    # x + m as a series parameter; a lost shift would change the margin.
    shifted = x + m
    if shifted == x:
        raise RangeError(f"{name} + {m} rounds to {name} in binary64")
    return shifted


def _dixon(a: float, b: float, c: float, note: str) -> _Assembled:
    # Dixon's well-poised 3F2(a, b, c; 1 + a - b, 1 + a - c; 1).
    return _Assembled(SeriesSpec((a, b, c), (1 + a - b, 1 + a - c)), 1.0,
                      theorems.dixon_3f2(a, b, c), note)


@_identity(IdentityId.EQ_1_1)
def _eq1_1(params: Mapping[str, Any]) -> _Assembled:
    return _dixon(0.5, 0.5, 0.25, "a/2-b-c>-1: -0.5 > -1 (a=b=1/2, c=1/4)")


@_identity(IdentityId.EQ_1_2)
def _eq1_2(params: Mapping[str, Any]) -> _Assembled:
    return _dixon(0.5, 0.25, 0.25, "a/2-b-c>-1: -0.25 > -1 (a=1/2, b=c=1/4)")


@_identity(IdentityId.EQ_1_3)
def _eq1_3(params: Mapping[str, Any]) -> _Assembled:
    # Gauss at a = 1/2, b = 1/4, c = 5/4.
    return _Assembled(
        SeriesSpec((0.5, 0.25), (1.25,)),
        1.0,
        theorems.gauss_2f1(0.5, 0.25, 1.25),
        "c-a-b>0: 0.5 > 0 (a=1/2, b=1/4, c=5/4)",
    )


@_identity(IdentityId.EQ_1_6, b=1.0, mu=2.0)
def _eq1_6(params: Mapping[str, Any]) -> _Assembled:
    # sum (1/2)_n / n! / (b + n mu) is 1/b times a 2F1, because
    # 1/(b + n mu) = (1/b) (b/mu)_n / (b/mu + 1)_n.
    b, mu = (_require_finite(k, params[k]) for k in ("b", "mu"))
    closed = theorems.mu_spaced_sum(b, mu)  # checks b > 0 and mu > 0 first
    ratio = b / mu
    return _Assembled(
        SeriesSpec((0.5, ratio), (_shifted("b/mu", ratio, 1),)),
        1.0 / b,
        closed,
        f"b>0 and mu>0: b={b:g}, mu={mu:g}",
    )


@_identity(IdentityId.EQ_2_1, a=0.3, b=1.7, c=0.9, m=2)
def _eq2_1(params: Mapping[str, Any]) -> _Assembled:
    a, b, c = (_require_finite(k, params[k]) for k in ("a", "b", "c"))
    m = _require_integer("m", params["m"])
    closed = theorems.contiguous_3f2(a, b, c, m)
    return _Assembled(
        SeriesSpec((a, b, c), (_shifted("b", b, m), _shifted("c", c, 1))),
        1.0,
        closed,
        f"m+1-a>0: {m + 1.0 - a:.6g} > 0; (b-c)_m != 0",
    )


@_identity(IdentityId.EQ_2_2, a=0.4, b=0.3, c=6.0,
           pairs=(ShiftedPair(1.3, 1), ShiftedPair(2.1, 2)))
def _eq2_2(params: Mapping[str, Any]) -> _Assembled:
    a, b, c = (_require_finite(k, params[k]) for k in ("a", "b", "c"))
    pairs = theorems._shifted_pairs(params["pairs"])
    if not pairs:
        raise DegenerateError("at least one (f, m) pair is required")
    m_total = sum(p.m for p in pairs)
    closed = theorems.karlsson_minton(a, b, c, pairs)
    uppers = (a, b) + tuple(_shifted("f", p.f, p.m) for p in pairs)
    lowers = (c,) + tuple(p.f for p in pairs)
    return _Assembled(
        SeriesSpec(uppers, lowers),
        1.0,
        closed,
        f"c-a-b>m: {c - a - b:.6g} > {m_total}",
    )


@_identity(IdentityId.EQ_2_3, b=0.5, c=0.25)
def _eq2_3(params: Mapping[str, Any]) -> _Assembled:
    b, c = (_require_finite(k, params[k]) for k in ("b", "c"))
    closed = theorems.ratio_sum_extension(b, c)
    return _Assembled(
        SeriesSpec((0.5, b, c), (_shifted("b", b, 1), _shifted("c", c, 1))),
        1.0,
        closed,
        f"b>0 and c>0: b={b:g}, c={c:g}",
    )


def _weighted(params: Mapping[str, Any], least_p: int, weights: Mapping[str, int],
              closed: Callable[..., float]) -> _Assembled:
    # The S_p family: sum ((1/2)_n/n!)^2 prod (n+f)_m / ((n+1)...(n+p)) over
    # the weights {f: m}.  (n+f)_m = (f)_m (f+m)_n / (f)_n and
    # 1/((n+1)...(n+p)) = (1)_n / (p! (p+1)_n), so the series has an upper
    # f+m and a lower f per weight, a lower p+1, and scale prod (f)_m / p!.
    p = _require_integer("p", params["p"])
    if p < least_p:
        raise PreconditionError(f"p>={least_p} violated: p={p}")
    fs = [_require_series_safe_f(name, params[name]) for name in weights]
    uppers, scale = [0.5, 0.5], 1.0
    for f, (name, m) in zip(fs, weights.items()):
        uppers.append(_shifted(name, f, m))
        for k in range(m):
            scale *= f + k
    spec = SeriesSpec(uppers, [_shifted("p", float(p), 1), *fs])
    if p > 170:  # 171! > 1.8e308, and p! itself is slow to compute at large p
        raise RangeError(f"{p}! exceeds binary64 range")
    scale /= math.factorial(p)
    return _Assembled(spec, scale, closed(p, *fs), f"p>={least_p}: p={p}")


@_identity(IdentityId.EQ_2_5, p=1)
def _eq2_5(params: Mapping[str, Any]) -> _Assembled:
    return _weighted(params, 1, {}, theorems.s_p)


@_identity(IdentityId.EQ_2_6, p=2, f=0.5)
def _eq2_6(params: Mapping[str, Any]) -> _Assembled:
    return _weighted(params, 2, {"f": 1}, theorems.weighted_s1)


@_identity(IdentityId.EQ_2_7, p=3, f=0.7)
def _eq2_7(params: Mapping[str, Any]) -> _Assembled:
    return _weighted(params, 3, {"f": 2}, theorems.weighted_s2)


@_identity(IdentityId.EQ_2_8, p=4, f1=0.3, f2=2.2)
def _eq2_8(params: Mapping[str, Any]) -> _Assembled:
    return _weighted(params, 3, {"f1": 1, "f2": 1}, theorems.weighted_pair)


# S_{p-1} = S_p (p-1/2)^2/(p-1), so S_{p-1} + (f-p) S_p is eq2.6's sum: formed
# as weighted_s1, it does not cancel.
_identity(IdentityId.TELESCOPE, p=3, f=1.0)(_eq2_6)


def _summation_rel_tol(rel_tol: float) -> float:
    return max(rel_tol * _SUMMATION_HEADROOM, _SUMMATION_TOL_FLOOR)


def verify_identity(
    case: IdentityCase, max_terms: int = DEFAULT_MAX_TERMS
) -> VerificationReport:
    """Check one identity instance: direct summation against the closed form.

    Raises a NotApplicableError, with the failing condition in the message,
    when the point lies outside the identity's validity region, a value on
    either side exceeds the binary64 range (RangeError) or a shifted series
    parameter x + m rounds to x (RangeError); ConfigError, before any of
    these, for a max_terms that is not an integer >= 1.
    """
    _require_integer("max_terms", max_terms, 1, ConfigError)
    assembled = _assemble(case)
    rel_tol = _summation_rel_tol(case.rel_tol)
    result = sum_series(assembled.spec, rel_tol=rel_tol, max_terms=max_terms)
    lhs = assembled.scale * result.value
    rhs = assembled.closed
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if abs(rhs) >= 1e-300 else abs_err
    passed = bool(rel_err <= case.rel_tol)
    return VerificationReport(case, lhs, rhs, abs_err, rel_err, passed, assembled.note, result)


def sweep(
    identity: IdentityId | str,
    grid: Mapping[str, Sequence[Any]],
    rel_tol: float = DEFAULT_REL_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> list[VerificationReport]:
    """Verify an identity over the Cartesian product of parameter lists.

    Rows appear in row-major order over the grid (the last signature
    parameter varies fastest).  A grid point that raises NotApplicableError
    yields a not-applicable report; a ConfigError propagates, and a malformed
    rel_tol or max_terms raises one before any point is checked.  An empty
    grid yields an empty list.
    """
    identity = IdentityId(identity)
    rel_tol = _require_rel_tol(rel_tol)
    _require_integer("max_terms", max_terms, 1, ConfigError)
    if not grid:
        return []
    signature = identity_signature(identity)
    if set(grid) != set(signature):
        raise ConfigError(
            f"{identity.value} sweep needs values for {list(signature)}, "
            f"got {sorted(grid)}"
        )
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ConfigError(f"grid axis {name!r} must be a nonempty list")
    reports: list[VerificationReport] = []
    for combo in itertools.product(*(grid[name] for name in signature)):
        case = IdentityCase(identity, dict(zip(signature, combo)), rel_tol)
        try:
            reports.append(verify_identity(case, max_terms=max_terms))
        except NotApplicableError as err:
            reports.append(VerificationReport(case, lhs=None, rhs=None, abs_err=None, rel_err=None,
                                              passed=None, precondition_note=str(err),
                                              summation=None))
    return reports


def builtin_catalog(rel_tol: float = DEFAULT_REL_TOL) -> list[IdentityCase]:
    """The twelve canonical identity instances, one per registration.

    Identities whose parameters are fixed by the source material keep those
    values; the rest carry the representative point they are registered with.
    """
    return [
        IdentityCase(identity, dict(point), rel_tol)
        for identity, (point, _) in _IDENTITIES.items()
    ]
