"""The error taxonomy: the class of an error alone decides its exit code."""

import pytest

import hypersum
from hypersum import errors
from hypersum.errors import ConfigError, HypersumError, NotApplicableError


def _error_classes(namespace):
    return {
        value for value in namespace
        if isinstance(value, type) and issubclass(value, BaseException)
    }


EXPORTED = _error_classes(getattr(hypersum, name) for name in hypersum.__all__)
DEFINED = _error_classes(vars(errors).values())


def test_exported_errors_are_the_defined_ones():
    assert EXPORTED == DEFINED


@pytest.mark.parametrize("cls", sorted(EXPORTED | DEFINED, key=lambda c: c.__name__))
def test_every_error_is_usage_or_not_applicable(cls):
    # ConfigError exits 1 and every NotApplicableError exits 2, so a class
    # outside both would have no exit code.
    assert issubclass(cls, HypersumError)
    if cls not in (HypersumError, ConfigError):
        assert issubclass(cls, NotApplicableError)
        assert not issubclass(cls, ConfigError)
