"""Exception types shared by all hypersum modules.

Poles and domain violations are always reported as exceptions: no operation
in this package returns NaN or infinity to signal a problem.

The hierarchy alone says what an error means to a caller.  A ConfigError is
a malformed request (a bad flag, grid, identity id or tolerance): the CLI
exits 1 on it.  Every other error derives from NotApplicableError: the
request is well formed, but the point lies outside what the series or the
identity can evaluate.  A sweep records it as an n/a row and the CLI exits 2.
"""

__all__ = [
    "HypersumError",
    "ConfigError",
    "NotApplicableError",
    "PoleError",
    "DomainError",
    "DivergenceError",
    "PreconditionError",
    "DegenerateError",
    "RangeError",
]


class HypersumError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HypersumError, ValueError):
    """Malformed grid, identity id, tolerance or command-line configuration."""


class NotApplicableError(HypersumError):
    """A well-formed request whose point the series or identity cannot evaluate."""


class PoleError(NotApplicableError):
    """A gamma-type function was evaluated at a nonpositive integer."""


class DomainError(NotApplicableError, ValueError):
    """An argument lies outside an operation's real domain."""


class DivergenceError(NotApplicableError):
    """A non-terminating series fails the unit-argument convergence test."""


class PreconditionError(NotApplicableError):
    """A closed-form theorem was invoked outside its validity region."""


class DegenerateError(NotApplicableError):
    """Parameters collide so that a series or closed form is singular."""


class RangeError(NotApplicableError, OverflowError):
    """A result or an intermediate value exceeds the binary64 range."""
