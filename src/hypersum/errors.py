"""Exception types shared by all hypersum modules.

Poles and domain violations are always reported as exceptions: no operation
in this package returns NaN or infinity to signal a problem.
"""


class HypersumError(Exception):
    """Base class for every error raised by this package."""


class PoleError(HypersumError):
    """A gamma-type function was evaluated at a nonpositive integer."""


class DomainError(HypersumError, ValueError):
    """An argument lies outside an operation's real domain."""


class DivergenceError(HypersumError):
    """A non-terminating series fails the unit-argument convergence test."""


class NondegenerateError(HypersumError):
    """A series denominator parameter is (or reaches) a nonpositive integer."""


class PreconditionError(HypersumError):
    """A closed-form theorem was invoked outside its validity region."""


class DegenerateError(HypersumError):
    """Parameters collide in a way that makes a closed form singular."""


class ConfigError(HypersumError, ValueError):
    """Malformed grid, identity id, or command-line configuration."""


class RangeError(HypersumError, OverflowError):
    """A result or an intermediate value exceeds the binary64 range."""


# Errors that mark a point as outside what an identity or series can
# evaluate: a sweep records them as n/a rows and the CLI exits 2 on them.
NA_ERRORS = (
    PreconditionError,
    DegenerateError,
    DivergenceError,
    DomainError,
    NondegenerateError,
    PoleError,
    RangeError,
)
