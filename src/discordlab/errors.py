"""Exception taxonomy shared by all modules, and the checks of numeric
arguments that raise the parameter error."""

import numbers


class DiscordlabError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(DiscordlabError, ValueError):
    """A precondition on user-supplied parameters is violated."""


class SimulationTimeout(DiscordlabError, RuntimeError):
    """The event cap was hit before the run could finish.

    ``partial`` carries whatever trajectory was recorded up to the cap.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NumericError(DiscordlabError, RuntimeError):
    """A numerical scheme failed to converge within its configured depth."""


class InsufficientDataError(DiscordlabError, RuntimeError):
    """Not enough usable data points for the requested estimate."""


def _size(x, what) -> int:
    """``x`` as an int, for a vertex count or a degree: NaN, an infinity, a
    fraction or a non-number raises InvalidParameterError."""
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParameterError(f"{what} must be an integer, got {x!r}")


def _real(x, what):
    """``x`` itself if it is a real number, NaN and the infinities
    included; anything else raises InvalidParameterError."""
    if isinstance(x, numbers.Real):
        return x
    raise InvalidParameterError(f"{what} must be a number, got {x!r}")
