"""Exception taxonomy shared by all modules."""


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
