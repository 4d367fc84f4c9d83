"""Voter dynamics on random graphs: exact event-driven simulation plus
analytic large-N oracles (diffusion constants, meeting-time profiles,
continued fractions, coupled drift/diffusion limits) and an ensemble
harness that compares the two."""

__version__ = "0.1.0"

from . import graphs, dynamics, coevolution, limits, experiments  # noqa: F401
from .errors import (  # noqa: F401
    DiscordlabError,
    InvalidParameterError,
    SimulationTimeout,
    NumericError,
    InsufficientDataError,
)
