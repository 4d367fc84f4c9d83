"""Exception taxonomy shared by all modules, and every check of an argument
value that raises the parameter error, worded from what it checks: numbers
and sizes within bounds, event caps, choices, time grids and opinion
vectors."""

import math
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


# the largest count or index an int64 array holds
_INT64_MAX = 2**63 - 1


_PAST_FLOATS = "one past the float range"


def _shown(x) -> str:
    """``repr(x)``, but no digits of a number that a float cannot hold: the
    repr of an int fails past 4,300 digits."""
    try:
        float(x)
    except OverflowError:
        return _PAST_FLOATS
    except (TypeError, ValueError):
        pass
    return repr(x)


def _real(x, what, lo=None, hi=None, strict=False):
    """``x`` itself if it is a real number that a float holds, >= ``lo`` (>
    ``lo`` when ``strict``) and <= ``hi``, else InvalidParameterError.  A
    bound of None bounds nothing and an infinite one is never reached, so
    ``hi=math.inf`` asks for a finite number; NaN passes only unbounded."""
    if not isinstance(x, numbers.Real) or _shown(x) == _PAST_FLOATS:
        raise InvalidParameterError(
            f"{what} must be a number, got {_shown(x)}")
    return _bounded(x, what, lo, hi, strict)


def _bounded(x, what, lo=None, hi=None, strict=False):
    """``x`` itself if it lies within the bounds of :func:`_real`."""
    if not ((lo is None or x > lo or x == lo > -math.inf and not strict)
            and (hi is None or x < hi or x == hi < math.inf)):
        want = ["finite"] if math.inf in (hi, -(lo or 0)) else []
        if lo is not None and lo > -math.inf:
            want.append(f"{'>' if strict else '>='} {_shown(lo)}")
        if hi is not None and hi < math.inf:
            want.append(f"<= {_shown(hi)}")
        raise InvalidParameterError(
            f"{what} must be {' and '.join(want)}, got {_shown(x)}")
    return x


def _size(x, what, lo=None, hi=None) -> int:
    """``x`` as an int within the bounds of :func:`_real`, for a count, a
    degree or a seed, of any size: NaN, an infinity, a fraction or a
    non-number raises InvalidParameterError."""
    try:
        n = int(x)
        integral = x == n
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise InvalidParameterError(
            f"{what} must be an integer, got {_shown(x)}")
    return _bounded(n, what, lo, hi)


def _cap(x, what="max_events"):
    """An event cap, a number >= 0, as the most events it allows: a
    fraction counts as its floor, and an infinite cap allows any count."""
    _real(x, what, 0)
    return x if x == math.inf else math.floor(x)


def _choice(x, what, options):
    """``x`` itself if it is one of ``options``."""
    if x not in options:
        raise InvalidParameterError(
            f"{what} must be one of {options}, got {_shown(x)}")
    return x


def _floats(values, what) -> list:
    """The entries of ``values`` as a list of floats; one that ``float``
    refuses raises InvalidParameterError."""
    try:
        return [float(x) for x in values]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"{what} must be numbers") from None


def _times(times, horizon=None, what="schedule times", grid=False) -> list:
    """The sample times ``times`` as a list of floats, checked to be
    numbers, none NaN, in [0, horizon] and strictly increasing; a horizon
    of None bounds nothing, and a NaN one is refused.  The ``grid`` of an
    oracle must also be non-empty and finite."""
    ts = _floats(times, what)
    hz = math.inf if horizon is None else _real(horizon, "horizon")
    if math.isnan(hz) or any(math.isnan(x) for x in ts):
        raise InvalidParameterError(
            f"{'horizon' if math.isnan(hz) else what} must not be NaN")
    if not all(0 <= x <= hz for x in ts):
        raise InvalidParameterError(f"{what} must lie in [0, {hz}]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise InvalidParameterError(f"{what} must be strictly increasing")
    if grid and not (ts and ts[-1] < math.inf):
        raise InvalidParameterError(f"{what} must be non-empty and finite")
    return ts


def _opinion_list(opinions, n) -> list:
    """A fresh list of the n opinions ``opinions``, each 0 or 1; anything
    else raises InvalidParameterError."""
    try:
        ops = list(opinions)
        valid = len(ops) == n and {0, 1}.issuperset(ops)
    except TypeError:  # no sequence, or an unhashable entry
        valid = False
    if not valid:
        raise InvalidParameterError(
            f"opinion vector must hold {n} opinions, each 0 or 1")
    return ops
