"""A time bound for test runs that could spin instead of failing."""

import contextlib
import signal


class _Spun(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds=20.0):
    """Fail, instead of hanging, when a run spins.  For example, a state
    that can no longer change proposes adoptions that flip nothing, so no
    event cap ends it, unless the engine sees that consensus is out of
    reach.  A context manager, or a decorator of a whole test."""
    def spun(signum, frame):
        raise _Spun
    old = signal.signal(signal.SIGALRM, spun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Spun:
        # a fresh error without the interrupted frames, whose traceback
        # entries can lack a line number
        raise AssertionError(f"no verdict within {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
