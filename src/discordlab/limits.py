"""Large-N oracles: diffusion constants, the tree meeting-time profile (a
closed-form spectral sum over the truncated distance chain), the rewiring
continued fraction, Fisher-Wright absorption times, the short-time
discordance prediction, and the coupled dense-limit system.

Everything here is a pure function of its arguments (the dense-limit
integrator takes an explicit rng), so concurrent use is safe by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, NumericError, _INT64_MAX,
                     _floats, _real, _times)

__all__ = [
    "MeetingProfile",
    "SwitchProbs",
    "DenseLimitParams",
    "theta_regular",
    "meeting_profile",
    "theta_directed_eulerian",
    "theta_rewiring",
    "fw_absorption_time",
    "discordance_prediction",
    "drift_b",
    "p_star",
    "integrate_dense_limit",
]


def theta_regular(d) -> float:
    """Diffusion constant (d-2)/(d-1) of the voter model on the random
    d-regular graph."""
    _real(d, "degree", 3, math.inf)
    return (d - 2) / (d - 1)


# ----------------------------------------------------------------------
# meeting-time profile of two walkers on the d-regular tree
# ----------------------------------------------------------------------

@dataclass
class MeetingProfile:
    """Survival probabilities of the first meeting time of two independent
    rate-1 walkers on the infinite d-regular tree started across an edge.

    values[i] approximates the survival probability at grid[i] within
    +-tolerance; the profile is non-increasing, starts at 1 and tends to
    (d-2)/(d-1).
    """

    d: int
    grid: np.ndarray
    values: np.ndarray
    truncation_level: int
    tolerance: float


def meeting_profile(d, t_max=None, tolerance=1e-6, times=None) -> MeetingProfile:
    """Meeting-time profile from the truncated inter-walker distance chain.

    The distance between the walkers is a birth-death chain on {0,1,2,...}:
    each of the two rate-1 walkers moves the distance +1 with probability
    (d-1)/d and -1 with probability 1/d, and 0 (meeting) absorbs.  The chain
    is truncated at level K with an absorbing "escaped" tail state that
    counts as survival; a path at level K+1 returns to 0 with probability
    (d-1)^-(K+1) (gambler's ruin), and K (at least 8) keeps that within
    tolerance/2.  On levels 1..K the distance steps up at rate 2(d-1)/d and
    down at rate 2/d, a constant tridiagonal generator whose symmetrised
    eigenpairs are known; meeting takes rate 2/d from level 1, so with
    theta_k = k pi/(K+1),

        lam_k = -2 + (4 sqrt(d-1)/d) cos(theta_k),
        w_k = (2/(K+1)) sin(theta_k)^2,
        f(t) = 1 - (2/d) sum_{k=1..K} w_k (1 - e^(lam_k t)) / (-lam_k),

    which is exact for the truncated chain up to rounding.  The sum is
    accumulated one term at a time over the whole grid, in the same order
    for every time, so the values are non-increasing; the cost is O(K) per
    grid value, at any t.

    Parameters
    ----------
    d : int, degree >= 3.
    t_max : float, grid endpoint if ``times`` is not given.
    tolerance : float, absolute error budget per grid value.
    times : optional strictly increasing array of query times.

    Returns
    -------
    MeetingProfile
    """
    _real(d, "degree", 3, math.inf)
    _real(tolerance, "tolerance", 0, math.inf, strict=True)
    if times is None:
        t_max = float(_real(t_max, "t_max", 0, math.inf))
        times = np.linspace(0.0, t_max, 401)
    grid = np.array(_times(times, what="times", grid=True))

    # escape bound (d-1)^-(K+1) <= tolerance/2; 2/tolerance can overflow
    K = max(8, math.ceil((math.log(2.0) - math.log(tolerance))
                         / math.log(d - 1)))

    theta = np.arange(1, K + 1) * (math.pi / (K + 1))
    lam = -2.0 + (4.0 * math.sqrt(d - 1) / d) * np.cos(theta)
    w = (2.0 / (K + 1)) * np.sin(theta) ** 2
    # past lam t = -800 every e^(lam t) is 0, and lam t cannot overflow
    t = np.minimum(grid, 800.0 / -lam.max())
    met = np.zeros(len(grid))
    for lam_k, w_k in zip(lam, w):
        met += (w_k / -lam_k) * -np.expm1(lam_k * t)
    values = 1.0 - (2.0 / d) * met
    return MeetingProfile(d=d, grid=grid, values=values,
                          truncation_level=K, tolerance=tolerance)


# ----------------------------------------------------------------------
# diffusion constants beyond the static regular graph
# ----------------------------------------------------------------------

def theta_directed_eulerian(m1, m2) -> float:
    """Diffusion constant of the Eulerian directed configuration model,
    (m2/m1^2 - 1 + sqrt(1 - 1/m1))^-1, from the first two moments of the
    limiting degree distribution."""
    _real(m1, "m1", 1, strict=True)
    _real(m2, "m2", m1 * m1)  # Jensen
    denom = m2 / (m1 * m1) - 1.0 + math.sqrt(1.0 - 1.0 / m1)
    return 1.0 / _real(denom, "m2/m1^2 - 1 + sqrt(1 - 1/m1)", 0, strict=True)


# the deepest backward recurrence theta_rewiring tries before giving up
_MAX_DEPTH = 1 << 22


def theta_rewiring(d, nu, tolerance=1e-10) -> float:
    """Diffusion constant theta_{d,nu} = 1 - Delta/sqrt(d-1) under edge
    rewiring at rate nu, with Delta the continued fraction

        Delta = 1/(b_1 - 1/(b_2 - 1/(b_3 - ...))),   b_k = (2 + k*nu)/rho_d,

    rho_d = (2/d)sqrt(d-1).  Evaluated by backward recurrence from depth K
    with zero tail, doubling K until two successive evaluations agree within
    ``tolerance`` (the stable direction for this positive-coefficient
    fraction; no forward recurrence is used).
    """
    _real(d, "degree", 3, math.inf)
    _real(nu, "rewiring rate", 0, strict=True)
    _real(tolerance, "tolerance", 0, strict=True)
    beta = math.sqrt(d - 1)
    rho = 2.0 * math.sqrt(d - 1) / d

    def backward(depth):
        t = 0.0
        for k in range(depth, 0, -1):
            denom = (2.0 + k * nu) / rho - t
            if denom <= 0:
                raise NumericError("continued fraction denominator vanished")
            t = 1.0 / denom
        return t

    depth = 64
    prev = backward(depth)
    while depth <= _MAX_DEPTH:
        depth *= 2
        cur = backward(depth)
        if abs(cur - prev) < tolerance:
            return 1.0 - cur / beta
        prev = cur
    raise NumericError(
        f"continued fraction did not stabilize within depth {_MAX_DEPTH}")


# ----------------------------------------------------------------------
# Fisher-Wright absorption
# ----------------------------------------------------------------------

def fw_absorption_time(theta, u) -> float:
    """Expected absorption time -(u ln u + (1-u) ln(1-u)) / theta of the
    Fisher-Wright diffusion started at u (Green-function solution of
    theta x(1-x) T''(x) = -1 with T(0)=T(1)=0)."""
    _real(theta, "theta", 0, strict=True)
    _real(u, "u", 0, 1)
    if u in (0.0, 1.0):
        return 0.0
    return -(u * math.log(u) + (1.0 - u) * math.log(1.0 - u)) / theta


# ----------------------------------------------------------------------
# short-time discordance prediction
# ----------------------------------------------------------------------

def discordance_prediction(u, d, t, n_vertices, tolerance=1e-6):
    """Expected discordant-edge fraction 2u(1-u) f_d(t) exp(-2 theta_d t/N)
    on the random d-regular graph with N vertices; t may be an array."""
    _real(u, "u", 0, 1)
    _real(n_vertices, "n_vertices", 1)
    th = theta_regular(d)
    t_arr = np.array(_floats(np.ravel(t), "times"))
    sorted_unique, inverse = np.unique(t_arr, return_inverse=True)
    f = meeting_profile(d, times=sorted_unique,
                        tolerance=tolerance).values[inverse]
    out = 2.0 * u * (1.0 - u) * f * np.exp(-2.0 * th * t_arr / n_vertices)
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


# ----------------------------------------------------------------------
# dense co-evolution limit
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchProbs:
    """Switch weights for the four pair classes of the dense model.

    s_c1: concordant connected pairs disconnect, s_c0: concordant
    disconnected pairs connect, s_d1/s_d0: same for discordant pairs.
    Values above 1 are read as relative rates (the pair stream is thinned
    against the maximum weight), which realizes per-pair switch rate rho*s
    exactly and reduces to plain acceptance probabilities when all <= 1.
    """

    s_c1: float
    s_c0: float
    s_d1: float
    s_d0: float

    def __post_init__(self):
        for w in (self.s_c1, self.s_c0, self.s_d1, self.s_d0):
            _real(w, "switch weight", 0, math.inf)

    @property
    def max_weight(self) -> float:
        return max(self.s_c1, self.s_c0, self.s_d1, self.s_d0)


@dataclass
class DenseLimitParams:
    """Parameters of the coupled dense limit (rates, switch weights, initial
    edge density p0 and heart density q0)."""

    eta: float
    rho: float
    s: SwitchProbs
    p0: float
    q0: float

    def __post_init__(self):
        _real(self.eta, "eta", 0, math.inf)
        _real(self.rho, "rho", 0, math.inf)
        _real(self.p0, "p0", 0, 1)
        _real(self.q0, "q0", 0, 1)


def drift_b(p, q, s: SwitchProbs):
    """Edge-density drift: with A = q^2+(1-q)^2 and B = 2q(1-q),
    b = [s_c0 (1-p) - s_c1 p] A + [s_d0 (1-p) - s_d1 p] B."""
    a = q * q + (1.0 - q) * (1.0 - q)
    b = 2.0 * q * (1.0 - q)
    return ((s.s_c0 * (1.0 - p) - s.s_c1 * p) * a
            + (s.s_d0 * (1.0 - p) - s.s_d1 * p) * b)


def p_star(q, s: SwitchProbs) -> float:
    """Unique root of the p-linear drift: (s_c0 A + s_d0 B) over
    ((s_c0+s_c1) A + (s_d0+s_d1) B); globally attracting for fixed q."""
    _real(q, "q", 0, 1)
    a = q * q + (1.0 - q) * (1.0 - q)
    b = 2.0 * q * (1.0 - q)
    denom = (s.s_c0 + s.s_c1) * a + (s.s_d0 + s.s_d1) * b
    if denom <= 0:
        raise InvalidParameterError("degenerate switch weights: drift is flat")
    return (s.s_c0 * a + s.s_d0 * b) / denom


def integrate_dense_limit(params: DenseLimitParams, dt, t_max, rng=None,
                          q_path=None):
    """Integrate dp = rho b(p,q) dt (Euler) coupled to the heart-density
    diffusion dq = sqrt(2 eta p q(1-q)) dW (Euler-Maruyama, clamp to [0,1],
    absorb at the boundary, after which p follows the deterministic flow).

    If ``q_path`` (array of length round(t_max/dt)+1) is supplied, only the
    p-equation is integrated against it: pathwise comparison mode.
    Returns (times, p_path, q_path).
    """
    _real(dt, "dt", 0, math.inf, strict=True)
    _real(t_max, "t_max", 0, math.inf, strict=True)
    nsteps = round(_real(t_max / dt, "step count t_max/dt", hi=_INT64_MAX))
    times = np.arange(nsteps + 1) * float(dt)
    p = np.empty(nsteps + 1)
    q = np.empty(nsteps + 1)
    p[0] = params.p0
    if q_path is not None:
        q_in = np.asarray(q_path, dtype=float)
        if q_in.shape != (nsteps + 1,):
            raise InvalidParameterError(
                f"q_path must have length {nsteps + 1} to match the dt grid")
        q[:] = q_in
    else:
        if rng is None:
            raise InvalidParameterError("rng is required when q is simulated")
        q[0] = params.q0
    noise = rng.standard_normal(nsteps) if q_path is None else None
    scale = math.sqrt(2.0 * params.eta * dt)
    s = params.s
    rho = params.rho
    for i in range(nsteps):
        pi = p[i]
        p[i + 1] = min(1.0, max(0.0, pi + rho * drift_b(pi, q[i], s) * dt))
        if q_path is None:
            qq = q[i]
            if 0.0 < qq < 1.0:
                qq += scale * math.sqrt(pi * qq * (1.0 - qq)) * noise[i]
                qq = 0.0 if qq <= 0.0 else (1.0 if qq >= 1.0 else qq)
            q[i + 1] = qq
    return times, p, q
