"""Large-N oracles: diffusion constants, the tree meeting-time profile, the
rewiring continued fraction, Fisher-Wright integrators, the short-time
discordance prediction, and the coupled dense-limit system.

Everything here is a pure function of its arguments (stochastic integrators
take an explicit rng), so concurrent use is safe by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, NumericError, TruncationError)

__all__ = [
    "MeetingProfile",
    "SwitchProbs",
    "DenseLimitParams",
    "theta_regular",
    "meeting_profile",
    "meeting_time_tree_mc",
    "theta_directed_eulerian",
    "theta_rewiring",
    "fisher_wright_path",
    "fisher_wright_ensemble",
    "fw_absorption_time",
    "discordance_prediction",
    "drift_b",
    "p_star",
    "integrate_dense_limit",
]


def theta_regular(d) -> float:
    """Diffusion constant (d-2)/(d-1) of the voter model on the random
    d-regular graph."""
    if d < 3:
        raise InvalidParameterError("need degree d >= 3")
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

    def value_at(self, t) -> float:
        idx = np.nonzero(np.isclose(self.grid, t))[0]
        if len(idx) == 0:
            raise InvalidParameterError(f"t={t} is not on the profile grid")
        return float(self.values[idx[0]])


def meeting_profile(d, t_max=None, tolerance=1e-6, times=None,
                    max_level=100_000) -> MeetingProfile:
    """Certified meeting-time profile via the inter-walker distance chain.

    The distance between the walkers is a birth-death chain on {0,1,2,...}:
    each of the two rate-1 walkers moves the distance +1 with probability
    (d-1)/d and -1 with probability 1/d, and 0 (meeting) absorbs.  The chain
    is truncated at level K with an absorbing "escaped" tail state that
    counts as survival; a path at level K+1 returns to 0 with probability
    (d-1)^-(K+1) (gambler's ruin), so that choice of K certifies the
    truncation error.  Time evolution uses uniformization at rate 2 (the
    exact total jump rate), whose Poisson tails provide the remaining,
    equally certified, error term.

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
    if d < 3:
        raise InvalidParameterError("need degree d >= 3")
    if tolerance <= 0:
        raise InvalidParameterError("tolerance must be > 0")
    if times is None:
        if t_max is None or t_max < 0:
            raise InvalidParameterError("need t_max >= 0 or explicit times")
        times = np.linspace(0.0, t_max, 401)
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise InvalidParameterError("times must be a non-empty 1-d array")
    if np.any(grid < 0) or np.any(np.diff(grid) <= 0):
        raise InvalidParameterError("times must be >= 0, strictly increasing")

    # escape bound (d-1)^-(K+1) <= tolerance/2
    K = max(8, math.ceil(math.log(2.0 / tolerance) / math.log(d - 1)))
    if K > max_level:
        raise TruncationError(
            f"required truncation level {K} exceeds max_level={max_level}")

    lam = 2.0
    pu = (d - 1) / d
    pd_ = 1.0 / d
    # substeps keep each uniformization mean small enough for stable weights
    sub_mu = 64.0
    widths = np.diff(np.concatenate(([0.0], grid)))
    n_substeps = int(sum(max(1, math.ceil(lam * w / sub_mu)) for w in widths
                         if w > 0)) or 1
    eps_step = tolerance / (2.0 * n_substeps)

    p = np.zeros(K)
    p[0] = 1.0  # distance 1: the walkers start across an edge
    escaped = 0.0
    values = np.empty(len(grid))

    def advance(mu):
        nonlocal p, escaped
        weight = math.exp(-mu)
        acc_p = weight * p
        acc_esc = weight * escaped
        cum = weight
        k = 1
        cap = mu + 200.0 * math.sqrt(mu + 1.0) + 200.0
        while cum < 1.0 - eps_step:
            if k > cap:
                raise NumericError("uniformization failed to converge")
            new_esc = escaped + pu * p[-1]
            new_p = np.zeros_like(p)
            new_p[1:] = pu * p[:-1]
            new_p[:-1] += pd_ * p[1:]
            p, escaped = new_p, new_esc
            weight *= mu / k
            cum += weight
            acc_p = acc_p + weight * p
            acc_esc += weight * escaped
            k += 1
        p, escaped = acc_p, acc_esc

    t_prev = 0.0
    for i, t in enumerate(grid):
        dt = t - t_prev
        if dt > 0:
            n_sub = max(1, math.ceil(lam * dt / sub_mu))
            for _ in range(n_sub):
                advance(lam * dt / n_sub)
        values[i] = p.sum() + escaped
        t_prev = t

    return MeetingProfile(d=d, grid=grid, values=values,
                          truncation_level=K, tolerance=tolerance)


def meeting_time_tree_mc(d, times, n_pairs, rng, depth_cap=30):
    """Monte Carlo cross-check of the profile on an explicit truncated tree.

    Two rate-1 walkers start on the endpoints of an edge of a lazily built
    d-regular tree (vertices materialize their neighbours on first visit;
    beyond depth_cap no children are added, which is unreachable for the
    horizons used here).  Returns (survival estimates, standard errors) on
    the given time grid.  This is a deliberately independent route from
    :func:`meeting_profile` and shares none of its machinery.
    """
    if d < 3:
        raise InvalidParameterError("need degree d >= 3")
    grid = [float(t) for t in times]
    if any(t < 0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError("times must be >= 0, strictly increasing")
    nt = len(grid)
    rnd = random.Random(int(rng.integers(1 << 63)))
    rr = rnd.random
    log = math.log
    survived = [0] * nt

    for _ in range(n_pairs):
        adj = [[1], [0]]
        depth = [0, 1]
        pa, pb = 0, 1
        t = 0.0
        ti = 0
        while True:
            t -= log(1.0 - rr()) * 0.5  # two rate-1 walkers: total rate 2
            while ti < nt and grid[ti] < t:
                survived[ti] += 1
                ti += 1
            if ti == nt:
                break
            move_a = rr() < 0.5
            pos = pa if move_a else pb
            other = pb if move_a else pa
            nbrs = adj[pos]
            if len(nbrs) < d and depth[pos] < depth_cap:
                dep = depth[pos] + 1
                while len(nbrs) < d:
                    nbrs.append(len(adj))
                    adj.append([pos])
                    depth.append(dep)
            new = nbrs[int(rr() * len(nbrs))]
            if new == other:
                break  # met; times >= t stay uncredited
            if move_a:
                pa = new
            else:
                pb = new

    surv = np.array(survived, dtype=float) / n_pairs
    se = np.sqrt(np.maximum(surv * (1.0 - surv), 1e-300) / n_pairs)
    return surv, se


# ----------------------------------------------------------------------
# diffusion constants beyond the static regular graph
# ----------------------------------------------------------------------

def theta_directed_eulerian(m1, m2) -> float:
    """Diffusion constant of the Eulerian directed configuration model,
    (m2/m1^2 - 1 + sqrt(1 - 1/m1))^-1, from the first two moments of the
    limiting degree distribution."""
    if m1 <= 1:
        raise InvalidParameterError("need first moment m1 > 1")
    if m2 < m1 * m1:
        raise InvalidParameterError("need m2 >= m1^2 (Jensen)")
    denom = m2 / (m1 * m1) - 1.0 + math.sqrt(1.0 - 1.0 / m1)
    if denom <= 0:
        raise InvalidParameterError("degenerate moments: denominator <= 0")
    return 1.0 / denom


def theta_rewiring(d, nu, tolerance=1e-10, max_depth=1 << 22) -> float:
    """Diffusion constant theta_{d,nu} = 1 - Delta/sqrt(d-1) under edge
    rewiring at rate nu, with Delta the continued fraction

        Delta = 1/(b_1 - 1/(b_2 - 1/(b_3 - ...))),   b_k = (2 + k*nu)/rho_d,

    rho_d = (2/d)sqrt(d-1).  Evaluated by backward recurrence from depth K
    with zero tail, doubling K until two successive evaluations agree within
    ``tolerance`` (the stable direction for this positive-coefficient
    fraction; no forward recurrence is used).
    """
    if d < 3:
        raise InvalidParameterError("need degree d >= 3")
    if nu <= 0:
        raise InvalidParameterError("need rewiring rate nu > 0")
    if tolerance <= 0:
        raise InvalidParameterError("tolerance must be > 0")
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
    while depth <= max_depth:
        depth *= 2
        cur = backward(depth)
        if abs(cur - prev) < tolerance:
            return 1.0 - cur / beta
        prev = cur
    raise NumericError(
        f"continued fraction did not stabilize within depth {max_depth}")


# ----------------------------------------------------------------------
# Fisher-Wright integrators and absorption
# ----------------------------------------------------------------------

def fisher_wright_path(theta, chi0, dt, t_max, rng):
    """One Euler-Maruyama path of d(chi) = sqrt(2 theta chi(1-chi)) dW with
    clamping to [0,1] and absorption at the boundary.  Returns (times, path).
    """
    if dt <= 0 or t_max < 0:
        raise InvalidParameterError("need dt > 0 and t_max >= 0")
    if theta < 0:
        raise InvalidParameterError("theta must be >= 0")
    if not 0.0 <= chi0 <= 1.0:
        raise InvalidParameterError("chi0 must be in [0,1]")
    nsteps = int(round(t_max / dt))
    times = np.arange(nsteps + 1) * dt
    vals = np.empty(nsteps + 1)
    x = float(chi0)
    vals[0] = x
    noise = rng.standard_normal(nsteps)
    scale = math.sqrt(2.0 * theta * dt)
    for i in range(nsteps):
        if 0.0 < x < 1.0:
            x += scale * math.sqrt(x * (1.0 - x)) * noise[i]
            x = 0.0 if x <= 0.0 else (1.0 if x >= 1.0 else x)
        vals[i + 1] = x
    return times, vals


def fisher_wright_ensemble(theta, chi0, dt, t_max, n_paths, rng,
                           record_times=None):
    """Vectorized ensemble of Fisher-Wright paths.

    Returns (record_times, paths, absorption_times) where paths has shape
    (n_paths, len(record_times)) and absorption times are NaN for paths
    still in (0,1) at t_max.  Record times snap to the dt grid.
    """
    if dt <= 0 or t_max <= 0:
        raise InvalidParameterError("need dt > 0 and t_max > 0")
    nsteps = int(round(t_max / dt))
    if record_times is None:
        record_times = np.linspace(0.0, nsteps * dt, 51)
    rec_steps = np.unique(np.clip(np.round(np.asarray(record_times) / dt),
                                  0, nsteps).astype(int))
    rec_of = {s: i for i, s in enumerate(rec_steps)}
    x = np.full(n_paths, float(chi0))
    tau = np.full(n_paths, np.nan)
    out = np.empty((n_paths, len(rec_steps)))
    if 0 in rec_of:
        out[:, rec_of[0]] = x
    c = 2.0 * theta * dt
    for step in range(1, nsteps + 1):
        z = rng.standard_normal(n_paths)
        x = np.clip(x + np.sqrt(c * x * (1.0 - x)) * z, 0.0, 1.0)
        newly = np.isnan(tau) & ((x == 0.0) | (x == 1.0))
        tau[newly] = step * dt
        if step in rec_of:
            out[:, rec_of[step]] = x
    return rec_steps * dt, out, tau


def fw_absorption_time(theta, u) -> float:
    """Expected absorption time -(u ln u + (1-u) ln(1-u)) / theta of the
    Fisher-Wright diffusion started at u (Green-function solution of
    theta x(1-x) T''(x) = -1 with T(0)=T(1)=0)."""
    if theta <= 0:
        raise InvalidParameterError("theta must be > 0")
    if not 0.0 <= u <= 1.0:
        raise InvalidParameterError("u must be in [0,1]")
    if u in (0.0, 1.0):
        return 0.0
    return -(u * math.log(u) + (1.0 - u) * math.log(1.0 - u)) / theta


# ----------------------------------------------------------------------
# short-time discordance prediction
# ----------------------------------------------------------------------

def discordance_prediction(u, d, t, n_vertices, tolerance=1e-6, profile=None):
    """Expected discordant-edge fraction 2u(1-u) f_d(t) exp(-2 theta_d t/N)
    on the random d-regular graph with N vertices; t may be an array."""
    if not 0.0 <= u <= 1.0:
        raise InvalidParameterError("u must be in [0,1]")
    if n_vertices < 1:
        raise InvalidParameterError("need n_vertices >= 1")
    th = theta_regular(d)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise InvalidParameterError("times must be >= 0")
    sorted_unique, inverse = np.unique(t_arr, return_inverse=True)
    if profile is None:
        profile = meeting_profile(d, times=sorted_unique, tolerance=tolerance)
        fvals = profile.values
    else:
        if profile.d != d:
            raise InvalidParameterError("profile degree mismatch")
        fvals = np.array([profile.value_at(x) for x in sorted_unique])
    f = fvals[inverse]
    out = 2.0 * u * (1.0 - u) * f * np.exp(-2.0 * th * t_arr / n_vertices)
    return out if np.ndim(t) else float(out[0])


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
        if min(self.s_c1, self.s_c0, self.s_d1, self.s_d0) < 0:
            raise InvalidParameterError("switch weights must be >= 0")

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
        if self.eta < 0 or self.rho < 0:
            raise InvalidParameterError("rates must be >= 0")
        if not (0.0 <= self.p0 <= 1.0 and 0.0 <= self.q0 <= 1.0):
            raise InvalidParameterError("densities must be in [0,1]")


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
    if dt <= 0 or t_max <= 0:
        raise InvalidParameterError("need dt > 0 and t_max > 0")
    nsteps = int(round(t_max / dt))
    times = np.arange(nsteps + 1) * dt
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
