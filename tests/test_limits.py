import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discordlab import limits
from discordlab.coevolution import SwitchProbs
from discordlab.errors import InvalidParameterError

from _deadline import deadline
from _oracles import (complete_voter_mean_tau, fisher_wright_ensemble,
                      meeting_time_tree_mc)


# ----------------------------------------------------------------------
# diffusion constants
# ----------------------------------------------------------------------

def test_theta_regular_values():
    assert limits.theta_regular(3) == 0.5
    assert limits.theta_regular(4) == 2 / 3
    assert abs(limits.theta_regular(10 ** 6) - 1.0) < 2e-6
    assert limits.theta_regular(4) < limits.theta_regular(5)
    with pytest.raises(InvalidParameterError):
        limits.theta_regular(2)


def test_theta_directed_eulerian_values():
    assert abs(limits.theta_directed_eulerian(3, 9) - math.sqrt(1.5)) < 1e-14
    assert abs(limits.theta_directed_eulerian(2, 4) - math.sqrt(2)) < 1e-14
    # mixed degrees {2,4} with equal weights: m1=3, m2=10
    expect = 1.0 / (10 / 9 - 1 + math.sqrt(2 / 3))
    assert abs(limits.theta_directed_eulerian(3, 10) - expect) < 1e-14
    # extra degree volatility at fixed mean lowers the constant
    assert limits.theta_directed_eulerian(3, 10) < limits.theta_directed_eulerian(3, 9)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.floats(1.2, 50.0), st.floats(0.0, 30.0), st.floats(0.1, 30.0))
def test_theta_directed_monotone_in_variance(m1, excess, more):
    m2 = m1 * m1 + excess
    assert (limits.theta_directed_eulerian(m1, m2 + more)
            < limits.theta_directed_eulerian(m1, m2))


def test_theta_directed_validation():
    with pytest.raises(InvalidParameterError):
        limits.theta_directed_eulerian(1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        limits.theta_directed_eulerian(3.0, 8.0)  # m2 < m1^2


def test_theta_rewiring_limits():
    for d in (3, 4, 5, 10):
        static = (d - 2) / (d - 1)
        assert abs(limits.theta_rewiring(d, 1e-8) - static) <= 1e-4
        assert abs(limits.theta_rewiring(d, 1e8) - 1.0) <= 1e-6


def test_theta_rewiring_strictly_increasing_and_bounded():
    for d in (3, 4, 5):
        lo = (d - 2) / (d - 1)
        grid = np.arange(0.1, 10.01, 0.1)
        vals = [limits.theta_rewiring(d, nu) for nu in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(lo < v < 1.0 for v in vals)


def test_theta_rewiring_backward_recurrence_depth_stable():
    # direct recurrence at fixed depths: doubling changes nothing at 1e-12
    d, nu = 3, 1.0
    rho = 2 * math.sqrt(d - 1) / d

    def backward(depth):
        t = 0.0
        for k in range(depth, 0, -1):
            t = 1.0 / ((2.0 + k * nu) / rho - t)
        return t

    assert abs(backward(2048) - backward(4096)) < 1e-12
    assert abs(limits.theta_rewiring(d, nu, tolerance=1e-12)
               - (1 - backward(4096) / math.sqrt(d - 1))) < 1e-10


def test_theta_rewiring_validation():
    with pytest.raises(InvalidParameterError):
        limits.theta_rewiring(2, 1.0)
    with pytest.raises(InvalidParameterError):
        limits.theta_rewiring(3, 0.0)


# an infinite degree ran backward recurrences 2^23 deep for 2.4 s and then
# raised NumericError; theta_regular and meeting_profile refused it at once
def test_theta_rewiring_refuses_an_infinite_degree_at_once():
    with deadline(1.0), pytest.raises(InvalidParameterError,
                                      match="degree must be finite"):
        limits.theta_rewiring(math.inf, 1.0)


# ----------------------------------------------------------------------
# meeting profile
# ----------------------------------------------------------------------

def test_meeting_profile_shape_and_tail():
    prof = limits.meeting_profile(3, times=np.array([0.0, 0.5, 1.0, 5.0, 200.0]))
    assert prof.values[0] == 1.0
    assert np.all(np.diff(prof.values) <= 0)
    assert np.all(prof.values >= limits.theta_regular(3) - prof.tolerance)
    assert abs(prof.values[-1] - 0.5) <= 2e-3


def test_meeting_profile_tightening_tolerance_is_consistent():
    times = np.array([0.25, 1.0, 3.0, 10.0])
    a = limits.meeting_profile(3, times=times, tolerance=1e-6)
    b = limits.meeting_profile(3, times=times, tolerance=1e-9)
    assert b.truncation_level > a.truncation_level
    assert np.all(np.abs(a.values - b.values) < 1e-6)


def test_meeting_profile_above_theta_for_all_degrees():
    for d in (3, 4, 5, 10):
        prof = limits.meeting_profile(d, t_max=50.0)
        assert np.all(np.diff(prof.values) <= 0)
        assert np.all(prof.values >= limits.theta_regular(d) - prof.tolerance)


def test_meeting_profile_validation():
    with pytest.raises(InvalidParameterError):
        limits.meeting_profile(2, t_max=1.0)
    with pytest.raises(InvalidParameterError):
        limits.meeting_profile(3, times=np.array([1.0, 0.5]))
    with pytest.raises(InvalidParameterError):
        limits.meeting_profile(3)


def test_meeting_profile_takes_any_positive_tolerance():
    # 2/tolerance overflowed below about 1.1e-308; at the smallest tolerance
    # the spectral sum runs over the 1075 levels of the truncated chain
    want = limits.meeting_profile(3, t_max=1.0)
    for tol, level in ((1e-308, 1025), (5e-324, 1075)):
        prof = limits.meeting_profile(3, t_max=1.0, tolerance=tol)
        assert prof.truncation_level == level
        assert np.all(np.abs(prof.values - want.values) <= want.tolerance)


def test_meeting_profile_cost_stops_growing_with_t_max():
    # the profile once stepped through time to the grid's end, for hours at
    # t = 1e9; the spectral sum costs the same at any t
    with deadline(10.0):
        prof = limits.meeting_profile(3, times=np.linspace(0.0, 1e9, 5))
        # lam * t would overflow here without the cap on t
        far = limits.meeting_profile(3, times=np.array([1e9, 1.7e308]))
    assert prof.values[0] == 1.0
    for tail in (prof.values[1:], far.values):
        assert np.all(np.abs(tail - 0.5) <= prof.tolerance)


def test_meeting_profile_matches_matrix_exponential():
    # survival of the truncated chain on levels 0..K+1, 0 and K+1 absorbing,
    # from exp(tQ) of its full generator: 1 - P(at 0 at time t)
    expm = pytest.importorskip("scipy.linalg").expm
    times = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0])
    for d in (3, 4, 10):
        prof = limits.meeting_profile(d, times=times, tolerance=1e-9)
        K = prof.truncation_level
        q = np.zeros((K + 2, K + 2))
        for i in range(1, K + 1):
            q[i, i + 1] = 2.0 * (d - 1) / d
            q[i, i - 1] = 2.0 / d
            q[i, i] = -2.0
        want = [1.0 - expm(t * q)[1, 0] for t in times]
        assert np.max(np.abs(prof.values - want)) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = limits.meeting_profile(3, times=np.array([1e9, 1.7e308]))
    assert np.all(far.values == far.values[0])


def test_meeting_profile_agrees_with_tree_monte_carlo(rng):
    times = [0.5, 1.0, 2.0]
    prof = limits.meeting_profile(3, times=np.array(times))
    surv, se = meeting_time_tree_mc(3, times, 150_000, rng)
    for f, s, e in zip(prof.values, surv, se):
        assert abs(s - f) <= 3 * e + prof.tolerance


def test_tree_mc_profile_other_degree(rng):
    times = [0.5, 1.5]
    prof = limits.meeting_profile(5, times=np.array(times))
    surv, se = meeting_time_tree_mc(5, times, 60_000, rng)
    for f, s, e in zip(prof.values, surv, se):
        assert abs(s - f) <= 3.5 * e + prof.tolerance


# ----------------------------------------------------------------------
# Fisher-Wright
# ----------------------------------------------------------------------

def test_fw_ensemble_matches_single_path_law(rng):
    times, paths, tau = fisher_wright_ensemble(
        1.0, 0.5, 1e-3, 1.0, 4000, rng, record_times=[0.5, 1.0])
    assert paths.shape == (4000, 2)
    v = paths[:, 0].var()
    pred = 0.25 * (1 - math.exp(-1.0))
    assert abs(v - pred) < 3 * (pred * math.sqrt(2 / 4000) + 2e-3)


def test_fw_moment_decay_matches_exponential(rng):
    # E[chi(1-chi)] = u(1-u) e^{-2 theta s}
    times, paths, _ = fisher_wright_ensemble(
        0.5, 0.3, 1e-3, 2.0, 6000, rng, record_times=[1.0, 2.0])
    prod = (paths * (1 - paths)).mean(axis=0)
    for s, m in zip(times, prod):
        pred = 0.21 * math.exp(-s)
        assert abs(m - pred) < 4 * 0.21 / math.sqrt(6000) + 2e-3


def test_fw_absorption_closed_form_and_mc():
    assert limits.fw_absorption_time(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)
    assert limits.fw_absorption_time(0.5, 0.5) == pytest.approx(2 * math.log(2), abs=1e-12)
    assert limits.fw_absorption_time(1.0, 0.0) == 0.0
    assert limits.fw_absorption_time(1.0, 1e-9) < 1e-7
    # Monte Carlo cross-check of the Green-function solution within 2%
    _, _, tau = fisher_wright_ensemble(
        1.0, 0.5, 1e-3, 15.0, 10_000, np.random.default_rng(17))
    assert np.isfinite(tau).all()
    assert abs(np.mean(tau) / math.log(2) - 1) < 0.02


def test_fw_absorption_agrees_with_finite_chain_oracle():
    # complete-graph birth-death absorption, rescaled by N, approaches the
    # diffusion value; locks the formula to an independent exact solver
    exact = complete_voter_mean_tau(500)[250] / 500
    assert abs(exact - limits.fw_absorption_time(1.0, 0.5)) < 0.01


# ----------------------------------------------------------------------
# discordance prediction
# ----------------------------------------------------------------------

def test_discordance_prediction_t0():
    assert limits.discordance_prediction(0.5, 3, 0.0, 1000) == pytest.approx(0.5)
    assert limits.discordance_prediction(0.3, 4, 0.0, 10) == pytest.approx(0.42)


def test_discordance_prediction_plateau_decay():
    # t = s*N with N large: 2u(1-u) theta_3 e^{-s}
    N = 100_000
    for s in (0.5, 1.0):
        pred = limits.discordance_prediction(0.5, 3, s * N, N)
        assert pred == pytest.approx(0.25 * math.exp(-s), abs=1e-4)


def test_discordance_prediction_array_and_profile_reuse():
    # an array of times, unsorted and repeated, reuses one profile on its
    # sorted unique times
    ts = np.array([2.0, 0.0, 1.0, 2.0])
    prof = limits.meeting_profile(3, times=np.array([0.0, 1.0, 2.0]))
    a = limits.discordance_prediction(0.5, 3, ts, 500)
    want = 0.5 * prof.values[[2, 0, 1, 2]] * np.exp(-ts / 500)
    assert np.allclose(a, want, atol=1e-12)
    assert a[1] == limits.discordance_prediction(0.5, 3, 0.0, 500)


# ----------------------------------------------------------------------
# dense-limit drift, fixed point, integrator
# ----------------------------------------------------------------------

FIG9 = SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)


def test_drift_b_examples():
    flat = SwitchProbs(s_c1=0.7, s_c0=0.7, s_d1=0.7, s_d0=0.7)
    for p in (0.0, 0.3, 0.5, 1.0):
        for q in (0.0, 0.25, 0.5):
            assert limits.drift_b(p, q, flat) == pytest.approx(0.7 * (1 - 2 * p))
    shutoff = SwitchProbs(s_c1=0.5, s_c0=0.0, s_d1=2.0, s_d0=0.0)
    for p in (0.1, 0.9):
        for q in (0.2, 0.8):
            assert limits.drift_b(p, q, shutoff) <= 0.0
    # reference parameter set at q = 1/2: b(p) = 1.1 - 2.35 p
    for p in (0.0, 0.25, 0.468085, 1.0):
        assert limits.drift_b(p, 0.5, FIG9) == pytest.approx(1.1 - 2.35 * p, abs=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1),
       st.floats(0, 3), st.floats(0, 3), st.floats(0, 3), st.floats(0, 3))
def test_drift_b_affine_in_p_and_symmetric_in_q(p, q, a, b, c, d):
    s = SwitchProbs(s_c1=a, s_c0=b, s_d1=c, s_d0=d)
    half = limits.drift_b(0.5, q, s)
    left = limits.drift_b(0.0, q, s)
    right = limits.drift_b(1.0, q, s)
    assert half == pytest.approx((left + right) / 2, abs=1e-12)
    assert limits.drift_b(p, q, s) == pytest.approx(
        limits.drift_b(p, 1 - q, s), abs=1e-12)


def test_p_star_examples():
    flat = SwitchProbs(s_c1=0.3, s_c0=0.3, s_d1=0.3, s_d0=0.3)
    for q in np.linspace(0, 1, 7):
        assert limits.p_star(q, flat) == pytest.approx(0.5)
    shutoff = SwitchProbs(s_c1=0.5, s_c0=0.0, s_d1=2.0, s_d0=0.0)
    assert limits.p_star(0.3, shutoff) == 0.0
    assert limits.p_star(0.5, FIG9) == pytest.approx(2.2 / 4.7, abs=1e-12)
    assert limits.drift_b(limits.p_star(0.5, FIG9), 0.5, FIG9) == pytest.approx(0, abs=1e-14)
    with pytest.raises(InvalidParameterError):
        limits.p_star(0.5, SwitchProbs(s_c1=0, s_c0=0, s_d1=0, s_d0=0))


def test_integrate_dense_limit_absorbed_q_flows_to_p_star(rng):
    params = limits.DenseLimitParams(eta=1.0, rho=1.0, s=FIG9, p0=0.9, q0=1.0)
    times, p, q = limits.integrate_dense_limit(params, 1e-3, 20.0, rng=rng)
    assert np.all(q == 1.0)
    target = limits.p_star(1.0, FIG9)
    assert np.all(np.diff(p) <= 1e-15) or np.all(np.diff(p) >= -1e-15)
    assert abs(p[-1] - target) < 1e-6


def test_integrate_dense_limit_flat_weights_closed_form():
    # frozen opinions, all weights equal: p(t) = 1/2 + (p0-1/2) e^{-2 rho s t}
    flat = SwitchProbs(s_c1=1.0, s_c0=1.0, s_d1=1.0, s_d0=1.0)
    params = limits.DenseLimitParams(eta=0.0, rho=1.0, s=flat, p0=0.8, q0=0.4)
    dt, t_max = 1e-4, 3.0
    nsteps = int(round(t_max / dt))
    qpath = np.full(nsteps + 1, 0.4)
    times, p, q = limits.integrate_dense_limit(params, dt, t_max, q_path=qpath)
    exact = 0.5 + 0.3 * math.exp(-2 * t_max)
    assert abs(p[-1] - exact) < 1e-6


# q outside [0, 1] gave a number: p_star(2.0, s) was 0.5, p_star(nan, s)
# NaN; DenseLimitParams refuses such a q0
@pytest.mark.parametrize("q", [2.0, -0.5, math.nan, math.inf])
def test_p_star_refuses_q_outside_0_1(q):
    with pytest.raises(InvalidParameterError, match="q must be"):
        limits.p_star(q, FIG9)


# t_max/dt = 1e300 leaked numpy's "Maximum allowed size exceeded", and
# 1/5e-324 overflows to inf
@pytest.mark.parametrize("dt, t_max", [(1e-300, 1.0), (5e-324, 1.0),
                                       (1.0, 2.0**63)])
def test_integrate_dense_limit_refuses_a_step_count_past_int64(rng, dt,
                                                               t_max):
    params = limits.DenseLimitParams(eta=1.0, rho=1.0, s=FIG9, p0=0.5, q0=0.5)
    with pytest.raises(InvalidParameterError, match="step count"):
        limits.integrate_dense_limit(params, dt, t_max, rng=rng)


def test_integrate_dense_limit_qpath_validation(rng):
    params = limits.DenseLimitParams(eta=1.0, rho=1.0, s=FIG9, p0=0.5, q0=0.5)
    with pytest.raises(InvalidParameterError):
        limits.integrate_dense_limit(params, 0.01, 1.0, q_path=np.zeros(5))
    with pytest.raises(InvalidParameterError):
        limits.integrate_dense_limit(params, 0.01, 1.0)  # no rng, no q_path


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_t_max_is_rejected(rng, bad):
    params = limits.DenseLimitParams(eta=1.0, rho=1.0, s=FIG9, p0=0.5, q0=0.5)
    with pytest.raises(InvalidParameterError):
        limits.integrate_dense_limit(params, 0.01, bad, rng=rng)
    with pytest.raises(InvalidParameterError):
        limits.integrate_dense_limit(params, bad, 1.0, rng=rng)
    with pytest.raises(InvalidParameterError):
        limits.meeting_profile(3, t_max=bad)
    with pytest.raises(InvalidParameterError):
        limits.meeting_profile(3, times=np.array([0.0, bad]))
    for theta, dt, t_max in ((0.5, 0.01, bad), (0.5, bad, 1.0),
                             (bad, 0.01, 1.0)):
        with pytest.raises(InvalidParameterError):
            fisher_wright_ensemble(theta, 0.5, dt, t_max, 4, rng)


# each call returned NaN, or raised a bare ValueError, on its bad argument
@pytest.mark.parametrize("call", [
    lambda: limits.theta_regular(math.nan),
    lambda: limits.theta_regular(math.inf),
    lambda: limits.fw_absorption_time(math.nan, 0.5),
    lambda: limits.discordance_prediction(0.5, 3, 1.0, n_vertices=math.nan),
    lambda: limits.meeting_profile(math.nan, 10),
], ids=["theta_regular-nan", "theta_regular-inf", "fw_absorption_time-nan",
        "discordance_prediction-n_vertices-nan", "meeting_profile-d-nan"])
def test_nan_or_infinite_argument_is_refused(call):
    with pytest.raises(InvalidParameterError):
        call()


# each leaked a TypeError from comparing a string with a number
@pytest.mark.parametrize("call", [
    lambda: limits.theta_regular("x"),
    lambda: limits.theta_rewiring(3, "x"),
    lambda: limits.theta_directed_eulerian("x", 4.0),
    lambda: limits.meeting_profile("x", 1.0),
    lambda: limits.fw_absorption_time(1, "x"),
    lambda: limits.discordance_prediction("x", 3, 1.0, 100),
    lambda: SwitchProbs("x", 1, 1, 1),
    lambda: limits.DenseLimitParams(eta="x", rho=1.0, s=FIG9, p0=0.5,
                                    q0=0.5),
    lambda: limits.integrate_dense_limit(
        limits.DenseLimitParams(eta=1.0, rho=1.0, s=FIG9, p0=0.5, q0=0.5),
        "x", 1.0, rng=np.random.default_rng(0)),
], ids=["theta_regular", "theta_rewiring", "theta_directed_eulerian",
        "meeting_profile", "fw_absorption_time", "discordance_prediction",
        "SwitchProbs", "DenseLimitParams", "integrate_dense_limit"])
def test_non_numeric_argument_is_refused(call):
    with pytest.raises(InvalidParameterError, match="must be a number"):
        call()
