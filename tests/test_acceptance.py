"""Acceptance suite: one test per criterion, each printing a pass line with
the measured numbers.  Tolerances are pinned here and nowhere else."""

import math

import numpy as np
import pytest
from scipy import stats

from discordlab import coevolution, dynamics, experiments, graphs, limits
from discordlab.coevolution import DenseState, SwitchProbs

from _oracles import meeting_time_tree_mc

pytestmark = pytest.mark.acceptance

FIG9 = SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)


def _report(k, msg):
    print(f"[criterion {k}] PASS: {msg}")


# ----------------------------------------------------------------------

def test_criterion_01_exact_constants():
    assert limits.theta_regular(3) == 0.5
    assert limits.theta_regular(4) == 2 / 3
    assert abs(limits.theta_directed_eulerian(3, 9) - math.sqrt(1.5)) <= 1e-12
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        s = SwitchProbs(*(rng.uniform(0.05, 2.5, size=4).tolist()))
        for q in np.linspace(0.0, 1.0, 100):
            resid = abs(limits.drift_b(limits.p_star(q, s), q, s))
            worst = max(worst, resid)
    assert worst <= 1e-12
    _report(1, f"theta_3=1/2, theta_4=2/3, directed sqrt(3/2); "
               f"max |b(p*,q)| = {worst:.2e}")


def test_criterion_02_continued_fraction_limits():
    for d in (3, 4, 5, 10):
        static = (d - 2) / (d - 1)
        assert abs(limits.theta_rewiring(d, 1e-8) - static) <= 1e-4
        assert abs(limits.theta_rewiring(d, 1e8) - 1.0) <= 1e-6
        grid = np.logspace(-2, 2, 100)
        vals = [limits.theta_rewiring(d, nu) for nu in grid]
        assert all(b > a for a, b in zip(vals, vals[1:])), d
        assert all(static < v < 1.0 for v in vals)
    _report(2, "theta_{d,nu} hits both limits and is strictly increasing "
               "on a 100-point log grid for d in {3,4,5,10}")


def test_criterion_03_meeting_profile():
    for d in (3, 4, 5, 10):
        prof = limits.meeting_profile(d, t_max=20.0)
        assert prof.values[0] == 1.0
        assert np.all(np.diff(prof.values) <= 0)
        assert np.all(prof.values >= limits.theta_regular(d) - prof.tolerance)
    tail = limits.meeting_profile(3, times=np.array([200.0]))
    assert abs(tail.values[0] - 0.5) <= 2e-3
    times = [0.5, 1.0, 2.0]
    prof3 = limits.meeting_profile(3, times=np.array(times))
    surv, se = meeting_time_tree_mc(3, times, 1_000_000,
                                    np.random.default_rng(303))
    zs = [(s - f) / e for f, s, e in zip(prof3.values, surv, se)]
    for f, s, e in zip(prof3.values, surv, se):
        assert abs(s - f) <= 3 * e + prof3.tolerance
    _report(3, f"f_3(200)={tail.values[0]:.6f}; tree-MC z-scores "
               f"{[f'{z:+.2f}' for z in zs]} on 1e6 pairs")


def test_criterion_04_short_time_discordance():
    N, R = 1000, 200
    grid = np.linspace(0.0, 5.0, 26)
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": N, "d": 3}, u=0.5, replicas=R,
        master_seed=777, horizon=5.0, sample_times=grid.tolist())
    res = experiments.run_ensemble(cfg)
    prof = limits.meeting_profile(3, times=grid[1:])
    pred = np.concatenate([[0.5], 0.5 * prof.values])
    sup = float(np.max(np.abs(res.mean["discordant_frac"] - pred)))
    assert sup <= 0.02
    _report(4, f"sup_t |mean D_t - 0.5 f_3(t)| = {sup:.4f} <= 0.02 "
               f"(rrg d=3, N=1000, R=200)")


def test_criterion_05_moderate_time_scaling():
    N = 500
    s_rrg = np.round(np.arange(0.2, 1.21, 0.1), 10)
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": N, "d": 3}, u=0.5, replicas=400,
        master_seed=2024, horizon=650.0, sample_times=(s_rrg * N).tolist())
    res = experiments.run_ensemble(cfg)
    est = experiments.estimate_theta(res)
    assert abs(est.theta - 0.5) <= 0.1
    # diffusive-time prefactor is 2*theta_d (=1 for d=3); the fixed factor 2
    # only applies at t=0 and on the complete graph, see decisions ledger
    rep = experiments.homogenisation_check(
        res, coefficient=2 * limits.theta_regular(3), times=[0.5 * N, 1.0 * N])
    assert np.all(rep.mean_abs_residual <= 0.05)
    s_cpl = np.round(np.arange(0.05, 0.61, 0.05), 10)
    cfg_c = experiments.ExperimentConfig(
        model={"family": "complete", "n": N}, u=0.5, replicas=400,
        master_seed=2025, horizon=350.0, sample_times=(s_cpl * N).tolist())
    est_c = experiments.estimate_theta(experiments.run_ensemble(cfg_c))
    assert abs(est_c.theta - 1.0) <= 0.1
    _report(5, f"theta_hat(rrg)={est.theta:.3f}+-{est.stderr:.3f}, "
               f"homog. mean|resid|={rep.mean_abs_residual.max():.4f}, "
               f"theta_hat(complete)={est_c.theta:.3f}+-{est_c.stderr:.3f}")


def _consensus_taus(model, R, seed, nu=0.0):
    taus = []
    for r in range(R):
        rng = experiments.spawn_rng(seed, r)
        g = experiments.build_graph(model, rng)
        st = dynamics.init_opinions_iid(g.n, 0.5, rng)
        taus.append(dynamics.consensus_time(g, st, rng, nu=nu))
    return np.asarray(taus)


@pytest.fixture(scope="module")
def rrg500_taus_nu0():
    return _consensus_taus({"family": "rrg", "n": 500, "d": 3}, 100, 61_000)


def test_criterion_06_consensus_time(rrg500_taus_nu0):
    # targets are the Fisher-Wright absorption oracle values; the criterion
    # cites that oracle, whose closed form gives ln2/theta at u=1/2
    taus_c = _consensus_taus({"family": "complete", "n": 100}, 200, 60_000)
    target_c = limits.fw_absorption_time(1.0, 0.5) * 100
    ratio_c = taus_c.mean() / target_c
    assert abs(ratio_c - 1.0) <= 0.10
    target_r = limits.fw_absorption_time(limits.theta_regular(3), 0.5) * 500
    ratio_r = rrg500_taus_nu0.mean() / target_r
    assert abs(ratio_r - 1.0) <= 0.15
    _report(6, f"complete N=100: tau/target = {ratio_c:.3f} (10% band); "
               f"rrg N=500: {ratio_r:.3f} (15% band)")


def test_criterion_07_rewiring_speeds_consensus(rrg500_taus_nu0):
    taus10 = _consensus_taus({"family": "rrg", "n": 500, "d": 3}, 100,
                             62_000, nu=10.0)
    assert taus10.mean() < rrg500_taus_nu0.mean()
    welch = stats.ttest_ind(taus10, rrg500_taus_nu0, equal_var=False,
                            alternative="less")
    assert welch.pvalue < 0.01
    _report(7, f"mean tau(nu=10)={taus10.mean():.0f} < "
               f"mean tau(nu=0)={rrg500_taus_nu0.mean():.0f}, "
               f"Welch p={welch.pvalue:.2e}")


def test_criterion_08_dense_coevolution():
    N = 400
    rng = np.random.default_rng(88)
    state = coevolution.init_positional(N, rng=rng)
    dt = 0.01
    sched = np.round(np.arange(0.0, 5.0 + 1e-9, dt), 10)
    traj = coevolution.run_dense(state, 1.0, 1.1, FIG9, 5.0, sched, rng)
    params = limits.DenseLimitParams(eta=1.0, rho=1.1, s=FIG9,
                                     p0=float(traj.p[0]), q0=float(traj.q[0]))
    _, p_ode, _ = limits.integrate_dense_limit(params, dt, 5.0, q_path=traj.q)
    sup = float(np.max(np.abs(traj.p - p_ode)))
    assert sup <= 0.03
    i05 = int(np.searchsorted(sched, 0.5))
    drop = 1.0 - traj.disc_edge[i05] / traj.disc_edge[0]
    assert drop >= 0.30
    s0 = SwitchProbs(s_c1=0.5, s_c0=0.0, s_d1=2.0, s_d0=0.0)
    st2 = coevolution.init_positional(N, rng=np.random.default_rng(89))
    tr2 = coevolution.run_dense(st2, 1.0, 1.1, s0, 3.0,
                                np.linspace(0.0, 3.0, 301),
                                np.random.default_rng(90))
    assert np.all(np.diff(tr2.p) <= 1e-15)
    _report(8, f"pathwise sup |p - p_ode| = {sup:.4f} <= 0.03; "
               f"discordant-edge collapse {drop:.0%} by t=0.5; "
               f"boundary case non-increasing")


def test_criterion_09_coevolution_dichotomy():
    def minority(beta, seed, runs=50, n=200):
        out = []
        for r in range(runs):
            rng = experiments.spawn_rng(seed, r)
            o, _ = coevolution.run_rewire_model(n, beta, "TO_RANDOM", rng,
                                                max_events=5_000_000)
            assert o.verdict in (coevolution.CONSENSUS,
                                 coevolution.POLARISATION)
            f = o.final_heart_fraction
            out.append(min(f, 1.0 - f))
        return np.asarray(out)

    m01 = minority(0.1, 555)
    m20 = minority(20.0, 556)
    frac_balanced = float(np.mean(m01 >= 0.25))
    assert frac_balanced >= 0.8
    assert np.median(m20) < np.median(m01)
    mw = stats.mannwhitneyu(m20, m01, alternative="less")
    assert mw.pvalue < 0.05
    _report(9, f"beta=0.1: {frac_balanced:.0%} runs with minority >= 0.25 "
               f"(median {np.median(m01):.3f}); beta=20 median "
               f"{np.median(m20):.3f}; Mann-Whitney p={mw.pvalue:.2e}")


def test_criterion_10_property_suites():
    # voter + rewiring bookkeeping fuzz with >= 1e4 events, n <= 60
    g = graphs.generate_random_regular(60, 3, np.random.default_rng(44),
                                       policy="allow")
    before = sorted(g.degrees())
    gm = g.copy()
    st = dynamics.init_opinions_iid(60, 0.5, np.random.default_rng(45))
    traj = dynamics.run_voter_rewiring(
        gm, st, 30.0, 20.0, [0.1 * i for i in range(1, 201)],
        np.random.default_rng(46), mutate_graph=True, check=True)
    assert traj.n_events >= 10_000
    assert sorted(gm.degrees()) == before

    # dense pair-class fuzz with >= 1e4 events, n <= 60
    stD = DenseState.iid(50, 0.4, 0.5, np.random.default_rng(47))
    trD = coevolution.run_dense(stD, 1.0, 1.5, FIG9, 3.0,
                                np.linspace(0.0, 3.0, 31),
                                np.random.default_rng(48), check=True)
    assert trD.n_events >= 10_000

    # martingale check
    R, tgrid = 10_000, [0.5, 2.0]
    g60 = graphs.generate_random_regular(60, 3, np.random.default_rng(8))
    means = np.zeros(len(tgrid))
    for i in range(R):
        rng = np.random.default_rng(200_000 + i)
        s = dynamics.init_opinions_iid(60, 0.5, rng)
        means += dynamics.run_voter(g60, s, 2.0, tgrid, rng).heart_frac
    means /= R
    assert np.all(np.abs(means - 0.5) <= 4 * math.sqrt(0.25 / R))

    # seed determinism under parallelism
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 40, "d": 3}, u=0.5, replicas=6,
        master_seed=21, horizon=2.0, sample_times=[1.0, 2.0])
    a = experiments.run_ensemble(cfg, workers=1)
    b = experiments.run_ensemble(cfg, workers=2)
    assert np.array_equal(a.samples["heart_frac"], b.samples["heart_frac"])
    assert np.array_equal(a.samples["discordant_frac"],
                          b.samples["discordant_frac"])
    _report(10, "bookkeeping fuzz (voter+rewiring, dense), degree "
                "preservation, martingale bound, parallel determinism")
