import json

import numpy as np
import pytest

from discordlab import dynamics, experiments, limits
from discordlab.errors import InsufficientDataError, InvalidParameterError


def small_cfg(**over):
    base = dict(model={"family": "rrg", "n": 40, "d": 3}, u=0.5, replicas=8,
                master_seed=12345, horizon=3.0,
                sample_times=[0.0, 1.0, 2.0, 3.0])
    base.update(over)
    return experiments.ExperimentConfig(**base)


def test_config_json_roundtrip():
    cfg = small_cfg(nu=2.0, comparison={"name": "constant", "value": 0.5,
                                        "tolerance": 0.1})
    cfg2 = experiments.ExperimentConfig.from_json(cfg.to_json())
    assert cfg2 == cfg
    assert json.loads(cfg.to_json())["master_seed"] == 12345


def test_single_replica_mean_is_the_trajectory():
    cfg = small_cfg(replicas=1)
    res = experiments.run_ensemble(cfg)
    rng = experiments.spawn_rng(cfg.master_seed, 0)
    g = experiments.build_graph(cfg.model, rng)
    st = dynamics.init_opinions_iid(g.n, cfg.u, rng)
    traj = dynamics.run_voter(g, st, cfg.horizon, cfg.sample_times, rng)
    assert np.array_equal(res.mean["heart_frac"], traj.heart_frac)
    assert np.array_equal(res.mean["discordant_frac"], traj.discordant_frac)


def test_same_master_seed_is_byte_identical():
    a = experiments.run_ensemble(small_cfg())
    b = experiments.run_ensemble(small_cfg())
    for key in ("heart_frac", "discordant_frac"):
        assert np.array_equal(a.samples[key], b.samples[key])
    assert np.array_equal(np.nan_to_num(a.taus), np.nan_to_num(b.taus))


def test_parallel_equals_serial():
    cfg = small_cfg(replicas=6)
    serial = experiments.run_ensemble(cfg, workers=1)
    parallel = experiments.run_ensemble(cfg, workers=2)
    for key in ("heart_frac", "discordant_frac"):
        assert np.array_equal(serial.samples[key], parallel.samples[key])


def test_replica_timeout_flagged_not_fatal():
    cfg = small_cfg(max_events=3)
    res = experiments.run_ensemble(cfg)
    assert res.timed_out == list(range(cfg.replicas))
    assert np.isnan(res.samples["heart_frac"][:, -1]).all()


def test_build_graph_families(rng):
    assert experiments.build_graph({"family": "complete", "n": 5}, rng).m == 10
    g = experiments.build_graph({"family": "er", "n": 20, "p": 0.3}, rng)
    assert g.n == 20
    d = experiments.build_graph({"family": "dcm", "n": 6, "d": 2}, rng)
    assert d.out_degrees() == [2] * 6
    d2 = experiments.build_graph(
        {"family": "dcm", "n": 3, "d_in": [1, 1, 1], "d_out": [2, 1, 0]}, rng)
    assert d2.in_degrees() == [1, 1, 1]
    with pytest.raises(InvalidParameterError):
        experiments.build_graph({"family": "tree", "n": 5}, rng)


def test_compare_to_prediction_self_is_zero():
    res = experiments.run_ensemble(small_cfg())
    rep = experiments.compare_to_prediction(
        res, res.mean["discordant_frac"], tolerance=1e-12)
    assert rep.sup_deviation == 0.0
    assert rep.passed
    assert rep.frac_within_ci == 1.0


def test_compare_grid_mismatch_rejected():
    res = experiments.run_ensemble(small_cfg())
    with pytest.raises(InvalidParameterError):
        experiments.compare_to_prediction(res, np.zeros(7), tolerance=0.1)


def test_initial_discordance_matches_iid_prefactor():
    # at t=0 the mean discordant fraction is 2u(1-u) up to binomial noise
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 200, "d": 3}, u=0.5, replicas=60,
        master_seed=5150, horizon=1.0, sample_times=[0.0])
    res = experiments.run_ensemble(cfg)
    dev = abs(res.mean["discordant_frac"][0] - 0.5)
    assert dev <= max(3 * res.ci_half["discordant_frac"][0] / 1.96, 0.01)


def test_comparison_through_config_and_oracle():
    grid = [0.0, 0.5, 1.0, 2.0]
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 300, "d": 3}, u=0.5, replicas=40,
        master_seed=777, horizon=2.0, sample_times=grid,
        comparison={"name": "discordance", "u": 0.5, "d": 3, "n": 300,
                    "tolerance": 0.05})
    res = experiments.run_ensemble(cfg)
    assert res.comparison is not None
    assert res.comparison.passed
    assert res.comparison.sup_deviation < 0.05


def test_resolve_prediction_validation():
    with pytest.raises(InvalidParameterError):
        experiments.resolve_prediction({"name": "mystery"}, [0.0])


def test_estimate_theta_synthetic_fisher_wright():
    tg = np.linspace(0.1, 1.5, 15)
    _, paths, _ = limits.fisher_wright_ensemble(
        0.5, 0.5, 1e-3, 1.5, 3000, np.random.default_rng(44), record_times=tg)
    res = experiments.ensemble_from_samples(tg, paths)
    est = experiments.estimate_theta(res, n_vertices=1)
    assert abs(est.theta - 0.5) < 0.05


def test_estimate_theta_subsampling_invariance():
    tg = np.linspace(0.1, 1.5, 15)
    _, paths, _ = limits.fisher_wright_ensemble(
        0.5, 0.5, 1e-3, 1.5, 3000, np.random.default_rng(44), record_times=tg)
    full = experiments.estimate_theta(
        experiments.ensemble_from_samples(tg, paths), n_vertices=1)
    sub = experiments.estimate_theta(
        experiments.ensemble_from_samples(tg[::2], paths[:, ::2]), n_vertices=1)
    assert abs(full.theta - sub.theta) <= full.stderr + sub.stderr


def test_estimate_theta_insufficient_data():
    tg = np.array([1.0, 2.0, 3.0])
    absorbed = np.zeros((50, 3))  # consensus everywhere: product moment 0
    res = experiments.ensemble_from_samples(tg, absorbed)
    with pytest.raises(InsufficientDataError):
        experiments.estimate_theta(res, n_vertices=1)


def test_homogenisation_t0_residual_is_noise():
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 200, "d": 3}, u=0.5, replicas=60,
        master_seed=31, horizon=1.0, sample_times=[0.0])
    res = experiments.run_ensemble(cfg)
    rep = experiments.homogenisation_check(res, coefficient=2.0)
    # per-replica |D0 - 2 O0 (1-O0)| is O(1/sqrt(M)) noise at the iid start
    assert rep.mean_abs_residual[0] < 0.05
    assert abs(rep.mean_residual[0]) < 0.02
    with pytest.raises(InvalidParameterError):
        experiments.homogenisation_check(res, times=[0.123])


def test_ci_coverage_meta_experiment():
    # the martingale mean heart fraction is covered by the 95% CI in at
    # least 18 of 20 independent meta-rounds
    cover = 0
    for round_ in range(20):
        cfg = experiments.ExperimentConfig(
            model={"family": "complete", "n": 30}, u=0.5, replicas=80,
            master_seed=90_000 + round_, horizon=2.0, sample_times=[2.0])
        res = experiments.run_ensemble(cfg)
        if abs(res.mean["heart_frac"][0] - 0.5) <= res.ci_half["heart_frac"][0]:
            cover += 1
    assert cover >= 18


def test_ensemble_from_samples_validation():
    with pytest.raises(InvalidParameterError):
        experiments.ensemble_from_samples([0.0], np.zeros(4))
    with pytest.raises(InvalidParameterError):
        experiments.ensemble_from_samples([0.0, 1.0], np.zeros((4, 3)))


@pytest.mark.parametrize("R, T", [(1, 5), (2, 17), (30, 41), (200, 101),
                                  (7, 5)])
def test_ensemble_from_samples_nan_free_moments_are_exact(R, T):
    # the NaN-skipping aggregation gives the plain moments bit for bit
    x = np.random.default_rng(1000 * R + T).random((R, T))
    res = experiments.ensemble_from_samples(np.arange(T, dtype=float), x, x)
    for name in ("heart_frac", "discordant_frac"):
        assert np.array_equal(res.mean[name], x.mean(axis=0))
        want = x.var(axis=0, ddof=1) if R > 1 else np.zeros(T)
        assert np.array_equal(res.var[name], want)
