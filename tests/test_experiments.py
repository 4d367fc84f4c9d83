import json

import numpy as np
import pytest

from discordlab import dynamics, experiments, graphs
from discordlab.errors import InsufficientDataError, InvalidParameterError

from _deadline import deadline
from _oracles import ensemble_from_samples, fisher_wright_ensemble


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


def test_bad_sample_grid_is_refused_before_any_replica_runs(monkeypatch):
    def no_graph(model, rng):
        raise AssertionError("a replica ran")
    monkeypatch.setattr(experiments, "build_graph", no_graph)
    for grid in ([1.0, 0.5], [0.0, float("nan")], [-1.0], [4.0], ["x"],
                 [None]):
        with pytest.raises(InvalidParameterError):
            experiments.run_ensemble(small_cfg(sample_times=grid))


def test_rewiring_rate_on_a_directed_model_is_refused():
    # the directed engine has no rewiring: nu used to be dropped silently
    cfg = small_cfg(model={"family": "dcm", "n": 30, "d": 2}, nu=4.0)
    with pytest.raises(InvalidParameterError):
        experiments.run_ensemble(cfg)


@pytest.mark.parametrize("family, replicas", [
    ("rrg", 2), ("rrg", 16), ("complete", 2), ("dcm", 16)],
    ids=["rrg-single-run", "rrg-lockstep", "complete", "dcm-lockstep"])
def test_unknown_adopt_from_is_refused_before_any_replica_runs(
        monkeypatch, family, replicas):
    # undirected ensembles ignored it and ran; dcm refused it only once a
    # replica had built its graph
    def no_graph(model, rng):
        raise AssertionError("a replica ran")
    monkeypatch.setattr(experiments, "build_graph", no_graph)
    model = {"family": family, "n": 40, "d": 3}
    if family == "complete":
        del model["d"]
    cfg = small_cfg(model=model, replicas=replicas, adopt_from="sideways")
    with pytest.raises(InvalidParameterError, match="adopt_from"):
        experiments.run_ensemble(cfg)


@pytest.mark.parametrize("replicas", [2, 16], ids=["single-run", "lockstep"])
def test_adopt_from_in_runs_an_undirected_ensemble_as_out(replicas):
    # on an undirected graph both directions have the same law
    out, into = (experiments.run_ensemble(small_cfg(replicas=replicas,
                                                    adopt_from=a))
                 for a in ("out", "in"))
    for key in ("heart_frac", "discordant_frac"):
        assert np.array_equal(out.samples[key], into.samples[key])


def test_build_graph_families(rng):
    assert experiments.build_graph({"family": "complete", "n": 5}, rng).m == 10
    g = experiments.build_graph({"family": "er", "n": 20, "p": 0.3}, rng)
    assert g.n == 20
    d = experiments.build_graph({"family": "dcm", "n": 6, "d": 2}, rng)
    assert np.bincount(d.endpoint_arrays()[0]).tolist() == [2] * 6
    d2 = experiments.build_graph(
        {"family": "dcm", "n": 3, "d_in": [1, 1, 1], "d_out": [2, 1, 0]}, rng)
    assert np.bincount(d2.endpoint_arrays()[1]).tolist() == [1, 1, 1]
    with pytest.raises(InvalidParameterError):
        experiments.build_graph({"family": "tree", "n": 5}, rng)


def test_dcm_degree_sequences_must_have_n_entries(rng):
    # the graph used to take the length of the sequences as its size, while
    # estimate_theta scaled by n
    for d_in, d_out in (([1, 2], [2, 1]), ([1] * 21, [1] * 21),
                        ([1] * 20, [1] * 19)):
        model = {"family": "dcm", "n": 20, "d_in": d_in, "d_out": d_out}
        with pytest.raises(InvalidParameterError, match="20"):
            experiments.build_graph(model, rng)
    g = experiments.build_graph({"family": "dcm", "n": 3, "d_in": [1, 2, 0],
                                 "d_out": [1, 1, 1]}, rng)
    assert (g.n, g.m) == (3, 3)


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
    _, paths, _ = fisher_wright_ensemble(
        0.5, 0.5, 1e-3, 1.5, 3000, np.random.default_rng(44), record_times=tg)
    res = ensemble_from_samples(tg, paths)
    est = experiments.estimate_theta(res, n_vertices=1)
    assert abs(est.theta - 0.5) < 0.05


def test_estimate_theta_subsampling_invariance():
    tg = np.linspace(0.1, 1.5, 15)
    _, paths, _ = fisher_wright_ensemble(
        0.5, 0.5, 1e-3, 1.5, 3000, np.random.default_rng(44), record_times=tg)
    full = experiments.estimate_theta(
        ensemble_from_samples(tg, paths), n_vertices=1)
    sub = experiments.estimate_theta(
        ensemble_from_samples(tg[::2], paths[:, ::2]), n_vertices=1)
    assert abs(full.theta - sub.theta) <= full.stderr + sub.stderr


def test_estimate_theta_insufficient_data():
    tg = np.array([1.0, 2.0, 3.0])
    absorbed = np.zeros((50, 3))  # consensus everywhere: product moment 0
    res = ensemble_from_samples(tg, absorbed)
    with pytest.raises(InsufficientDataError):
        experiments.estimate_theta(res, n_vertices=1)


# the CI half-width divided by R, not by the replicas with a sample: the
# last column, where 7 of 8 replicas have one, read 0.021457 for the
# discordant fraction where 0.022938 is due
def test_ci_divides_by_the_replicas_that_have_a_sample():
    cfg = experiments.ExperimentConfig(
        model={"family": "rrg", "n": 200, "d": 3}, u=0.5, replicas=8,
        master_seed=3, horizon=40.0, sample_times=[0, 1, 2, 3, 5, 8],
        max_events=500)
    res = experiments.run_ensemble(cfg)
    for name, arr in res.samples.items():
        k = np.count_nonzero(np.isfinite(arr), axis=0)
        assert k.tolist() == [8] * 5 + [7]
        assert np.array_equal(res.ci_half[name],
                              1.96 * np.sqrt(res.var[name] / k))
    assert round(res.ci_half["discordant_frac"][-1], 6) == 0.022938


# 0 returned NaN with RuntimeWarnings, and -5 a theta of -0.077
@pytest.mark.parametrize("n_vertices", [0, -5, "x"])
def test_estimate_theta_refuses_a_vertex_count_below_one(n_vertices):
    tg = np.linspace(0.1, 1.5, 15)
    _, paths, _ = fisher_wright_ensemble(
        0.5, 0.5, 1e-3, 1.5, 100, np.random.default_rng(44), record_times=tg)
    with pytest.raises(InvalidParameterError, match="n_vertices"):
        experiments.estimate_theta(ensemble_from_samples(tg, paths),
                                   n_vertices=n_vertices)


# numpy's ValueError leaked for a negative seed
@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), ("x", 0)])
def test_spawn_rng_refuses_a_bad_seed_or_index(seed, index):
    with pytest.raises(InvalidParameterError):
        experiments.spawn_rng(seed, index)


@pytest.fixture(scope="module")
def small_result():
    return experiments.run_ensemble(small_cfg(replicas=2))


# an unknown observable leaked KeyError from both; run_ensemble refused it
@pytest.mark.parametrize("call", [
    lambda res: experiments.compare_to_prediction(
        res, res.mean["heart_frac"], 0.1, observable="x"),
    lambda res: experiments.estimate_theta(res, 40, observable="x"),
], ids=["compare_to_prediction", "estimate_theta"])
def test_unknown_observable_is_refused(small_result, call):
    with pytest.raises(InvalidParameterError, match="observable"):
        call(small_result)


# float("a") leaked ValueError
def test_compare_to_prediction_refuses_a_non_numeric_tolerance(small_result):
    with pytest.raises(InvalidParameterError, match="tolerance"):
        experiments.compare_to_prediction(
            small_result, small_result.mean["discordant_frac"], "a")


# numpy's UFuncTypeError leaked
def test_homogenisation_check_refuses_a_non_numeric_coefficient(
        small_result):
    with pytest.raises(InvalidParameterError, match="coefficient"):
        experiments.homogenisation_check(small_result, coefficient="a")


# TypeError leaked from range() or from comparing "a" with 1
@pytest.mark.parametrize("replicas", ["a", 2.5])
def test_run_ensemble_refuses_a_replica_count_that_is_no_integer(replicas):
    with pytest.raises(InvalidParameterError, match="replicas"):
        experiments.run_ensemble(small_cfg(replicas=replicas))


# AttributeError leaked from list.get
@pytest.mark.parametrize("call", [
    lambda: experiments.build_graph([], np.random.default_rng(1)),
    lambda: experiments.resolve_prediction([1], [0.0, 1.0]),
], ids=["build_graph", "resolve_prediction"])
def test_a_spec_that_is_no_dict_is_refused(call):
    with pytest.raises(InvalidParameterError, match="must be a dict"):
        call()


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


@pytest.mark.parametrize("R, T", [(1, 5), (2, 17), (30, 41), (200, 101),
                                  (7, 5)])
def test_ensemble_from_samples_nan_free_moments_are_exact(R, T):
    # the NaN-skipping aggregation gives the plain moments bit for bit
    x = np.random.default_rng(1000 * R + T).random((R, T))
    res = ensemble_from_samples(np.arange(T, dtype=float), x, x)
    for name in ("heart_frac", "discordant_frac"):
        assert np.array_equal(res.mean[name], x.mean(axis=0))
        want = x.var(axis=0, ddof=1) if R > 1 else np.zeros(T)
        assert np.array_equal(res.var[name], want)


def test_lockstep_ensemble_builds_no_edge_lists(monkeypatch):
    def boom(*args):
        raise AssertionError("edge lists were built")
    monkeypatch.setattr(graphs, "_grouped", boom)
    cfg = small_cfg(model={"family": "rrg", "n": 60, "d": 3},
                    replicas=experiments.LOCKSTEP_MIN_REPLICAS)
    assert experiments._takes_lockstep(cfg)
    res = experiments.run_ensemble(cfg)
    assert res.samples["heart_frac"].shape == (cfg.replicas, 4)


# at R = 16 lockstep leaked numpy's "lam value too large", and at R = 15
# the single-run engines spun on replicas frozen short of consensus: each
# graph falls apart into pieces (edges, small components, cycles)
@pytest.mark.parametrize("replicas", [15, 16])
@pytest.mark.parametrize("model", [
    {"family": "rrg", "n": 10, "d": 1}, {"family": "er", "n": 30, "p": 0.1},
    {"family": "dcm", "n": 10, "d": 1}], ids=["rrg", "er", "dcm"])
def test_ensemble_to_a_horizon_past_the_poisson_limit(model, replicas):
    cfg = small_cfg(model=model, replicas=replicas, horizon=1e18,
                    sample_times=[0.0, 1.0, 1e18])
    with deadline(10.0):
        res = experiments.run_ensemble(cfg)
    assert res.timed_out == []
    assert res.samples["discordant_frac"][:, -1].tolist() == [0.0] * replicas
