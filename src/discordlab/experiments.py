"""Reproducible ensembles: replicated voter-family runs with derived seeds,
statistical aggregation on a shared sample grid, and quantitative comparison
against the limit oracles.

Replica r draws its generator from (master_seed, spawn_key=r), so results
are identical whatever the execution order or degree of parallelism, and
aggregation is a deterministic reduction in replica order.
"""

from __future__ import annotations

import json
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dynamics, graphs, limits
from .errors import (InsufficientDataError, InvalidParameterError,
                     SimulationTimeout)

__all__ = [
    "ExperimentConfig",
    "EnsembleResult",
    "ComparisonReport",
    "ThetaEstimate",
    "HomogenisationReport",
    "spawn_rng",
    "build_graph",
    "run_ensemble",
    "compare_to_prediction",
    "resolve_prediction",
    "estimate_theta",
    "homogenisation_check",
    "ensemble_from_samples",
]

Z95 = 1.96


def spawn_rng(master_seed, index) -> np.random.Generator:
    """Independent, order-insensitive stream for replica ``index``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),)))


@dataclass
class ExperimentConfig:
    """Field-for-field JSON-mirrorable description of one ensemble."""

    model: dict
    u: float
    replicas: int
    master_seed: int
    horizon: float | None
    sample_times: list = field(default_factory=list)
    nu: float = 0.0
    rate_convention: str = dynamics.REWIRE_RATE_CONVENTION
    adopt_from: str = "out"
    max_events: int = dynamics.DEFAULT_MAX_EVENTS
    comparison: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a config, rejecting unknown keys, missing required keys
        and values of the wrong JSON type with InvalidParameterError."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"config is not valid JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise InvalidParameterError("config must be a JSON object")
        hints = typing.get_type_hints(cls)
        unknown = sorted(set(data) - set(hints))
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {unknown}")
        for key, value in data.items():
            if not _json_fits(value, hints[key]):
                want = getattr(hints[key], "__name__", hints[key])
                raise InvalidParameterError(
                    f"config key {key!r} must be {want}, got {value!r}")
        try:
            return cls(**data)
        except TypeError as exc:  # only a missing required key is left
            raise InvalidParameterError(f"bad config: {exc}") from None


def _json_fits(value, hint) -> bool:
    """isinstance against an annotation, where a float field takes a JSON
    integer, an int field does not take a boolean and ``list[X]`` checks
    every element against X."""
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(
            _json_fits(x, typing.get_args(hint)[0]) for x in value)
    allowed = typing.get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    if isinstance(value, bool) and bool not in allowed:
        return False
    return isinstance(value, allowed)


# the keys each graph family reads from a model spec, with their types
_MODEL_KEYS = {
    "complete": {"n": int},
    "rrg": {"n": int, "d": int},
    "er": {"n": int, "p": float},
    "dcm": {"n": int, "d": int},
}
_DCM_SEQUENCE_KEYS = {"d_in": list[int], "d_out": list[int]}


def build_graph(model: dict, rng):
    """Instantiate the graph family described by a model spec dict.  An
    unknown family, or a key the family needs that is missing or of the
    wrong JSON type, raises InvalidParameterError."""
    family = model.get("family")
    if family == "dcm" and "d" not in model:
        keys = _DCM_SEQUENCE_KEYS
    elif family in _MODEL_KEYS:
        keys = _MODEL_KEYS[family]
    else:
        raise InvalidParameterError(f"unknown graph family {family!r}")
    for key, hint in keys.items():
        if key not in model:
            raise InvalidParameterError(
                f"graph family {family!r} needs model key {key!r}")
        if not _json_fits(model[key], hint):
            raise InvalidParameterError(
                f"model key {key!r} must be {hint.__name__}, "
                f"got {model[key]!r}")
    n = model.get("n")
    if family == "complete":
        return graphs.generate_complete(n)
    if family == "rrg":
        return graphs.generate_random_regular(
            n, model["d"], rng, policy=model.get("policy", "reject"))
    if family == "er":
        return graphs.generate_erdos_renyi(n, model["p"], rng)
    if "d" in model:
        seq = [model["d"]] * n
        return graphs.generate_directed_configuration(seq, seq, rng)
    return graphs.generate_directed_configuration(
        model["d_in"], model["d_out"], rng)


@dataclass
class ComparisonReport:
    observable: str
    prediction: np.ndarray
    per_point: np.ndarray
    sup_deviation: float
    frac_within_ci: float
    tolerance: float
    passed: bool


@dataclass
class ThetaEstimate:
    theta: float
    stderr: float
    n_points: int


@dataclass
class HomogenisationReport:
    times: np.ndarray
    coefficient: float
    mean_residual: np.ndarray
    mean_abs_residual: np.ndarray
    rms_residual: np.ndarray


@dataclass
class EnsembleResult:
    """Grid aggregates plus retained per-replica samples and terminal data."""

    times: np.ndarray
    samples: dict  # observable -> (R, T) array
    mean: dict
    var: dict
    ci_half: dict
    replicas: int
    taus: np.ndarray  # NaN where no consensus within the run
    consensus_values: list
    timed_out: list
    config: ExperimentConfig | None = None
    comparison: ComparisonReport | None = None


def _replica(cfg: ExperimentConfig, r: int) -> dict:
    rng = spawn_rng(cfg.master_seed, r)
    g = build_graph(cfg.model, rng)
    state = dynamics.init_opinions_iid(g.n, cfg.u, rng)
    timed_out = False
    try:
        if isinstance(g, graphs.DirectedGraph):
            traj = dynamics.run_voter_directed(
                g, state, cfg.horizon, cfg.sample_times, rng,
                adopt_from=cfg.adopt_from, max_events=cfg.max_events)
        elif cfg.nu == 0.0:
            traj = dynamics.run_voter(g, state, cfg.horizon,
                                      cfg.sample_times, rng,
                                      max_events=cfg.max_events)
        else:
            traj = dynamics.run_voter_rewiring(
                g, state, cfg.nu, cfg.horizon, cfg.sample_times, rng,
                rate_convention=cfg.rate_convention, max_events=cfg.max_events)
    except SimulationTimeout as exc:
        traj = exc.partial
        timed_out = True
    T = len(cfg.sample_times)
    heart = np.full(T, np.nan)
    disc = np.full(T, np.nan)
    k = len(traj.times)
    heart[:k] = traj.heart_frac
    disc[:k] = traj.discordant_frac
    return {
        "heart": heart,
        "disc": disc,
        "tau": np.nan if traj.consensus_time is None else traj.consensus_time,
        "consensus_value": traj.consensus_value,
        "timed_out": timed_out,
    }


def _replica_star(args):
    return _replica(*args)


def run_ensemble(cfg: ExperimentConfig, workers=1) -> EnsembleResult:
    """R independent replicas with derived seeds; deterministic given
    master_seed regardless of ``workers``.  Replica timeouts are flagged and
    aggregated as NaN rather than aborting the ensemble."""
    if cfg.replicas < 1:
        raise InvalidParameterError("need at least one replica")
    if cfg.horizon is not None and any(
            t > cfg.horizon for t in cfg.sample_times):
        raise InvalidParameterError("sample grid must lie within the horizon")
    R = cfg.replicas
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_replica_star,
                                 ((cfg, r) for r in range(R)),
                                 chunksize=max(1, R // (4 * workers))))
    else:
        rows = [_replica(cfg, r) for r in range(R)]

    times = np.asarray(cfg.sample_times, dtype=float)
    samples = {
        "heart_frac": np.vstack([row["heart"] for row in rows]) if len(times)
        else np.zeros((R, 0)),
        "discordant_frac": np.vstack([row["disc"] for row in rows])
        if len(times) else np.zeros((R, 0)),
    }
    result = EnsembleResult(
        times=times,
        samples=samples,
        **_aggregate(samples, R),
        replicas=R,
        taus=np.array([row["tau"] for row in rows], dtype=float),
        consensus_values=[row["consensus_value"] for row in rows],
        timed_out=[r for r, row in enumerate(rows) if row["timed_out"]],
        config=cfg,
    )
    if cfg.comparison:
        spec = dict(cfg.comparison)
        tol = spec.pop("tolerance")
        observable = spec.pop("observable", "discordant_frac")
        pred = resolve_prediction(spec, times)
        result.comparison = compare_to_prediction(
            result, pred, tol, observable=observable)
    return result


def resolve_prediction(spec: dict, times) -> np.ndarray:
    """Evaluate a named oracle prediction lazily on the sample grid."""
    times = np.asarray(times, dtype=float)
    name = spec.get("name")
    if name == "constant":
        return np.full(len(times), float(spec["value"]))
    if name == "discordance":
        return np.atleast_1d(limits.discordance_prediction(
            spec["u"], spec["d"], times, spec["n"],
            tolerance=spec.get("tolerance", 1e-6)))
    raise InvalidParameterError(f"unknown prediction {name!r}")


def compare_to_prediction(result: EnsembleResult, prediction, tolerance,
                          observable="discordant_frac") -> ComparisonReport:
    """Sup-norm and per-point deviations of the ensemble mean from a
    prediction on the same grid, plus the fraction of points whose 95% CI
    covers the prediction."""
    pred = np.asarray(prediction, dtype=float)
    if pred.shape != result.times.shape:
        raise InvalidParameterError("prediction grid does not match samples")
    mean = result.mean[observable]
    dev = mean - pred
    within = np.abs(dev) <= result.ci_half[observable]
    sup = float(np.max(np.abs(dev))) if len(dev) else 0.0
    return ComparisonReport(
        observable=observable,
        prediction=pred,
        per_point=dev,
        sup_deviation=sup,
        frac_within_ci=float(np.mean(within)) if len(dev) else 1.0,
        tolerance=float(tolerance),
        passed=sup <= tolerance,
    )


def estimate_theta(result: EnsembleResult, n_vertices=None,
                   observable="heart_frac") -> ThetaEstimate:
    """Fit ln E[x(1-x)] against diffusive time s = t/N by least squares; the
    product moment decays at rate 2*theta under the Fisher-Wright limit.
    Grid points with non-positive moments (fully absorbed ensembles) are
    dropped; fewer than three usable points is an error."""
    if n_vertices is None:
        if result.config is None or "n" not in result.config.model:
            raise InvalidParameterError("n_vertices not known; pass it")
        n_vertices = result.config.model["n"]
    x = result.samples[observable]
    moment = np.nanmean(x * (1.0 - x), axis=0)
    s = result.times / n_vertices
    keep = np.isfinite(moment) & (moment > 0)
    if int(keep.sum()) < 3:
        raise InsufficientDataError(
            "need at least three grid points with positive product moments")
    s = s[keep]
    y = np.log(moment[keep])
    k = len(s)
    sxx = float(np.sum((s - s.mean()) ** 2))
    if sxx == 0:
        raise InsufficientDataError("degenerate diffusive grid")
    slope = float(np.sum((s - s.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (s - s.mean()))
    sigma2 = float(np.sum(resid ** 2) / max(k - 2, 1))
    stderr = (sigma2 / sxx) ** 0.5 / 2.0
    return ThetaEstimate(theta=-slope / 2.0, stderr=stderr, n_points=k)


def homogenisation_check(result: EnsembleResult, coefficient=2.0,
                         times=None) -> HomogenisationReport:
    """Per-replica residuals D - coefficient * O(1-O) at the selected times.

    coefficient 2 is the i.i.d./t=0 prefactor (and the complete-graph one up
    to N/(N-1)); at diffusive times on the random d-regular graph the
    matching prefactor is 2*theta_d, which the caller passes explicitly.
    """
    if times is None:
        idx = np.arange(len(result.times))
    else:
        idx = []
        for t in times:
            hit = np.nonzero(np.isclose(result.times, t))[0]
            if len(hit) == 0:
                raise InvalidParameterError(f"time {t} not on the sample grid")
            idx.append(hit[0])
        idx = np.asarray(idx)
    h = result.samples["heart_frac"][:, idx]
    d = result.samples["discordant_frac"][:, idx]
    resid = d - coefficient * h * (1.0 - h)
    return HomogenisationReport(
        times=result.times[idx],
        coefficient=float(coefficient),
        mean_residual=np.nanmean(resid, axis=0),
        mean_abs_residual=np.nanmean(np.abs(resid), axis=0),
        rms_residual=np.sqrt(np.nanmean(resid ** 2, axis=0)),
    )


def ensemble_from_samples(times, heart, disc=None,
                          config=None) -> EnsembleResult:
    """Wrap externally produced per-replica sample arrays (R, T) as an
    EnsembleResult, for feeding synthetic paths to the estimators."""
    heart = np.asarray(heart, dtype=float)
    if heart.ndim != 2:
        raise InvalidParameterError("heart samples must be (R, T)")
    times = np.asarray(times, dtype=float)
    if heart.shape[1] != len(times):
        raise InvalidParameterError("sample width does not match grid")
    if disc is None:
        disc = np.zeros_like(heart)
    R = heart.shape[0]
    samples = {"heart_frac": heart, "discordant_frac": np.asarray(disc, float)}
    return EnsembleResult(times=times, samples=samples,
                          **_aggregate(samples, R), replicas=R,
                          taus=np.full(R, np.nan), consensus_values=[None] * R,
                          timed_out=[], config=config)


def _aggregate(samples, R) -> dict:
    """Per-column mean, variance (ddof=1) and 95% CI half-width of each
    (R, T) sample array, skipping NaN entries (timed-out replicas).  A
    column with no finite entry aggregates to NaN, silently."""
    mean, var, ci = {}, {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, arr in samples.items():
            if arr.size:
                mean[name] = np.nanmean(arr, axis=0)
            else:
                mean[name] = np.zeros(arr.shape[1])
            if R > 1 and arr.size:
                var[name] = np.nanvar(arr, axis=0, ddof=1)
            else:
                var[name] = np.zeros(arr.shape[1])
            ci[name] = Z95 * np.sqrt(var[name] / R)
    return {"mean": mean, "var": var, "ci_half": ci}
