"""Reproducible ensembles: replicated voter-family runs with derived seeds,
statistical aggregation on a shared sample grid, and quantitative comparison
against the limit oracles.

Replica r draws its generator from (master_seed, spawn_key=r), so results
are identical whatever the execution order or degree of parallelism, and
aggregation is a deterministic reduction in replica order.  Static rrg, ER
and dcm ensembles of at least ``LOCKSTEP_MIN_REPLICAS`` (16) replicas step
all replicas together (:mod:`_lockstep`); their dynamics draw from one
stream per ensemble, see :func:`run_ensemble`.
"""

from __future__ import annotations

import json
import math
import numbers
import typing
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _lockstep, dynamics, graphs, limits
from .errors import (InsufficientDataError, InvalidParameterError,
                     SimulationTimeout, _INT64_MAX, _cap, _choice, _floats,
                     _real, _size, _times)

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
]

Z95 = 1.96

_OBSERVABLES = ("heart_frac", "discordant_frac")

# Ensembles of at least this many replicas on a static rrg, ER or dcm graph,
# with a finite horizon, step in lockstep (see ``run_ensemble``).  Smaller
# ones stay on the single-run engines, where replica r is
# ``run_voter_rewiring`` (``run_voter`` at nu = 0) or ``run_voter_directed``
# on ``spawn_rng(master_seed, r)``, seed for seed.
# Single-run engine time over lockstep time, in-process CPU on a 2-core VM
# (Python 3.11, numpy 2.4), median of master seeds 1-3, with two passes
# fused per gather and scatter in lockstep; every shape has 11 sample times:
#
#   shape                            R=1   R=2   R=4   R=8   R=16
#   rrg N=500, d=3, to t=650         0.61  0.93  1.27  1.72  2.62
#   dcm N=500, d=3, to t=650         0.21  0.44  0.72  1.39  2.67
#   ER N=4000, mean degree 3, t=5    0.97  1.34  1.86  2.37  2.50
#   rrg N=1000, d=3, to t=5          0.80  1.08  1.51  2.00  2.36
#
# Lockstep is faster on every shape at 8 replicas or more, 1.4x or more,
# and at 4 on every shape but the long dcm one.  The threshold is 16, not
# 8, so that the benchmark has an eligible ensemble on each side of it:
# the ``diffusive`` dcm ensemble (8 replicas) below, the benchmark's only
# run of the single-run engine's static-slot loop, and its rrg ensemble
# and the ``short_time`` ensembles (16 and 200) at or above.
LOCKSTEP_MIN_REPLICAS = 16


def spawn_rng(master_seed, index) -> np.random.Generator:
    """Independent, order-insensitive stream for replica ``index``."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=_size(master_seed, "seed", 0),
        spawn_key=(_size(index, "index", 0),)))


@dataclass
class ExperimentConfig:
    """Field-for-field JSON-mirrorable description of one ensemble."""

    model: dict
    u: float
    replicas: int
    master_seed: int
    horizon: float | None
    sample_times: list[float] = field(default_factory=list)
    nu: float = 0.0
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


def _check_keys(spec: dict, keys: dict, what: str) -> None:
    """Raise InvalidParameterError unless ``spec`` is a dict that holds
    every key of ``keys`` with a value of its JSON type."""
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"{what} must be a dict, got {spec!r}")
    for key, hint in keys.items():
        if key not in spec:
            raise InvalidParameterError(f"{what} needs key {key!r}")
        if not _json_fits(spec[key], hint):
            raise InvalidParameterError(
                f"{what}: key {key!r} must be {hint.__name__}, "
                f"got {spec[key]!r}")


def build_graph(model: dict, rng):
    """Instantiate the graph family described by a model spec dict.  An
    unknown family, or a key the family needs that is missing or of the
    wrong JSON type, raises InvalidParameterError."""
    _check_keys(model, {"family": str}, "model")
    family = model["family"]
    if family == "dcm" and "d" not in model:
        keys = _DCM_SEQUENCE_KEYS
    elif family in _MODEL_KEYS:
        keys = _MODEL_KEYS[family]
    else:
        raise InvalidParameterError(f"unknown graph family {family!r}")
    _check_keys(model, keys, f"graph family {family!r}")
    n = model.get("n")
    if family == "complete":
        return graphs.generate_complete(n)
    if family == "rrg":
        return graphs.generate_random_regular(
            n, model["d"], rng, policy=model.get("policy", "reject"))
    if family == "er":
        return graphs.generate_erdos_renyi(n, model["p"], rng)
    if "d" in model:
        # [d] * n would make an empty graph of a negative n
        seq = [model["d"]] * _size(n, "vertex count", 0, _INT64_MAX)
        return graphs.generate_directed_configuration(seq, seq, rng)
    if not len(model["d_in"]) == len(model["d_out"]) == n:
        raise InvalidParameterError(
            f"d_in and d_out must have n = {n} entries each")
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
        traj = dynamics._run_on(g, state, cfg.nu, cfg.horizon,
                                cfg.sample_times, rng,
                                adopt_from=cfg.adopt_from,
                                max_events=cfg.max_events)
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


def _takes_lockstep(cfg: ExperimentConfig) -> bool:
    # numpy draws no Poisson(n * gap) step count past 9.2e18: from n *
    # horizon = 1e18 on, and for a malformed n, take the single-run engines
    n, hz = cfg.model.get("n"), cfg.horizon
    return (cfg.nu == 0.0 and hz is not None and math.isfinite(hz)
            and cfg.model.get("family") in ("rrg", "er", "dcm")
            and cfg.replicas >= LOCKSTEP_MIN_REPLICAS
            and isinstance(n, numbers.Real) and (hz <= 0 or n < 1e18 / hz))


def _lockstep_ensemble(cfg: ExperimentConfig):
    """All replicas of ``cfg`` stepped together by :mod:`_lockstep`.

    Replica r builds its graph and starting opinions from
    ``spawn_rng(master_seed, r)`` as :func:`_replica` does, one graph at a
    time.  The dynamics draw from one stream for the whole ensemble, the
    master seed's child with spawn key (R,), next after the replicas' keys.
    """
    R = int(cfg.replicas)
    directed = cfg.model.get("family") == "dcm"
    sched = _times(cfg.sample_times, cfg.horizon)
    ends, ecut, ops = np.empty(0, dtype=np.int32), [0], bytearray()
    for r in range(R):
        rng = spawn_rng(cfg.master_seed, r)
        g = build_graph(cfg.model, rng)
        state = dynamics.init_opinions_iid(g.n, cfg.u, rng)
        if directed:  # each arc as (copying end, copied end)
            us, vs, _ = dynamics._copy_arcs(g, cfg.adopt_from)
        elif g.m == 0:
            raise InvalidParameterError("graph must have at least one edge")
        else:
            us, vs = g.endpoint_arrays()
        lo, hi = 2 * ecut[-1], 2 * (ecut[-1] + g.m)
        if hi > len(ends):  # room for R graphs this size (exact for rrg)
            ends = np.resize(ends, max(R * (hi - lo), hi + len(ends) // 4))
        ends[lo:hi:2], ends[lo + 1:hi:2] = us, vs
        ends[lo:hi] += r * g.n
        ecut.append(ecut[-1] + g.m)
        ops.extend(state.opinions)  # 0/1 ints, one byte each
    packed = _lockstep.Packed(g.n, ends[:2 * ecut[-1]],
                              np.asarray(ecut, dtype=np.int64),
                              np.frombuffer(ops, dtype=np.int8), directed)
    stream = np.random.default_rng(np.random.SeedSequence(
        entropy=int(cfg.master_seed), spawn_key=(R,)))
    out = _lockstep.run(packed, sched, float(cfg.horizon),
                        _cap(cfg.max_events), stream)
    values = [int(v) if v >= 0 else None for v in out["value"]]
    return (out["heart"], out["disc"], out["tau"], values,
            np.flatnonzero(out["timed_out"]).tolist())


def _replica_ensemble(cfg: ExperimentConfig, workers):
    """The replicas of ``cfg`` one by one, through the single-run engines,
    in ``workers`` processes."""
    R = int(cfg.replicas)
    if workers > 1:
        # imported here: it loads multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_replica, [cfg] * R, range(R),
                                 chunksize=max(1, R // (4 * workers))))
    else:
        rows = [_replica(cfg, r) for r in range(R)]
    T = len(cfg.sample_times)
    heart = np.vstack([row["heart"] for row in rows]) if T else np.zeros((R, 0))
    disc = np.vstack([row["disc"] for row in rows]) if T else np.zeros((R, 0))
    return (heart, disc, np.array([row["tau"] for row in rows], dtype=float),
            [row["consensus_value"] for row in rows],
            [r for r, row in enumerate(rows) if row["timed_out"]])


def run_ensemble(cfg: ExperimentConfig, workers=1) -> EnsembleResult:
    """R independent replicas with derived seeds; deterministic given
    master_seed regardless of ``workers``.  Replica timeouts are flagged and
    aggregated as NaN rather than aborting the ensemble; with
    ``horizon=None`` that includes a replica whose consensus is out of
    reach.  ``adopt_from`` must be "out" or "in" on every family.

    An ensemble of at least ``LOCKSTEP_MIN_REPLICAS`` (16) replicas with
    ``nu == 0``, a finite horizon and an ``rrg``, ``er`` or ``dcm`` model
    steps all its replicas together in numpy under the literal rate-1
    clock, in the calling process whatever ``workers`` is.  On a ``dcm``
    graph a vertex copies a uniform out-neighbour, or in-neighbour with
    ``adopt_from="in"``, as in ``run_voter_directed``, and the same
    parameter errors are raised.  It has the law of the single-run
    engines and their graphs and starting opinions, but not their random
    stream for the dynamics.  Any other ensemble runs its replicas through
    the single-run engines (``run_voter_rewiring``, or
    ``run_voter_directed`` on a ``dcm`` graph), in ``workers`` processes.
    """
    R = _size(cfg.replicas, "replicas", 1, _INT64_MAX)
    _size(cfg.master_seed, "master_seed", 0)
    _cap(cfg.max_events)
    _choice(cfg.adopt_from, "adopt_from", ("out", "in"))
    _check_keys(cfg.model, {"family": str}, "model")
    times = np.asarray(_times(cfg.sample_times, cfg.horizon))
    if cfg.comparison:
        # resolved before the runs, so that a bad spec costs none
        _check_keys(cfg.comparison, {"tolerance": float}, "comparison")
        spec = dict(cfg.comparison)
        tol = _real(spec.pop("tolerance"), "comparison tolerance", 0,
                    math.inf)
        observable = _choice(spec.pop("observable", "discordant_frac"),
                             "observable", _OBSERVABLES)
        pred = resolve_prediction(spec, times)
    if _takes_lockstep(cfg):
        heart, disc, taus, values, timed_out = _lockstep_ensemble(cfg)
    else:
        heart, disc, taus, values, timed_out = _replica_ensemble(cfg, workers)

    samples = {"heart_frac": heart, "discordant_frac": disc}
    result = EnsembleResult(
        times=times,
        samples=samples,
        **_aggregate(samples, R),
        replicas=R,
        taus=taus,
        consensus_values=values,
        timed_out=timed_out,
        config=cfg,
    )
    if cfg.comparison:
        result.comparison = compare_to_prediction(
            result, pred, tol, observable=observable)
    return result


def resolve_prediction(spec: dict, times) -> np.ndarray:
    """Evaluate a named oracle prediction lazily on the sample grid."""
    times = np.array(_floats(np.ravel(times), "times"))
    _check_keys(spec, {"name": str}, "prediction")
    name = spec["name"]
    if name == "constant":
        _check_keys(spec, {"value": float}, "prediction 'constant'")
        _real(spec["value"], "constant prediction", -math.inf, math.inf)
        return np.full(len(times), float(spec["value"]))
    if name == "discordance":
        _check_keys(spec, {"u": float, "d": int, "n": int},
                    "prediction 'discordance'")
        return np.atleast_1d(limits.discordance_prediction(
            spec["u"], spec["d"], times, spec["n"],
            tolerance=spec.get("tolerance", 1e-6)))
    raise InvalidParameterError(f"unknown prediction {name!r}")


def compare_to_prediction(result: EnsembleResult, prediction, tolerance,
                          observable="discordant_frac") -> ComparisonReport:
    """Sup-norm and per-point deviations of the ensemble mean from a
    prediction on the same grid, plus the fraction of points whose 95% CI
    covers the prediction."""
    _choice(observable, "observable", _OBSERVABLES)
    _real(tolerance, "tolerance")
    pred = np.array(_floats(prediction, "prediction"))
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
    _real(n_vertices, "n_vertices", 1)
    x = result.samples[_choice(observable, "observable", _OBSERVABLES)]
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
    _real(coefficient, "coefficient", -math.inf, math.inf)
    if times is None:
        idx = np.arange(len(result.times))
    else:
        idx = []
        for t in _floats(times, "times"):
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


def _aggregate(samples, R) -> dict:
    """Per-column mean, variance (ddof=1) and 95% CI half-width of each
    (R, T) sample array, skipping NaN entries (timed-out replicas): the CI
    divides by the count of finite entries.  A column with no finite entry
    aggregates to NaN, silently."""
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
            finite = np.count_nonzero(np.isfinite(arr), axis=0)
            ci[name] = Z95 * np.sqrt(var[name] / finite)
    return {"mean": mean, "var": var, "ci_half": ci}
