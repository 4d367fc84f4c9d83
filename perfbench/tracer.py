"""Outside-in instrumentation of discordlab's public functions.

The benchmark never edits the package.  It replaces public functions at
module-attribute level with wrappers and puts the originals back afterwards.
The package looks these names up at call time: ``experiments`` reaches
``graphs.generate_*``, ``dynamics.run_voter*`` and ``limits.*`` through the
module objects, ``run_ensemble`` calls ``spawn_rng`` and ``build_graph``
through its own globals, ``consensus_time`` calls ``run_voter_rewiring``
through its globals and ``cli`` calls ``experiments.run_ensemble``.  So a
wrapper sees every call that crosses a module boundary.

Two instruments share the patching:

* ``ReplicaClock`` (untraced rounds) only stamps the clock when a replica
  starts (``experiments.spawn_rng``) and when its engine returns
  (``dynamics.run_voter*``), which gives per-replica latency inside an
  ensemble at two clock reads per replica.
* ``Tracer`` (traced rounds) records a span per call: name, layer, start,
  end, parent span and replica id, kept in memory.  A layer's self time is
  its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from discordlab import (cli, coevolution, dynamics, experiments, graphs,
                        limits)
from discordlab.errors import SimulationTimeout

LAYERS = ("graphs", "dynamics", "coevolution", "limits", "experiments", "cli")

ENGINES = ("run_voter", "run_voter_rewiring", "run_voter_directed")


def _functions(module, names):
    return [(module, name) for name in names
            if inspect.isfunction(getattr(module, name))]


# (module, attribute, layer) for every public function a workload reaches.
# coevolution binds generate_erdos_renyi by name at import, so it is patched
# there too and counted as graphs work.
TRACED = (
    [(m, n, "graphs") for m, n in _functions(graphs, [
        "generate_complete", "generate_random_regular",
        "generate_directed_configuration", "generate_erdos_renyi"])]
    + [(coevolution, "generate_erdos_renyi", "graphs")]
    + [(m, n, "dynamics") for m, n in _functions(dynamics, [
        "init_opinions_iid", *ENGINES, "consensus_time"])]
    + [(m, n, "coevolution") for m, n in _functions(coevolution, [
        "init_positional", "run_dense", "run_rewire_model"])]
    + [(m, n, "limits") for m, n in _functions(limits, limits.__all__)]
    + [(m, n, "experiments") for m, n in _functions(experiments, [
        "spawn_rng", "build_graph", "run_ensemble", "resolve_prediction",
        "compare_to_prediction", "estimate_theta", "homogenisation_check"])]
    + [(cli, "dispatch", "cli")]
)

ANALYSIS = ("estimate_theta", "homogenisation_check", "compare_to_prediction")

_SIGNATURES = {name: inspect.signature(getattr(dynamics, name))
               for name in ENGINES}


@contextmanager
def _patched(targets, make_wrapper):
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for (module, name, layer), (_, _, fn) in zip(targets, saved):
            setattr(module, name, make_wrapper(fn, name, layer))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


class ReplicaClock:
    """Per-replica latency inside ensembles: spawn_rng starts a replica, the
    engine's return ends it."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def install(self):
        targets = [(experiments, "spawn_rng", "experiments")] + [
            (dynamics, name, "dynamics") for name in ENGINES]
        return _patched(targets, self._wrap)

    def _wrap(self, fn, name, layer):
        stamps = self.starts if name == "spawn_rng" else self.ends
        clock = time.perf_counter
        if name == "spawn_rng":
            def start(*args, **kwargs):
                stamps.append(clock())
                return fn(*args, **kwargs)
            return start

        def end(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append(clock())
            return out
        return end

    def take(self) -> list[float]:
        """Latencies of the replicas since the last take, then reset."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        self.starts.clear()
        self.ends.clear()
        return out


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    replica: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


def _info(name, args, kwargs, out) -> dict:
    """Work counts read off a call's arguments and result."""
    if name.startswith("generate_"):
        return {"edges": out.m}
    if name in ENGINES:
        bound = _SIGNATURES[name].bind(*args, **kwargs)
        g, horizon = bound.arguments["g"], bound.arguments["horizon"]
        reached = out.consensus_time if out.consensus_time is not None \
            else horizon or 0.0
        return {"events": out.n_events, "vertex_time": g.n * reached}
    if name == "run_dense":
        return {"events": out.n_events}
    if name == "run_rewire_model":
        outcome, traj = out
        return {"events": traj.n_events,
                "unresolved": int(outcome.verdict == coevolution.UNRESOLVED)}
    return {}


class Tracer:
    """Spans for every traced call, plus a root span per round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._replica: int | None = None

    def install(self):
        return _patched(TRACED, self._wrap)

    @contextmanager
    def span(self, name, layer):
        idx = self._open(name, layer)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name, layer) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, layer,
                               self._stack[-1] if self._stack else None,
                               self._replica))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, layer):
        def traced(*args, **kwargs):
            if name == "spawn_rng":
                self._replica = int(args[1] if len(args) > 1
                                    else kwargs["index"])
            idx = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except SimulationTimeout:
                self.spans[idx].info = {"timeouts": 1}
                raise
            finally:
                self._close(idx)
            self.spans[idx].info = _info(name, args, kwargs, out)
            return out
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, wall) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit).

    ``wall`` is the traced round's wall time; shares are self time over it.
    A layer the workload never calls reports zeros.
    """
    own = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, float] = {}
    calls = dict.fromkeys(LAYERS, 0)
    info: dict[str, float] = {}
    runs = replicas = 0
    for s, t in zip(spans, own):
        if s.layer not in busy:
            continue
        busy[s.layer] += t
        calls[s.layer] += 1
        by_name[s.name] = by_name.get(s.name, 0.0) + t
        runs += s.name in ENGINES
        replicas += s.name == "spawn_rng"
        for key, val in s.info.items():
            if key == "timeouts" and s.parent is not None \
                    and spans[s.parent].layer == "dynamics":
                continue  # counted once, where it leaves the layer
            scoped = f"{s.layer}.{s.name}.{key}"
            info[scoped] = info.get(scoped, 0) + val
            info[f"{s.layer}.{key}"] = info.get(f"{s.layer}.{key}", 0) + val

    def get(key):
        return info.get(key, 0)

    dyn = busy["dynamics"]
    dense_s = by_name.get("run_dense", 0.0)
    rewire_s = by_name.get("run_rewire_model", 0.0)
    analysis_s = sum(by_name.get(n, 0.0) for n in ANALYSIS)
    exp_self = busy["experiments"] - analysis_s
    return {
        "graphs.busy_s": (busy["graphs"], "s"),
        "graphs.calls": (calls["graphs"], "count"),
        "graphs.edges_per_s": (_rate(get("graphs.edges"), busy["graphs"]),
                               "1/s"),
        "graphs.share": (busy["graphs"] / wall, "frac"),
        "dynamics.busy_s": (dyn, "s"),
        "dynamics.runs": (runs, "count"),
        "dynamics.events": (get("dynamics.events"), "count"),
        "dynamics.events_per_s": (_rate(get("dynamics.events"), dyn), "1/s"),
        "dynamics.vertex_time_per_s": (
            _rate(get("dynamics.vertex_time"), dyn), "1/s"),
        "dynamics.init_s": (by_name.get("init_opinions_iid", 0.0), "s"),
        "dynamics.timeouts": (get("dynamics.timeouts"), "count"),
        "dynamics.share": (dyn / wall, "frac"),
        "coevolution.init_s": (by_name.get("init_positional", 0.0), "s"),
        "coevolution.dense.busy_s": (dense_s, "s"),
        "coevolution.dense.events_per_s": (
            _rate(get("coevolution.run_dense.events"), dense_s), "1/s"),
        "coevolution.rewire.busy_s": (rewire_s, "s"),
        "coevolution.rewire.events_per_s": (
            _rate(get("coevolution.run_rewire_model.events"), rewire_s),
            "1/s"),
        "coevolution.unresolved": (get("coevolution.unresolved"), "count"),
        "coevolution.share": (busy["coevolution"] / wall, "frac"),
        "limits.busy_s": (busy["limits"], "s"),
        "limits.calls": (calls["limits"], "count"),
        "limits.meeting_profile_s": (by_name.get("meeting_profile", 0.0), "s"),
        "limits.integrate_dense_limit_s": (
            by_name.get("integrate_dense_limit", 0.0), "s"),
        "limits.share": (busy["limits"] / wall, "frac"),
        "experiments.self_s": (exp_self, "s"),
        "experiments.per_replica_ms": (1e3 * _rate(exp_self, replicas), "ms"),
        "experiments.analysis_s": (analysis_s, "s"),
        "experiments.share": (busy["experiments"] / wall, "frac"),
        "cli.self_s": (busy["cli"], "s"),
        "cli.share": (busy["cli"] / wall, "frac"),
    }
