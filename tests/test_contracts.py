"""The argument contract of the public entry points: whatever numbers or
time grids they are given, only a ``DiscordlabError`` escapes.

Every entry point in the ``__all__`` of ``graphs``, ``dynamics``,
``coevolution``, ``limits`` and ``experiments`` that takes a number, a
size, a time grid or an opinion vector has one strategy here, which draws
its arguments from valid values, with one of them spoiled: NaN,
+-inf, -1, 2.5, "x", None, True, 2**64, a numpy scalar, or 10**400 and
10**5000, which no float holds (the second has more digits than Python
turns into a string).  A spoiled grid
or vector is that value alone or a valid one with one entry spoiled.  Sizes
stay small, or at 2**63 and above, so that every call ends within its
deadline and no call asks for more memory than it can have.

Left out: the dataclasses, which hold what they are given; ``drift_b``
and the two conflict profiles, formulas that numpy evaluates over arrays;
``classify_outcome``, which compares engine counts and raises nothing; and
``write_edgelist``, which takes no number.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from discordlab import coevolution, dynamics, experiments, graphs, limits
from discordlab.dynamics import OpinionState
from discordlab.errors import DiscordlabError

from _deadline import deadline

SPOILS = st.sampled_from([
    math.nan, math.inf, -math.inf, -1, 2.5, "x", None, True, 2**64,
    10**400, 10**5000, np.float64(math.nan), np.float64(-1.0), np.int64(-1),
    np.float32(2.5), np.bool_(True)])
BIG = st.sampled_from([2**63, 2**64])
FIG9 = coevolution.SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)


def sizes(lo, hi):
    """A small size, a numpy one, or one at 2**63 and above."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(np.int64) | BIG


def reals(lo, hi):
    return st.floats(lo, hi) | st.floats(lo, hi).map(np.float64)


def grids(hi):
    """A strictly increasing grid of times in [0, hi]."""
    return st.lists(st.floats(0.0, hi), max_size=4, unique=True).map(sorted)


CAPS = st.integers(0, 5000) | st.integers(0, 5000).map(np.int64)


def _rrg(n=10):
    return graphs.generate_random_regular(n, 3, np.random.default_rng(5))


def _cycle(n=8):
    """A directed cycle: one closed class, so every run reaches consensus."""
    return graphs.DirectedGraph(n, range(n), [(v + 1) % n for v in range(n)])


def _opinions(n):
    return st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)


RESULT = experiments.run_ensemble(experiments.ExperimentConfig(
    model={"family": "rrg", "n": 10, "d": 3}, u=0.5, replicas=4,
    master_seed=3, horizon=4.0, sample_times=[0.0, 1.0, 2.0, 3.0, 4.0]))
OBSERVABLES = st.sampled_from(["heart_frac", "discordant_frac"])


def _rng():
    return np.random.default_rng(7)


def _voter(g, n):
    """``run_voter`` on ``g``, whose n vertices start as drawn."""
    return (lambda opinions, horizon, schedule, max_events:
            dynamics.run_voter(g, OpinionState(opinions), horizon, schedule,
                               _rng(), max_events=max_events),
            {"opinions": _opinions(n), "horizon": reals(0.0, 5.0),
             "schedule": grids(0.0), "max_events": CAPS},
            ("opinions", "schedule"))


def _consensus(g, n):
    """``consensus_time`` on ``g``, whose n vertices start as drawn."""
    return (lambda opinions, max_events, nu: dynamics.consensus_time(
        g, OpinionState(opinions), _rng(), max_events=max_events, nu=nu),
            {"opinions": _opinions(n), "max_events": CAPS,
             "nu": st.just(0.0)}, ("opinions",))


def _model(family, **keys):
    """``build_graph`` on a model of ``family`` with the drawn keys."""
    return (lambda **drawn: experiments.build_graph(
        {"family": family, **drawn}, _rng()), keys, ())


def _prediction(name, **keys):
    """``resolve_prediction`` of ``name`` with the drawn keys and times."""
    return (lambda times, **drawn: experiments.resolve_prediction(
        {"name": name, **drawn}, times), {**keys, "times": grids(10.0)},
            ("times",))


# entry point: (call, {argument: strategy of its valid values}, the
# arguments that are grids or vectors)
ENTRIES = {
    "graphs.Graph": (graphs.Graph, {"n": sizes(0, 12)}, ()),
    "graphs.DirectedGraph": (graphs.DirectedGraph, {"n": sizes(0, 12)}, ()),
    "graphs.generate_complete": (graphs.generate_complete,
                                 {"n": sizes(2, 12)}, ()),
    "graphs.generate_random_regular": (
        lambda n, d, policy: graphs.generate_random_regular(n, d, _rng(),
                                                            policy),
        {"n": st.sampled_from([6, 8, 10]), "d": sizes(1, 3),
         "policy": st.sampled_from(["reject", "allow"])}, ()),
    "graphs.generate_directed_configuration": (
        lambda d_in, d_out: graphs.generate_directed_configuration(
            d_in, d_out, _rng()),
        {"d_in": st.just([2, 1, 1, 2]), "d_out": st.just([1, 2, 2, 1])},
        ("d_in", "d_out")),
    "graphs.generate_erdos_renyi": (
        lambda n, p: graphs.generate_erdos_renyi(n, p, _rng()),
        {"n": sizes(0, 12), "p": reals(0.0, 1.0)}, ()),
    "graphs.generate_gnm": (
        lambda n, m: graphs.generate_gnm(n, m, _rng()),
        {"n": sizes(2, 12), "m": sizes(0, 1)}, ()),
    "graphs.count_discordant": (
        lambda opinions: graphs.count_discordant(_rrg(), opinions),
        {"opinions": _opinions(10)}, ("opinions",)),
    "dynamics.init_opinions_iid": (
        lambda n, u: dynamics.init_opinions_iid(n, u, _rng()),
        {"n": sizes(1, 12), "u": reals(0.0, 1.0)}, ()),
    "dynamics.run_voter[rrg]": _voter(_rrg(), 10),
    "dynamics.run_voter[complete]": _voter(graphs.generate_complete(10), 10),
    "dynamics.run_voter_rewiring": (
        lambda opinions, nu, horizon, schedule, max_events:
        dynamics.run_voter_rewiring(_rrg(), OpinionState(opinions), nu,
                                    horizon, schedule, _rng(),
                                    max_events=max_events),
        {"opinions": _opinions(10), "nu": reals(0.0, 5.0),
         "horizon": reals(0.0, 5.0), "schedule": grids(0.0),
         "max_events": CAPS}, ("opinions", "schedule")),
    "dynamics.run_voter_directed": (
        lambda opinions, horizon, schedule, adopt_from, max_events:
        dynamics.run_voter_directed(_cycle(), OpinionState(opinions),
                                    horizon, schedule, _rng(),
                                    adopt_from=adopt_from,
                                    max_events=max_events),
        {"opinions": _opinions(8), "horizon": reals(0.0, 5.0),
         "schedule": grids(0.0), "adopt_from": st.sampled_from(["out", "in"]),
         "max_events": CAPS}, ("opinions", "schedule")),
    "dynamics.consensus_time[rrg]": _consensus(_rrg(8), 8),
    "dynamics.consensus_time[directed]": _consensus(_cycle(), 8),
    "coevolution.SwitchProbs": (
        coevolution.SwitchProbs,
        {w: reals(0.0, 3.0) for w in ("s_c1", "s_c0", "s_d1", "s_d0")}, ()),
    "coevolution.DenseState": (
        lambda opinions: coevolution.DenseState(
            opinions, np.ones((4, 4), dtype=bool) ^ np.eye(4, dtype=bool)),
        {"opinions": _opinions(4)}, ("opinions",)),
    "coevolution.DenseState.iid": (
        lambda n, p0, q0: coevolution.DenseState.iid(n, p0, q0, _rng()),
        {"n": sizes(2, 12), "p0": reals(0.0, 1.0), "q0": reals(0.0, 1.0)},
        ()),
    "coevolution.init_positional": (
        lambda n: coevolution.init_positional(n, rng=_rng()),
        {"n": sizes(2, 12)}, ()),
    "coevolution.run_rewire_model": (
        lambda n, beta, variant, max_events, initial_opinions:
        coevolution.run_rewire_model(n, beta, variant, _rng(),
                                     max_events=max_events,
                                     initial_opinions=initial_opinions),
        {"n": sizes(2, 10), "beta": reals(0.1, 20.0),
         "variant": st.sampled_from(["TO_RANDOM", "to-same"]),
         "max_events": CAPS, "initial_opinions": st.none()},
        ("initial_opinions",)),
    "coevolution.run_holme_newman": (
        lambda n, m_edges, beta, max_steps: coevolution.run_holme_newman(
            n, m_edges, beta, _rng(), max_steps=max_steps),
        {"n": sizes(2, 10), "m_edges": sizes(0, 1), "beta": reals(0.0, 1.0),
         "max_steps": CAPS}, ()),
    "coevolution.run_dense": (
        lambda eta, rho, horizon, schedule, max_events: coevolution.run_dense(
            coevolution.DenseState.iid(6, 0.5, 0.5, _rng()), eta, rho, FIG9,
            horizon, schedule, _rng(), max_events=max_events),
        {"eta": reals(0.0, 2.0), "rho": reals(0.0, 2.0),
         "horizon": reals(0.0, 2.0), "schedule": grids(0.0),
         "max_events": CAPS}, ("schedule",)),
    "limits.theta_regular": (limits.theta_regular, {"d": sizes(3, 12)}, ()),
    "limits.meeting_profile": (
        limits.meeting_profile,
        {"d": sizes(3, 12), "t_max": reals(0.0, 50.0),
         "tolerance": reals(1e-12, 1e-2), "times": st.none() | grids(20.0)},
        ("times",)),
    "limits.theta_directed_eulerian": (
        limits.theta_directed_eulerian,
        {"m1": reals(1.5, 5.0), "m2": reals(30.0, 40.0)}, ()),
    "limits.theta_rewiring": (
        limits.theta_rewiring,
        {"d": sizes(3, 12), "nu": reals(0.1, 10.0),
         "tolerance": reals(1e-10, 1e-3)}, ()),
    "limits.fw_absorption_time": (
        limits.fw_absorption_time,
        {"theta": reals(0.1, 2.0), "u": reals(0.0, 1.0)}, ()),
    "limits.discordance_prediction": (
        limits.discordance_prediction,
        {"u": reals(0.0, 1.0), "d": sizes(3, 12),
         "t": reals(0.0, 20.0) | st.lists(st.floats(0.0, 20.0), max_size=4),
         "n_vertices": sizes(1, 1000), "tolerance": reals(1e-9, 1e-3)},
        ("t",)),
    "limits.DenseLimitParams": (
        lambda eta, rho, p0, q0: limits.DenseLimitParams(eta, rho, FIG9, p0,
                                                         q0),
        {"eta": reals(0.0, 2.0), "rho": reals(0.0, 2.0),
         "p0": reals(0.0, 1.0), "q0": reals(0.0, 1.0)}, ()),
    "limits.p_star": (lambda q: limits.p_star(q, FIG9),
                      {"q": reals(0.0, 1.0)}, ()),
    "limits.integrate_dense_limit": (
        lambda dt, t_max: limits.integrate_dense_limit(
            limits.DenseLimitParams(1.0, 1.0, FIG9, 0.5, 0.5), dt, t_max,
            rng=_rng()),
        {"dt": reals(0.01, 1.0), "t_max": reals(0.01, 5.0)}, ()),
    "experiments.spawn_rng": (
        experiments.spawn_rng,
        {"master_seed": sizes(0, 99), "index": sizes(0, 99)}, ()),
    "experiments.build_graph[rrg]": _model(
        "rrg", n=st.sampled_from([6, 8, 10]) | BIG, d=sizes(1, 3)),
    "experiments.build_graph[dcm]": _model(
        "dcm", n=st.sampled_from([6, 8, 10]) | BIG, d=sizes(1, 3)),
    "experiments.build_graph[er]": _model("er", n=sizes(0, 12),
                                          p=reals(0.0, 1.0)),
    "experiments.run_ensemble": (
        lambda **fields: experiments.run_ensemble(experiments.ExperimentConfig(
            model={"family": "rrg", "n": 10, "d": 3}, **fields)),
        {"u": reals(0.0, 1.0), "replicas": st.sampled_from([1, 2, 16]),
         "master_seed": sizes(0, 99), "horizon": reals(0.0, 3.0),
         "sample_times": grids(0.0), "nu": st.sampled_from([0.0, 1.0]),
         "max_events": CAPS}, ("sample_times",)),
    "experiments.resolve_prediction[constant]": _prediction(
        "constant", value=reals(0.0, 1.0)),
    "experiments.resolve_prediction[discordance]": _prediction(
        "discordance", u=reals(0.0, 1.0), d=sizes(3, 5), n=sizes(1, 100)),
    "experiments.compare_to_prediction": (
        lambda prediction, tolerance, observable:
        experiments.compare_to_prediction(RESULT, prediction, tolerance,
                                          observable),
        {"prediction": st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
         "tolerance": reals(0.0, 1.0), "observable": OBSERVABLES},
        ("prediction",)),
    "experiments.estimate_theta": (
        lambda n_vertices, observable: experiments.estimate_theta(
            RESULT, n_vertices, observable),
        {"n_vertices": sizes(1, 100), "observable": OBSERVABLES}, ()),
    "experiments.homogenisation_check": (
        lambda coefficient, times: experiments.homogenisation_check(
            RESULT, coefficient, times),
        {"coefficient": reals(0.0, 3.0),
         "times": st.none() | st.just([1.0, 3.0])}, ("times",)),
}


@st.composite
def _spoiled(draw, args, vectors, name):
    """Valid arguments, but for argument ``name``: a spoil, or, for a grid
    or a vector, also a valid one with one entry spoiled."""
    kwargs = {key: draw(valid) for key, valid in args.items()}
    spoil, value = draw(SPOILS), kwargs[name]
    if name in vectors and isinstance(value, list) and value \
            and draw(st.booleans()):
        value[draw(st.integers(0, len(value) - 1))] = spoil
    else:
        kwargs[name] = spoil
    return kwargs


@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry in sorted(ENTRIES)
    for name in sorted(ENTRIES[entry][1])])
def test_only_package_errors_escape(entry, name):
    call, args, vectors = ENTRIES[entry]

    # no shrinking: a call that spins would spin again on every shrink
    @settings(max_examples=40, derandomize=True, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    @given(_spoiled(args, vectors, name))
    def probe(kwargs):
        try:
            with deadline(10.0):
                call(**kwargs)
        except DiscordlabError:
            pass

    probe()


# a step count that fits int64 but no memory: whether to refuse such
# counts before numpy does, with a bound on memory, is an open decision
@pytest.mark.xfail(strict=True, reason="counts that fit int64 but not "
                   "memory: no allocation bound is decided")
def test_a_count_that_fits_int64_but_not_memory_is_refused():
    params = limits.DenseLimitParams(1.0, 1.0, FIG9, 0.5, 0.5)
    try:
        limits.integrate_dense_limit(params, 1.0, 2.0**62,
                                     rng=np.random.default_rng(1))
    except DiscordlabError:
        pass
