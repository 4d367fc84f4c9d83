"""Random-stream pins: sha256 digests of whole runs on fixed seeds, one per
engine path.  A change to the bookkeeping that keeps the law of the process
but reorders draws, or sums rates in another order, changes a digest; so do
changes of the law.  The digests were recorded before the engines were
moved onto the shared discordant-slot primitive in ``_sset``; the three
``nu > 0`` rows were recorded again when every rewiring run moved to the
literal-clock engine, after its law tests (``test_rewiring.py``) passed.
The four rows on multigraphs with self-loops and on unchecked dense runs
were recorded before flips moved from ``refile`` to ``_sset.toggle`` and
``run_dense`` moved onto byte-backed state; both changes keep every digest.
The four static rows (``voter-rrg``, ``voter-er``, ``voter-rrg-multigraph``,
``consensus-static``) were recorded again when every undirected run off an
implicit K_n moved to the literal-clock engine, after its ``nu = 0`` law
tests (``test_rewiring.py``) passed; their former digests, from the
event-driven engine, are held by the reference engine of ``_oracles``.
The four ``directed-*`` rows were recorded again when directed runs moved
from their event-driven engine to the literal-clock engine, after the law
tests of ``test_directed_laws.py`` passed; their former digests are held by
the reference directed engine of ``_oracles``.  The
``holme-newman-loops`` row was recorded before ``run_holme_newman`` moved
from a discordant-slot set to a count of discordant edges, which keeps
every digest.  The ``dense-unchecked`` row was recorded again when
unchecked dense runs moved from the event loop to the exact edge-count
chain once the opinions are unanimous, after the law tests of
``test_dense_chain.py`` passed; its former digest is the one the same run
gives with ``check=True``, which keeps the event loop to the horizon.
The ``dense-iid`` row, an unchecked run from ``DenseState.iid``, was
recorded while ``DenseState`` kept its edges as a set of ``(i, j)`` tuples,
before ``run_dense`` moved to a list of integer pair ids, which keeps
every dense digest.  The dense rows start at n = 30 and n = 60, within one
block of the row-blocked pair draw; ``test_coevolution.py`` holds both
initialisers to the former one-shot draw at sizes that span several.
The ``rewire-to-same-flips`` row, at beta = 10, adopts at one ring in
four, so same-opinion rewires keep drawing from opinion classes that
flips have just changed; the ``rewire-to-same`` row, at beta = 0.5,
passes even when a flip leaves a moved vertex's position stale.
The six ``lockstep-*`` rows are ``run_ensemble`` ensembles of 16 or more
replicas, which step together in ``_lockstep``: regular moves, moves
through the CSR of copying slots (with isolated vertices), self-loops and
multi-edges, a directed graph of mixed degrees, an absorbing run (replays
and the Beta placement of consensus times) and a reachable event cap with
timeouts and freezes.  They were recorded while every pass of the engine
was one gather and one scatter, before pairs of passes with no step in
common were fused, which keeps every digest.
The two ``rrg-edges-*`` rows pin ``generate_random_regular`` alone, under
each policy; they were recorded while it shuffled the stubs as
``owner[rng.permutation(n * d)]``, before ``rng.permutation(owner)``,
which gives the same array and leaves the generator in the same state.
The ``consensus-rewiring-long``, ``cap-static`` and ``cap-rewiring`` rows
fill whole blocks of 16,384 proposals, and the last two stop on an event
cap inside one; they were recorded while the literal-clock engine made
each block's lists with ``tolist()``, before the lists read through
shared tables of vertex and slot ids, which keeps every digest.
The four ``nu > 0`` rows on random regular graphs (``rewiring-rrg``,
``consensus-rewiring``, ``consensus-rewiring-long`` and ``cap-rewiring``)
were recorded again when swap runs on a regular graph moved from a
stub-partner table to the position layout, after ``test_rewiring.py`` and
the exact-law tests of ``test_rewiring_exact.py`` passed; every other row
held, ``rewiring-er`` among them.
No row covers the
heart-count chain of an implicit K_n, whose law is tested in
``test_complete_chain.py``.  The consensus runs are time-bounded, so that
a run that spins fails instead of hanging.
"""

import hashlib

import numpy as np
import pytest

from discordlab import coevolution, dynamics, experiments, graphs
from discordlab.errors import SimulationTimeout

from _deadline import deadline
from _oracles import reference_directed, reference_rewiring


def _digest(*parts):
    h = hashlib.sha256()
    for x in parts:
        if isinstance(x, (list, tuple, np.ndarray)):
            h.update(np.asarray(x, dtype=float).tobytes())
        else:
            h.update(repr(x).encode())
        h.update(b"|")
    return h.hexdigest()


def _traj_digest(traj, *extra):
    return _digest(traj.times, traj.heart_frac, traj.discordant_frac,
                   traj.consensus_time, traj.consensus_value, traj.n_events,
                   *extra)


def _mixed_dcm(n, rng):
    d_out = rng.integers(1, 4, size=n)
    return graphs.generate_directed_configuration(rng.permutation(d_out),
                                                  d_out, rng)


def _reference_voter(g, st, horizon, sched, rng):
    return reference_rewiring(g, st, 0.0, horizon, sched, rng)


def _static(family, seed, run=dynamics.run_voter):
    rng = np.random.default_rng(seed)
    if family == "rrg":
        g = graphs.generate_random_regular(200, 3, rng)
    elif family == "rrg-multigraph":
        g = graphs.generate_random_regular(120, 4, rng, policy="allow")
        assert g.has_self_loop() and g.has_multi_edge()
    else:
        g = graphs.generate_erdos_renyi(300, 3.0 / 299, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    traj = run(g, st, 40.0, np.linspace(0, 40, 41), rng)
    return _traj_digest(traj)


def _rewiring(family, seed):
    rng = np.random.default_rng(seed)
    if family == "rrg":
        g = graphs.generate_random_regular(100, 3, rng)
    else:
        g = graphs.generate_erdos_renyi(150, 3.0 / 149, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    traj = dynamics.run_voter_rewiring(g, st, 2.0, 30.0, np.linspace(0, 30, 31),
                                       rng, mutate_graph=True)
    return _traj_digest(traj, g.eu, g.ev, [x for a in g.inc for x in a])


def _directed(kind, adopt_from, seed, run=dynamics.run_voter_directed):
    rng = np.random.default_rng(seed)
    if kind == "regular":
        g = graphs.generate_directed_configuration([2] * 150, [2] * 150, rng)
    else:
        g = _mixed_dcm(150, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    traj = run(g, st, 40.0, np.linspace(0, 40, 41), rng,
               adopt_from=adopt_from)
    return _traj_digest(traj)


def _consensus(nu, seed, reference=False, n=40):
    rng = np.random.default_rng(seed)
    g = graphs.generate_random_regular(n, 3, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    if reference:
        return _digest(_reference_voter(g, st, None, [], rng).consensus_time)
    with deadline():
        return _digest(dynamics.consensus_time(g, st, rng, nu=nu))


def _capped(nu, seed, cap):
    """The partial trajectory of a run on rrg N=500 stopped by an event
    cap of ``cap``, which it reaches before its horizon."""
    rng = np.random.default_rng(seed)
    g = graphs.generate_random_regular(500, 3, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    with pytest.raises(SimulationTimeout) as e:
        dynamics.run_voter_rewiring(g, st, nu, 500.0, np.linspace(0, 500, 51),
                                    rng, max_events=cap)
    return _traj_digest(e.value.partial)


def _rewire_model(variant, beta, seed, n=40):
    rng = np.random.default_rng(seed)
    outcome, traj = coevolution.run_rewire_model(n, beta, variant, rng)
    return _traj_digest(traj, outcome.absorption_time, outcome.verdict,
                        outcome.final_heart_fraction)


def _holme_newman(seed, beta=0.5, extra=None):
    """A run on G(120, 240), or on that graph with the edges
    ``extra(u0, v0)`` appended, where edge 0 joins ``u0`` and ``v0``."""
    rng = np.random.default_rng(seed)
    g = None
    if extra is not None:
        us, vs = graphs.generate_gnm(120, 240, rng).endpoint_arrays()
        add_us, add_vs = zip(*extra(us[0], vs[0]))
        g = graphs.Graph(120, [*us, *add_us], [*vs, *add_vs])
    outcome, traj = coevolution.run_holme_newman(120, 240, beta, rng,
                                                 initial_graph=g)
    return _traj_digest(traj, outcome.absorption_time, outcome.verdict,
                        outcome.final_heart_fraction)


def _dense(seed, n=30, check=True, init=None):
    rng = np.random.default_rng(seed)
    state = init(n, rng) if init else coevolution.init_positional(n, rng=rng)
    s = coevolution.SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)
    tr = coevolution.run_dense(state, 1.0, 1.0, s, 2.0, np.linspace(0, 2, 11),
                               rng, check=check)
    return _digest(tr.times, tr.q, tr.p, tr.conc_edge, tr.disc_edge,
                   tr.conc_nonedge, tr.disc_nonedge, tr.consensus_time,
                   tr.n_events, tr.final_edge_count)


def _lockstep(model, horizon=4.0, step=0.5, seed=4242, replicas=32,
              over=None):
    """A lockstep ensemble, with the config fields ``over`` set;
    ``run_ensemble`` takes that path at 16 replicas or more."""
    cfg = experiments.ExperimentConfig(**{
        "model": model, "u": 0.5, "replicas": replicas, "master_seed": seed,
        "horizon": horizon,
        "sample_times": np.arange(0.0, horizon + step / 2, step).tolist(),
        **(over or {})})
    assert experiments._takes_lockstep(cfg)
    res = experiments.run_ensemble(cfg)
    return _digest(res.samples["heart_frac"], res.samples["discordant_frac"],
                   res.taus, res.consensus_values, res.timed_out)


def _rrg_edges(policy, seed):
    """Edges of random regular graphs drawn one after another from one
    stream, and the draw that follows them."""
    rng = np.random.default_rng(seed)
    gs = [graphs.generate_random_regular(n, d, rng, policy=policy)
          for n, d in ((200, 3), (60, 4), (12, 5), (2, 1))]
    return _digest(*(x for g in gs for x in g.endpoint_arrays()),
                   rng.random())


CASES = {
    "voter-rrg": (_static, "rrg", 101),
    "voter-er": (_static, "er", 102),
    "rewiring-rrg": (_rewiring, "rrg", 103),
    "rewiring-er": (_rewiring, "er", 104),
    "directed-regular-out": (_directed, "regular", "out", 105),
    "directed-regular-in": (_directed, "regular", "in", 106),
    "directed-mixed-out": (_directed, "mixed", "out", 107),
    "directed-mixed-in": (_directed, "mixed", "in", 108),
    "consensus-static": (_consensus, 0.0, 109),
    "consensus-rewiring": (_consensus, 10.0, 110),
    # the benchmark's shape: about 65k proposals, in blocks of 16,384
    "consensus-rewiring-long": (_consensus, 10.0, 123, False, 200),
    # event caps reached inside a block of 16,384 proposals (about 131k
    # drawn without swaps, 114k with), without and with swaps
    "cap-static": (_capped, 0.0, 130, 30000),
    "cap-rewiring": (_capped, 10.0, 131, 100000),
    "rewire-to-random": (_rewire_model, coevolution.TO_RANDOM, 4.0, 111),
    "rewire-to-same": (_rewire_model, coevolution.TO_SAME, 0.5, 112),
    # about 1,800 rings, many of them flips that move a vertex between the
    # opinion classes that same-opinion rewires draw from
    "rewire-to-same-flips": (_rewire_model, coevolution.TO_SAME, 10.0, 124),
    "holme-newman": (_holme_newman, 113),
    "dense-checked": (_dense, 114),
    "voter-rrg-multigraph": (_static, "rrg-multigraph", 116),
    "dense-unchecked": (_dense, 117, 60, False),
    # independent pair coins: the edge list starts in row-major order, as
    # it does after the positional init
    "dense-iid": (_dense, 122, 60, False,
                  lambda n, rng: coevolution.DenseState.iid(n, 0.4, 0.5, rng)),
    # a self-loop at vertex 5 and a second copy of edge 0
    "holme-newman-multigraph": (_holme_newman, 118, 0.2,
                                lambda u0, v0: [(5, 5), (u0, v0)]),
    # two self-loops at an end of edge 0, which is tripled; on this seed
    # that vertex flips while both loops and all three copies are there
    "holme-newman-loops": (_holme_newman, 128, 0.9,
                           lambda u0, v0: [(u0, u0), (u0, u0), (u0, v0),
                                           (u0, v0)]),
    "rewire-to-random-loops": (_rewire_model, coevolution.TO_RANDOM, 5.0, 119,
                               10),
    # the pairing attempts, rejected ones included, and the pairings kept
    "rrg-edges-reject": (_rrg_edges, "reject", 120),
    "rrg-edges-allow": (_rrg_edges, "allow", 121),
    # regular moves: a uniform half-edge
    "lockstep-rrg": (_lockstep, {"family": "rrg", "n": 60, "d": 3}),
    # moves through the CSR of copying slots; about a fifth of the vertices
    # are isolated
    "lockstep-er-isolated": (_lockstep, {"family": "er", "n": 100,
                                         "p": 1.5 / 99}, 4.0, 0.5, 4243, 32,
                             {"u": 0.3}),
    "lockstep-rrg-allow": (_lockstep, {"family": "rrg", "n": 60, "d": 3,
                                       "policy": "allow"}, 4.0, 0.5, 4244),
    "lockstep-dcm-mixed": (_lockstep, {"family": "dcm", "n": 60,
                                       "d_in": [20] * 6 + [1] * 30 + [0] * 24,
                                       "d_out": [1, 2, 3, 4] * 15},
                           4.0, 0.5, 4245),
    # most replicas absorb: replays and the Beta placement of tau
    "lockstep-absorbing": (_lockstep, {"family": "rrg", "n": 20, "d": 3},
                           120.0, 10.0, 4246),
    # the cap of 12 flips is within reach: replicas 3, 5, 6, 9 and 13 time
    # out, and 10 and 11 freeze on their cap flip
    "lockstep-cap": (_lockstep, {"family": "er", "n": 10, "p": 0.2}, 10.0,
                     2.5, 3, 16, {"max_events": 12}),
}

DIGESTS = {
    "cap-rewiring":
        "a40b097d9c69d36baea93c54e0e402e43b157e819b8c5ef772f7e4523e673a53",
    "cap-static":
        "d115051e251da4789640bc233de751c41b30fd3dfc7b5be45ac7815b56e4d9fc",
    "consensus-rewiring":
        "bda7342cf5825882b70b75496a86a9e88ef04640321c6ba42626ce660607486a",
    "consensus-rewiring-long":
        "047e043da87d6faf663be6252102881c35a42cfbc92f0d2718a89a6e2b1709f0",
    "consensus-static":
        "344ce05f8dbeaec08ffe56f56d1bb82398e243e4b621754d8ef058daeb078c48",
    "dense-checked":
        "147592f6b8205a125be8a8f607b945c640c5e3a16395abf212f311494f6897c8",
    "dense-iid":
        "f04c6aa379ba66daefacdc121a7dd1251ab30075bbad2d73982f1412a5661691",
    "dense-unchecked":
        "0bb2bbc334ee5fc70297604d58af3d85c7ae71a2f4b27a55cb6bf0d58e06828f",
    "directed-mixed-in":
        "bc9a35d1fd1787498424e87e24c03189301c53b28e7fcffc3918968e663dc480",
    "directed-mixed-out":
        "1c09b16e03063b47ba36cb4bd873b38861f9b084a6c0299ad295314502fb8bce",
    "directed-regular-in":
        "b1c73363a1302a70df4bcc2d8f06103a23f7ab79e68793e1d1d96c5ca2ccc95a",
    "directed-regular-out":
        "6dafb98e5508a11df3695cf6d5cfc82bf989b9001f639d32220af01430d202c1",
    "holme-newman":
        "bee2acb87c4cc79714cfcb8106b5b7b3f16479f931ac609935b7822dd0fba4a5",
    "holme-newman-multigraph":
        "4ba192291d57511f442df2bb74ebccff1258e0f75df2ba8b2e52715ce6c4373d",
    "holme-newman-loops":
        "5b3a8ee8a38092c9594029632d1e498c22609be4b4c25a868cecca0709f12970",
    "lockstep-absorbing":
        "f8ec8162c5783901d1232b6a54f8aa7ce2241ea81d9172c4e31c7b5de0848626",
    "lockstep-cap":
        "5d1a962320f8a516311d80fbe0863555443145a324585c4e1de95cf44f52b094",
    "lockstep-dcm-mixed":
        "51e496fe6d01089656292fcb0422dbb65d7638a6db76fba5ff5aae64a0e33332",
    "lockstep-er-isolated":
        "d0d5dfabe524109388d7b0ec78e3a80499e2a4a607da4be54485dfb5ad448888",
    "lockstep-rrg":
        "896799a47d47e9f9f8b76d0fd4011efc709a749db2676948ffa5b10c13d8052e",
    "lockstep-rrg-allow":
        "a8706aec13594c7b07fe1f9ee77fccfc2eb1b43b17774bc2a9015eeab3dcff3b",
    "rewire-to-random":
        "60171ff1c033e3ec1ac406979f0a1dd49b9f70fda3487f92ac575b28f7045469",
    "rewire-to-random-loops":
        "e2514bcdab3c0e6c8b7ea992865359a4da781398f0d4cbdcca9a89b554ef3288",
    "rrg-edges-allow":
        "9f829d4da186f57a602835285380a5abee65b101bd65bff410c5d46b99ce1ef1",
    "rrg-edges-reject":
        "53e93f25439b355ba4d4e0235b3bb7e6f41499bcd3eac6537310bd7c24581bb4",
    "rewire-to-same":
        "7ef447b4ccce35d614a54a3bf17c17bb943a41b901e68a8fd72c02355ed38cf8",
    "rewire-to-same-flips":
        "7a1344f3b06dca71c6c38d39863053d5eda4580196a6403deca73ce107431e38",
    "rewiring-er":
        "600ad1ec4bc5bc64ee70f7a90bd011738a5fb1a1fce8468cfac73aa481d554c9",
    "rewiring-rrg":
        "69a7f41d716ffe3ea4c864c49b5eae3520eee2b8bda53100772021133209b2ee",
    "voter-er":
        "105267ccaf7fbeb90547612c2d5d38731ce8ddc8d67146bf4dbad97346355cb6",
    "voter-rrg":
        "16639129b5a9b265b261e00a0d9e35269afd2446d764d95417fbee18d81a5c12",
    "voter-rrg-multigraph":
        "3cc41c0d33f039cf38599536fc82f20d1da31890d33e7774335af35876265bb3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_pin(name):
    run, *args = CASES[name]
    assert run(*args) == DIGESTS[name]


def test_checked_dense_run_keeps_the_former_unchecked_stream():
    # the event loop is the same loop to the horizon under check=True, so
    # the run gives the unchecked row's digest from before the chain
    assert _dense(117, 60, check=True) == \
        "dd2829206930686816e1bc20b6a3b75cbc4400fcc883dbdc93b28f6962bb33e9"


# The static rows as ``run_voter`` produced them on the former event-driven
# engine, whose stream the reference engine of ``_oracles`` reproduces at
# ``nu = 0``.
REFERENCE_CASES = {
    "voter-rrg": (_static, "rrg", 101, _reference_voter),
    "voter-er": (_static, "er", 102, _reference_voter),
    "voter-rrg-multigraph": (_static, "rrg-multigraph", 116,
                             _reference_voter),
    "consensus-static": (_consensus, 0.0, 109, True),
}

REFERENCE_DIGESTS = {
    "cap-static":
        "d115051e251da4789640bc233de751c41b30fd3dfc7b5be45ac7815b56e4d9fc",
    "consensus-static":
        "c7fdbf7b94a0069ba36fb42d01b0b50affbc3f13e3c74e9cdf873445343aa4db",
    "voter-er":
        "23498b10686343a143bf2ce2cb830320561762ffefa90a9c4f1524c0f8f6e46f",
    "voter-rrg":
        "7c2547dd019eb724294aa2453c11f326d93c7fa9c726ebbf0024915c91f03995",
    "voter-rrg-multigraph":
        "1bd6e0472e3a153f68509ddf265c14c1de16f265410a9bcbe5225da3aa685e9e",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_reference_engine_keeps_the_former_static_stream(name):
    run, *args = REFERENCE_CASES[name]
    assert run(*args) == REFERENCE_DIGESTS[name]


# The directed rows as ``run_voter_directed`` produced them on the former
# event-driven directed engine, which the reference engine of ``_oracles``
# reproduces.
REFERENCE_DIRECTED_CASES = {
    name: (*CASES[name], reference_directed)
    for name in ("directed-regular-out", "directed-regular-in",
                 "directed-mixed-out", "directed-mixed-in")
}

REFERENCE_DIRECTED_DIGESTS = {
    "cap-static":
        "d115051e251da4789640bc233de751c41b30fd3dfc7b5be45ac7815b56e4d9fc",
    "directed-mixed-in":
        "4b78d3d932ec7a2c86bb82616bca13a23ef71bc5127ac0a4d2cc3a3d42daf167",
    "directed-mixed-out":
        "fc53ff0404138a14adb36ee90f895b79220764ab89ab08026b7711d7bddd83e4",
    "directed-regular-in":
        "e9b84f14ea50eff35cc17884538a087248c924fba5ffb95b3634b7f83c6517c8",
    "directed-regular-out":
        "78af106f8c775a84d2e68917adf2a6bd425d037a75a3c619b5b2f302bc1654df",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_DIRECTED_CASES))
def test_reference_engine_keeps_the_former_directed_stream(name):
    run, *args = REFERENCE_DIRECTED_CASES[name]
    assert run(*args) == REFERENCE_DIRECTED_DIGESTS[name]
