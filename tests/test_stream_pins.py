"""Random-stream pins: sha256 digests of whole runs on fixed seeds, one per
engine path.  A change to the bookkeeping that keeps the law of the process
but reorders draws, or sums rates in another order, changes a digest; so do
changes of the law.  The digests were recorded before the engines were
moved onto the shared discordant-slot primitive in ``_sset``.
"""

import hashlib

import numpy as np
import pytest

from discordlab import coevolution, dynamics, graphs


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


def _static(family, seed):
    rng = np.random.default_rng(seed)
    if family == "rrg":
        g = graphs.generate_random_regular(200, 3, rng)
    else:
        g = graphs.generate_erdos_renyi(300, 3.0 / 299, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    traj = dynamics.run_voter(g, st, 40.0, np.linspace(0, 40, 41), rng)
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


def _directed(kind, adopt_from, seed):
    rng = np.random.default_rng(seed)
    if kind == "regular":
        g = graphs.generate_directed_configuration([2] * 150, [2] * 150, rng)
    else:
        g = _mixed_dcm(150, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    traj = dynamics.run_voter_directed(g, st, 40.0, np.linspace(0, 40, 41),
                                       rng, adopt_from=adopt_from)
    return _traj_digest(traj)


def _consensus(nu, seed):
    rng = np.random.default_rng(seed)
    g = graphs.generate_random_regular(40, 3, rng)
    st = dynamics.init_opinions_iid(g.n, 0.5, rng)
    return _digest(dynamics.consensus_time(g, st, rng, nu=nu))


def _rewire_model(variant, beta, seed):
    rng = np.random.default_rng(seed)
    outcome, traj = coevolution.run_rewire_model(40, beta, variant, rng)
    return _traj_digest(traj, outcome.absorption_time, outcome.verdict,
                        outcome.final_heart_fraction)


def _holme_newman(seed):
    rng = np.random.default_rng(seed)
    outcome, traj = coevolution.run_holme_newman(120, 240, 0.5, rng)
    return _traj_digest(traj, outcome.absorption_time, outcome.verdict,
                        outcome.final_heart_fraction)


def _dense(seed):
    rng = np.random.default_rng(seed)
    state = coevolution.init_positional(30, rng=rng)
    s = coevolution.SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7)
    tr = coevolution.run_dense(state, 1.0, 1.0, s, 2.0, np.linspace(0, 2, 11),
                               rng, check=True)
    return _digest(tr.times, tr.q, tr.p, tr.conc_edge, tr.disc_edge,
                   tr.conc_nonedge, tr.disc_nonedge, tr.consensus_time,
                   tr.n_events, tr.final_edge_count)


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
    "rewire-to-random": (_rewire_model, coevolution.TO_RANDOM, 4.0, 111),
    "rewire-to-same": (_rewire_model, coevolution.TO_SAME, 0.5, 112),
    "holme-newman": (_holme_newman, 113),
    "dense-checked": (_dense, 114),
}

DIGESTS = {
    "consensus-rewiring":
        "61cd654cebec50635d368f0043973a88d9062b727f8bed5fcb8b7684e9169bdf",
    "consensus-static":
        "c7fdbf7b94a0069ba36fb42d01b0b50affbc3f13e3c74e9cdf873445343aa4db",
    "dense-checked":
        "147592f6b8205a125be8a8f607b945c640c5e3a16395abf212f311494f6897c8",
    "directed-mixed-in":
        "4b78d3d932ec7a2c86bb82616bca13a23ef71bc5127ac0a4d2cc3a3d42daf167",
    "directed-mixed-out":
        "fc53ff0404138a14adb36ee90f895b79220764ab89ab08026b7711d7bddd83e4",
    "directed-regular-in":
        "e9b84f14ea50eff35cc17884538a087248c924fba5ffb95b3634b7f83c6517c8",
    "directed-regular-out":
        "78af106f8c775a84d2e68917adf2a6bd425d037a75a3c619b5b2f302bc1654df",
    "holme-newman":
        "bee2acb87c4cc79714cfcb8106b5b7b3f16479f931ac609935b7822dd0fba4a5",
    "rewire-to-random":
        "60171ff1c033e3ec1ac406979f0a1dd49b9f70fda3487f92ac575b28f7045469",
    "rewire-to-same":
        "7ef447b4ccce35d614a54a3bf17c17bb943a41b901e68a8fd72c02355ed38cf8",
    "rewiring-er":
        "3633c9a635ad90c6dca3c7673a39d27d3f51c8ec87dd81b48d8e7886ff0f0310",
    "rewiring-rrg":
        "2b1268b2f491fc79febd5232513dc49799e6f2b7089b38a9830086d4482cd0c8",
    "voter-er":
        "23498b10686343a143bf2ce2cb830320561762ffefa90a9c4f1524c0f8f6e46f",
    "voter-rrg":
        "7c2547dd019eb724294aa2453c11f326d93c7fa9c726ebbf0024915c91f03995",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_pin(name):
    run, *args = CASES[name]
    assert run(*args) == DIGESTS[name]
