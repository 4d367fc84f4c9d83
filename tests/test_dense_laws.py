"""``run_dense`` against a Gillespie run of the dense model over its pairs
at their exact class rates (``reference_dense`` in ``_oracles``), which
has no thinning, no edge list and no edge-count chain after consensus.

Two-sample tests run at family level 0.01 per case, Bonferroni over the
case's tests.  Sizes, rates and seeds were fixed before the runs.  A run
with no consensus by the horizon counts with an infinite consensus time.
"""

import math

import numpy as np
import pytest
from scipy import stats

from discordlab.coevolution import DenseState, SwitchProbs, run_dense

from _deadline import deadline
from _oracles import reference_dense

ALPHA = 0.01

ENGINES = {"new": run_dense, "reference": reference_dense}

# the weights of criterion 8 (max weight 2, so run_dense thins its pair
# proposals), and weights under 1 that differ in every class
CASES = {
    "fig9": SwitchProbs(s_c1=0.5, s_c0=1.5, s_d1=2.0, s_d0=0.7),
    "sub-unit": SwitchProbs(s_c1=0.2, s_c0=0.9, s_d1=0.6, s_d0=0.4),
}


def _runs(engine, s, R, seed, n=10, horizon=4.0, sched=(0.5, 1.0, 2.0, 4.0)):
    """R runs of ``engine`` at eta = rho = 1, each from its own
    ``DenseState.iid(n, 0.4, 0.5)`` start."""
    out = []
    for r in range(R):
        rng = np.random.default_rng([seed, r])
        st = DenseState.iid(n, 0.4, 0.5, rng)
        out.append(ENGINES[engine](st, 1.0, 1.0, s, horizon, list(sched),
                                   rng))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
@deadline(120.0)
def test_densities_and_consensus_time_match_reference(case):
    # q, p and disc_edge at each sample time, and the consensus time
    new, ref = (_runs(e, CASES[case], 400, seed)
                for e, seed in (("new", 31), ("reference", 32)))
    keys = ("q", "p", "disc_edge")
    tests = len(keys) * len(new[0].times) + 1
    for key in keys:
        a = np.array([getattr(tr, key) for tr in new])
        b = np.array([getattr(tr, key) for tr in ref])
        for k, t in enumerate(new[0].times):
            # the densities take few values, and the exact null
            # distribution does not allow ties
            p = stats.ks_2samp(a[:, k], b[:, k], method="asymp").pvalue
            assert p > ALPHA / tests, (case, key, t, p)
    taus = [[math.inf if tr.consensus_time is None else tr.consensus_time
             for tr in runs] for runs in (new, ref)]
    p = stats.ks_2samp(*taus).pvalue
    assert p > ALPHA / tests, (case, p)
