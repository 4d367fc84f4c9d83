"""The two sparse co-evolution engines against plain transcriptions of
their laws in ``_oracles``: ``run_rewire_model`` against
``reference_rewire``, a literal edge clock on which every edge rings and a
concordant ring is a null, and ``run_holme_newman`` against
``reference_holme_newman``, kept on adjacency multisets.  Each draws its
own start (ER(n, 1/2), or a uniform graph with m edges, and fair-coin
opinions) with other data structures and another draw order.

Two-sample tests run at family level 0.01 per case, Bonferroni over the
case's tests.  Sizes, rates and seeds were fixed before the runs.  Every
run absorbs well inside its cap, so each verdict is CONSENSUS or
POLARISATION.
"""

import numpy as np
import pytest
from scipy import stats

from discordlab.coevolution import (TO_RANDOM, TO_SAME, run_holme_newman,
                                    run_rewire_model)

from _deadline import deadline
from _oracles import reference_holme_newman, reference_rewire

ALPHA = 0.01


def _rewire(variant, beta, n):
    def new(rng):
        out, traj = run_rewire_model(n, beta, variant, rng)
        return out, traj.n_events
    return {"new": new,
            "reference": lambda rng: reference_rewire(n, beta, variant, rng)}


def _holme_newman(beta, n, m):
    def new(rng):
        out, traj = run_holme_newman(n, m, beta, rng)
        return out, traj.n_events
    return {"new": new, "reference": lambda rng: reference_holme_newman(
        n, m, beta, rng)}


def _runs(engine, R, seed):
    return [engine(np.random.default_rng([seed, r])) for r in range(R)]


def _check(engines, R, seeds, keys):
    """Two-sample tests of the final minority fraction, the verdict
    frequencies and each of ``keys``, read off a run's outcome and event
    count."""
    new, ref = (_runs(engines[e], R, seed)
                for e, seed in zip(("new", "reference"), seeds))
    keys = dict(keys, minority=lambda out, events: min(
        out.final_heart_fraction, 1.0 - out.final_heart_fraction))
    tests = len(keys) + 1
    for key, get in keys.items():
        a, b = ([get(*run) for run in runs] for runs in (new, ref))
        # minority fractions and event counts take repeated values, and the
        # exact null distribution does not allow ties
        p = stats.ks_2samp(a, b, method="asymp").pvalue
        assert p > ALPHA / tests, (key, p)
    verdicts = sorted({out.verdict for out, _ in new + ref})
    table = [[sum(out.verdict == v for out, _ in runs) for v in verdicts]
             for runs in (new, ref)]
    assert verdicts == ["CONSENSUS", "POLARISATION"], table
    p = stats.chi2_contingency(table).pvalue
    assert p > ALPHA / tests, ("verdicts", table, p)


@pytest.mark.parametrize("variant", [TO_RANDOM, TO_SAME])
@deadline(120.0)
def test_rewire_model_matches_literal_edge_clock(variant):
    # at n = 20 and beta = 5 both verdicts are common.  The engine's
    # n_events counts discordant rings, which the reference counts too
    keys = {"absorption_time": lambda out, events: out.absorption_time,
            "discordant_rings": lambda out, events: events}
    _check(_rewire(variant, 5.0, 20), 600, (51, 52), keys)


@deadline(120.0)
def test_holme_newman_matches_adjacency_multisets():
    # at n = 20, m = 40 and beta = 0.4 both verdicts are common; the
    # absorption time is the number of steps
    keys = {"steps": lambda out, events: events}
    _check(_holme_newman(0.4, 20, 40), 600, (53, 54), keys)
