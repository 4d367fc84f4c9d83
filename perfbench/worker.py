"""One workload in a fresh process, so that its peak memory is its own.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T
        --t0 STAMP [--setup-only] [--tiny]

``--t0`` is the wall-clock time at which the parent started this process;
set-up time runs from it to the moment the workload's inputs are built.
With ``--setup-only`` the worker stops there.  Otherwise it runs rounds for
about ``--seconds`` and prints one JSON object with the per-round results:

* ``--trace 0``: untraced rounds on sub-seeds 0, 1, 2, ..., each between
  two timings of a fixed reference kernel (``reference_s``).
* ``--trace 1``: each round twice on the same sub-seed, untraced and then
  traced; the traced digest must equal the untraced one, and the difference
  in wall time is the tracing overhead.  After the rounds, one generator
  call per graph family runs under ``tracemalloc`` for ``graphs.peak_mb``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"


def reference_s() -> float:
    """Median time of three passes of a fixed pure-Python kernel (random
    draws, list and dict updates, a log: the engines' mix).  It is
    benchmark code, so it measures how fast the host runs Python right now,
    whatever the program under test does."""
    times = []
    for _ in range(3):
        rr = random.Random(12345).random
        slots = list(range(4096))
        pos = {}
        t0 = time.perf_counter()
        for i in range(100_000):
            j = int(rr() * 4096)
            slots[j] = i
            if pos.pop(j, None) is None:
                pos[j] = -math.log(1.0 - rr())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _round_summary(rnd, ref_s=None) -> dict:
    return {
        "wall_s": rnd.wall_s,
        "ref_s": ref_s,
        "runs": rnd.runs,
        "failed_runs": rnd.failed_runs,
        "run_s": rnd.run_s,
        "vertex_time": rnd.vertex_time,
        "checks": [[c.name, c.ok, c.detail] for c in rnd.checks],
        "digest": rnd.digest,
        "notes": rnd.notes,
    }


def _graph_peak_mb(models, seed) -> float:
    import numpy as np
    from discordlab import experiments
    peak = 0
    for model in models:
        tracemalloc.start()
        try:
            experiments.build_graph(model, np.random.default_rng(seed))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def measure(work, seed, seconds, trace) -> dict:
    """Rounds for about ``seconds``: a new round starts only if it is
    expected to end in time, and there is always at least one."""
    from tracer import ReplicaClock, Tracer, layer_metrics, self_times
    from workloads import Check

    clock = ReplicaClock()
    rounds, refs, traced, layers, spans = [], [], [], [], []
    start = time.perf_counter()
    ref_before = reference_s()
    while True:
        k = len(rounds)
        rounds.append(work.run_round(seed, k, clock))
        ref_after = reference_s()
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        if k == 0:  # later rounds add allocator growth, not workload memory
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tr = Tracer()
            with tr.install():
                rnd = work.run_round(seed, k, clock, tracer=tr)
            rnd.checks.append(Check(
                "traced_digest_matches", rnd.digest == rounds[-1].digest,
                f"traced {rnd.digest} untraced {rounds[-1].digest}"))
            metrics = layer_metrics(tr.spans, rnd.wall_s)
            metrics["cli.bytes_written"] = (
                rnd.notes.get("cli_bytes_written", 0), "bytes")
            metrics["trace.overhead_frac"] = (
                (rnd.wall_s - rounds[-1].wall_s) / rounds[-1].wall_s, "frac")
            metrics["trace.unaccounted_frac"] = (
                self_times(tr.spans)[0] / rnd.wall_s, "frac")
            traced.append(rnd)
            layers.append(metrics)
            spans += [[s.name, s.layer, s.start, s.end, s.parent, s.replica]
                      for s in tr.spans]
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    out = {
        "rounds": [_round_summary(r, ref) for r, ref in zip(rounds, refs)],
        "traced": [_round_summary(r) for r in traced],
        "final_checks": [[c.name, c.ok, c.detail] for c in
                         getattr(work, "final_checks", lambda _: [])(rounds)],
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        # counts are exact for a seed: take round 0; times and rates: median
        per_layer = {
            name: (value if unit in ("count", "bytes") else
                   statistics.median(m[name][0] for m in layers), unit)
            for name, (value, unit) in layers[0].items()}
        per_layer["graphs.peak_mb"] = (_graph_peak_mb(work.graph_models, seed),
                                       "MB")
        out["per_layer"] = per_layer
        out["spans"] = spans
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the benchmark's")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        spec = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
        work = workloads.WORKLOADS[args.workload](spec, workdir)
        setup_s = time.time() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(work, args.seed, args.seconds, args.trace))
            result["numpy"] = numpy.__version__
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
