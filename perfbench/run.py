"""discordlab benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source tree (``src/discordlab`` beside
``perfbench/``).  Workloads: short_time, diffusive, rewiring_consensus,
coevolution (see ``workloads.py`` and ``BASELINE.md``).  Everything runs in
one worker process at a time, with ``workers=1``.

The run first starts the workload's set-up ``SETUP_PROBES`` times in fresh
processes (import discordlab, build the inputs) and then once more to
measure; ``setup_s`` is the median of those set-up times.  The measuring
process runs rounds of the workload for about ``--seconds`` and checks every
round's outputs.  Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the gated end-to-end metrics with ``--trace 0``, the per-layer metrics of
the traced rounds with ``--trace 1``.  The full result, with the spans of a
traced run, is also written to ``.perfbench/``.  The exit code is 0 only if
every run and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench"

WORKLOADS = ("short_time", "diffusive", "rewiring_consensus", "coevolution")
DEFAULT_SEED = 7
SETUP_PROBES = 4
DEADLINE_S = 170.0

# End-to-end metrics in the final JSON line; the others are printed above it.
GATED = ("setup_s", "vertex_time_per_ref", "peak_rss_mb")
UNITS = {"setup_s": "s", "vertex_time_per_ref": "1/ref", "wall_s": "s",
         "vertex_time_per_s": "1/s",
         "peak_rss_mb": "MB", "replicas_per_s": "1/s", "replica_s_p50": "s",
         "replica_s_tail": "s", "failed_frac": "frac"}


def git_revision(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from the files; "unknown"
    outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, extra, timeout) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.time()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, count); None with fewer than eleven samples."""
    n = len(latencies)
    if n < 11:
        return None
    i = n - 11
    return sorted(latencies)[i], 100.0 * (i + 1) / n, n


def summarise(res, setup) -> tuple[dict, dict, list]:
    """End-to-end metrics, failure counts and the list of checks.

    Per-round values are reduced by the median over rounds; latency
    statistics pool all rounds.  ``vertex_time_per_ref`` is the round's
    ``vertex_time_per_s`` times the reference kernel's time around it: the
    simulated vertex-time done in one reference-kernel time.  The host's
    speed, which drifts by up to 1.7x on a shared VM, cancels out of it; the
    program's speed does not (see BASELINE.md).
    """
    rounds = res["rounds"] + res.get("traced", [])
    untraced = res["rounds"]
    checks = [c for r in rounds for c in r["checks"]] + res["final_checks"]
    attempted = sum(r["runs"] for r in rounds) + len(checks)
    failed = (sum(r["failed_runs"] for r in rounds)
              + sum(not ok for _, ok, _ in checks))
    latencies = [x for r in untraced for x in r["run_s"]]
    m = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "vertex_time_per_ref": statistics.median(
            r["vertex_time"] / r["wall_s"] * r["ref_s"] for r in untraced),
        "vertex_time_per_s": statistics.median(
            r["vertex_time"] / r["wall_s"] for r in untraced),
        "peak_rss_mb": res["peak_rss_mb"],
        "replicas_per_s": len(latencies) / sum(r["wall_s"] for r in untraced),
        "replica_s_p50": statistics.median(latencies) if latencies else None,
        "failed_frac": failed / attempted,
    }
    t = tail(latencies)
    info = {"rounds": len(untraced), "runs": len(latencies),
            "tail": None if t is None else {"percentile": t[1], "count": t[2]}}
    if t is not None:
        m["replica_s_tail"] = t[0]
    return m, {"attempted": attempted, "failed": failed, **info}, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="discordlab benchmark: one workload, end-to-end metrics "
                    "(--trace 0) or per-layer metrics (--trace 1)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the benchmark's")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "discordlab" / "__init__.py").is_file():
        print(f"error: no discordlab source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    extra = ["--tiny"] if args.tiny else []
    start = time.monotonic()
    try:
        setup = [_worker(args, extra + ["--setup-only"], 60)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        res = _worker(args, extra, DEADLINE_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(res["setup_s"])
    metrics, counts, checks = summarise(res, setup)
    machine = {"nproc": os.cpu_count(),
               "python": platform.python_version(),
               "numpy": res["numpy"], "git": git_revision(ROOT)}
    digest = res["rounds"][0]["digest"]
    correct = counts["failed"] == 0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={counts['rounds']} runs={counts['runs']} digest={digest}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, value in metrics.items():
        print(f"  {name:<20} {value!r:>24} {UNITS[name]}")
    if counts["tail"] is None:
        print("  replica_s_tail       omitted: fewer than 11 runs")
    else:
        print(f"  replica_s_tail is p{counts['tail']['percentile']:.1f} "
              f"of {counts['tail']['count']} runs")
    notes = {}
    for r in res["rounds"]:
        for key, val in r["notes"].items():
            notes.setdefault(key, []).append(val)
    for key, vals in notes.items():
        print(f"  note {key}: {vals}")
    for name, ok, detail in checks:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    print(f"checks: {len(checks) - sum(not ok for _, ok, _ in checks)}"
          f"/{len(checks)} passed")

    if args.trace:
        per_layer = {k: {"value": v, "unit": u}
                     for k, (v, u) in res["per_layer"].items()}
        for name, m in per_layer.items():
            print(f"  {name:<34} {m['value']!r:>24} {m['unit']}")
        out_metrics = per_layer
    else:
        out_metrics = {k: {"value": metrics[k], "unit": UNITS[k]}
                       for k in GATED}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine,
                   "digest": digest, "metrics": metrics, "counts": counts,
                   "checks": checks, "result": res}, fh)
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
