"""discordlab command line: generate graphs, run single simulations and
co-evolution models, query the limit oracles, and execute ensembles.

Every run writes a manifest.json next to its outputs with the resolved
parameters (including the seed, drawn from OS entropy when omitted) and
sha256 digests of the produced files; `discordlab rerun --manifest <path>`
replays it bit-exactly.

Exit codes: 0 ok, 2 parameter error, 3 comparison failure, 4 timeout.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, coevolution, dynamics, experiments, graphs, limits
from .errors import InvalidParameterError, SimulationTimeout

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_COMPARE = 3
EXIT_TIMEOUT = 4


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_seed(seed):
    if seed is not None:
        _require(seed >= 0, "--seed must be >= 0")
        return int(seed)
    return int(np.random.SeedSequence().entropy % (1 << 63))


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, columns):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_manifest(out_dir, command, argv, resolved, outputs):
    manifest = {
        "tool": "discordlab",
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
        "argv": list(argv),
        "argv_resolved": _argv_with_seed(argv, resolved.get("seed")),
        "resolved": resolved,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    path = os.path.join(out_dir or ".", "manifest.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _argv_with_seed(argv, seed):
    argv = list(argv)
    if seed is None or "--seed" in argv:
        return argv
    return argv + ["--seed", str(seed)]


def _read_input(path) -> str:
    """Text of an input file; an unreadable one is a parameter error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from None


def _say(args, msg):
    if not getattr(args, "quiet", False):
        print(msg)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _model_from_args(args):
    model = {"family": args.model, "n": args.n}
    if args.model == "rrg":
        model["d"] = args.d
        model["policy"] = args.policy
    elif args.model == "er":
        model["p"] = args.p
    elif args.model == "dcm":
        model["d"] = args.d
    return model


def _require(cond, message):
    if not cond:
        raise InvalidParameterError(message)


def cmd_generate(args, argv):
    seed = _resolve_seed(args.seed)
    _require(args.n is not None, "--n is required")
    if args.model in ("rrg", "dcm"):
        _require(args.d is not None, "--d is required for this model")
    if args.model == "er":
        _require(args.p is not None, "--p is required for --model er")
    rng = np.random.default_rng(seed)
    g = experiments.build_graph(_model_from_args(args), rng)
    graphs.write_edgelist(g, args.out)
    resolved = {"model": _model_from_args(args), "seed": seed, "out": args.out}
    _write_manifest(os.path.dirname(args.out), "generate", argv, resolved,
                    [args.out])
    _say(args, f"wrote {args.out} (n={g.n}, m={g.m})")
    return EXIT_OK


def cmd_simulate(args, argv):
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    if args.graph:
        g = graphs.parse_edgelist(_read_input(args.graph))
    else:
        _require(args.model is not None, "either --graph or --model is required")
        _require(args.n is not None, "--n is required")
        g = experiments.build_graph(_model_from_args(args), rng)
    _require(args.horizon > 0, "--horizon must be > 0")
    _require(args.samples >= 2, "--samples must be >= 2")
    schedule = np.linspace(0.0, args.horizon, args.samples)
    state = dynamics.init_opinions_iid(g.n, args.u, rng)
    traj = dynamics._run_on(g, state, args.nu, args.horizon, schedule, rng,
                            adopt_from=args.adopt_from,
                            max_events=args.max_events)
    _write_csv(args.out, ["t", "heart_frac", "discordant_frac"],
               [traj.times, traj.heart_frac, traj.discordant_frac])
    meta = {
        "seed": seed,
        "u": args.u,
        "nu": args.nu,
        "horizon": args.horizon,
        "consensus_time": traj.consensus_time,
        "consensus_value": traj.consensus_value,
        "n_events": traj.n_events,
    }
    meta_path = args.out + ".meta.json"
    with open(meta_path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    resolved = {"seed": seed, "u": args.u, "nu": args.nu,
                "horizon": args.horizon, "samples": args.samples,
                "graph": args.graph, "model": args.model and _model_from_args(args)}
    _write_manifest(os.path.dirname(args.out), "simulate", argv, resolved,
                    [args.out, meta_path])
    _say(args, f"wrote {args.out}")
    return EXIT_OK


def cmd_coevolve(args, argv):
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    outputs = [args.out]
    if args.coevo_model != "dense":
        _require(args.horizon is None and args.samples is None,
                 "--horizon and --samples apply to --model dense only")
    if args.coevo_model in ("rewire-random", "rewire-same"):
        _require(args.n is not None and args.beta is not None,
                 "--n and --beta are required")
        variant = coevolution.TO_RANDOM if args.coevo_model == "rewire-random" \
            else coevolution.TO_SAME
        outcome, traj = coevolution.run_rewire_model(
            args.n, args.beta, variant, rng, max_events=args.max_events)
        _write_csv(args.out, ["t", "heart_frac", "discordant_frac"],
                   [traj.times, traj.heart_frac, traj.discordant_frac])
    elif args.coevo_model == "holme-newman":
        _require(args.n is not None and args.beta is not None
                 and args.m_edges is not None,
                 "--n, --m-edges and --beta are required")
        outcome, traj = coevolution.run_holme_newman(
            args.n, args.m_edges, args.beta, rng, max_steps=args.max_events)
        _write_csv(args.out, ["t", "heart_frac", "discordant_frac"],
                   [traj.times, traj.heart_frac, traj.discordant_frac])
    elif args.coevo_model == "dense":
        _require(args.n is not None, "--n is required")
        _require(args.horizon is not None, "--horizon is required for dense")
        samples = 101 if args.samples is None else args.samples
        _require(samples >= 0, "--samples must be >= 0")
        s = coevolution.SwitchProbs(s_c1=args.sc1, s_c0=args.sc0,
                                    s_d1=args.sd1, s_d0=args.sd0)
        if args.init == "positional":
            state = coevolution.init_positional(args.n, rng=rng)
        else:
            state = coevolution.DenseState.iid(args.n, args.p0, args.q0, rng)
        schedule = np.linspace(0.0, args.horizon, samples)
        traj = coevolution.run_dense(state, args.eta, args.rho, s,
                                     args.horizon, schedule, rng,
                                     max_events=args.max_events)
        _write_csv(args.out,
                   ["t", "q", "p", "conc_edge", "disc_edge",
                    "conc_nonedge", "disc_nonedge"],
                   [traj.times, traj.q, traj.p, traj.conc_edge,
                    traj.disc_edge, traj.conc_nonedge, traj.disc_nonedge])
        outcome = coevolution.AbsorptionOutcome(
            absorption_time=traj.consensus_time,
            final_heart_fraction=float(traj.q[-1]) if len(traj.q) else None,
            final_edge_count=traj.final_edge_count,
            verdict=coevolution.CONSENSUS if traj.consensus_time is not None
            else coevolution.UNRESOLVED)
    else:
        raise InvalidParameterError(f"unknown model {args.coevo_model!r}")
    outcome_path = args.out + ".outcome.json"
    with open(outcome_path, "w", newline="\n") as fh:
        json.dump({
            "verdict": outcome.verdict,
            "absorption_time": outcome.absorption_time,
            "final_heart_fraction": outcome.final_heart_fraction,
            "final_edge_count": outcome.final_edge_count,
            "seed": seed,
        }, fh, indent=2)
        fh.write("\n")
    outputs.append(outcome_path)
    resolved = {"seed": seed, "model": args.coevo_model}
    _write_manifest(os.path.dirname(args.out), "coevolve", argv, resolved,
                    outputs)
    _say(args, f"wrote {args.out} ({outcome.verdict})")
    return EXIT_OK


def cmd_oracle(args, argv):
    which = args.which
    if which == "theta-regular":
        out = {"theta": limits.theta_regular(args.d)}
    elif which == "theta-rewiring":
        out = {"theta": limits.theta_rewiring(args.d, args.nu,
                                              tolerance=args.tol)}
    elif which == "theta-directed":
        out = {"theta": limits.theta_directed_eulerian(args.m1, args.m2)}
    elif which == "fd":
        _require(args.points >= 1, "--points must be >= 1")
        prof = limits.meeting_profile(
            args.d, t_max=args.t_max, tolerance=args.tol,
            times=np.linspace(0.0, args.t_max, args.points))
        if args.out:
            _write_csv(args.out, ["t", "f"], [prof.grid, prof.values])
        out = {"d": args.d, "t_max": args.t_max,
               "f_at_t_max": float(prof.values[-1]),
               "truncation_level": prof.truncation_level}
        if args.out:
            out["csv"] = args.out
    elif which == "predict":
        out = {"discordant_fraction": float(limits.discordance_prediction(
            args.u, args.d, args.t, args.n, tolerance=args.tol))}
    elif which == "dense-limit":
        s = coevolution.SwitchProbs(s_c1=args.sc1, s_c0=args.sc0,
                                    s_d1=args.sd1, s_d0=args.sd0)
        params = limits.DenseLimitParams(eta=args.eta, rho=args.rho, s=s,
                                         p0=args.p0, q0=args.q0)
        rng = np.random.default_rng(_resolve_seed(args.seed))
        times, p, q = limits.integrate_dense_limit(params, args.dt,
                                                   args.t_max, rng=rng)
        if args.out:
            _write_csv(args.out, ["t", "p", "q"], [times, p, q])
        out = {"p_final": float(p[-1]), "q_final": float(q[-1]),
               "p_star_q0": limits.p_star(args.q0, s)}
    else:
        raise InvalidParameterError(f"unknown oracle {which!r}")
    print(json.dumps(out))
    return EXIT_OK


def cmd_ensemble(args, argv):
    cfg = experiments.ExperimentConfig.from_json(_read_input(args.config))
    if args.seed is not None:
        cfg.master_seed = int(args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    result = experiments.run_ensemble(cfg, workers=args.threads)
    obs_path = os.path.join(args.out_dir, "observables.csv")
    header = ["t"]
    cols = [result.times]
    for name in ("heart_frac", "discordant_frac"):
        header += [f"mean_{name}", f"var_{name}", f"ci95_{name}"]
        cols += [result.mean[name], result.var[name], result.ci_half[name]]
    _write_csv(obs_path, header, cols)
    taus = result.taus[np.isfinite(result.taus)]
    summary = {
        "replicas": result.replicas,
        "timed_out": result.timed_out,
        "consensus_reached": int(len(taus)),
        "mean_tau": float(taus.mean()) if len(taus) else None,
        "comparison": None,
    }
    if result.comparison is not None:
        sup = result.comparison.sup_deviation
        summary["comparison"] = {
            "observable": result.comparison.observable,
            # NaN where every replica timed out before a sample time
            "sup_deviation": sup if math.isfinite(sup) else None,
            "tolerance": result.comparison.tolerance,
            "frac_within_ci": result.comparison.frac_within_ci,
            "passed": result.comparison.passed,
        }
    summary_path = os.path.join(args.out_dir, "summary.json")
    with open(summary_path, "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    resolved = {"seed": cfg.master_seed, "config": args.config}
    _write_manifest(args.out_dir, "ensemble", argv, resolved,
                    [obs_path, summary_path])
    _say(args, f"wrote {obs_path}")
    if result.comparison is not None and not result.comparison.passed:
        _say(args, "comparison FAILED: sup deviation "
             f"{result.comparison.sup_deviation:.4g} > "
             f"{result.comparison.tolerance:.4g}")
        return EXIT_COMPARE
    return EXIT_OK


def cmd_rerun(args, argv):
    text = _read_input(args.manifest)
    try:
        argv = json.loads(text)["argv_resolved"]
    except (KeyError, TypeError, ValueError):
        argv = None
    _require(isinstance(argv, list) and all(isinstance(a, str) for a in argv)
             and argv[:1] != ["rerun"],  # a manifest never records a rerun
             f"{args.manifest} is not a manifest: it needs an 'argv_resolved' "
             "list naming a command other than rerun")
    return dispatch(argv)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--model", choices=["complete", "rrg", "er", "dcm"])
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--policy", choices=["reject", "allow"], default="reject")


def _finite(text) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def build_parser():
    ap = argparse.ArgumentParser(
        prog="discordlab",
        description="voter dynamics on random graphs, with large-N oracles")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a graph edge list")
    _add_model_flags(g)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.add_argument("--quiet", action="store_true")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("simulate", help="single voter run to CSV")
    _add_model_flags(s)
    s.add_argument("--graph", help="edge list file instead of --model")
    s.add_argument("--u", type=float, required=True)
    s.add_argument("--nu", type=float, default=0.0)
    s.add_argument("--adopt-from", dest="adopt_from",
                   choices=["out", "in"], default="out")
    s.add_argument("--horizon", type=_finite, required=True)
    s.add_argument("--samples", type=int, default=101)
    s.add_argument("--max-events", dest="max_events", type=int,
                   default=dynamics.DEFAULT_MAX_EVENTS)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True)
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("coevolve", help="two-way-feedback models")
    c.add_argument("--model", dest="coevo_model", required=True,
                   choices=["rewire-random", "rewire-same",
                            "holme-newman", "dense"])
    c.add_argument("--n", type=int)
    c.add_argument("--beta", type=float)
    c.add_argument("--m-edges", dest="m_edges", type=int)
    c.add_argument("--max-events", dest="max_events", type=int,
                   default=2_000_000)
    c.add_argument("--eta", type=float, default=1.0)
    c.add_argument("--rho", type=float, default=1.0)
    c.add_argument("--sc0", type=float, default=1.0)
    c.add_argument("--sc1", type=float, default=1.0)
    c.add_argument("--sd0", type=float, default=1.0)
    c.add_argument("--sd1", type=float, default=1.0)
    c.add_argument("--p0", type=float, default=0.5)
    c.add_argument("--q0", type=float, default=0.5)
    c.add_argument("--init", choices=["positional", "iid"],
                   default="positional")
    c.add_argument("--horizon", type=_finite, help="dense only")
    c.add_argument("--samples", type=int, help="dense only (default 101)")
    c.add_argument("--seed", type=int)
    c.add_argument("--out", required=True)
    c.add_argument("--quiet", action="store_true")
    c.set_defaults(func=cmd_coevolve)

    o = sub.add_parser("oracle", help="query the analytic N->infinity oracles")
    o.set_defaults(func=cmd_oracle)
    oracles = o.add_subparsers(dest="which", required=True)

    types = {"--d": int, "--n": int, "--t-max": _finite}

    def oracle(name, *required):
        """The parser of one oracle, which requires the flags it reads."""
        p = oracles.add_parser(name)
        for flag in required:
            p.add_argument(flag, type=types.get(flag, float), required=True)
        p.add_argument("--quiet", action="store_true")
        return p

    oracle("theta-regular", "--d")
    oracle("theta-rewiring", "--d", "--nu").add_argument(
        "--tol", type=float, default=1e-6)
    oracle("theta-directed", "--m1", "--m2")
    fd = oracle("fd", "--d", "--t-max")
    fd.add_argument("--points", type=int, default=201)
    fd.add_argument("--tol", type=float, default=1e-6)
    fd.add_argument("--out")
    oracle("predict", "--u", "--d", "--t", "--n").add_argument(
        "--tol", type=float, default=1e-6)
    dl = oracle("dense-limit", "--t-max")
    for flag in ("--eta", "--rho", "--sc0", "--sc1", "--sd0", "--sd1"):
        dl.add_argument(flag, type=float, default=1.0)
    dl.add_argument("--p0", type=float, default=0.5)
    dl.add_argument("--q0", type=float, default=0.5)
    dl.add_argument("--dt", type=float, default=1e-3)
    dl.add_argument("--seed", type=int)
    dl.add_argument("--out")

    e = sub.add_parser("ensemble", help="replicated runs from a JSON config")
    e.add_argument("--config", required=True)
    e.add_argument("--out-dir", dest="out_dir", required=True)
    e.add_argument("--threads", type=int, default=1)
    e.add_argument("--seed", type=int, help="override the config master seed")
    e.add_argument("--quiet", action="store_true")
    e.set_defaults(func=cmd_ensemble)

    r = sub.add_parser("rerun", help="replay a manifest bit-exactly")
    r.add_argument("--manifest", required=True)
    r.add_argument("--quiet", action="store_true")
    r.set_defaults(func=cmd_rerun)

    return ap


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else EXIT_OK
    try:
        return args.func(args, argv)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except SimulationTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
