"""Command-line interface: ground-state, theory, simulate, ensemble, verify.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 verification
failure.  The default worker count comes from SNLS_WORKERS when set.
All machine-readable output schemas are documented in docs/SCHEMA.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ExperimentConfig, ensemble_config, load_config, materialize
from .dynamics import run_trajectory
from .ensemble import compare_with_theory, drift_check, run_ensemble
from .ground_state import GroundStateError, energy_three_ways, solve_ground_state
from .initial_data import initial_state
from .observables import classify_dichotomy
from .report import build_theory_report
from .schema import plain
from .verify import run_suite

EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME, EXIT_VERIFY = 0, 1, 2, 3


def _json_out(obj, path=None):
    text = json.dumps(plain(obj), indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _resolve_config(args) -> ExperimentConfig:
    if getattr(args, "preset", None):
        from .presets import get_preset

        return get_preset(args.preset)
    if getattr(args, "config", None):
        return load_config(args.config)
    raise ValueError("pass either --preset NAME or --config FILE")


def cmd_ground_state(args):
    gs = solve_ground_state(args.n, args.sigma,
                            tol=args.tol if args.tol > 0 else None)
    doc = {**plain(gs), "pokhozhaev_residuals": gs.pokhozhaev_residuals(),
           "energy_three_ways": energy_three_ways(gs)}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _json_out(doc, os.path.join(args.out, "ground_state.json"))
        csv_path = os.path.join(args.out, "ground_state_profile.csv")
        with open(csv_path, "w") as fh:
            fh.write("r,Q\n")
            for r, q in zip(gs.r, gs.profile):
                fh.write(f"{r:.16g},{q:.16g}\n")
        print(f"wrote {args.out}/ground_state.json and ground_state_profile.csv")
    else:
        _json_out(doc)
    return EXIT_OK


def cmd_theory(args):
    cfg = _resolve_config(args)
    rep = build_theory_report(cfg, horizon=args.horizon)
    _json_out(rep, args.out)
    return EXIT_OK


def cmd_simulate(args):
    cfg = _resolve_config(args)
    grid, gs, sim, cov, init, chash = materialize(cfg)
    u0 = initial_state(init, grid, gs, args.seed, 0)
    rec = run_trajectory(sim, u0, cov, seed=(args.seed, 0))
    rec.config_hash = chash
    doc = rec.to_summary_dict()
    doc["classification"] = classify_dichotomy(u0, gs)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        from .ensemble import persist_records

        persist_records([rec], args.out)
        _json_out(doc, os.path.join(args.out, "summary.json"))
    _json_out(doc)
    return EXIT_OK


def cmd_ensemble(args):
    cfg = _resolve_config(args)
    workers = args.workers or int(os.environ.get("SNLS_WORKERS", "1"))
    ecfg = ensemble_config(cfg, args.n_traj, args.seed, workers)
    if args.compare:  # a config without a report fails before the ensemble runs
        rep = build_theory_report(cfg, gs=ecfg.ground_state)
    summary, _ = run_ensemble(ecfg, out_dir=args.out,
                              compress=bool(cfg.output.get("gzip", False)))
    if args.compare:
        drift = []
        if (ecfg.trajectory.noise_type == "additive" and ecfg.covariance is not None
                and "mass" in summary.mean_paths):
            drift.append(drift_check(summary, ecfg, rep.noise))
        summary.theory_comparison = compare_with_theory(summary, rep, drift_checks=drift)
        if any(v.get("verdict") == "violated" for v in summary.theory_comparison):
            _json_out(summary)
            return EXIT_VERIFY
    _json_out(summary)
    return EXIT_OK


def cmd_verify(args):
    failures = run_suite(args.suite, seed=args.seed)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="snls",
                                description="stochastic NLS simulator and bound checker")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ground-state", help="compute Q and its constants")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigma", type=float, required=True)
    g.add_argument("--tol", type=float, default=-1.0)
    g.add_argument("--out", default=None, help="directory for JSON + CSV output")
    g.set_defaults(fn=cmd_ground_state)

    t = sub.add_parser("theory", help="evaluate all closed-form bounds")
    t.add_argument("--preset", default=None)
    t.add_argument("--config", default=None)
    t.add_argument("--horizon", type=float, default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_theory)

    s = sub.add_parser("simulate", help="run one trajectory")
    s.add_argument("--preset", default=None)
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_simulate)

    e = sub.add_parser("ensemble", help="run a Monte Carlo ensemble")
    e.add_argument("--preset", default=None)
    e.add_argument("--config", default=None)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--n-traj", type=int, default=None)
    e.add_argument("--workers", type=int, default=None)
    e.add_argument("--out", default=None)
    e.add_argument("--compare", action="store_true",
                   help="attach theory-comparison verdicts")
    e.set_defaults(fn=cmd_ensemble)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("suite", choices=["quick", "statistical", "all"])
    v.add_argument("--seed", type=int, default=12345)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, GroundStateError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # unexpected: runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
