#!/usr/bin/env python3
"""Positive-energy blow-up study (multiplicative noise).

Runs the blowup-mult preset, prints the sufficient-condition ledger, the
empirical blow-up fraction with its Wilson interval, and the hitting-time
statistics of the tracked stopping times.
"""

import argparse

from snls.config import ensemble_config
from snls.ensemble import run_ensemble
from snls.presets import get_preset
from snls.report import build_theory_report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-traj", type=int, default=100)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    cfg = get_preset("blowup-mult")
    report = build_theory_report(cfg)
    led = report.blowup_multiplicative
    print(f"beta={report.beta:.4f}  delta0={report.delta0:.4f}  "
          f"ledger satisfied={led.satisfied}")
    for c in led.checks:
        print(f"  {c.name}: lhs={c.lhs:.4g} {c.comparator} rhs={c.rhs:.4g}  "
              f"{'ok' if c.passed else 'FAIL'}")

    ecfg = ensemble_config(cfg, args.n_traj, master_seed=7004, workers=args.workers)
    summary, _ = run_ensemble(ecfg, out_dir=args.out)
    lo, hi = summary.blowup_interval
    print(f"blow-up fraction: {summary.blowup_fraction:.3f} "
          f"(Wilson 95% [{lo:.3f}, {hi:.3f}]) over {args.n_traj} paths")
    for name in ("tau_tilde_N", "sigma_gamma", "tau_delta_gradient"):
        h = summary.hitting_times[name]
        print(f"  {name}: mean(min(tau, T)) = {h['mean_censored']:.4f}, "
              f"censored {h['censored_count']}/{h['n']}")
    if args.out:
        print(f"records written to {args.out}")


if __name__ == "__main__":
    main()
