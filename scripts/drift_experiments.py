#!/usr/bin/env python3
"""Check the additive mass-drift and multiplicative energy-drift identities.

Runs the two drift presets at a configurable ensemble size and prints the
z-score of the empirical mean path against the closed-form drift at each
checkpoint.
"""

import argparse

from snls.config import ensemble_config
from snls.ensemble import drift_check, run_ensemble
from snls.noise_model import noise_constants
from snls.presets import get_preset


def run(preset, n_traj, workers):
    ecfg = ensemble_config(get_preset(preset), n_traj, workers=workers)
    summary, _ = run_ensemble(ecfg)
    chk = drift_check(summary, ecfg,
                      noise_constants(ecfg.covariance, ecfg.grid, ecfg.trajectory.sigma))
    print(f"{preset} (n_traj={n_traj}):")
    for t, z in zip(chk["times"], chk["z_scores"]):
        print(f"  t={t:.3f}  z={z:+.2f}")
    verdict = "consistent" if chk["z_max"] <= 3.0 else "VIOLATED"
    print(f"  max |z| = {chk['z_max']:.2f} -> {verdict}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-traj", type=int, default=1000)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    run("add-mass-drift", args.n_traj, args.workers)
    run("mult-energy-drift", args.n_traj, args.workers)


if __name__ == "__main__":
    main()
