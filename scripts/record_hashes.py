#!/usr/bin/env python3
"""Print one hash per preset over the records of a small ensemble.

A hash is the sha256 of each record's samples as float64 bytes, followed per
record by repr((kind, time, reason, dt_final)) of its terminal status, and is
printed as its first 16 hex digits.  Every preset runs 6 trajectories with
master_seed 11, except blowup-mult (2) and det-critical-above and
mult-intercritical-3d-cubic (1).  Two checkouts that print the same lines
produce bitwise identical records.

Then one line each for the radial ground states of (n, sigma) = (2, 1) and
(3, 1): the sha256 of M, ||grad Q||^2, ||Q||^(2s+2), H, C_GN, x* and f(x*)
as float64 bytes (NaN where undefined), then the sampled r and Q.
"""

import argparse
import hashlib

import numpy as np

from snls.config import ensemble_config
from snls.ensemble import run_ensemble
from snls.ground_state import solve_ground_state
from snls.presets import get_preset, preset_names

N_TRAJ = {"blowup-mult": 2, "det-critical-above": 1, "mult-intercritical-3d-cubic": 1}
DEFAULT_N_TRAJ = 6
MASTER_SEED = 11
GROUND_STATES = ((2, 1.0), (3, 1.0))


def records_hash(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.values.tobytes())
        st = rec.status
        h.update(repr((st.kind, st.time, st.reason, rec.dt_final)).encode())
    return h.hexdigest()[:16]


def ground_state_hash(gs) -> str:
    scalars = [gs.mass, gs.grad_sq, gs.lp2s2, gs.energy, gs.C_GN, gs.x_star, gs.f_xstar]
    h = hashlib.sha256(np.array([np.nan if v is None else v for v in scalars]).tobytes())
    h.update(np.asarray(gs.r, dtype=np.float64).tobytes())
    h.update(np.asarray(gs.profile, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("presets", nargs="*", help="preset names (default: all)")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    for name in args.presets or preset_names():
        ecfg = ensemble_config(get_preset(name), N_TRAJ.get(name, DEFAULT_N_TRAJ),
                               master_seed=MASTER_SEED, workers=args.workers)
        _, records = run_ensemble(ecfg)
        print(f"{name} {records_hash(records)}")
    for n, sigma in GROUND_STATES:
        print(f"ground-state-n{n}-sigma{sigma:g} {ground_state_hash(solve_ground_state(n, sigma))}")


if __name__ == "__main__":
    main()
