#!/usr/bin/env python3
"""Print one hash per preset over the records of a small ensemble.

A hash is the sha256 of every sample's values as float64 bytes, followed per
record by repr((kind, time, reason, dt_final)) of its terminal status, and is
printed as its first 16 hex digits.  Every preset runs 6 trajectories with
master_seed 11, except blowup-mult (2) and det-critical-above and
mult-intercritical-3d-cubic (1).  Two checkouts that print the same lines
produce bitwise identical records.
"""

import argparse
import hashlib

import numpy as np

from snls.config import ensemble_config
from snls.ensemble import run_ensemble
from snls.observables import sample_values
from snls.presets import get_preset, preset_names

N_TRAJ = {"blowup-mult": 2, "det-critical-above": 1, "mult-intercritical-3d-cubic": 1}
DEFAULT_N_TRAJ = 6
MASTER_SEED = 11


def records_hash(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        for s in rec.samples:
            h.update(np.array(sample_values(s), dtype=np.float64).tobytes())
        st = rec.status
        h.update(repr((st.kind, st.time, st.reason, rec.dt_final)).encode())
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


if __name__ == "__main__":
    main()
