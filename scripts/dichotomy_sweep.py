#!/usr/bin/env python3
"""Sweep c*Q initial data across the dichotomy thresholds.

For a grid of scaling factors c, classify u0 = c Q against the ground-state
thresholds and run the deterministic flow, tabulating predicted regime vs
simulated outcome.  Mass-critical (sigma = 2/n) by default; pass --sigma 3
for the intercritical picture.
"""

import argparse

from snls.dynamics import SimConfig, run_trajectory
from snls.grid import GridSpec
from snls.ground_state import solve_ground_state
from snls.initial_data import ground_state_field
from snls.observables import classify_dichotomy


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma", type=float, default=2.0)
    ap.add_argument("--points", type=int, default=1024)
    ap.add_argument("--extent", type=float, default=30.0)
    ap.add_argument("--T", type=float, default=3.0)
    ap.add_argument("--dt", type=float, default=2e-4)
    ap.add_argument("--cs", type=float, nargs="+",
                    default=[0.7, 0.9, 0.99, 1.01, 1.05, 1.1])
    args = ap.parse_args()

    gs = solve_ground_state(1, args.sigma)
    grid = GridSpec(1, args.extent, args.points)
    q = ground_state_field(gs, grid)

    print(f"sigma={args.sigma}  s_c={gs.s_c:.4f}  M(Q)={gs.mass:.6f}")
    print(f"{'c':>6} {'regime':>16} {'beta':>8} {'delta0':>8} {'outcome':>10} {'t_b':>8}")
    for c in args.cs:
        u0 = q.with_values(c * q.values)
        rep = classify_dichotomy(u0, gs)
        cfg = SimConfig(n=1, sigma=args.sigma, noise_type="none", dt0=args.dt,
                        T_end=args.T, grad_threshold=20.0, record_stride=5, gs_refs=gs)
        rec = run_trajectory(cfg, u0, None, 0)
        t_b = f"{rec.status.time:.3f}" if rec.status.kind == "blownup" else "-"
        beta = f"{rep.beta:.3f}" if rep.beta is not None else "-"
        d0 = f"{rep.delta0:.3f}" if rep.delta0 is not None else "-"
        print(f"{c:>6.3f} {rep.regime:>16} {beta:>8} {d0:>8} "
              f"{rec.status.kind:>10} {t_b:>8}")


if __name__ == "__main__":
    main()
