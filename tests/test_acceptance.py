"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -rP  to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from snls.config import ensemble_config, materialize
from snls.dynamics import SimConfig, run_trajectory
from snls.ensemble import compare_with_theory, drift_check, run_ensemble
from snls.grid import mass
from snls.ground_state import solve_ground_state
from snls.initial_data import build_initial_data
from snls.noise_model import noise_constants
from snls.observables import observe
from snls.presets import get_preset
from snls.report import build_theory_report
from snls.theory import t_star_additive_critical, t_star_multiplicative
from snls.verify import ground_state_residuals, gn_sharpness, virial_errors

WORKERS = 2


def _line(num, ok, detail):
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# 1 ------------------------------------------------------------------------


@pytest.mark.parametrize("n,sigma,tol", [(1, 2.0, 1e-8), (1, 3.0, 1e-8),
                                         (2, 1.0, 1e-6), (3, 1.0, 1e-6)])
def test_criterion_1_ground_state(n, sigma, tol):
    t0 = time.time()
    r1, r2, spread = ground_state_residuals(solve_ground_state(n, sigma))
    elapsed = time.time() - t0
    ok = r1 <= tol and r2 <= tol and spread <= tol and elapsed < 10.0
    _line(1, ok, f"(n={n}, sigma={sigma}) residuals=({r1:.1e},{r2:.1e}) "
                 f"H-spread={spread:.1e} <= {tol:.0e}, {elapsed:.1f}s < 10s")


# 2 ------------------------------------------------------------------------


def test_criterion_2_gn_sharpness():
    t0 = time.time()
    eq_err, strict = gn_sharpness(np.random.default_rng(2024))
    elapsed = time.time() - t0
    ok = eq_err <= 1e-6 and strict == 20 and elapsed < 10.0
    _line(2, ok, f"equality error {eq_err:.2e} <= 1e-6, strict inequality on "
                 f"{strict}/20 random fields, {elapsed:.1f}s < 10s")


# 3 ------------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["mult-mass-check", "mult-mass-check-s3"])
def test_criterion_3_mass_conservation(preset):
    t0 = time.time()
    cfg = get_preset(preset)
    grid, gs, sim, cov, init, chash = materialize(cfg)
    u0 = build_initial_data(init, grid, gs, None)
    n_steps = round(sim.T_end / sim.dt0)
    rec = run_trajectory(sim, u0, cov, seed=(2024, 0))
    m = rec.sample_arrays()["mass"]
    drift = float(np.max(np.abs(m / m[0] - 1.0)))
    elapsed = time.time() - t0
    ok = drift <= 1e-10 and rec.status.kind == "survived" and elapsed < 120.0
    _line(3, ok, f"{preset}: {n_steps} steps, |M/M0 - 1| max {drift:.2e} <= 1e-10, "
                 f"{elapsed:.0f}s < 120s")


# 4 ------------------------------------------------------------------------


def test_criterion_4_deterministic_dichotomy():
    t0 = time.time()
    below = get_preset("det-critical-below")
    grid, gs, sim, cov, init, _ = materialize(below)
    u0 = build_initial_data(init, grid, gs, None)
    rec = run_trajectory(sim, u0, cov, seed=(0, 0))
    gmax = max(s.grad_sq for s in rec.samples)
    surv_ok = rec.status.kind == "survived" and gmax < sim.grad_threshold**2

    above = get_preset("det-critical-above")
    grid, gs, sim, cov, init, _ = materialize(above)
    u0 = build_initial_data(init, grid, gs, None)
    h0 = observe(u0, 0.0, mass(u0), 0.0, 2.0).energy
    rec_a = run_trajectory(sim, u0, cov, seed=(0, 0))
    sim_half = SimConfig(n=sim.n, sigma=sim.sigma, noise_type="none", dt0=sim.dt0 / 2,
                         T_end=sim.T_end, grad_threshold=sim.grad_threshold,
                         record_stride=1, gs_refs=sim.gs_refs)
    rec_b = run_trajectory(sim_half, u0, cov, seed=(0, 0))
    blow_ok = rec_a.status.kind == "blownup" and rec_b.status.kind == "blownup"
    t_hi, t_lo = rec_a.status.time, rec_b.status.time
    bracket = abs(t_hi - t_lo)
    t_b = min(t_hi, t_lo)
    elapsed = time.time() - t0
    ok = (surv_ok and h0 < 0 and blow_ok and bracket <= 0.2 * t_b
          and elapsed < 300.0)
    _line(4, ok, f"0.8-mass survived T=10 (max grad_sq {gmax:.2f}); 1.1Q H0={h0:.3f}<0 "
                 f"blew up, bracket [{t_lo:.4f},{t_hi:.4f}] width "
                 f"{bracket / t_b:.1%} <= 20%, {elapsed:.0f}s < 300s")


# 5 ------------------------------------------------------------------------


def test_criterion_5_virial_identities():
    t0 = time.time()
    ev1, eg1 = virial_errors(2e-3)
    ev2, eg2 = virial_errors(1e-3)
    elapsed = time.time() - t0
    order_ok = ev2 <= ev1 / 1.8 and eg2 <= eg1 / 1.8  # at least first order
    final_ok = ev2 <= 1e-3 and eg2 <= 1e-3
    _line(5, order_ok and final_ok and elapsed < 120.0,
          f"V'=4G err {ev1:.1e}->{ev2:.1e}, G' err {eg1:.1e}->{eg2:.1e} under "
          f"dt halving (>= 1st order), final <= 1e-3, {elapsed:.0f}s < 120s")


# 6 ------------------------------------------------------------------------


def test_criterion_6_additive_mass_drift():
    t0 = time.time()
    ecfg = ensemble_config(get_preset("add-mass-drift"), n_traj=1000, master_seed=7001,
                           workers=WORKERS)
    summary, _ = run_ensemble(ecfg)
    chk = drift_check(summary, ecfg,
                      noise_constants(ecfg.covariance, ecfg.grid, ecfg.trajectory.sigma))
    elapsed = time.time() - t0
    ok = chk["z_max"] <= 3.0 and len(chk["z_scores"]) == 5 and elapsed < 600.0
    _line(6, ok, f"1000 trajectories, |mean M - M0 - t hs00| z-scores "
                 f"{['%.2f' % z for z in chk['z_scores']]} (max {chk['z_max']:.2f} <= 3), "
                 f"{elapsed:.0f}s < 600s")


# 7 ------------------------------------------------------------------------


def test_criterion_7_multiplicative_energy_drift():
    t0 = time.time()
    ecfg = ensemble_config(get_preset("mult-energy-drift"), n_traj=1000, master_seed=7002,
                           workers=WORKERS)
    summary, _ = run_ensemble(ecfg)
    chk = drift_check(summary, ecfg,
                      noise_constants(ecfg.covariance, ecfg.grid, ecfg.trajectory.sigma))
    elapsed = time.time() - t0
    ok = chk["z_max"] <= 3.0 and len(chk["z_scores"]) == 3 and elapsed < 600.0
    _line(7, ok, f"1000 trajectories, energy drift z-scores "
                 f"{['%.2f' % z for z in chk['z_scores']]} (max {chk['z_max']:.2f} <= 3), "
                 f"{elapsed:.0f}s < 600s")


# 8 ------------------------------------------------------------------------


def test_criterion_8_theory_engine():
    t0 = time.time()
    # closed-form spot value to 1e-12
    eps0, _ = t_star_additive_critical(0.0, 1.0, 1.0)
    spot_ok = abs(eps0 - (3 * math.sqrt(10) - 9)) <= 1e-12

    # double evaluation is bit-identical for every bound in a full report
    cfg = get_preset("blowup-mult")
    r1 = build_theory_report(cfg).to_dict()
    r2 = build_theory_report(cfg).to_dict()
    bit_ok = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    cfg2 = get_preset("add-critical")
    bit_ok &= (json.dumps(build_theory_report(cfg2).to_dict(), sort_keys=True)
               == json.dumps(build_theory_report(cfg2).to_dict(), sort_keys=True))

    # monotonicity sweeps: T* decreasing in beta, M_phi, hs00 (100 draws)
    rng = np.random.default_rng(88)
    violations = 0
    for _ in range(100):
        beta = rng.uniform(0.05, 0.9)
        s_c = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 4))
        mphi = rng.uniform(0.01, 1.0)
        ratio = rng.uniform(0.5, 2.0)
        t_ref = t_star_multiplicative(beta, s_c, n, mphi, ratio)
        violations += t_star_multiplicative(beta + 0.05, s_c, n, mphi, ratio) >= t_ref
        violations += t_star_multiplicative(beta, s_c, n, 1.2 * mphi, ratio) >= t_ref
        b = rng.uniform(0.0, 0.95)
        hs = rng.uniform(0.01, 1.0)
        t_add = t_star_additive_critical(b, hs, 1.0)[1]
        violations += t_star_additive_critical(b, 1.3 * hs, 1.0)[1] >= t_add
        if b > 0.05:
            violations += t_star_additive_critical(b, hs, 1.0)[1] <= \
                t_star_additive_critical(b - 0.05, hs, 1.0)[1] - 1e-15 and 0
            violations += t_star_additive_critical(min(b + 0.05, 0.99), hs, 1.0)[1] >= t_add
    elapsed = time.time() - t0
    ok = spot_ok and bit_ok and violations == 0 and elapsed < 10.0
    _line(8, ok, f"eps*(0) error {abs(eps0 - (3 * math.sqrt(10) - 9)):.1e} <= 1e-12, "
                 f"double-evaluation bit-identical={bit_ok}, {violations} monotonicity "
                 f"violations in 100 draws, {elapsed:.1f}s < 10s")


# 9 ------------------------------------------------------------------------


def _run_preset_ensemble(name, n_traj=None):
    cfg = get_preset(name)
    ecfg = ensemble_config(cfg, n_traj, workers=WORKERS)
    summary, recs = run_ensemble(ecfg)
    report = build_theory_report(cfg, gs=ecfg.ground_state)
    return summary, recs, report


def test_criterion_9_probabilistic_bounds():
    t0 = time.time()
    details = []
    all_verdicts = []

    # survival below T*: multiplicative intercritical and additive critical
    for name, bound_of in (("mult-inter-survival", lambda r: r.T_star_mult),
                           ("add-critical", lambda r: r.T_star_add_crit),
                           ("add-inter", lambda r: r.T_tilde_add_inter)):
        summary, _, report = _run_preset_ensemble(name)
        t_star = bound_of(report)
        assert t_star is not None and summary.survival_horizon < t_star, \
            f"{name}: preset horizon must sit below the bound"
        verdicts = compare_with_theory(summary, report)
        all_verdicts += verdicts
        details.append(f"{name}: T={summary.survival_horizon} < bound={t_star:.2f}, "
                       f"survival={summary.survival_prob:.2f}")
        assert summary.survival_prob > 0.0, f"{name}: no survivors"

    # blow-up with positive probability under the satisfied sufficient conditions
    summary, recs, report = _run_preset_ensemble("blowup-mult", n_traj=100)
    assert report.blowup_multiplicative.satisfied, "ledger must pass for this preset"
    verdicts = compare_with_theory(summary, report)
    all_verdicts += verdicts
    details.append(f"blowup-mult: fraction={summary.blowup_fraction:.2f} > 0 "
                   f"(interval {summary.blowup_interval[0]:.2f}-{summary.blowup_interval[1]:.2f})")

    violated = [v for v in all_verdicts if v.get("verdict") == "violated"]
    elapsed = time.time() - t0
    ok = (summary.blowup_fraction > 0.0 and not violated and elapsed < 1800.0)
    _line(9, ok, "; ".join(details) + f"; violated={len(violated)}; {elapsed:.0f}s < 1800s")


# 10 -----------------------------------------------------------------------


def test_criterion_10_worker_determinism():
    t0 = time.time()
    ecfg = ensemble_config(get_preset("add-critical"), n_traj=64, master_seed=4242)
    summaries = []
    for workers in (1, 8):
        summary, _ = run_ensemble(replace(ecfg, parallel_workers=workers))
        summaries.append(json.dumps(summary.to_dict(), sort_keys=True))
    elapsed = time.time() - t0
    ok = summaries[0] == summaries[1] and elapsed < 300.0
    _line(10, ok, f"1-worker and 8-worker summaries bitwise identical={ok}, "
                  f"{elapsed:.0f}s < 300s")
