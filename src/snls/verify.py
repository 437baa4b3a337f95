"""Invariant suites behind the `verify` subcommand.

Each check returns (name, passed, detail).  `quick` covers the structural
identities (Pokhozhaev, Parseval, Gagliardo-Nirenberg sharpness, mass
conservation, virial rates, theory monotonicity); `statistical` adds seeded
Monte Carlo checks of the noise sampler and the drift identities.  The
functions that return numbers (random_smooth_field, ground_state_residuals,
gn_sharpness, virial_errors) are shared with the acceptance tests, which
apply their own inputs and tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ensemble_config
from .dynamics import SimConfig, _propagator, run_trajectory
from .ensemble import EnsembleConfig, drift_check, run_ensemble
from .grid import FieldState, GridSpec, mass
from .ground_state import energy_three_ways, solve_ground_state
from .initial_data import InitialData, ground_state_field
from .noise_model import CovarianceSpec, NoiseSampler, make_rng, noise_constants
from .observables import observe
from .presets import get_preset
from .theory import t_star_additive_critical, t_star_multiplicative

__all__ = ["run_suite", "SUITES", "random_smooth_field", "ground_state_residuals",
           "gn_sharpness", "virial_errors"]


def random_smooth_field(grid, rng):
    """Five random Fourier modes with |k_i| <= 5 under a Gaussian envelope of width 3."""
    vals = np.zeros(grid.shape, dtype=complex)
    for _ in range(5):
        k = rng.integers(-5, 6, size=grid.dim)
        amp = rng.normal() + 1j * rng.normal()
        phase = np.zeros(grid.shape)
        for ki, x, L in zip(k, grid.coords, grid.extent):
            phase = phase + 2 * np.pi * ki / L * x
        vals += amp * np.exp(1j * phase)
    vals *= np.exp(-grid.radius_sq / (2 * 3.0**2))
    return FieldState(grid, vals)


def ground_state_residuals(gs):
    """(r1, r2, spread): the two Pokhozhaev residuals and the relative spread of
    the three energy formulas."""
    r1, r2 = gs.pokhozhaev_residuals()
    h_def, h_mass, h_grad = energy_three_ways(gs)
    spread = max(abs(h_def - h_mass), abs(h_def - h_grad)) / max(abs(h_def), gs.mass)
    return r1, r2, spread


def gn_sharpness(rng):
    """Sharp Gagliardo-Nirenberg inequality in 1d at sigma = 2.

    Returns (relative equality error at Q, number of 20 random fields on which
    ||u||_6^6 < C_GN ||grad u||^2 M(u)^2 holds strictly).
    """
    gs = solve_ground_state(1, 2.0)
    grid = GridSpec(1, 40.0, 512, dealias_fraction=1.0)
    q = ground_state_field(gs, grid)
    s = observe(q, 0.0, mass(q), 0.0, 2.0)
    rhs = gs.C_GN * s.grad_sq * s.mass**2
    eq_err = abs(s.lp2s2 - rhs) / rhs
    strict = 0
    for _ in range(20):
        u = random_smooth_field(grid, rng)
        su = observe(u, 0.0, mass(u), 0.0, 2.0)
        strict += su.lp2s2 < gs.C_GN * su.grad_sq * su.mass**2
    return eq_err, strict


def virial_errors(dt):
    """(err_v, err_g): relative errors of V' = 4G and G' = 2 n sigma H - 2 sigma s_c
    ||grad u||^2, by centered differences, on the collapse of 1.02 Q (1d, sigma = 3)."""
    gs = solve_ground_state(1, 3.0)
    grid = GridSpec(1, 30.0, 512)
    q = ground_state_field(gs, grid)
    u0 = q.with_values(1.02 * q.values)
    cfg = SimConfig(n=1, sigma=3.0, noise_type="none", dt0=dt, T_end=0.3,
                    grad_threshold=50.0, record_stride=1, gs_refs=gs)
    arr = run_trajectory(cfg, u0, None, 0).sample_arrays()
    t, V, G, H, gsq = arr["t"], arr["variance"], arr["momentum"], arr["energy"], arr["grad_sq"]
    dV = (V[2:] - V[:-2]) / (t[2:] - t[:-2])
    err_v = np.max(np.abs(dV - 4 * G[1:-1])) / np.max(np.abs(4 * G[1:-1]))
    dG = (G[2:] - G[:-2]) / (t[2:] - t[:-2])
    rate = 2 * 3.0 * H - 2 * 3.0 * gs.s_c * gsq
    err_g = np.max(np.abs(dG - rate[1:-1])) / np.max(np.abs(rate))
    return err_v, err_g


def check_pokhozhaev(pairs=((1, 2.0), (1, 3.0))):
    worst = max(max(ground_state_residuals(solve_ground_state(n, sigma)))
                for n, sigma in pairs)
    return worst < 1e-8, f"max residual {worst:.2e}"


def check_parseval(seed=0):
    rng = make_rng(seed, 1)
    grid = GridSpec(1, 25.0, 128)
    worst = 0.0
    for _ in range(10):
        u = random_smooth_field(grid, rng)
        m = mass(u)
        spec_m = grid.cell_volume / grid.total_points * np.sum(np.abs(u.spectral) ** 2)
        roundtrip = np.max(np.abs(np.fft.ifftn(u.spectral) - u.values))
        worst = max(worst, abs(m - spec_m) / m, roundtrip)
    return worst < 1e-12, f"max Parseval/roundtrip deviation {worst:.2e}"


def check_gn_sharpness(seed=3):
    eq_err, strict = gn_sharpness(make_rng(seed, 2))
    return eq_err < 1e-6 and strict == 20, \
        f"equality error at Q {eq_err:.2e}, strict on {strict}/20 fields"


def check_dealias():
    """The mask the integrator applies: the masked propagator at N = 512, fraction 2/3."""
    grid = GridSpec(1, 10.0, 512)
    masked = _propagator(grid, 1e-3, True)
    kept = np.flatnonzero(masked)
    same = bool(np.array_equal(masked[kept], _propagator(grid, 1e-3, False)[kept]))
    return kept.size == 341 and same, (f"propagator nonzero on {kept.size} modes (expect 341), "
                                       f"equal to the unmasked one there: {same}")


def check_mass_conservation(seed=5, n_steps=2000):
    """The mass drift of the ensembles' integrator over one multiplicative path."""
    gs = solve_ground_state(1, 2.0)
    grid = GridSpec(1, 40.0, 512)
    q = ground_state_field(gs, grid)
    u0 = q.with_values(np.sqrt(0.8) * q.values)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.1, (1,): 0.1})
    dt = 1e-4
    cfg = SimConfig(n=1, sigma=2.0, noise_type="multiplicative", dt0=dt, T_end=n_steps * dt,
                    grad_threshold=50.0, record_stride=n_steps)
    m = run_trajectory(cfg, u0, spec, (seed, 4)).sample_arrays()["mass"]
    drift = abs(m[-1] / m[0] - 1.0)
    return bool(drift < 1e-11), f"relative mass drift {drift:.2e} over {n_steps} steps"


def check_virial(seed=None):
    err_v, err_g = virial_errors(5e-4)
    ok = err_v < 1e-3 and err_g < 1e-3
    return ok, f"V'=4G error {err_v:.2e}, G' rate error {err_g:.2e}"


def check_theory_monotonic(seed=6):
    rng = make_rng(seed, 5)
    viol = 0
    for _ in range(100):
        s_c = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 4))
        beta = rng.uniform(0.05, 0.9)
        mphi = rng.uniform(0.01, 1.0)
        ratio = rng.uniform(0.5, 2.0)
        t0 = t_star_multiplicative(beta, s_c, n, mphi, ratio)
        if t_star_multiplicative(beta + 0.05, s_c, n, mphi, ratio) >= t0:
            viol += 1
        if t_star_multiplicative(beta, s_c, n, mphi * 1.1, ratio) >= t0:
            viol += 1
        b = rng.uniform(0.0, 0.9)
        _, ts = t_star_additive_critical(b, 1.0, 1.0)
        _, ts2 = t_star_additive_critical(b, 1.1, 1.0)
        if ts2 >= ts:
            viol += 1
    eps0 = t_star_additive_critical(0.0, 1.0, 1.0)[0]
    spot = abs(eps0 - (3 * math.sqrt(10) - 9))
    return viol == 0 and spot < 1e-12, f"{viol} monotonicity violations, eps*(0) error {spot:.1e}"


def check_noise_sampler(seed):
    grid = GridSpec(1, 20.0, 64)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.2, (1,): 0.1, (3,): 0.05})
    nc = noise_constants(spec, grid, 2.0)
    sampler = NoiseSampler(spec, grid)
    rng = make_rng(seed, 6)
    n, dt = 40000, 0.02
    rngs = [rng] * n  # the rows draw from one stream in turn
    var = sampler.sample_rows([dt] * n, rngs).var(axis=0) / dt
    se = nc.F_phi * math.sqrt(2.0 / n)
    ok_var = np.all(np.abs(var - nc.F_phi) <= 3 * se + 1e-12)
    comp = np.array([np.sum(np.abs(dw) ** 2) * grid.cell_volume
                     for dw in sampler.sample_rows([dt] * n, rngs, complex_valued=True)])
    z = (comp.mean() - nc.hs00 * dt) / (comp.std(ddof=1) / math.sqrt(n))
    return bool(ok_var and abs(z) <= 3.0), f"pointwise variance ok={ok_var}, ||dW||^2 z={z:.2f}"


def check_additive_drift(seed):
    # its own two-mode covariance: the add-mass-drift preset adds mode 2
    grid = GridSpec(1, 20.0, 64)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.1, (1,): 0.1})
    cfg_t = SimConfig(n=1, sigma=2.0, noise_type="additive", dt0=0.01, T_end=0.5,
                      grad_threshold=50.0, record_stride=5)
    ecfg = EnsembleConfig(n_traj=300, master_seed=seed, trajectory=cfg_t, grid=grid,
                          initial_data=InitialData("zero"), covariance=spec,
                          config_hash="verify")
    summary, _ = run_ensemble(ecfg)
    chk = drift_check(summary, ecfg, noise_constants(spec, grid, 2.0))
    return chk["z_max"] <= 3.0, f"max |z| = {chk['z_max']:.2f} at 5 checkpoints"


def check_stratonovich_drift(seed):
    ecfg = ensemble_config(get_preset("mult-energy-drift"), n_traj=300, master_seed=seed)
    summary, _ = run_ensemble(ecfg)
    nc = noise_constants(ecfg.covariance, ecfg.grid, ecfg.trajectory.sigma)
    chk = drift_check(summary, ecfg, nc)
    return chk["z_max"] <= 3.0, f"max |z| = {chk['z_max']:.2f} at 3 checkpoints"


QUICK_CHECKS = [
    ("pokhozhaev", lambda seed: check_pokhozhaev()),
    ("parseval", lambda seed: check_parseval()),
    ("gn_sharpness", lambda seed: check_gn_sharpness()),
    ("dealias", lambda seed: check_dealias()),
    ("mass_conservation", lambda seed: check_mass_conservation()),
    ("virial", lambda seed: check_virial()),
    ("theory_monotonicity", lambda seed: check_theory_monotonic()),
]

STATISTICAL_CHECKS = [
    ("noise_sampler", check_noise_sampler),
    ("additive_mass_drift", check_additive_drift),
    ("multiplicative_energy_drift", check_stratonovich_drift),
]

SUITES = {
    "quick": QUICK_CHECKS,
    "statistical": STATISTICAL_CHECKS,
    "all": QUICK_CHECKS + STATISTICAL_CHECKS,
}


def run_suite(name: str, seed: int = 12345, out=print):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    failures = 0
    for check_name, fn in SUITES[name]:
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += not passed
        out(f"[{'PASS' if passed else 'FAIL'}] {check_name}: {detail}")
    return failures
