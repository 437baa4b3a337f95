import math
from dataclasses import asdict, astuple

import numpy as np
import pytest

from snls.config import ensemble_config
from snls.ensemble import run_ensemble
from snls.grid import FieldState, GridSpec, mass, tail_fraction_rows
from snls.presets import get_preset
from snls.dynamics import (
    AdaptSpec,
    SimConfig,
    StoppingThresholds,
    Trajectory,
    TrajectoryRecord,
    run_trajectory,
    step_additive,
    step_deterministic,
    step_multiplicative,
)
from snls.initial_data import ground_state_field
from snls.noise_model import CovarianceSpec, NoiseSampler, make_rng
from snls.observables import observe


# ---------------------------------------------------------------- deterministic


def test_soliton_modulus_stationary(gs_1d_s2):
    # |u(t)| = Q for the exact flow; the Strang error is second order with a
    # measured constant ~11, so the 1e-6 bound is checked at dt = 2.5e-4
    grid = GridSpec(1, 40.0, 256, dealias_fraction=1.0)
    q = ground_state_field(gs_1d_s2, grid)
    u = q
    dt = 2.5e-4
    for _ in range(round(1.0 / dt)):
        u = step_deterministic(u, dt, 2.0)
    assert np.max(np.abs(np.abs(u.values) - np.abs(q.values))) <= 1e-6


def test_soliton_error_second_order(gs_1d_s2):
    grid = GridSpec(1, 40.0, 256, dealias_fraction=1.0)
    q = ground_state_field(gs_1d_s2, grid)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        u = q
        for _ in range(round(0.5 / dt)):
            u = step_deterministic(u, dt, 2.0)
        errs.append(np.max(np.abs(np.abs(u.values) - np.abs(q.values))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_soliton_global_phase(gs_1d_s2):
    # under i u_t = Lap u + |u|^4 u the soliton phase is e^{-i t}
    grid = GridSpec(1, 40.0, 256, dealias_fraction=1.0)
    q = ground_state_field(gs_1d_s2, grid)
    u = q
    dt = 1e-3
    for _ in range(1000):
        u = step_deterministic(u, dt, 2.0)
    mid = grid.points[0] // 2
    phase = u.values[mid] / q.values[mid]
    assert phase == pytest.approx(np.exp(-1j * 1.0), abs=1e-3)


def test_free_single_mode_exact_phase():
    # one Fourier mode of modulus 1 picks up exactly e^{i xi^2 t} from the linear step
    # and e^{-i t} from the nonlinear phase
    grid = GridSpec(1, 2 * np.pi, 64)
    xi0 = 5.0
    u = FieldState(grid, np.exp(1j * xi0 * grid.axes[0]))
    v = u
    for _ in range(100):
        v = step_deterministic(v, 1e-3, 2.0)
    expected = u.values * np.exp(1j * (xi0**2 - 1.0) * 0.1)
    assert np.max(np.abs(v.values - expected)) < 1e-12


def test_deterministic_mass_isometry(gs_1d_s2):
    grid = GridSpec(1, 40.0, 512)
    q = ground_state_field(gs_1d_s2, grid)
    u = q.with_values(math.sqrt(0.8) * q.values)
    m0 = mass(u)
    for _ in range(10_000):
        u = step_deterministic(u, 1e-4, 2.0)
    assert abs(mass(u) / m0 - 1.0) <= 1e-11


# ---------------------------------------------------------------- noise substeps


def test_multiplicative_zero_increment_identity(q_field):
    out = step_multiplicative(q_field, np.zeros(q_field.grid.shape))
    assert np.array_equal(out.values, q_field.values)


def test_multiplicative_mass_exact(q_field):
    rng = np.random.default_rng(0)
    dw = rng.standard_normal(q_field.grid.shape)
    out = step_multiplicative(q_field, dw)
    assert mass(out) == pytest.approx(mass(q_field), rel=1e-14)
    # pointwise modulus preserved
    assert np.allclose(np.abs(out.values), np.abs(q_field.values), rtol=1e-14)


def test_multiplicative_constant_increment_is_gauge(q_field):
    c = 0.7
    out = step_multiplicative(q_field, np.full(q_field.grid.shape, c))
    assert np.allclose(out.values, q_field.values * np.exp(-1j * c), rtol=1e-14)
    s0 = observe(q_field, 0.0, mass(q_field), 0.0, 2.0)
    s1 = observe(out, 0.0, mass(out), 0.0, 2.0)
    assert s1.mass == pytest.approx(s0.mass, rel=1e-13)
    assert s1.grad_sq == pytest.approx(s0.grad_sq, rel=1e-12)
    assert s1.energy == pytest.approx(s0.energy, abs=1e-12)


def test_multiplicative_rejects_complex(q_field):
    with pytest.raises(ValueError, match="real"):
        step_multiplicative(q_field, np.full(q_field.grid.shape, 1j))


def test_additive_substep(q_field):
    out = step_additive(q_field, np.zeros(q_field.grid.shape, dtype=complex))
    assert np.array_equal(out.values, q_field.values)
    grid = q_field.grid
    zero = FieldState(grid, np.zeros(grid.shape, dtype=complex))
    dw = np.exp(-grid.axes[0] ** 2) * (1 + 0.5j)
    out = step_additive(zero, dw)
    # u = -i dW, so M(u) = ||dW||^2
    expected = grid.cell_volume * np.sum(np.abs(dw) ** 2)
    assert mass(out) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------- run_trajectory


def test_survival_below_critical_mass(gs_1d_s2):
    grid = GridSpec(1, 40.0, 256)
    q = ground_state_field(gs_1d_s2, grid)
    u0 = q.with_values(math.sqrt(0.8) * q.values)
    cfg = SimConfig(n=1, sigma=2.0, noise_type="none", dt0=1e-3, T_end=10.0,
                    grad_threshold=10.0, record_stride=100, gs_refs=gs_1d_s2)
    rec = run_trajectory(cfg, u0, None, 0)
    assert rec.status.kind == "survived"
    assert max(s.grad_sq for s in rec.samples) < 4.0 * gs_1d_s2.grad_sq


def test_blowup_above_critical_mass(gs_1d_s2):
    grid = GridSpec(1, 30.0, 1024)
    q = ground_state_field(gs_1d_s2, grid)
    u0 = q.with_values(1.1 * q.values)
    s0 = observe(u0, 0.0, mass(u0), 0.0, 2.0)
    assert s0.energy < 0.0  # negative energy: classical virial blow-up
    t_virial = math.sqrt(-s0.variance / (8.0 * s0.energy))  # V(t)=V0+8H0 t^2 root
    cfg = SimConfig(n=1, sigma=2.0, noise_type="none", dt0=2e-4, T_end=2.0,
                    grad_threshold=20.0, record_stride=1, gs_refs=gs_1d_s2)
    rec = run_trajectory(cfg, u0, None, 0)
    assert rec.status.kind == "blownup"
    assert rec.status.time < t_virial
    assert rec.hit_times["sigma_0"] == 0.0  # H <= 0 from the start
    assert rec.hit_times["tau_tilde_N"] == pytest.approx(rec.status.time)
    # blownup implies the last recorded gradient is at/above the threshold
    assert rec.samples[-1].grad_sq >= cfg.grad_threshold**2


def test_multiplicative_run_mass_conserved(gs_1d_s2):
    grid = GridSpec(1, 40.0, 512)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.1, (1,): 0.1})
    q = ground_state_field(gs_1d_s2, grid)
    u0 = q.with_values(math.sqrt(0.8) * q.values)
    cfg = SimConfig(n=1, sigma=2.0, noise_type="multiplicative", dt0=1e-4, T_end=0.5,
                    grad_threshold=20.0, record_stride=50, gs_refs=gs_1d_s2)
    rec = run_trajectory(cfg, u0, spec, seed=(3, 0))
    m0 = rec.samples[0].mass
    drift = max(abs(s.mass / m0 - 1.0) for s in rec.samples)
    assert drift <= 1e-10
    assert rec.status.kind == "survived"


def test_determinism_bitwise(gs_1d_s2):
    grid = GridSpec(1, 20.0, 128)
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.2})
    q = ground_state_field(gs_1d_s2, grid)
    u0 = q.with_values(0.9 * q.values)
    cfg = SimConfig(n=1, sigma=2.0, noise_type="multiplicative", dt0=1e-3, T_end=0.2,
                    grad_threshold=20.0, record_stride=10, gs_refs=gs_1d_s2)
    r1 = run_trajectory(cfg, u0, spec, seed=(42, 7))
    r2 = run_trajectory(cfg, u0, spec, seed=(42, 7))
    a1, a2 = r1.sample_arrays(), r2.sample_arrays()
    for k in a1:
        assert np.array_equal(a1[k], a2[k])
    assert r1.hit_times == r2.hit_times
    r3 = run_trajectory(cfg, u0, spec, seed=(42, 8))
    assert not np.array_equal(r1.sample_arrays()["mass"], r3.sample_arrays()["mass"])


def test_gradient_trap_intercritical(gs_1d_s3):
    # while H M0^a stays below f(x*) and X(0) < x*, X(s) stays below x*
    grid = GridSpec(1, 20.0, 256)
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.3})
    q = ground_state_field(gs_1d_s3, grid)
    u0 = q.with_values(0.8 * q.values)
    th = StoppingThresholds(delta_energy=0.999)
    cfg = SimConfig(n=1, sigma=3.0, noise_type="multiplicative", dt0=5e-4, T_end=1.0,
                    grad_threshold=20.0, record_stride=1, gs_refs=gs_1d_s3,
                    thresholds=th)
    rec = run_trajectory(cfg, u0, spec, seed=(9, 0))
    x_star = gs_1d_s3.x_star
    assert rec.samples[0].X < x_star
    tau = rec.hit_times["tau_delta_energy"]
    horizon = tau if tau is not None else float("inf")
    trapped = [s for s in rec.samples if s.t <= horizon]
    assert len(trapped) > 10
    for s in trapped:
        assert s.X < x_star


def test_stopping_time_trackers(gs_1d_s2):
    grid = GridSpec(1, 20.0, 128)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.4, (1,): 0.4})
    zero = FieldState(grid, 1e-6 * np.exp(-grid.radius_sq).astype(complex))
    th = StoppingThresholds(delta_mass=0.05, lam=0.04)
    cfg = SimConfig(n=1, sigma=2.0, noise_type="additive", dt0=5e-3, T_end=2.0,
                    grad_threshold=50.0, record_stride=1, gs_refs=gs_1d_s2,
                    thresholds=th)
    rec = run_trajectory(cfg, zero, spec, seed=(1, 0))
    # additive noise pumps mass ~ t * hs00 = 0.32 t; both trackers must fire
    assert rec.hit_times["tau_delta_mass"] is not None
    assert rec.hit_times["omega_mass_exit"] is not None
    assert rec.hit_times["omega_mass_exit"] <= rec.hit_times["tau_delta_mass"] + 1e-12
    # hit times are sample times, nondecreasing
    assert rec.hit_times["tau_delta_mass"] >= 0.0


def test_each_tracker_uses_its_own_threshold(gs_1d_s3):
    grid = GridSpec(1, 20.0, 128)
    q = ground_state_field(gs_1d_s3, grid)
    u0 = q.with_values(0.8 * q.values)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.2, (1,): 0.2})
    refs = gs_1d_s3
    kw = dict(n=1, sigma=3.0, noise_type="additive", dt0=2e-3, T_end=0.5,
              grad_threshold=50.0, record_stride=1, gs_refs=refs)
    path = run_trajectory(SimConfig(**kw), u0, spec, seed=(1, 0)).sample_arrays()

    def level(key, p):  # thresholds at distinct quantiles of the path fire at distinct times
        return float(np.quantile(path[key], p))

    me_q = refs.energy * refs.mass**refs.alpha
    th = StoppingThresholds(
        delta_energy=level("me_product", 0.6) / me_q, gamma=level("me_product", 0.8) / me_q,
        delta_mass=math.sqrt(level("mass", 0.7) / refs.mass),
        lam=math.sqrt(level("mass", 0.9) / refs.mass),
        A_energy=level("energy", 0.5) / refs.energy,
        delta_gradient=level("X", 0.2) / refs.x_star)
    rec = run_trajectory(SimConfig(**kw, thresholds=th), u0, spec, seed=(1, 0))
    own = {
        "tau_delta_energy": lambda s: s.me_product >= th.delta_energy * me_q,
        "sigma_gamma": lambda s: s.me_product >= th.gamma * me_q,
        "tau_delta_mass": lambda s: s.mass >= th.delta_mass**2 * refs.mass,
        "omega_mass_exit": lambda s: s.mass > th.lam**2 * refs.mass,
        "tau_A": lambda s: s.energy >= th.A_energy * refs.energy,
        "tau_delta_gradient": lambda s: s.X <= th.delta_gradient * refs.x_star,
    }
    for name, holds in own.items():
        first = next(s.t for s in rec.samples if holds(s))
        assert rec.hit_times[name] == first, name
    assert len({rec.hit_times[name] for name in own}) == len(own)


def test_mass_containment_not_exited_at_start():
    # add-inter starts at a fraction of M(Q); the exit level is lam^2 M(Q), not a
    # limit borrowed from the energy tracker
    ecfg = ensemble_config(get_preset("add-inter"), n_traj=2, master_seed=11)
    _, records = run_ensemble(ecfg)
    lam = ecfg.trajectory.thresholds.lam
    for rec in records:
        assert rec.samples[0].mass < lam**2 * ecfg.ground_state.mass
        assert rec.hit_times["omega_mass_exit"] is None


def test_config_validation(gs_1d_s2):
    with pytest.raises(ValueError, match="dt0"):
        SimConfig(n=1, sigma=2.0, noise_type="none", dt0=2.0, T_end=1.0,
                  grad_threshold=10.0)
    with pytest.raises(ValueError, match="noise_type"):
        SimConfig(n=1, sigma=2.0, noise_type="both", dt0=0.1, T_end=1.0,
                  grad_threshold=10.0)
    with pytest.raises(ValueError, match="admissible"):
        SimConfig(n=1, sigma=1.0, noise_type="none", dt0=0.1, T_end=1.0,
                  grad_threshold=10.0)  # subcritical needs the explicit flag
    cfg = SimConfig(n=1, sigma=1.0, noise_type="none", dt0=0.1, T_end=1.0,
                    grad_threshold=10.0, allow_conditional_regime=True)
    assert cfg.sigma == 1.0
    grid = GridSpec(1, 20.0, 128)
    q = ground_state_field(gs_1d_s2, grid)
    cfg = SimConfig(n=1, sigma=2.0, noise_type="none", dt0=0.1, T_end=1.0,
                    grad_threshold=0.5)
    with pytest.raises(ValueError, match="exceed the initial gradient"):
        run_trajectory(cfg, q, None, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_admissible_range_is_critical_to_below_energy_critical(n):
    # SimConfig accepts exactly the sigma with 0 <= s_c = n/2 - 1/sigma < 1,
    # counting |s_c| < 1e-12 as critical, and rejects the rest with one message
    edges = [2.0 / n, 2.0 / n - 1e-9, 2.0 / n + 1e-9, 2.0, 2.0 - 1e-9, 2.0 + 1e-9]
    for sigma in [*np.linspace(0.1, 5.0, 50), *edges]:
        s_c = n / 2.0 - 1.0 / sigma
        kw = dict(n=n, sigma=float(sigma), noise_type="none", dt0=0.1, T_end=1.0,
                  grad_threshold=10.0)
        if abs(s_c) < 1e-12 or 0.0 <= s_c < 1.0:
            assert SimConfig(**kw).sigma == sigma
        else:
            with pytest.raises(ValueError, match="^sigma outside the admissible "
                                                 "critical/intercritical ranges; set "
                                                 "allow_conditional_regime=True to run anyway$"):
                SimConfig(**kw)


def test_adaptive_dt_refines_on_growth(gs_1d_s2):
    grid = GridSpec(1, 30.0, 1024)
    q = ground_state_field(gs_1d_s2, grid)
    u0 = q.with_values(1.1 * q.values)
    cfg = SimConfig(n=1, sigma=2.0, noise_type="none", dt0=2e-4, T_end=2.0,
                    grad_threshold=20.0, record_stride=1, gs_refs=gs_1d_s2,
                    adapt=AdaptSpec(growth_factor=4.0, dt_min=5e-5))
    rec = run_trajectory(cfg, u0, None, 0)
    assert rec.status.kind == "blownup"
    assert rec.dt_final < cfg.dt0
    assert rec.dt_final >= cfg.adapt.dt_min


# ---------------------------------------------------------------- fused loop


def _reference_run(cfg, u0, spec, seed):
    """run_trajectory's contract, one public substep and one FieldState per step."""
    sampler = NoiseSampler(spec, u0.grid) if spec is not None else None
    rng = make_rng(*seed)
    m0, alpha = mass(u0), cfg.alpha_or_zero
    samples = [observe(u0, 0.0, m0, alpha, cfg.sigma)]
    grad_ref = samples[0].grad_sq
    u, t, dt, step = u0, 0.0, cfg.dt0, 0
    end = cfg.T_end - 1e-12 * max(1.0, cfg.T_end)
    while t < end:
        dt_step = min(dt, cfg.T_end - t)
        u = step_deterministic(u, dt_step, cfg.sigma)
        if cfg.noise_type == "multiplicative":
            u = step_multiplicative(u, sampler.sample_rows((dt_step,), (rng,))[0])
        elif cfg.noise_type == "additive":
            u = step_additive(u, sampler.sample_rows((dt_step,), (rng,), complex_valued=True)[0])
        t += dt_step
        step += 1
        if step % cfg.record_stride == 0 or t >= end:
            s = observe(u, t, m0, alpha, cfg.sigma)
            samples.append(s)
            if cfg.adapt is not None and s.grad_sq > cfg.adapt.growth_factor * grad_ref:
                dt = max(dt / 2.0, cfg.adapt.dt_min)
                grad_ref = s.grad_sq
    return samples, dt


def _oracle_case(name, gs):
    grid = GridSpec(1, 20.0, 256, dealias_fraction=2.0 / 3.0)
    q = ground_state_field(gs, grid)
    mult = CovarianceSpec("fourier_diagonal", {(0,): 0.2, (1,): 0.2, (3,): 0.1})
    kw = dict(n=1, sigma=2.0, noise_type="multiplicative", dt0=1e-3, T_end=0.06,
              grad_threshold=1e3, record_stride=3, gs_refs=gs)
    u0 = q.with_values(0.9 * q.values)
    if name == "clipped":
        kw.update(T_end=0.0605, record_stride=4)
    elif name == "adapt":
        kw.update(noise_type="none", record_stride=1, T_end=0.04,
                  adapt=AdaptSpec(growth_factor=1.01, dt_min=1e-4))
        u0 = q.with_values(1.1 * q.values * np.exp(0.3j * grid.axes[0]))
    elif name == "additive":
        kw.update(noise_type="additive", record_stride=2)
    return SimConfig(**kw), u0, (None if kw["noise_type"] == "none" else mult)


@pytest.mark.parametrize("name", ["stride", "clipped", "adapt", "additive"])
def test_fused_loop_matches_public_substeps(gs_1d_s2, name):
    cfg, u0, spec = _oracle_case(name, gs_1d_s2)
    rec = run_trajectory(cfg, u0, spec, seed=(5, 2))
    ref, dt_ref = _reference_run(cfg, u0, spec, (5, 2))
    assert rec.status.kind == "survived"
    assert len(rec.samples) == len(ref) > 5
    assert rec.dt_final == dt_ref
    if name == "adapt":
        assert dt_ref < cfg.dt0
    got = rec.sample_arrays()
    ref_values = np.array([astuple(s) for s in ref])
    for key, want in TrajectoryRecord(ref_values, rec.status, {}, None,
                                      dt_ref).sample_arrays().items():
        # the boundary fraction is a share of the mass, ~1e-8 here: bulk rounding
        # lands on it in units of the whole mass
        scale = 1.0 if key == "boundary_mass_fraction" else np.max(np.abs(want))
        assert np.max(np.abs(got[key] - want)) <= 1e-12 * scale, key


@pytest.mark.parametrize("name", ["stride", "adapt", "additive"])
def test_trajectory_advances_record_by_record(gs_1d_s2, name):
    cfg, u0, spec = _oracle_case(name, gs_1d_s2)
    path = Trajectory(cfg, [u0], spec, [(5, 2)])
    m0 = mass(u0)
    assert len(path.record(0).samples) == 1
    while path.advance():
        assert path.record(0).samples[-1].t == path.rows[0].t
        now = observe(path.state(0), path.rows[0].t, m0, cfg.alpha_or_zero, cfg.sigma)
        assert now == path.record(0).samples[-1]
    assert path.record(0).status is not None
    n_samples = len(path.record(0).samples)
    assert path.advance() is False and path.advance() is False
    assert len(path.record(0).samples) == n_samples
    rec, direct = path.record(0), run_trajectory(cfg, u0, spec, seed=(5, 2))
    assert rec.values.tolist() == direct.values.tolist()
    assert (rec.status, rec.hit_times, rec.dt_final) == (direct.status, direct.hit_times,
                                                         direct.dt_final)


def test_state_of_a_row_after_others_stopped(gs_1d_s2):
    # in reverse, rows 0 (spectral tail) and 2 (overflow) end on the first step and row 3
    # blows up later: each live row's position in the field arrays falls behind its index
    from test_batch import GRIDS, _mixed_rows

    cfg = SimConfig(n=1, sigma=2.0, noise_type="multiplicative", dt0=1e-3, T_end=0.1505,
                    grad_threshold=20.0, record_stride=1, gs_refs=gs_1d_s2)
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.01})
    u0s = _mixed_rows(gs_1d_s2, GRIDS[1])[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        m0s = [mass(u) for u in u0s]
        path = Trajectory(cfg, u0s, spec, [(9, i) for i in range(4)])
        behind = 0  # checks of a live row whose position is below its index
        while path.advance():
            for i, row in enumerate(path.rows):
                if row.status is None:
                    now = observe(path.state(i), row.t, m0s[i], cfg.alpha_or_zero, cfg.sigma)
                    assert now == path.record(i).samples[-1]
                    behind += path.live.index(row) < i
    assert behind > 10


def test_record_taken_mid_run_keeps_its_hit_times(gs_1d_s2):
    # row 0 collapses: its record after the first step must not gain later hitting times
    from test_batch import GRIDS, _mixed_rows

    cfg = SimConfig(n=1, sigma=2.0, noise_type="none", dt0=1e-3, T_end=0.1505,
                    grad_threshold=20.0, record_stride=1, gs_refs=gs_1d_s2)
    with np.errstate(over="ignore", invalid="ignore"):
        path = Trajectory(cfg, _mixed_rows(gs_1d_s2, GRIDS[1]), None, [(9, i) for i in range(4)])
        path.advance()
        early = path.record(0)
        early_hits = dict(early.hit_times)
        while path.advance():
            pass
    assert early.hit_times == early_hits
    assert path.record(0).status.kind == "blownup"
    assert path.record(0).hit_times != early_hits


def _transform_counts(gs, monkeypatch, record_stride, grid=None, spec=None):
    """Field and sampler transforms of 10- and 20-step multiplicative paths.

    The paths run on grid (1d N = 256 by default).  A field transform is a
    call of grid.fft_field or grid.ifft_field, counted in every module that
    calls it.  The sampler's transforms are counted at numpy.fft while
    NoiseSampler.synthesize runs: "sampler" its inverse real FFTs and
    "sampler_c2c" its complex passes.
    """
    import numpy.fft

    import snls.dynamics
    import snls.grid
    import snls.noise_model
    import snls.observables

    calls = {"field": 0, "sampler": 0, "sampler_c2c": 0}
    synthesizing = []

    def counting(kind, fn, inside=False):
        def wrapped(*args, **kwargs):
            if synthesizing or not inside:
                calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    def synthesize(self, *args, **kwargs):
        synthesizing.append(True)
        try:
            return real_synthesize(self, *args, **kwargs)
        finally:
            synthesizing.pop()

    real_synthesize = snls.noise_model.NoiseSampler.synthesize
    monkeypatch.setattr(snls.noise_model.NoiseSampler, "synthesize", synthesize)
    monkeypatch.setattr(numpy.fft, "ifft", counting("sampler_c2c", numpy.fft.ifft, inside=True))
    monkeypatch.setattr(numpy.fft, "irfft", counting("sampler", numpy.fft.irfft, inside=True))
    for name in ("fft_field", "ifft_field"):
        field = counting("field", getattr(snls.grid, name))
        for mod in (snls.grid, snls.dynamics, snls.observables):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, field)
    grid = grid or GridSpec(1, 20.0, 256)
    q = ground_state_field(gs, grid)
    spec = spec or CovarianceSpec("fourier_diagonal", {(1,): 0.2})
    counts = []
    for n_steps in (10, 20):
        cfg = SimConfig(n=grid.dim, sigma=gs.sigma, noise_type="multiplicative", dt0=1e-3,
                        T_end=n_steps * 1e-3, grad_threshold=1e3, record_stride=record_stride,
                        gs_refs=gs)
        calls.update(field=0, sampler=0, sampler_c2c=0)
        rec = run_trajectory(cfg, q.with_values(q.values), spec, seed=(1, 0))  # no cached spectrum
        assert rec.status.kind == "survived"
        counts.append((dict(calls), len(rec.samples)))
    return counts


def test_unrecorded_step_transforms(gs_1d_s2, monkeypatch):
    counts = _transform_counts(gs_1d_s2, monkeypatch, record_stride=1000)
    assert [n for _, n in counts] == [2, 2]  # t = 0 and T_end only
    (first, _), (second, _) = counts
    assert second["field"] - first["field"] == 2 * 10
    assert second["sampler"] - first["sampler"] == 10


def test_recorded_step_transforms(gs_1d_s2, monkeypatch):
    # a recorded step adds one FFT for uhat, shared by the gradient norm and
    # the tail check, and one inverse FFT for the momentum
    import snls.dynamics

    tail_checks = []

    def tail_check(state, *args):
        cached = state._spectral_abs2
        out = tail_fraction_rows(state, *args)
        tail_checks.append(cached is not None and state._spectral_abs2 is cached)
        return out

    monkeypatch.setattr(snls.dynamics, "tail_fraction_rows", tail_check)
    counts = _transform_counts(gs_1d_s2, monkeypatch, record_stride=1)
    assert [n for _, n in counts] == [11, 21]
    (first, _), (second, _) = counts
    assert second["field"] - first["field"] == 4 * 10
    assert second["sampler"] - first["sampler"] == 10
    assert len(tail_checks) == 30 and all(tail_checks)


def _nd_case(request, dim):
    """The ground state, a grid and a covariance of a 2d or 3d count path."""
    if dim == 2:
        return (request.getfixturevalue("gs_2d_cubic"), GridSpec(2, (20.0, 16.0), (32, 24)),
                CovarianceSpec("fourier_diagonal", {(1, 0): 0.05, (0, 2): 0.05, (2, -1): 0.03}))
    return (request.getfixturevalue("gs_3d_cubic"), GridSpec(3, 12.0, 16),
            CovarianceSpec("fourier_diagonal", {(1, 0, 0): 0.05, (0, 1, -1): 0.05}))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("record_stride", [1, 1000])
def test_nd_step_transforms(request, monkeypatch, dim, record_stride):
    # a step takes one field FFT pair and the sampler's d - 1 pruned complex
    # passes and one inverse real FFT; a record adds the FFT of uhat and one
    # inverse FFT per axis for the momentum
    gs, grid, spec = _nd_case(request, dim)
    counts = _transform_counts(gs, monkeypatch, record_stride, grid, spec)
    (first, n_first), (second, n_second) = counts
    records = n_second - n_first
    assert records == (10 if record_stride == 1 else 0)
    assert second["field"] - first["field"] == 2 * 10 + (1 + dim) * records
    assert second["sampler_c2c"] - first["sampler_c2c"] == (dim - 1) * 10
    assert second["sampler"] - first["sampler"] == 10


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_deterministic_leaves_its_input_alone(request, dim):
    # the step builds its result in temporaries of its own, never in u or its spectrum
    gs, grid, _ = _nd_case(request, dim) if dim > 1 else (
        request.getfixturevalue("gs_1d_s2"), GridSpec(1, 20.0, 128), None)
    u = ground_state_field(gs, grid)
    spectral = u.spectral
    values, spectral_bytes = u.values.tobytes(), spectral.tobytes()
    step_deterministic(u, 1e-3, gs.sigma)
    assert u.values.tobytes() == values
    assert u.spectral is spectral and spectral.tobytes() == spectral_bytes


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("record_stride", [1, 3])
def test_state_taken_before_advance_is_kept(request, dim, record_stride):
    # a state taken at a record views the trajectory's field array; the steps
    # that follow, recorded or not, must not write into it
    gs, grid, spec = _nd_case(request, dim) if dim > 1 else (
        request.getfixturevalue("gs_1d_s2"), GridSpec(1, 20.0, 128),
        CovarianceSpec("fourier_diagonal", {(1,): 0.2}))
    u0 = ground_state_field(gs, grid)
    cfg = SimConfig(n=dim, sigma=gs.sigma, noise_type="multiplicative", dt0=1e-3, T_end=0.01,
                    grad_threshold=1e3, record_stride=record_stride, gs_refs=gs)
    path = Trajectory(cfg, [u0, u0], spec, [(1, 0), (1, 1)])
    taken = []
    while True:
        states = [path.state(i) for i in range(2)]
        taken += [(s, s.values.tobytes()) for s in states]
        if not path.advance():
            break
    assert len(taken) > 4
    assert all(s.values.tobytes() == b for s, b in taken)


def test_sample_arrays_match_to_dict(gs_1d_s2):
    grid = GridSpec(1, 20.0, 128)
    q = ground_state_field(gs_1d_s2, grid)
    cfg = SimConfig(n=1, sigma=2.0, noise_type="none", dt0=1e-3, T_end=0.02,
                    grad_threshold=1e3, record_stride=2, gs_refs=gs_1d_s2)
    rec = run_trajectory(cfg, q, None, 0)
    arrays = rec.sample_arrays()
    assert list(arrays) == list(asdict(rec.samples[0]))
    for key, col in arrays.items():
        assert np.array_equal(col, np.array([asdict(s)[key] for s in rec.samples]))


@pytest.mark.parametrize("stride", [1, 5])
def test_overflow_fails_on_the_step_it_happens(gs_1d_s2, stride):
    # |u|^4 overflows on the first step; recorded or not, the path fails at t = dt
    grid = GridSpec(1, 20.0, 128)
    u0 = FieldState(grid, 1e80 * np.exp(-grid.radius_sq).astype(complex))
    cfg = SimConfig(n=1, sigma=2.0, noise_type="none", dt0=1e-3, T_end=0.02,
                    grad_threshold=1e100, record_stride=stride, gs_refs=gs_1d_s2)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run_trajectory(cfg, u0, None, 0)
    assert (rec.status.kind, rec.status.reason, rec.status.time) == ("failed", "overflow", 1e-3)
    assert len(rec.samples) == 1
