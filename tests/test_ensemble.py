import gzip
import hashlib
import json
import math
import pickle
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.dynamics import SimConfig, StoppingThresholds, run_trajectory
from snls.ensemble import (
    EnsembleConfig,
    compare_with_theory,
    estimate_survival,
    hitting_time_stats,
    mass_drift_check,
    run_ensemble,
    wilson_interval,
)
from snls.grid import GridSpec
from snls.initial_data import InitialData, build_initial_data
from snls.noise_model import CovarianceSpec, make_rng
from snls.observables import SAMPLE_KEYS
from snls.theory import TheoryReport


def wilson_oracle(k, n, z=1.959963984540054):
    # independent textbook formula
    p = k / n
    lo = (p + z * z / (2 * n) - z * math.sqrt((p * (1 - p) + z * z / (4 * n)) / n)) / (1 + z * z / n)
    hi = (p + z * z / (2 * n) + z * math.sqrt((p * (1 - p) + z * z / (4 * n)) / n)) / (1 + z * z / n)
    return lo, hi


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 2000), frac=st.floats(0, 1))
def test_wilson_matches_oracle(n, frac):
    k = int(round(frac * n))
    lo, hi = wilson_interval(k, n)
    olo, ohi = wilson_oracle(k, n)
    assert lo == pytest.approx(olo, abs=1e-12)
    assert hi == pytest.approx(ohi, abs=1e-12)
    assert 0.0 <= lo <= k / n + 1e-12
    assert k / n - 1e-12 <= hi <= 1.0


def test_wilson_spot_values():
    lo, hi = wilson_interval(200, 200)
    assert lo > 0.98
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.5 - 0.0975, abs=2e-3)
    assert hi == pytest.approx(0.5 + 0.0975, abs=2e-3)
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0.0


def test_wilson_shrinks_like_sqrt_n():
    widths = []
    for n in (100, 400, 1600):
        lo, hi = wilson_interval(n // 2, n)
        widths.append(hi - lo)
    assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.05)
    assert widths[1] / widths[2] == pytest.approx(2.0, rel=0.05)


@pytest.fixture(scope="module")
def small_ensemble_cfg(gs_1d_s2):
    grid = GridSpec(1, 20.0, 64)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.1, (1,): 0.1})
    sim = SimConfig(n=1, sigma=2.0, noise_type="additive", dt0=0.01, T_end=0.3,
                    grad_threshold=50.0, record_stride=3,
                    gs_refs=gs_1d_s2)
    return EnsembleConfig(n_traj=24, master_seed=77, trajectory=sim, grid=grid,
                          initial_data=InitialData("zero"), covariance=spec,
                          ground_state=gs_1d_s2, config_hash="h1")


def test_single_trajectory_reproduces_run_trajectory(small_ensemble_cfg):
    cfg = small_ensemble_cfg
    one = EnsembleConfig(n_traj=1, master_seed=cfg.master_seed, trajectory=cfg.trajectory,
                         grid=cfg.grid, initial_data=cfg.initial_data,
                         covariance=cfg.covariance, ground_state=cfg.ground_state,
                         config_hash="h1")
    summary, recs = run_ensemble(one)
    u0 = build_initial_data(cfg.initial_data, cfg.grid, cfg.ground_state, None)
    direct = run_trajectory(cfg.trajectory, u0, cfg.covariance,
                            seed=(cfg.master_seed, 0))
    a, b = recs[0].sample_arrays(), direct.sample_arrays()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_schedule_independence(small_ensemble_cfg):
    cfg = small_ensemble_cfg
    s1, _ = run_ensemble(cfg)
    cfg4 = EnsembleConfig(n_traj=cfg.n_traj, master_seed=cfg.master_seed,
                          trajectory=cfg.trajectory, grid=cfg.grid,
                          initial_data=cfg.initial_data, covariance=cfg.covariance,
                          ground_state=cfg.ground_state, parallel_workers=4,
                          config_hash="h1")
    s4, _ = run_ensemble(cfg4)
    assert json.dumps(s1.to_dict(), sort_keys=True) == json.dumps(s4.to_dict(),
                                                                  sort_keys=True)


def test_estimate_survival_and_censoring(small_ensemble_cfg):
    _, recs = run_ensemble(small_ensemble_cfg)
    p, (lo, hi) = estimate_survival(recs, 0.3 * (1 - 1e-12))
    assert p == 1.0 and lo > 0.8
    hs = hitting_time_stats(recs, "tau_tilde_N", 0.3)
    assert hs["censored_count"] == len(recs)  # nothing hits the gradient cap
    assert hs["mean_censored"] == pytest.approx(0.3)


def test_random_initial_data_is_reproducible(gs_1d_s2):
    grid = GridSpec(1, 20.0, 64)
    desc = InitialData("random_scaled_ground_state",
                       {"c_dist": {"kind": "uniform", "lo": 0.4, "hi": 0.8}})
    a = build_initial_data(desc, grid, gs_1d_s2, make_rng(5, 3))
    b = build_initial_data(desc, grid, gs_1d_s2, make_rng(5, 3))
    c = build_initial_data(desc, grid, gs_1d_s2, make_rng(5, 4))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_mass_drift_statistics(small_ensemble_cfg, gs_1d_s2):
    grid = small_ensemble_cfg.grid
    cfg = EnsembleConfig(n_traj=400, master_seed=13, trajectory=small_ensemble_cfg.trajectory,
                         grid=grid, initial_data=InitialData("zero"),
                         covariance=small_ensemble_cfg.covariance,
                         ground_state=gs_1d_s2, config_hash="h2")
    summary, _ = run_ensemble(cfg)
    from snls.noise_model import noise_constants

    nc = noise_constants(cfg.covariance, grid, 2.0)
    chk = mass_drift_check(summary, 0.0, nc.hs00)
    assert chk["z_max"] <= 3.0
    wrong = mass_drift_check(summary, 0.0, nc.hs00 * 2.0)
    assert wrong["z_max"] > 3.0  # a wrong drift law must be detectable


def _report(hash_, **kw):
    return TheoryReport(n=1, sigma=2.0, s_c=0.0, alpha=None, regime="critical",
                        config_hash=hash_, **kw)


def test_compare_one_sided_logic(small_ensemble_cfg):
    summary, _ = run_ensemble(small_ensemble_cfg)
    rep = _report("h1", T_star_add_crit=1.0, eps_star=0.3)
    verdicts = compare_with_theory(summary, rep)
    surv = [v for v in verdicts if "survival" in v["bound"]]
    assert surv and surv[0]["verdict"] == "consistent"
    # hash mismatch is an error
    with pytest.raises(ValueError, match="hash"):
        compare_with_theory(summary, _report("other", T_star_add_crit=1.0))


def test_compare_zero_survivors_is_inconclusive(small_ensemble_cfg):
    summary, _ = run_ensemble(small_ensemble_cfg)
    summary.survival_prob = 0.0
    summary.survival_interval = wilson_interval(0, summary.n_traj)
    rep = _report("h1", T_star_add_crit=1.0)
    verdicts = compare_with_theory(summary, rep)
    surv = [v for v in verdicts if "survival" in v["bound"]]
    assert surv[0]["verdict"] == "inconclusive"  # never "violated" for P > 0 claims


def test_hitting_time_verdict_reads_the_tracked_stopping_time(small_ensemble_cfg):
    # delta_mass is set and delta_energy is not; u0 starts above delta_mass^2 M(Q),
    # so every path hits tau_delta_mass at t = 0
    sim = replace(small_ensemble_cfg.trajectory, thresholds=StoppingThresholds(delta_mass=0.7))
    cfg = replace(small_ensemble_cfg, n_traj=4, trajectory=sim,
                  initial_data=InitialData("scaled_ground_state", {"mass_fraction": 0.5}))
    summary, _ = run_ensemble(cfg)
    verdicts = compare_with_theory(summary, _report("h1", T_star_add_crit=1.0))
    (v,) = [v for v in verdicts if v["bound"].startswith("E(tau_delta)")]
    assert v["empirical"] == 0.0 and v["censored_count"] == 0
    assert v["stopping_time"] == "tau_delta_mass"
    assert v["verdict"] == "violated"
    hs = summary.hitting_times
    assert hs["tau_delta_mass"]["tracked"] and hs["tau_delta_mass"]["censored_count"] == 0
    assert not hs["tau_delta_energy"]["tracked"]
    # with neither tracker enabled there is no hitting-time verdict at all
    summary, _ = run_ensemble(replace(cfg, trajectory=small_ensemble_cfg.trajectory))
    verdicts = compare_with_theory(summary, _report("h1", T_star_add_crit=1.0))
    assert not [v for v in verdicts if v["bound"].startswith("E(tau_delta)")]


def test_drift_check_verdicts(small_ensemble_cfg):
    summary, _ = run_ensemble(small_ensemble_cfg)
    rep = _report("h1")
    v = compare_with_theory(summary, rep,
                            drift_checks=[{"name": "d", "z_max": 2.0},
                                          {"name": "d2", "z_max": 4.0}])
    by_name = {x["bound"]: x["verdict"] for x in v}
    assert by_name["d"] == "consistent"
    assert by_name["d2"] == "violated"


def test_multiplicative_critical_survival_probability_one(gs_1d_s2):
    # mass below M(Q) with Stratonovich noise: global existence a.s., so the
    # empirical survival probability over 200 paths must be exactly 1
    from snls.config import ensemble_config
    from snls.presets import get_preset

    ecfg = ensemble_config(get_preset("mult-critical-survival"), n_traj=200,
                           master_seed=7007, workers=2)
    summary, recs = run_ensemble(ecfg)
    assert summary.survival_prob == 1.0
    assert summary.survival_interval[0] > 0.98
    assert summary.failed_count == 0


def test_additive_energy_supermartingale_direction(gs_1d_s2):
    # dropping the nonpositive additive-noise term gives
    # E H(u(t)) <= H(u0) + (1/2) hs01 t + martingale(0); checked in ensemble
    # mean within 3 standard errors
    from snls.noise_model import noise_constants

    grid = GridSpec(1, 20.0, 64)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.15, (1,): 0.1})
    nc = noise_constants(spec, grid, 2.0)
    sim = SimConfig(n=1, sigma=2.0, noise_type="additive", dt0=5e-3, T_end=0.5,
                    grad_threshold=50.0, record_stride=5,
                    gs_refs=gs_1d_s2)
    init = InitialData("scaled_ground_state", {"mass_fraction": 0.5})
    ecfg = EnsembleConfig(n_traj=400, master_seed=31, trajectory=sim, grid=grid,
                          initial_data=init, covariance=spec, ground_state=gs_1d_s2,
                          config_hash="h4")
    summary, _ = run_ensemble(ecfg)
    paths = summary.mean_paths["energy"]
    t, mean_h, se = paths["t"], paths["mean"], paths["se"]
    h0 = mean_h[0]
    bound = h0 + 0.5 * nc.hs01 * t
    assert np.all(mean_h <= bound + 3.0 * se + 1e-12)


def test_persisted_records(tmp_path, small_ensemble_cfg):
    cfg = EnsembleConfig(n_traj=3, master_seed=1, trajectory=small_ensemble_cfg.trajectory,
                         grid=small_ensemble_cfg.grid,
                         initial_data=small_ensemble_cfg.initial_data,
                         covariance=small_ensemble_cfg.covariance,
                         ground_state=small_ensemble_cfg.ground_state,
                         config_hash="h3")
    run_ensemble(cfg, out_dir=str(tmp_path))
    files = sorted(tmp_path.glob("traj_*.jsonl"))
    assert len(files) == 3
    lines = files[0].read_text().strip().splitlines()
    sample = json.loads(lines[0])
    assert set(sample) == {"t", "mass", "energy", "grad_sq", "lp2s2", "variance",
                           "momentum", "X", "me_product", "boundary_mass_fraction"}
    terminal = json.loads(lines[-1])["terminal"]
    assert terminal["config_hash"] == "h3"
    assert terminal["status"]["kind"] == "survived"


def test_persisted_bytes_are_pinned(tmp_path, small_ensemble_cfg):
    # the exact record-file bytes of a fixed ensemble, plain and inside a gzip file
    cfg = replace(small_ensemble_cfg, n_traj=3, master_seed=1, config_hash="h3")
    run_ensemble(cfg, out_dir=str(tmp_path / "plain"))
    run_ensemble(cfg, out_dir=str(tmp_path / "gz"), compress=True)
    plain = (tmp_path / "plain" / "traj_00000.jsonl").read_bytes()
    assert hashlib.sha256(plain).hexdigest() == (
        "36844c35d78fefd4742c7d0cc4d717fb17147fcc1d28686e78651de3bcadea61")
    with gzip.open(tmp_path / "gz" / "traj_00001.jsonl.gz", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == (
            "7d48ae4559bcd2acec1e5dedcb5672db996ee25c3bc1b38665130ccde95d6569")


def test_records_cross_the_pool_as_one_array(small_ensemble_cfg):
    _, records = run_ensemble(replace(small_ensemble_cfg, parallel_workers=2))
    for rec in records:
        assert rec.values.dtype == np.float64 and rec.values.flags.c_contiguous
        assert rec.values.shape == (len(rec.samples), len(SAMPLE_KEYS))
        assert np.array_equal(rec.values, np.array([astuple(s) for s in rec.samples]))
        assert b"ObservableSample" not in pickle.dumps(rec)


def test_gzip_persistence_matches_plain_files(tmp_path, small_ensemble_cfg):
    cfg = EnsembleConfig(n_traj=2, master_seed=1, trajectory=small_ensemble_cfg.trajectory,
                         grid=small_ensemble_cfg.grid,
                         initial_data=small_ensemble_cfg.initial_data,
                         covariance=small_ensemble_cfg.covariance,
                         ground_state=small_ensemble_cfg.ground_state,
                         config_hash="h4")
    run_ensemble(cfg, out_dir=str(tmp_path / "plain"))
    run_ensemble(cfg, out_dir=str(tmp_path / "gz"), compress=True)
    names = ["traj_00000.jsonl", "traj_00001.jsonl"]
    assert sorted(p.name for p in (tmp_path / "gz").iterdir()) == [n + ".gz" for n in names]
    for name in names:
        with gzip.open(tmp_path / "gz" / (name + ".gz"), "rb") as fh:
            assert fh.read() == (tmp_path / "plain" / name).read_bytes()


def test_one_sampler_per_chunk(small_ensemble_cfg, monkeypatch):
    import snls.ensemble

    built = []

    class Counting(snls.ensemble.NoiseSampler):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(snls.ensemble, "NoiseSampler", Counting)
    _, records = run_ensemble(small_ensemble_cfg)
    assert len(built) == 1
    monkeypatch.undo()
    # a fresh sampler per trajectory gives the same records bit for bit
    cfg = small_ensemble_cfg
    for i, rec in enumerate(records):
        u0 = build_initial_data(cfg.initial_data, cfg.grid, cfg.ground_state, None)
        direct = run_trajectory(cfg.trajectory, u0, cfg.covariance, seed=(cfg.master_seed, i))
        a, b = rec.sample_arrays(), direct.sample_arrays()
        assert all(np.array_equal(a[k], b[k]) for k in a)
