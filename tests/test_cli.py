import json
import re

import pytest

from snls.cli import main
from snls.config import (
    ExperimentConfig,
    config_hash,
    dump_config,
    ensemble_config,
    load_config,
)
from snls.presets import PRESETS, get_preset, preset_names


def strict_json(text):
    """json.loads that rejects the non-JSON constants NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ground_state_cli_critical(capsys):
    code, out, _ = run_cli(capsys, "ground-state", "--n", "1", "--sigma", "2")
    assert code == 0
    doc = strict_json(out)
    assert abs(doc["energy"]) <= 1e-10  # H(Q) = 0 at s_c = 0
    assert doc["gn_K"] == pytest.approx(3.0)  # K = sigma + 1 in the critical case


def test_ground_state_cli_radial_residuals(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ground-state", "--n", "3", "--sigma", "1",
                           "--out", str(tmp_path))
    assert code == 0
    doc = strict_json((tmp_path / "ground_state.json").read_text())
    assert max(doc["pokhozhaev_residuals"]) <= 1e-6
    csv = (tmp_path / "ground_state_profile.csv").read_text().splitlines()
    assert csv[0] == "r,Q"
    assert len(csv) > 1000


def test_ground_state_cli_rejects_supercritical(capsys):
    code, _, err = run_cli(capsys, "ground-state", "--n", "3", "--sigma", "2")
    assert code == 1
    assert "energy-supercritical" in err


def test_theory_cli_preset(capsys):
    code, out, _ = run_cli(capsys, "theory", "--preset", "mult-intercritical-3d-cubic")
    assert code == 0
    doc = strict_json(out)
    assert doc["T_star_mult"] is not None and doc["T_star_mult"] > 0
    assert doc["config_hash"] == config_hash(get_preset("mult-intercritical-3d-cubic"))


def test_theory_cli_above_threshold(capsys, tmp_path):
    cfg = get_preset("det-critical-above").to_dict()
    cfg["physics"]["noise_type"] = "additive"
    cfg["covariance"] = {"kind": "fourier_diagonal", "amplitudes": {"0": 0.1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "theory", "--config", str(path))
    assert code == 0
    doc = strict_json(out)
    assert doc["regime"] == "above-threshold"
    assert doc["T_star_add_crit"] is None  # omitted above the threshold


def test_theory_cli_additive_above_threshold_field(capsys, tmp_path):
    # beta^2 + gamma >= 1 must be reported, not crash: u0 = Q has beta = gamma = 1
    cfg = {
        "name": "above",
        "grid": {"dim": 1, "extent": 30.0, "points": 128},
        "physics": {"n": 1, "sigma": 3.0, "noise_type": "additive"},
        "covariance": {"kind": "fourier_diagonal", "amplitudes": {"0": 0.01}},
        "initial_data": {"family": "scaled_ground_state", "params": {"c": 1.0}},
        "run": {"dt": 1e-3, "T_end": 0.5, "grad_threshold": 20.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "theory", "--config", str(path))
    assert code == 0
    doc = strict_json(out)
    assert doc["T_tilde_add_inter"] is None
    assert any("above additive threshold" in n for n in doc["notes"])


def test_theory_random_initial_data_moment_bound(capsys, tmp_path):
    # uniform c in (0, 1): the random-data horizon uses E(M(u0)^(1/s_c))
    cfg = {
        "name": "rand",
        "grid": {"dim": 1, "extent": 20.0, "points": 256},
        "physics": {"n": 1, "sigma": 3.0, "noise_type": "multiplicative"},
        "covariance": {"kind": "fourier_diagonal", "amplitudes": {"1": 0.3}},
        "initial_data": {"family": "random_scaled_ground_state",
                         "params": {"c_dist": {"kind": "uniform", "lo": 0.5, "hi": 0.8}}},
        "run": {"dt": 5e-4, "T_end": 1.0, "grad_threshold": 20.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "theory", "--config", str(path))
    assert code == 0
    doc = strict_json(out)
    assert doc["T_star_mult_random"] is not None
    assert doc["T_star_mult_random"] > 0
    # the deterministic horizon at the envelope c is smaller than the
    # moment-averaged one (E(M^(1/s_c)) < M(c_hi Q)^(1/s_c))
    assert doc["T_star_mult_random"] > doc["T_star_mult"]


@pytest.mark.parametrize("command", [["theory"], ["ensemble", "--n-traj", "1", "--compare"]])
def test_theory_rejects_random_family_without_closed_forms(capsys, tmp_path, monkeypatch,
                                                           command):
    import snls.cli

    cfg = get_preset("mult-inter-survival").to_dict()
    cfg["initial_data"] = {"family": "ground_state_plus_field",
                           "params": {"amplitude": 0.01, "k_max": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    real, runs = snls.cli.run_ensemble, []  # --compare fails before the ensemble runs
    monkeypatch.setattr(snls.cli, "run_ensemble",
                        lambda *a, **kw: runs.append(a) or real(*a, **kw))
    code, _, err = run_cli(capsys, *command, "--config", str(path))
    assert code == 1
    assert "'ground_state_plus_field'" in err
    assert "no theory report" in err
    assert runs == []


def test_theory_additive_intercritical_zero_data(capsys, tmp_path):
    # u0 = 0 has no gradient cap (it divides by M(u0)^alpha), but the mass bounds hold
    cfg = get_preset("add-inter").to_dict()
    cfg["initial_data"] = {"family": "zero"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "theory", "--config", str(path))
    assert code == 0
    doc = strict_json(out)
    assert doc["grad_bound"] is None
    assert doc["mass_sup_bound"] > 0


def test_statistical_check_deterministic_given_seed():
    from snls.verify import check_noise_sampler

    assert check_noise_sampler(777) == check_noise_sampler(777)


def test_theory_additive_blowup_ledger(capsys, tmp_path):
    # c = 1.05 sits on the blow-up side; with tiny additive noise the
    # sufficient-condition ledger must be emitted and satisfied
    cfg = {
        "name": "add-blowup",
        "grid": {"dim": 1, "extent": 20.0, "points": 512},
        "physics": {"n": 1, "sigma": 3.0, "noise_type": "additive"},
        "covariance": {"kind": "fourier_diagonal", "amplitudes": {"1": 1e-6}},
        "initial_data": {"family": "scaled_ground_state", "params": {"c": 1.05}},
        "run": {"dt": 1e-4, "T_end": 2.0, "grad_threshold": 25.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "theory", "--config", str(path))
    assert code == 0
    doc = strict_json(out)
    led = doc["blowup_additive"]
    assert led is not None
    names = {c["name"] for c in led["checks"]}
    assert names == {"cond_1_add", "cond_2_add", "cond_3_add", "cond_4_add",
                     "cond_3_add_variance"}
    assert led["satisfied"] is True


def test_simulate_cli_survival(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--preset", "det-critical-below",
                           "--out", str(tmp_path))
    assert code == 0
    doc = strict_json(out)
    assert doc["status"]["kind"] == "survived"
    assert doc["classification"]["regime"] == "global-side"
    assert (tmp_path / "traj_00000.jsonl").exists()
    assert doc["config_hash"] == config_hash(get_preset("det-critical-below"))


def test_ensemble_cli_smoke(capsys):
    code, out, _ = run_cli(capsys, "ensemble", "--preset", "add-mass-drift",
                           "--n-traj", "40", "--workers", "1")
    assert code == 0
    doc = strict_json(out)
    assert doc["n_traj"] == 40
    assert doc["survival_prob"] == 1.0
    assert doc["usable"] is True


def test_verify_cli_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "quick")
    assert code == 0
    assert out.count("[PASS]") >= 7
    assert "[FAIL]" not in out


def test_cli_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "theory", "--preset", "no-such-preset")
    assert code == 1
    assert "unknown preset" in err


def test_config_roundtrip_all_presets(tmp_path):
    for name in preset_names():
        cfg = get_preset(name)
        p = tmp_path / f"{name}.json"
        dump_config(cfg, str(p))
        back = load_config(str(p))
        assert back.to_dict() == cfg.to_dict()  # lossless round trip
        assert config_hash(back) == config_hash(cfg)


def test_editing_a_config_document_leaves_the_config_alone():
    cfg = get_preset("add-critical")
    before = config_hash(cfg)
    doc = cfg.to_dict()
    doc["covariance"]["amplitudes"].clear()
    for section in doc.values():
        if isinstance(section, dict):
            section.clear()
    assert config_hash(cfg) == before


def test_config_rejects_unknown_sections():
    with pytest.raises(ValueError, match="unknown config sections"):
        ExperimentConfig.from_dict({
            "name": "x",
            "grid": {"dim": 1, "extent": 10.0, "points": 64},
            "physics": {"n": 1, "sigma": 2.0, "noise_type": "none"},
            "initial_data": {"family": "zero"},
            "run": {"dt": 0.01, "T_end": 1.0},
            "bogus": {},
        })


@pytest.mark.parametrize("where, extra, key", [
    ("run", {"disable_nonlinearity": True}, "disable_nonlinearity"),
    ("run.adapt", {"adapt": {"growth_factr": 2.0}}, "growth_factr"),
    ("run.thresholds", {"thresholds": {"delta_mas": 0.9}}, "delta_mas"),
], ids=["run", "run.adapt", "run.thresholds"])
def test_config_rejects_unknown_run_keys(tmp_path, capsys, where, extra, key):
    doc = get_preset("add-critical").to_dict()
    doc["run"] = {**doc["run"], **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert (code, out) == (1, "")
    assert f"unknown keys in {where}: ['{key}']" in err


@pytest.mark.parametrize("section, key", [
    ("grid", "dealias_fracton"),
    ("physics", "noise_typ"),
    ("initial_data", "parms"),
    ("covariance", "amplitude_s"),
    ("ensemble", "n_trajs"),
    ("output", "gzp"),
], ids=["grid", "physics", "initial_data", "covariance", "ensemble", "output"])
def test_config_rejects_unknown_section_keys(section, key):
    doc = get_preset("add-mass-drift").to_dict()
    doc[section] = {**doc[section], key: 0.5}
    with pytest.raises(ValueError, match=re.escape(f"unknown keys in {section}: ['{key}']")):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("family, params, key", [
    ("scaled_ground_state", {"mass_fracton": 0.5}, "mass_fracton"),
    ("gaussian_bump", {"amplitude": 0.3, "c": 1.0}, "c"),
    ("random_scaled_ground_state", {"c_dist": {"kind": "uniform", "lo": 0.4, "hi": 0.8},
                                    "mass_fraction": 0.5}, "mass_fraction"),
], ids=["scaled_ground_state", "gaussian_bump", "random_scaled_ground_state"])
def test_config_rejects_params_of_another_family(family, params, key):
    # det-critical-below with a misspelled mass_fraction used to fall back to c = 1
    doc = get_preset("det-critical-below").to_dict()
    doc["initial_data"] = {"family": family, "params": params}
    with pytest.raises(ValueError,
                       match=re.escape(f"unknown keys in initial_data.params: ['{key}']")):
        ExperimentConfig.from_dict(doc)
    doc["initial_data"] = {"family": "scaled_ground_stat", "params": {}}
    with pytest.raises(ValueError, match="unknown initial-data family 'scaled_ground_stat'"):
        ExperimentConfig.from_dict(doc)


def test_config_cross_field_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({
            "name": "x",
            "grid": {"dim": 1, "extent": 10.0, "points": 64},
            "physics": {"n": 1, "sigma": 2.0, "noise_type": "none"},
            "initial_data": {"family": "zero"},
            "run": {"dt": 5.0, "T_end": 1.0},  # dt >= T_end
        })


def test_cli_materialize_is_the_config_one():
    # the benchmark calls snls.cli.materialize and unpacks six values
    import snls.cli
    import snls.config

    assert snls.cli.materialize is snls.config.materialize
    cfg = get_preset("add-mass-drift")
    grid, gs, sim, cov, init, chash = snls.cli.materialize(cfg)
    assert grid == cfg.build_grid() and init == cfg.build_initial_data()
    assert sim.gs_refs.mass == gs.mass and cov is not None
    assert chash == config_hash(cfg)


def test_ensemble_config_defaults_and_overrides():
    cfg = get_preset("add-mass-drift")  # ensemble section: 1000 trajectories, seed 7001
    ecfg = ensemble_config(cfg)
    assert (ecfg.n_traj, ecfg.master_seed, ecfg.parallel_workers) == (1000, 7001, 1)
    assert ecfg.config_hash == config_hash(cfg)
    bare = ExperimentConfig.from_dict({**cfg.to_dict(), "ensemble": {}})
    ecfg = ensemble_config(bare)
    assert (ecfg.n_traj, ecfg.master_seed) == (100, 0)
    for base in (cfg, bare):
        ecfg = ensemble_config(base, n_traj=7, master_seed=0, workers=2)
        assert (ecfg.n_traj, ecfg.master_seed, ecfg.parallel_workers) == (7, 0, 2)


def test_preset_hashes_are_distinct():
    hashes = {config_hash(get_preset(n)) for n in preset_names()}
    assert len(hashes) == len(PRESETS)


def test_verify_detects_fault_injection(monkeypatch, capsys):
    # corrupt the ground-state solver output: the Pokhozhaev check must fail
    import snls.verify as verify_mod

    real = verify_mod.solve_ground_state

    def corrupted(n, sigma, tol=None):
        gs = real(n, sigma, tol)
        object.__setattr__(gs, "grad_sq", gs.grad_sq * 1.001)
        return gs

    monkeypatch.setattr(verify_mod, "solve_ground_state", corrupted)
    failures = verify_mod.run_suite("quick", out=lambda s: None)
    assert failures >= 1


def test_ensemble_compare_computes_noise_constants_once(capsys, monkeypatch):
    import snls.cli
    import snls.noise_model
    import snls.report

    original = snls.noise_model.noise_constants
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (snls.noise_model, snls.report, snls.cli):
        if getattr(mod, "noise_constants", None) is original:
            monkeypatch.setattr(mod, "noise_constants", counting)
    code, out, _ = run_cli(capsys, "ensemble", "--preset", "add-mass-drift",
                           "--n-traj", "20", "--workers", "1", "--compare")
    assert code == 0
    bounds = [v["bound"] for v in strict_json(out)["theory_comparison"]]
    assert any("mass drift" in b for b in bounds)
    assert len(calls) == 1


def test_ensemble_compare_writes_infinite_horizon_as_inf(capsys, tmp_path):
    # constant-mode noise has M_phi = 0, so T* is infinite (global existence)
    cfg = get_preset("mult-inter-survival").to_dict()
    cfg["covariance"] = {"kind": "fourier_diagonal", "amplitudes": {"0": 0.3}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "ensemble", "--config", str(path), "--n-traj", "2",
                           "--compare")
    assert code == 0
    survival = [v for v in strict_json(out)["theory_comparison"]
                if v["bound"].startswith("survival")]
    assert [v["theoretical"] for v in survival] == ["inf"]


def test_ensemble_cli_rejects_zero_trajectories(capsys):
    code, out, err = run_cli(capsys, "ensemble", "--preset", "add-mass-drift",
                             "--n-traj", "0")
    assert code == 1
    assert "n_traj must be >= 1" in err and out == ""
