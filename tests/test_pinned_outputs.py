"""Pinned outputs: the theory report of every preset and the record hashes.

Each theory-report hash is the sha256 (first 16 hex digits) of the
sorted-keys JSON of ``build_theory_report(preset, horizon=h)``; the record
and ground-state hashes are the lines ``scripts/record_hashes.py`` prints,
computed with its own functions (the script is loaded from its path).  A
refactor that leaves these hashes alone leaves the reports, the simulated
records and the ground states bitwise the same.

The hashes are pinned for the numpy of the machine that recorded them, like
``test_persisted_bytes_are_pinned``: another numpy or BLAS may move the last
bits.  They were recorded when the transforms were scipy.fft's; the numpy.fft
passes that replaced them give scipy's bits (``test_transforms.py``), so no
hash moved.  The two ``mult-mass-check*`` presets run 1e5 steps each (about
40 s together), so their record lines are checked by hand with
``python scripts/record_hashes.py mult-mass-check mult-mass-check-s3``.

No preset runs a 2d path, and the 3d preset stops before its first record,
so two configs of this file pin those: a 2d additive run on an anisotropic
grid (complex increments, a half spectrum of mostly zero lines, two Nyquist
modes sharing one slot) and the physics of the benchmark's ``mult-3d-32``
cut to 20 steps and one path.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from snls.config import ExperimentConfig, ensemble_config
from snls.ensemble import run_ensemble
from snls.ground_state import solve_ground_state
from snls.presets import get_preset, preset_names
from snls.report import build_theory_report

RECORD_HASHES_PY = Path(__file__).resolve().parents[1] / "scripts" / "record_hashes.py"

THEORY_REPORT_HASHES = {
    ("add-critical", None): "52d459356917793b",
    ("add-critical", 0.3): "603b9e3baeb72f9d",
    ("add-critical", 1.5): "53c5b9d1b1be77cd",
    ("add-inter", None): "d641848370486341",
    ("add-inter", 0.3): "cfc89028b28d90cc",
    ("add-inter", 1.5): "4f0b6e11e3c1c19e",
    ("add-mass-drift", None): "eb05db39c2bb2c23",
    ("add-mass-drift", 0.3): "964f62878e0605c6",
    ("add-mass-drift", 1.5): "66f941eb000eaf48",
    ("blowup-mult", None): "4ffc58cd0cf5ddc9",
    ("blowup-mult", 0.3): "662c499db35e5668",
    ("blowup-mult", 1.5): "f827888002e242fc",
    ("det-critical-above", None): "2d9eee8ce41e89bd",
    ("det-critical-above", 0.3): "2d9eee8ce41e89bd",
    ("det-critical-above", 1.5): "2d9eee8ce41e89bd",
    ("det-critical-below", None): "94be03d29f9db524",
    ("det-critical-below", 0.3): "94be03d29f9db524",
    ("det-critical-below", 1.5): "94be03d29f9db524",
    ("mult-critical-survival", None): "8471ba3bdbf6d1ec",
    ("mult-critical-survival", 0.3): "8471ba3bdbf6d1ec",
    ("mult-critical-survival", 1.5): "8471ba3bdbf6d1ec",
    ("mult-energy-drift", None): "8329a6b62e93127a",
    ("mult-energy-drift", 0.3): "8329a6b62e93127a",
    ("mult-energy-drift", 1.5): "8329a6b62e93127a",
    ("mult-inter-survival", None): "02cd2d1ab6ccb1e5",
    ("mult-inter-survival", 0.3): "02cd2d1ab6ccb1e5",
    ("mult-inter-survival", 1.5): "02cd2d1ab6ccb1e5",
    ("mult-intercritical-3d-cubic", None): "d1007a7fa0277bd2",
    ("mult-intercritical-3d-cubic", 0.3): "d1007a7fa0277bd2",
    ("mult-intercritical-3d-cubic", 1.5): "d1007a7fa0277bd2",
    ("mult-mass-check", None): "5f9e27e9723f0349",
    ("mult-mass-check", 0.3): "5f9e27e9723f0349",
    ("mult-mass-check", 1.5): "5f9e27e9723f0349",
    ("mult-mass-check-s3", None): "3f33b1ba280f7c25",
    ("mult-mass-check-s3", 0.3): "3f33b1ba280f7c25",
    ("mult-mass-check-s3", 1.5): "3f33b1ba280f7c25",
}

RECORD_HASHES = {
    "det-critical-below": "44c5b299de2f2bf2",
    "det-critical-above": "4b5a1403f2f8257c",
    "mult-critical-survival": "f8e6d22d075461e4",
    "mult-inter-survival": "80dd0d86f0e5b21f",
    "add-mass-drift": "fa35b6de65ffb3fa",
    "mult-energy-drift": "e011ee87f660a9b5",
    "add-critical": "0217cddd01ed078b",
    "add-inter": "ca408acd23717730",
    "blowup-mult": "e852805ecbbcaff2",
    "mult-intercritical-3d-cubic": "af6338202eb59882",
}

CONFIG_RECORD_HASHES = {
    "add-2d-anisotropic": ({
        "name": "add-2d-anisotropic",
        "grid": {"dim": 2, "extent": [20.0, 12.0], "points": [32, 16], "dealias_fraction": 1.0},
        "physics": {"n": 2, "sigma": 1.0, "noise_type": "additive"},
        "covariance": {"kind": "fourier_diagonal", "scale": 1.0,
                       "amplitudes": {"0,0": 0.04, "1,0": 0.03, "0,2": 0.03, "2,-1": 0.02,
                                      "1,8": 0.01, "1,-8": 0.01}},
        "initial_data": {"family": "scaled_ground_state", "params": {"mass_fraction": 0.5}},
        "run": {"dt": 1e-3, "T_end": 0.02, "grad_threshold": 100.0, "record_stride": 5},
    }, 3, "d14215544bd9e541"),
    "mult-3d-32-20-steps": ({
        "name": "mult-3d-32-20-steps",
        "grid": {"dim": 3, "extent": 20.0, "points": 32, "dealias_fraction": 1.0},
        "physics": {"n": 3, "sigma": 1.0, "noise_type": "multiplicative"},
        "covariance": {"kind": "gaussian_spectrum", "scale": 1.0, "strength": 0.05,
                       "width": 1.0, "k_max": 4},
        "initial_data": {"family": "scaled_ground_state", "params": {"mass_fraction": 0.64}},
        "run": {"dt": 2e-3, "T_end": 0.04, "grad_threshold": 100.0, "record_stride": 10},
    }, 1, "20e0a734c17a9ad9"),
}

GROUND_STATE_HASHES = {(2, 1.0): "810158e0d2407a39", (3, 1.0): "1971883617c4bc64"}


@pytest.fixture(scope="module")
def record_hashes():
    spec = importlib.util.spec_from_file_location("script_record_hashes", RECORD_HASHES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_preset_has_pinned_theory_reports():
    assert {name for name, _ in THEORY_REPORT_HASHES} == set(preset_names())


def test_theory_reports_are_pinned():
    got = {}
    for name, horizon in THEORY_REPORT_HASHES:
        rep = build_theory_report(get_preset(name), horizon=horizon).to_dict()
        canon = json.dumps(rep, sort_keys=True).encode()
        got[name, horizon] = hashlib.sha256(canon).hexdigest()[:16]
    assert got == THEORY_REPORT_HASHES


@pytest.mark.parametrize("name", sorted(RECORD_HASHES))
def test_record_hashes_are_pinned(record_hashes, name):
    n_traj = record_hashes.N_TRAJ.get(name, record_hashes.DEFAULT_N_TRAJ)
    ecfg = ensemble_config(get_preset(name), n_traj, master_seed=record_hashes.MASTER_SEED)
    _, records = run_ensemble(ecfg)
    assert record_hashes.records_hash(records) == RECORD_HASHES[name]


@pytest.mark.parametrize("name", sorted(CONFIG_RECORD_HASHES))
def test_config_record_hashes_are_pinned(record_hashes, name):
    doc, n_traj, expected = CONFIG_RECORD_HASHES[name]
    ecfg = ensemble_config(ExperimentConfig.from_dict(doc), n_traj,
                           master_seed=record_hashes.MASTER_SEED)
    _, records = run_ensemble(ecfg)
    assert record_hashes.records_hash(records) == expected


def test_ground_state_hashes_are_pinned(record_hashes):
    got = {(n, sigma): record_hashes.ground_state_hash(solve_ground_state(n, sigma))
           for n, sigma in record_hashes.GROUND_STATES}
    assert got == GROUND_STATE_HASHES
