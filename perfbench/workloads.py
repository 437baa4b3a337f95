"""The benchmark's workloads and one round of the `snls ensemble --compare` path.

A round is what a user of ``snls ensemble --compare`` waits for: ``materialize``
the config, ``run_ensemble``, then ``build_theory_report``, the drift checks
and ``compare_with_theory``.  The library is called through module attributes
(``cli.materialize`` rather than a bound name) so that a tracer which patches
those attributes sees the calls.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

import snls.cli as cli
import snls.ensemble as ensemble
import snls.grid as grid_mod
import snls.initial_data as initial_data
import snls.noise_model as noise_model
import snls.report as report
from snls.config import ExperimentConfig
from snls.presets import get_preset

__all__ = ["Workload", "WORKLOADS", "Round", "run_round"]

# Blow-up time of the noiseless blowup-mult collapse (c = 1.05, sigma = 3,
# N = 1024, dt = 1e-4): the detector fires on step 2778.  The noise amplitude
# 4e-4 moves it by less than one step, so every trajectory of the workload is
# checked against this value.
BLOWUP_MULT_REFERENCE_TIME = 0.2778
BLOWUP_TIME_TOLERANCE = 0.20

MASS_DRIFT_Z_MAX = 3.0
MASS_CONSERVATION_REL = 1e-10
POKHOZHAEV_MAX = 1e-6

MULT_3D_32 = ExperimentConfig.from_dict({
    "name": "mult-3d-32",
    "grid": {"dim": 3, "extent": 20.0, "points": 32, "dealias_fraction": 1.0},
    "physics": {"n": 3, "sigma": 1.0, "noise_type": "multiplicative"},
    "covariance": {"kind": "gaussian_spectrum", "scale": 1.0, "strength": 0.05,
                   "width": 1.0, "k_max": 4},
    "initial_data": {"family": "scaled_ground_state", "params": {"mass_fraction": 0.64}},
    "run": {"dt": 2e-3, "T_end": 0.2, "grad_threshold": 100.0, "record_stride": 10},
})


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    n_traj: int
    workers: int
    persist: bool
    setup_reps: int     # materialize calls timed per round
    compare_reps: int   # compare calls timed per round


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("drift-add-1d", get_preset("add-mass-drift"), n_traj=1000, workers=2,
                 persist=True, setup_reps=50, compare_reps=100),
        Workload("blowup-mult-1d", get_preset("blowup-mult"), n_traj=2, workers=1,
                 persist=False, setup_reps=50, compare_reps=100),
        Workload("mult-3d-32", MULT_3D_32, n_traj=1, workers=1,
                 persist=False, setup_reps=1, compare_reps=1),
    )
}


@dataclass
class Round:
    setup: list         # (start, end) perf_counter pairs, one per materialize call
    ensemble: tuple     # (start, end) of run_ensemble
    compare: list       # (start, end), one per comparison
    n_traj: int
    sim_time: float
    failed_traj: int
    persisted_bytes: int
    summary_json: str
    checks: dict        # check name -> (passed, detail)

    def times(self, measure=lambda start, end: end - start):
        """(setup, ensemble, compare, wall) seconds, each interval through ``measure``.

        wall is the time to a checked summary: median setup + ensemble + median
        comparison.
        """
        setup = [measure(*iv) for iv in self.setup]
        ens = measure(*self.ensemble)
        compare = [measure(*iv) for iv in self.compare]
        return setup, ens, compare, statistics.median(setup) + ens + statistics.median(compare)


def _compare(wl, objs, summary):
    """build_theory_report + drift checks + compare_with_theory, as the CLI does."""
    grid, gs, sim, cov, init, _ = objs
    rep = report.build_theory_report(wl.config, gs=gs)
    drift = []
    if sim.noise_type == "additive" and cov is not None and "mass" in summary.mean_paths:
        nc = noise_model.noise_constants(cov, grid, sim.sigma)
        rng = noise_model.make_rng(summary.master_seed, 0) if init.is_random else None
        u0 = initial_data.build_initial_data(init, grid, gs, rng)
        drift.append(ensemble.mass_drift_check(summary, grid_mod.mass(u0), nc.hs00))
    return ensemble.compare_with_theory(summary, rep, drift_checks=drift), drift


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _timed(fn, reps, after):
    """(last result, [(start, end)] of each of ``reps`` calls); ``after()`` follows each."""
    intervals = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        intervals.append((t0, time.perf_counter()))
        after()
    return out, intervals


def run_round(wl: Workload, seed: int, scratch: str, workers: int | None = None,
              reps: int | None = None, after=lambda: None) -> Round:
    """One config -> checked-summary round with ``master_seed = seed``.

    Setup and comparison are repeated (``reps`` overrides both counts), and
    ``after()`` runs after each timed call, outside its interval.
    """
    objs, setup = _timed(lambda: cli.materialize(wl.config), reps or wl.setup_reps, after)
    grid, gs, sim, cov, init, chash = objs
    ecfg = ensemble.EnsembleConfig(
        n_traj=wl.n_traj, master_seed=seed, trajectory=sim, grid=grid,
        initial_data=init, covariance=cov, ground_state=gs,
        parallel_workers=workers or wl.workers, config_hash=chash)
    out_dir = tempfile.mkdtemp(prefix="persist-", dir=scratch) if wl.persist else None
    try:
        (summary, records), (ens,) = _timed(
            lambda: ensemble.run_ensemble(ecfg, out_dir=out_dir), 1, after)
        (verdicts, drift), compare = _timed(
            lambda: _compare(wl, objs, summary), reps or wl.compare_reps, after)
        persisted = _dir_bytes(out_dir) if out_dir else 0
    finally:
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
    summary.theory_comparison = verdicts
    return Round(
        setup=setup, ensemble=ens, compare=compare,
        n_traj=len(records), sim_time=sum(r.status.time for r in records),
        failed_traj=sum(r.status.kind == "failed" for r in records),
        persisted_bytes=persisted,
        summary_json=json.dumps(summary.to_dict(), sort_keys=True, default=_plain),
        checks=check_outputs(wl, records, verdicts, drift, gs),
    )


def _plain(v):
    if hasattr(v, "item"):
        return v.item()
    if hasattr(v, "tolist"):
        return v.tolist()
    return str(v)


def check_outputs(wl, records, verdicts, drift, gs) -> dict:
    """Per-workload output checks: name -> (passed, detail)."""
    violated = [v["bound"] for v in verdicts if v.get("verdict") == "violated"]
    checks = {"no_violated_verdict": (not violated, f"violated: {violated}")}
    if wl.name == "drift-add-1d":
        failed = sum(r.status.kind == "failed" for r in records)
        checks["no_failed_trajectories"] = (failed == 0, f"{failed} failed")
        z = max(d["z_max"] for d in drift) if drift else float("inf")
        checks["mass_drift_z_max"] = (z <= MASS_DRIFT_Z_MAX, f"z_max {z:.3f}")
    elif wl.name == "blowup-mult-1d":
        kinds = sorted({r.status.kind for r in records})
        checks["all_blownup"] = (kinds == ["blownup"], f"kinds {kinds}")
        ref = BLOWUP_MULT_REFERENCE_TIME
        times = [r.status.time for r in records]
        worst = max(abs(t - ref) / ref for t in times)
        checks["blowup_time_vs_reference"] = (
            worst <= BLOWUP_TIME_TOLERANCE, f"max relative deviation {worst:.4f} from {ref}")
    elif wl.name == "mult-3d-32":
        drift_max = max(
            max(abs(s.mass / r.samples[0].mass - 1.0) for s in r.samples) for r in records)
        checks["mass_conservation"] = (drift_max <= MASS_CONSERVATION_REL,
                                       f"max relative mass drift {drift_max:.2e}")
        pk = max(gs.pokhozhaev_residuals())
        checks["pokhozhaev"] = (pk <= POKHOZHAEV_MAX, f"max residual {pk:.2e}")
    return checks
