"""Monte Carlo harness over independent trajectories.

Per-trajectory randomness comes from a counter-based stream keyed by
(master_seed, index), so the summary is bitwise independent of the worker
count and schedule: workers may finish in any order, but aggregation always
walks the records in index order.  A worker advances the trajectories of its
chunk of indices together as rows of one dynamics.Trajectory, and writes
their record files itself when the run persists them.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import STOPPING_TIME_NAMES, SimConfig, Trajectory, tracker_rows
from .grid import GridSpec, mass
from .ground_state import GroundState
from .initial_data import InitialData, initial_state
from .noise_model import CovarianceSpec, NoiseConstants, NoiseSampler
from .observables import SAMPLE_KEYS, observe
from .schema import plain

__all__ = [
    "EnsembleConfig",
    "EnsembleSummary",
    "run_ensemble",
    "estimate_survival",
    "wilson_interval",
    "hitting_time_stats",
    "compare_with_theory",
    "mass_drift_check",
    "energy_drift_check",
    "drift_check",
    "persist_records",
]

Z95 = 1.959963984540054
BATCH_BYTES = 2**21  # field values per array of one batch of rows


@dataclass(frozen=True)
class EnsembleConfig:
    n_traj: int
    master_seed: int
    trajectory: SimConfig
    grid: GridSpec
    initial_data: InitialData
    covariance: CovarianceSpec | None = None
    ground_state: GroundState | None = None
    parallel_workers: int = 1
    config_hash: str | None = None

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if self.parallel_workers < 1:
            raise ValueError("parallel_workers must be >= 1")


def wilson_interval(successes: int, n: int, z: float = Z95):
    """Wilson 95% score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    return max(0.0, center - half), min(1.0, center + half)


def estimate_survival(records, T: float):
    """(p_hat, (lo, hi)) for P(trajectory alive beyond T)."""
    if not records:
        raise ValueError("no records")
    n = len(records)
    k = 0
    for r in records:
        st = r.status
        alive = st.kind == "survived" or (st.kind in ("blownup", "failed") and st.time > T)
        k += bool(alive)
    return k / n, wilson_interval(k, n)


def hitting_time_stats(records, name: str, T_end: float, tracked: bool = True):
    """Censored statistics of one stopping time across the ensemble.

    tracked is False when the config enables no tracker for the stopping
    time; every path then counts as censored, which says nothing about it.
    """
    hits = [r.hit_times.get(name) for r in records]
    censored = sum(h is None for h in hits)
    vals = np.array([T_end if h is None else min(h, T_end) for h in hits], dtype=float)
    return {
        "name": name,
        "tracked": tracked,
        "censored_count": int(censored),
        "n": len(hits),
        "mean_censored": float(vals.mean()),
        "second_moment_censored": float(np.mean(vals**2)),
    }


@dataclass
class EnsembleSummary:
    n_traj: int
    master_seed: int
    survival_prob: float
    survival_interval: tuple
    survival_horizon: float
    blowup_fraction: float
    blowup_interval: tuple
    failed_count: int
    usable: bool
    hitting_times: dict
    mean_paths: dict          # observable -> {"t", "mean", "se", "n_alive"}
    theory_comparison: list = field(default_factory=list)
    config_hash: str | None = None

    def to_dict(self):
        return plain(self)


def _run_chunk(cfg: EnsembleConfig, indices, out_dir: str | None = None,
               compress: bool = False) -> list:
    """The trajectories of one chunk, advanced as batches of rows.

    A batch holds at most BATCH_BYTES of field values per array; a row's record
    does not depend on the batch it runs in.  With out_dir set the chunk
    persists its own records, so the encoding runs in the worker.
    """
    sampler = None  # one per chunk: it depends only on (covariance, grid)
    if cfg.trajectory.noise_type != "none" and cfg.covariance is not None:
        sampler = NoiseSampler(cfg.covariance, cfg.grid)
    rows = max(1, BATCH_BYTES // (16 * cfg.grid.total_points))
    records = []
    for first in range(0, len(indices), rows):
        batch = indices[first:first + rows]
        u0s = [initial_state(cfg.initial_data, cfg.grid, cfg.ground_state, cfg.master_seed, i)
               for i in batch]
        path = Trajectory(cfg.trajectory, u0s, cfg.covariance,
                          [(cfg.master_seed, i) for i in batch], sampler)
        while path.advance():
            pass
        records += path.records()
    for rec in records:
        rec.config_hash = cfg.config_hash
    if out_dir is not None:
        persist_records(records, out_dir, compress, start=indices[0])
    return records


def _mean_paths(records):
    done = [r for r in records if len(r.values)]
    if not done:
        return {}
    n_common = min(len(r.values) for r in done)
    cube = np.array([r.values[:n_common] for r in done])  # (trajectory, sample, observable)
    t = cube[0, :, 0].copy()
    out = {}
    for j, key in enumerate(SAMPLE_KEYS[1:], start=1):
        stack = np.ascontiguousarray(cube[:, :, j])
        mean = stack.mean(axis=0)
        se = (stack.std(axis=0, ddof=1) / math.sqrt(len(done))
              if len(done) > 1 else np.zeros(n_common))
        out[key] = {"t": t, "mean": mean, "se": se, "n_alive": len(done)}
    return out


def persist_records(records, out_dir: str, compress: bool = False, start: int = 0):
    """One JSON-lines file per trajectory (samples), plus a terminal summary line.

    The files are numbered from start, the index of the first record.
    """
    os.makedirs(out_dir, exist_ok=True)
    for i, rec in enumerate(records, start):
        path = os.path.join(out_dir, f"traj_{i:05d}.jsonl" + (".gz" if compress else ""))
        opener = gzip.open if compress else open
        with opener(path, "wt") as fh:
            for row in rec.values.tolist():
                fh.write(json.dumps(dict(zip(SAMPLE_KEYS, row))) + "\n")
            fh.write(json.dumps({"terminal": rec.to_summary_dict()}) + "\n")


def run_ensemble(cfg: EnsembleConfig, out_dir: str | None = None,
                 compress: bool = False) -> tuple:
    """Run all trajectories; returns (summary, records)."""
    indices = range(cfg.n_traj)
    if cfg.parallel_workers > 1 and cfg.n_traj > 1:
        size = max(1, cfg.n_traj // (4 * cfg.parallel_workers))
        chunks = [indices[i:i + size] for i in range(0, cfg.n_traj, size)]
        with ProcessPoolExecutor(max_workers=cfg.parallel_workers) as pool:
            records = [rec for done in pool.map(_run_chunk, [cfg] * len(chunks), chunks,
                                                [out_dir] * len(chunks),
                                                [compress] * len(chunks))
                       for rec in done]
    else:
        records = _run_chunk(cfg, indices, out_dir, compress)

    T = cfg.trajectory.T_end
    p_surv, ci_surv = estimate_survival(records, T * (1 - 1e-12))
    k_blow = sum(r.status.kind == "blownup" for r in records)
    failed = sum(r.status.kind == "failed" for r in records)
    p_blow = k_blow / cfg.n_traj
    ci_blow = wilson_interval(k_blow, cfg.n_traj)
    tracked = {row[0] for row in tracker_rows(cfg.trajectory)}
    hstats = {name: hitting_time_stats(records, name, T, name in tracked)
              for name in STOPPING_TIME_NAMES}
    summary = EnsembleSummary(
        n_traj=cfg.n_traj, master_seed=cfg.master_seed,
        survival_prob=p_surv, survival_interval=ci_surv, survival_horizon=T,
        blowup_fraction=p_blow, blowup_interval=ci_blow,
        failed_count=failed, usable=failed <= 0.2 * cfg.n_traj,
        hitting_times=hstats, mean_paths=_mean_paths(records),
        config_hash=cfg.config_hash,
    )
    return summary, records


def _verdict_positive_probability(name, frac, bound):
    if frac > 0.0:
        return {"bound": name, "theoretical": bound, "empirical": frac,
                "verdict": "consistent"}
    return {"bound": name, "theoretical": bound, "empirical": frac,
            "verdict": "inconclusive",
            "note": "positive probability may be below the resolution of this sample"}


def compare_with_theory(summary: EnsembleSummary, report, T: float | None = None,
                        drift_checks: list | None = None) -> list:
    """One-sided consistency verdicts between an ensemble and a TheoryReport.

    A check may only return 'violated' when the empirical confidence interval
    excludes the theoretical bound entirely on its forbidden side; positive
    probability claims can never be violated, only 'inconclusive'.  The
    E(tau_delta) verdict reads the first of tau_delta_energy and
    tau_delta_mass that the ensemble tracked, and is left out if neither was.
    """
    if summary.config_hash != report.config_hash:
        raise ValueError("configuration hash mismatch between summary and report")
    verdicts = []
    if T is None:
        T = summary.survival_horizon

    t_star = report.T_star_mult if report.T_star_mult is not None else report.T_star_add_crit
    if t_star is not None and T < t_star:
        verdicts.append(_verdict_positive_probability(
            "survival P(tau* > T) > 0 for T < T*", summary.survival_prob, t_star))

    if t_star is not None and math.isfinite(t_star):
        name = next((name for name in ("tau_delta_energy", "tau_delta_mass")
                     if summary.hitting_times.get(name, {}).get("tracked")), None)
        if name is not None:
            hs = summary.hitting_times[name]
            mean_c = hs["mean_censored"]
            n = hs["n"]
            if hs["censored_count"] == 0 and n > 1:
                se = math.sqrt(max(hs["second_moment_censored"] - mean_c**2, 0.0) / n)
                if mean_c + 3.0 * se < t_star:
                    v = "violated"
                else:
                    v = "consistent" if mean_c >= t_star else "inconclusive"
            else:
                v = "consistent" if mean_c >= t_star else "inconclusive"
            verdicts.append({"bound": "E(tau_delta) >= T* (censored)", "stopping_time": name,
                             "theoretical": t_star, "empirical": mean_c,
                             "censored_count": hs["censored_count"], "verdict": v})

    ledger = report.blowup_multiplicative or report.blowup_additive
    if ledger is not None:
        if ledger.satisfied:
            verdicts.append(_verdict_positive_probability(
                "blow-up P(tau* <= T) > 0 under satisfied sufficient conditions",
                summary.blowup_fraction, 0.0))
        else:
            verdicts.append({"bound": "blow-up sufficient conditions",
                             "theoretical": None, "empirical": summary.blowup_fraction,
                             "verdict": "inconclusive",
                             "note": "sufficient-condition ledger not satisfied"})

    for chk in drift_checks or []:
        z = abs(chk["z_max"])
        verdicts.append({"bound": chk["name"], "theoretical": chk.get("theoretical"),
                         "empirical": chk.get("empirical"), "z_max": chk["z_max"],
                         "verdict": "consistent" if z <= 3.0 else "violated"})
    return verdicts


def _drift_z(name: str, t, mean, se, predicted, checkpoints: int) -> dict:
    """z statistics of a mean path against its predicted values at checkpoints."""
    idx = np.unique(np.linspace(1, len(t) - 1, checkpoints).astype(int))
    zs = [(mean[i] - predicted[i]) / (se[i] if se[i] > 0 else 1e-300) for i in idx]
    return {"name": name, "z_scores": [float(z) for z in zs],
            "z_max": float(np.max(np.abs(zs))),
            "theoretical": float(predicted[idx[-1]]),
            "empirical": float(mean[idx[-1]]),
            "times": [float(t[i]) for i in idx]}


def mass_drift_check(summary: EnsembleSummary, m0: float, hs00: float,
                     checkpoints: int = 5) -> dict:
    """z statistics of mean M(t) against the additive drift law M(u0) + t hs00."""
    paths = summary.mean_paths["mass"]
    t = paths["t"]
    return _drift_z("additive mass drift E M(t) = M(u0) + t hs00", t, paths["mean"],
                    paths["se"], m0 + t * hs00, checkpoints)


def energy_drift_check(summary: EnsembleSummary, h0: float, f1_const: float,
                       checkpoints: int = 3) -> dict:
    """z statistics of mean H(t) against H(u0) + (1/2) int E int |u|^2 f1_phi.

    For spectrally diagonal covariances f1_phi is spatially constant, so the
    correction integrand is f1_const * M(s) with M recorded along the path;
    the time integral is taken by the trapezoid rule on the recorded grid.
    """
    paths = summary.mean_paths["energy"]
    t = paths["t"]
    mean_m = summary.mean_paths["mass"]["mean"]
    corr = np.concatenate(([0.0], np.cumsum(
        0.5 * (mean_m[1:] + mean_m[:-1]) * np.diff(t)))) * 0.5 * f1_const
    return _drift_z("multiplicative energy drift E H(t) = H(u0) + (1/2) int E|u|^2 f1",
                    t, paths["mean"], paths["se"], h0 + corr, checkpoints)


def drift_check(summary: EnsembleSummary, cfg: EnsembleConfig, nc: NoiseConstants) -> dict:
    """The drift law of the ensemble's noise type, checked on its mean paths.

    u0 is trajectory 0's initial state.  Additive noise checks the mass law
    with hs00; multiplicative noise checks the energy law with f1_phi, which
    is spatially constant for diagonal covariances.
    """
    u0 = initial_state(cfg.initial_data, cfg.grid, cfg.ground_state, cfg.master_seed, 0)
    noise_type = cfg.trajectory.noise_type
    if noise_type == "additive":
        return mass_drift_check(summary, mass(u0), nc.hs00)
    if noise_type == "multiplicative":
        h0 = observe(u0, 0.0, mass(u0), 0.0, cfg.trajectory.sigma).energy
        return energy_drift_check(summary, h0, float(nc.f1_phi.flat[0]))
    raise ValueError(f"no drift law for noise_type {noise_type!r}")
