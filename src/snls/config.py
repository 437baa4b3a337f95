"""Experiment configuration: one JSON document describing a whole run.

The file round-trips losslessly (parse -> serialize -> parse is the identity
on the canonical form) and its SHA-256 hash is embedded in every output the
run produces.  All numbers are nondimensional, matching the equations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dynamics import AdaptSpec, SimConfig, StoppingThresholds
from .ensemble import EnsembleConfig
from .grid import GridSpec
from .ground_state import GroundState, solve_ground_state
from .initial_data import FAMILY_PARAMS, InitialData
from .noise_model import CovarianceSpec, gaussian_spectrum_amplitudes

__all__ = ["ExperimentConfig", "config_hash", "materialize", "ensemble_config",
           "load_config", "dump_config"]

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    grid: dict          # {dim, extent, points, dealias_fraction}
    physics: dict       # {n, sigma, noise_type}
    covariance: dict    # {kind, amplitudes | kernel profile, scale, ...}
    initial_data: dict  # {family, params}
    run: dict           # {dt, T_end, grad_threshold, record_stride, adapt, thresholds, ...}
    ensemble: dict = field(default_factory=dict)  # {n_traj, master_seed}
    output: dict = field(default_factory=dict)    # {gzip}
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        """The config document, deep-copied: editing it leaves this config alone."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {"schema_version", "name", "grid", "physics", "covariance",
                 "initial_data", "run", "ensemble", "output"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config sections: {sorted(extra)}")
        cfg = cls(
            name=d.get("name", "unnamed"),
            grid=dict(d["grid"]),
            physics=dict(d["physics"]),
            covariance=dict(d.get("covariance", {"kind": "none"})),
            initial_data=dict(d["initial_data"]),
            run=dict(d["run"]),
            ensemble=dict(d.get("ensemble", {})),
            output=dict(d.get("output", {})),
            schema_version=int(d.get("schema_version", SCHEMA_VERSION)),
        )
        for name, known_keys in _SECTION_KEYS.items():
            _reject_unknown(name, getattr(cfg, name), known_keys)
        family = cfg.initial_data.get("family")
        if family not in FAMILY_PARAMS:
            raise ValueError(f"unknown initial-data family {family!r}")
        _reject_unknown("initial_data.params", cfg.initial_data.get("params", {}),
                        FAMILY_PARAMS[family])
        cfg.build_sim_config()  # checks the run keys and cross-field constraints
        return cfg

    # --- builders -------------------------------------------------------

    def build_grid(self) -> GridSpec:
        g = self.grid
        return GridSpec(
            dim=int(g["dim"]),
            extent=g["extent"],
            points=g["points"],
            dealias_fraction=float(g.get("dealias_fraction", 2.0 / 3.0)),
        )

    def build_covariance(self) -> CovarianceSpec | None:
        c = self.covariance
        kind = c.get("kind", "none")
        if kind in ("none", None) or self.physics.get("noise_type", "none") == "none":
            return None
        scale = float(c.get("scale", 1.0))
        if kind == "fourier_diagonal":
            amps = {_parse_mode(k): float(v) for k, v in c["amplitudes"].items()}
            return CovarianceSpec("fourier_diagonal", amps, scale=scale)
        if kind == "gaussian_spectrum":
            grid = self.build_grid()
            amps = gaussian_spectrum_amplitudes(
                grid, float(c["strength"]), float(c["width"]), int(c["k_max"]))
            return CovarianceSpec("fourier_diagonal", amps, scale=scale)
        if kind == "physical_kernel":
            grid = self.build_grid()
            kern = _build_kernel(grid, c)
            return CovarianceSpec("physical_kernel", kernel=kern, scale=scale)
        raise ValueError(f"unknown covariance kind {kind!r}")

    def build_sim_config(self, gs_refs: GroundState | None = None) -> SimConfig:
        r = self.run
        _reject_unknown("run", r, _RUN_KEYS)
        th = r.get("thresholds", {})
        _reject_unknown("run.thresholds", th, _THRESHOLD_KEYS)
        a = r.get("adapt") or {}
        _reject_unknown("run.adapt", a, _ADAPT_KEYS)
        adapt = None
        if a and a.get("enabled", True):
            adapt = AdaptSpec(growth_factor=float(a.get("growth_factor", 2.0)),
                              dt_min=float(a.get("dt_min", 1e-6)))
        return SimConfig(
            n=int(self.physics["n"]),
            sigma=float(self.physics["sigma"]),
            noise_type=self.physics.get("noise_type", "none"),
            dt0=float(r["dt"]),
            T_end=float(r["T_end"]),
            grad_threshold=float(r.get("grad_threshold", 1e3)),
            record_stride=int(r.get("record_stride", 1)),
            adapt=adapt,
            thresholds=StoppingThresholds(**th),
            gs_refs=gs_refs,
            tail_fraction_max=float(r.get("tail_fraction_max", 0.10)),
            allow_conditional_regime=bool(r.get("allow_conditional_regime", False)),
        )

    def build_initial_data(self) -> InitialData:
        return InitialData.from_dict(self.initial_data)


_SECTION_KEYS = {
    "grid": frozenset({"dim", "extent", "points", "dealias_fraction"}),
    "physics": frozenset({"n", "sigma", "noise_type"}),
    "covariance": frozenset({"kind", "scale", "amplitudes", "strength", "width", "k_max",
                             "profile", "amplitude"}),
    "initial_data": frozenset({"family", "params"}),
    "ensemble": frozenset({"n_traj", "master_seed"}),
    "output": frozenset({"gzip"}),
}
_RUN_KEYS = frozenset({"dt", "T_end", "grad_threshold", "record_stride", "adapt", "thresholds",
                       "tail_fraction_max", "allow_conditional_regime"})
_ADAPT_KEYS = frozenset({"enabled", "growth_factor", "dt_min"})
_THRESHOLD_KEYS = frozenset(f.name for f in fields(StoppingThresholds))


def _reject_unknown(where: str, section: dict, known: frozenset):
    extra = section.keys() - known
    if extra:
        raise ValueError(f"unknown keys in {where}: {sorted(extra)}")


def _parse_mode(key: str):
    if isinstance(key, (int, np.integer)):
        return (int(key),)
    parts = str(key).replace("(", "").replace(")", "").split(",")
    return tuple(int(p) for p in parts if p.strip() != "")


def _build_kernel(grid: GridSpec, c: dict) -> np.ndarray:
    prof = c.get("profile", "gaussian")
    if prof != "gaussian":
        raise ValueError(f"unknown kernel profile {prof!r}")
    width = float(c["width"])
    amp = float(c.get("amplitude", 1.0))
    return amp * np.exp(-grid.radius_sq / (2.0 * width**2))


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(vars(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def materialize(cfg: ExperimentConfig):
    """Build (grid, gs, sim_config, covariance, initial_data, hash) from a config."""
    grid = cfg.build_grid()
    n, sigma = int(cfg.physics["n"]), float(cfg.physics["sigma"])
    gs = solve_ground_state(n, sigma)
    sim = cfg.build_sim_config(gs)
    cov = cfg.build_covariance()
    init = cfg.build_initial_data()
    return grid, gs, sim, cov, init, config_hash(cfg)


def ensemble_config(cfg: ExperimentConfig, n_traj: int | None = None,
                    master_seed: int | None = None, workers: int = 1) -> EnsembleConfig:
    """The runnable ensemble of a config.

    n_traj and master_seed default to the config's `ensemble` section, and
    then to 100 trajectories and seed 0.
    """
    grid, gs, sim, cov, init, chash = materialize(cfg)
    e = cfg.ensemble
    return EnsembleConfig(
        n_traj=n_traj if n_traj is not None else int(e.get("n_traj", 100)),
        master_seed=master_seed if master_seed is not None else int(e.get("master_seed", 0)),
        trajectory=sim, grid=grid, initial_data=init, covariance=cov,
        ground_state=gs, parallel_workers=workers, config_hash=chash,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def dump_config(cfg: ExperimentConfig, path: str):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
