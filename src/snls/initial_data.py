"""Initial-data families used by the experiment presets.

Families: scaled ground state c*Q, boosted ground state Q e^{i x.xi0}, a
Gaussian bump, the zero field, c*Q with random c, and Q plus a small random
band-limited field.  Random families draw from a stream keyed by the path
(initial_state), so ensembles stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import FieldState, GridSpec
from .ground_state import GroundState
from .noise_model import make_rng

__all__ = ["InitialData", "FAMILY_PARAMS", "build_initial_data", "initial_state",
           "ground_state_field", "scale_coefficient", "boost_vector", "coefficient_dist"]

# The params each family reads; ExperimentConfig.from_dict rejects any other key.
FAMILY_PARAMS = {
    "zero": frozenset(),
    "scaled_ground_state": frozenset({"mass_fraction", "c"}),
    "boosted_ground_state": frozenset({"mass_fraction", "c", "boost"}),
    "gaussian_bump": frozenset({"amplitude", "width"}),
    "random_scaled_ground_state": frozenset({"c_dist"}),
    "ground_state_plus_field": frozenset({"amplitude", "k_max"}),
}


def ground_state_field(gs: GroundState, grid: GridSpec) -> FieldState:
    """Sample Q(|x|) on the grid; the tail is extended by the e^{-r} asymptotics."""
    if grid.dim != gs.n:
        raise ValueError("grid dimension must match the ground-state dimension")
    r = np.sqrt(grid.radius_sq)
    return FieldState(grid, gs.profile_at(r))


@dataclass(frozen=True)
class InitialData:
    """Config-level descriptor of the u(0) family.

    family: one of zero | scaled_ground_state | boosted_ground_state |
    gaussian_bump | random_scaled_ground_state | ground_state_plus_field.
    params: family-specific scalars (see build_initial_data).
    """

    family: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d):
        return cls(family=d["family"], params=dict(d.get("params", {})))

    @property
    def is_random(self) -> bool:
        return self.family in ("random_scaled_ground_state", "ground_state_plus_field")


def scale_coefficient(params) -> float:
    """c of c*Q: sqrt(mass_fraction), so M(u0) = mass_fraction M(Q), else c (default 1)."""
    if "mass_fraction" in params:
        return math.sqrt(float(params["mass_fraction"]))
    return float(params.get("c", 1.0))


def boost_vector(params, dim: int) -> tuple:
    """xi0 of the boosted family; a scalar boost applies along every axis."""
    xi0 = params.get("boost", 0.0)
    return (float(xi0),) * dim if np.isscalar(xi0) else tuple(float(v) for v in xi0)


def coefficient_dist(params) -> dict:
    """The law of c for random c*Q (default U[0.5, 0.9])."""
    return params.get("c_dist", {"kind": "uniform", "lo": 0.5, "hi": 0.9})


def _scaled_q(grid, gs, c):
    base = ground_state_field(gs, grid)
    return base.with_values(c * base.values)


def build_initial_data(desc: InitialData, grid: GridSpec, gs: GroundState | None,
                       rng: np.random.Generator | None = None) -> FieldState:
    """Materialize the described initial state on the grid."""
    fam = desc.family
    p = desc.params
    if fam == "zero":
        return FieldState(grid, np.zeros(grid.shape, dtype=complex))
    if fam == "gaussian_bump":
        amp = float(p.get("amplitude", 1.0))
        width = float(p.get("width", 1.0))
        vals = amp * np.exp(-grid.radius_sq / (2.0 * width**2))
        return FieldState(grid, vals.astype(complex))
    if gs is None:
        raise ValueError(f"family {fam!r} needs a ground state")
    if fam == "scaled_ground_state":
        return _scaled_q(grid, gs, scale_coefficient(p))
    if fam == "boosted_ground_state":
        base = _scaled_q(grid, gs, scale_coefficient(p))
        phase = np.zeros(grid.shape)
        for c, x in zip(boost_vector(p, grid.dim), grid.coords):
            phase = phase + c * x
        return base.with_values(base.values * np.exp(1j * phase))
    if fam == "random_scaled_ground_state":
        if rng is None:
            raise ValueError("random family needs an rng")
        return _scaled_q(grid, gs, _draw_coefficient(coefficient_dist(p), rng))
    if fam == "ground_state_plus_field":
        if rng is None:
            raise ValueError("random family needs an rng")
        base = ground_state_field(gs, grid)
        eps = float(p.get("amplitude", 0.05))
        k_max = int(p.get("k_max", 2))
        vals = np.array(base.values)
        for mode in _low_modes(grid, k_max):
            g_re, g_im = rng.standard_normal(2)
            phase = np.zeros(grid.shape)
            for m, x, L in zip(mode, grid.coords, grid.extent):
                phase = phase + 2.0 * np.pi * m / L * x
            vals = vals + eps * (g_re * np.cos(phase) + g_im * np.sin(phase))
        return base.with_values(vals)
    raise ValueError(f"unknown initial-data family {fam!r}")


def initial_state(desc: InitialData, grid: GridSpec, gs: GroundState | None,
                  master_seed: int, index: int) -> FieldState:
    """u(0) of path `index` of an ensemble keyed by master_seed.

    A random family draws from the Philox stream of (master_seed, index)
    jumped once, 2^128 draws ahead of the path's noise stream (the same
    stream, not jumped), so u(0) and the noise never share draws.
    """
    rng = None
    if desc.is_random:
        rng = np.random.Generator(make_rng(master_seed, index).bit_generator.jumped())
    return build_initial_data(desc, grid, gs, rng)


def _low_modes(grid, k_max):
    modes = []
    for idx in np.ndindex(*[2 * k_max + 1] * grid.dim):
        m = tuple(i - k_max for i in idx)
        if any(c > 0 for c in m) or all(c == 0 for c in m):
            modes.append(m)
    return modes


def _draw_coefficient(dist, rng):
    kind = dist.get("kind", "uniform")
    if kind == "uniform":
        return float(rng.uniform(dist["lo"], dist["hi"]))
    if kind == "lognormal":
        return float(rng.lognormal(dist.get("mu", 0.0), dist.get("sigma", 0.1)))
    raise ValueError(f"unknown coefficient distribution {kind!r}")


def coefficient_moment(dist, q: float) -> float:
    """E(c^q) for the declared scalar distribution, in closed form."""
    kind = dist.get("kind", "uniform")
    if kind == "uniform":
        lo, hi = float(dist["lo"]), float(dist["hi"])
        return (hi ** (q + 1.0) - lo ** (q + 1.0)) / ((q + 1.0) * (hi - lo))
    if kind == "lognormal":
        mu, s = float(dist.get("mu", 0.0)), float(dist.get("sigma", 0.1))
        return float(np.exp(q * mu + 0.5 * q**2 * s**2))
    raise ValueError(f"unknown coefficient distribution {kind!r}")
