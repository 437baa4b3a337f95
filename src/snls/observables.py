"""Scalar functionals of the field and the deterministic dichotomy classifier."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .grid import (
    FieldState,
    GridSpec,
    _require_finite,
    abs2_power,
    boundary_mass_fraction,
    gradient_norm_sq,
    ifft_field,
    mass,
    weighted_variance_quadrature,
)
from .ground_state import GroundState

__all__ = ["ObservableSample", "SAMPLE_KEYS", "sample_values", "observe", "momentum",
           "classify_dichotomy", "DichotomyReport"]


@dataclass(frozen=True)
class ObservableSample:
    t: float
    mass: float                     # M(u)
    energy: float                   # H(u)
    grad_sq: float                  # ||grad u||^2
    lp2s2: float                    # ||u||_{2 sigma + 2}^{2 sigma + 2}
    variance: float                 # V(u) = int |x|^2 |u|^2
    momentum: float                 # G(u) = Im int u x.grad(conj u)
    X: float                        # ||grad u|| * M(u0)^(alpha/2)
    me_product: float               # H(u) * (frozen initial mass)^alpha
    boundary_mass_fraction: float

    def to_dict(self):
        return {
            "t": self.t, "mass": self.mass, "energy": self.energy,
            "grad_sq": self.grad_sq, "lp2s2": self.lp2s2,
            "variance": self.variance, "momentum": self.momentum,
            "X": self.X, "me_product": self.me_product,
            "boundary_mass_fraction": self.boundary_mass_fraction,
        }


SAMPLE_KEYS = tuple(f.name for f in fields(ObservableSample))  # the to_dict keys, in order
sample_values = operator.attrgetter(*SAMPLE_KEYS)  # one sample -> tuple in SAMPLE_KEYS order


@lru_cache(maxsize=16)
def _i_xi(grid: GridSpec, axis: int) -> np.ndarray:
    """i xi along one axis, shaped to broadcast against the grid."""
    shape = [1] * grid.dim
    shape[axis] = grid.points[axis]
    ixi = 1j * grid.wavenumbers[axis].reshape(shape)
    ixi.flags.writeable = False
    return ixi


def momentum(state: FieldState) -> float:
    """G(u) = Im int u (x . grad conj(u)) dx, derivatives taken spectrally.

    One inverse FFT per axis; Im(u conj(du)) is read off conj(du) u, formed
    in the transform's own buffer.
    """
    g = state.grid
    uh = state.spectral
    acc = 0.0
    for axis in range(g.dim):
        du = ifft_field(_i_xi(g, axis) * uh)
        np.conjugate(du, out=du)
        du *= state.values
        acc += (g.coords[axis] * du.imag).sum()
    return float(g.cell_volume * acc)


def observe(u: FieldState, t: float, m0: float, alpha: float, sigma: float) -> ObservableSample:
    """All recorded scalars at time t.

    m0 is the frozen initial mass entering me_product = H * m0^alpha and
    X = ||grad u|| * m0^(alpha/2).  Pass alpha = 0 in the mass-critical case,
    which makes X the plain gradient norm.

    One record costs one |u|^2, which serves the mass, lp2s2 = h sum |u|^2
    |u|^(2 sigma) (repeated products for an integer sigma, see abs2_power),
    the variance and the boundary fraction; one FFT and one |uhat|^2, cached
    on u and shared with spectral_tail_fraction; and one inverse FFT per axis
    for the momentum.  The finiteness check rides on the mass sum: the full
    scan runs only when that sum is not finite.
    """
    g = u.grid
    h = g.cell_volume
    abs2 = u.values.real**2 + u.values.imag**2
    total = abs2.sum()
    if not math.isfinite(total):  # a non-finite field, or |u|^2 overflowed
        _require_finite(u)
    m = float(h * total)
    p = 2.0 * sigma + 2.0
    lp2s2 = float(h * (abs2 * abs2_power(abs2, sigma)).sum())
    grad_sq = gradient_norm_sq(u)
    energy = 0.5 * grad_sq - lp2s2 / p
    X = math.sqrt(grad_sq) * m0 ** (alpha / 2.0)
    return ObservableSample(
        t=float(t), mass=m, energy=energy, grad_sq=grad_sq, lp2s2=lp2s2,
        variance=weighted_variance_quadrature(g, abs2), momentum=momentum(u),
        X=X, me_product=energy * m0**alpha,
        boundary_mass_fraction=boundary_mass_fraction(g, abs2, total),
    )


@dataclass(frozen=True)
class DichotomyReport:
    regime: str            # global-side | blow-up-side | above-threshold | boundary
    s_c: float
    mass_ratio: float      # M(u0) / M(Q)
    beta: float | None     # H(u0) M(u0)^alpha / (H(Q) M(Q)^alpha), intercritical
    delta0: float | None   # X(0) / x*, intercritical


def classify_dichotomy(u0: FieldState, gs: GroundState, rel_tol: float = 1e-9) -> DichotomyReport:
    """Place u0 relative to the ground-state thresholds.

    Mass-critical (s_c = 0): compare M(u0) against M(Q).  Intercritical: use
    the scale-invariant pair (H M^alpha, ||grad u|| ||u||^alpha) against the
    values at Q.
    """
    if not 0.0 <= gs.s_c < 1.0:
        raise ValueError("classifier needs 0 <= s_c < 1")
    sample = observe(u0, 0.0, mass(u0), gs.alpha or 0.0, gs.sigma)
    m = sample.mass
    ratio = m / gs.mass
    if abs(gs.s_c) < 1e-12:
        if abs(ratio - 1.0) <= rel_tol:
            regime = "boundary"
        elif ratio < 1.0:
            regime = "global-side"
        else:
            regime = "above-threshold"
        return DichotomyReport(regime, gs.s_c, ratio, None, None)
    beta = sample.energy * m**gs.alpha / gs.me_threshold
    delta0 = sample.X / gs.x_star
    if abs(beta - 1.0) <= rel_tol and abs(delta0 - 1.0) <= rel_tol:
        regime = "boundary"
    elif beta >= 1.0:
        regime = "above-threshold"
    elif delta0 < 1.0:
        regime = "global-side"
    else:
        regime = "blow-up-side"
    return DichotomyReport(regime, gs.s_c, ratio, beta, delta0)
