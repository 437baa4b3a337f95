"""Scalar functionals of the field and the deterministic dichotomy classifier."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .grid import (
    FieldState,
    GridSpec,
    _require_finite,
    abs2_power,
    boundary_fraction_rows,
    gradient_norm_sq_rows,
    ifft_field,
    mass,
    row_sums,
    variance_rows,
)
from .ground_state import GroundState

__all__ = ["ObservableSample", "SAMPLE_KEYS", "observe_rows", "observe", "momentum_rows",
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


SAMPLE_KEYS = tuple(f.name for f in fields(ObservableSample))  # the columns of a sample row


@lru_cache(maxsize=16)
def _i_xi(grid: GridSpec, axis: int) -> np.ndarray:
    """i xi along one axis, shaped to broadcast against the grid."""
    shape = [1] * grid.dim
    shape[axis] = grid.points[axis]
    ixi = 1j * grid.wavenumbers[axis].reshape(shape)
    ixi.flags.writeable = False
    return ixi


def momentum_rows(state: FieldState) -> list:
    """G(u) = Im int u (x . grad conj(u)) dx per row, derivatives taken spectrally.

    One inverse FFT per axis; Im(u conj(du)) is read off conj(du) u, formed
    in the transform's own buffer.
    """
    g = state.grid
    uh = state.spectral
    acc = 0.0
    for axis in range(g.dim):
        du = ifft_field(_i_xi(g, axis) * uh, g.dim)
        np.conjugate(du, out=du)
        du *= state.values
        acc = acc + row_sums(g.coords[axis] * du.imag, g)
    return (g.cell_volume * acc).tolist()


def observe_rows(u: FieldState, t, m0, alpha: float, sigma: float) -> list:
    """All recorded scalars of each row of u, one tuple of floats per row in
    SAMPLE_KEYS order.

    u holds one field per row (a single field is one row); t and m0 give each
    row's time and frozen initial mass, which enters me_product = H * m0^alpha
    and X = ||grad u|| * m0^(alpha/2).  Pass alpha = 0 in the mass-critical
    case, which makes X the plain gradient norm.  Every reduction runs row by
    row, and the per-row arithmetic is on Python floats, so a row's sample is
    bitwise the same in any batch.

    One record costs one |u|^2, which serves the mass, lp2s2 = h sum |u|^2
    |u|^(2 sigma) (repeated products for an integer sigma, see abs2_power),
    the variance and the boundary fraction; one FFT and one |uhat|^2, cached
    on u and shared with the spectral-tail check; and one inverse FFT per axis
    for the momentum.  The finiteness check rides on the mass sums: the full
    scan runs only when one of them is not finite.
    """
    g = u.grid
    h = g.cell_volume
    abs2 = u.values.real**2 + u.values.imag**2
    total = row_sums(abs2, g).tolist()
    if not all(map(math.isfinite, total)):  # a non-finite field, or |u|^2 overflowed
        _require_finite(u)
    p = 2.0 * sigma + 2.0
    columns = zip(t, m0, total, row_sums(abs2 * abs2_power(abs2, sigma), g).tolist(),
                  gradient_norm_sq_rows(u), variance_rows(g, abs2), momentum_rows(u),
                  boundary_fraction_rows(g, abs2, total))
    rows = []
    for t_row, m0_row, total_row, lp_row, grad_sq, variance, mom, boundary in columns:
        lp2s2 = h * lp_row
        energy = 0.5 * grad_sq - lp2s2 / p
        rows.append((float(t_row), h * total_row, energy, grad_sq, lp2s2, variance, mom,
                     math.sqrt(grad_sq) * m0_row ** (alpha / 2.0), energy * m0_row**alpha,
                     boundary))
    return rows


def observe(u: FieldState, t: float, m0: float, alpha: float, sigma: float) -> ObservableSample:
    """observe_rows of one field at time t, as one ObservableSample."""
    return ObservableSample(*observe_rows(u, (t,), (m0,), alpha, sigma)[0])


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
