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
    ifft_field,
    mass,
    row_sums,
)
from .ground_state import GroundState

__all__ = ["ObservableSample", "SAMPLE_KEYS", "observe_rows", "observe", "classify_dichotomy",
           "DichotomyReport"]


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

# The largest stack of a record's grid products reduced with one call.  A fresh
# stack of megabytes (7 x 32^3 doubles) page-faults on every record, and the
# one call saves little there; a 1d record's stack is tens of kilobytes.
_STACK_BYTES = 2**19


@lru_cache(maxsize=16)
def _i_xi(grid: GridSpec, axis: int) -> np.ndarray:
    """i xi along one axis, shaped to broadcast against the grid."""
    shape = [1] * grid.dim
    shape[axis] = grid.points[axis]
    ixi = 1j * grid.wavenumbers[axis].reshape(shape)
    ixi.flags.writeable = False
    return ixi


def observe_rows(u: FieldState, t, m0, alpha: float, sigma: float) -> list:
    """All recorded scalars of each row of u, one tuple of floats per row in
    SAMPLE_KEYS order.

    u holds one field per row (a single field is one row); t and m0 give each
    row's time and frozen initial mass, which enters me_product = H * m0^alpha
    and X = ||grad u|| * m0^(alpha/2).  Pass alpha = 0 in the mass-critical
    case, which makes X the plain gradient norm.  Every reduction runs row by
    row, and the per-row arithmetic is on Python floats, so a row's sample is
    bitwise the same in any batch.

    The grid sums of a record are |u|^2, |u|^2 |u|^(2 sigma) (repeated
    products for an integer sigma, see abs2_power), |x|^2 |u|^2, |xi|^2
    |uhat|^2 and x_a Im(conj(d_a u) u) per axis.  While they fit in
    _STACK_BYTES they are written into one (quantities, rows, *grid) buffer
    and reduced with one call; larger ones get an array each, reduced one by
    one.  Either way row_sums reduces each contiguous row on its own, so the
    sums are the same bits.  |uhat|^2 takes one FFT, cached on u and shared
    with the spectral-tail check; the momentum takes one inverse FFT per
    axis, in place in its product i xi_a uhat.  The boundary fraction
    gathers its points from |u|^2.  The finiteness check rides on the mass
    sums: the full scan runs only when one of them is not finite.
    """
    g = u.grid
    h = g.cell_volume
    vals = u.values
    n, k = vals.size // g.total_points, 4 + g.dim
    stacked = k * 8 * vals.size <= _STACK_BYTES
    out = (np.empty((k, n) + g.shape) if stacked  # one stack, reduced with one call
           else [np.empty((n,) + g.shape) for _ in range(k)])
    abs2 = out[0]
    np.square(vals.real, out=abs2)
    abs2 += np.square(vals.imag)
    np.multiply(abs2, abs2_power(abs2, sigma), out=out[1])
    np.multiply(g.radius_sq, abs2, out=out[2])
    np.multiply(g.laplacian_symbol, u.spectral_abs2, out=out[3])
    for axis in range(g.dim):  # x_a Im(conj(d_a u) u), formed in i xi_a uhat's buffer
        du = np.multiply(_i_xi(g, axis), u.spectral)
        ifft_field(du, g.dim, out=du)
        np.conjugate(du, out=du)
        du *= vals
        np.multiply(g.coords[axis], du.imag, out=out[4 + axis])
    sums = row_sums(out, g) if stacked else np.concatenate([row_sums(x, g) for x in out])
    sums = sums.tolist()  # quantity q of row i at q * n + i
    total = sums[:n]
    if not all(map(math.isfinite, total)):  # a non-finite field, or |u|^2 overflowed
        _require_finite(u)
    p = 2.0 * sigma + 2.0
    c = h / g.total_points
    rows = []
    for i, boundary in enumerate(boundary_fraction_rows(g, abs2, total)):
        lp2s2 = h * sums[n + i]
        grad_sq = c * sums[3 * n + i]
        energy = 0.5 * grad_sq - lp2s2 / p
        mom = 0.0
        for axis_sum in sums[4 * n + i::n]:  # the axes added in order
            mom = mom + axis_sum
        rows.append((float(t[i]), h * total[i], energy, grad_sq, lp2s2, h * sums[2 * n + i],
                     h * mom, math.sqrt(grad_sq) * m0[i] ** (alpha / 2.0), energy * m0[i]**alpha,
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
