"""Periodic grids in 1 to 3 dimensions with an FFT contract.

The domain is the centered torus [-L/2, L/2)^dim sampled on N uniform points
per axis.  All quadratures are plain Riemann sums, which are spectrally
accurate for smooth periodic data.  Spectral coefficients use the unnormalized
FFT; Parseval then reads h^dim * sum|u|^2 == (h^dim / Ntot) * sum|uhat|^2.
The transforms are numpy.fft's, taken so that they give scipy.fft's bits
(see fft_field and ifft_field), so no run loads a scipy module.

A FieldState may hold a batch of fields, one per row of a leading axis.  The
*_rows functions give one value per row, each reduced on its own so that it
is bitwise the value of the field alone; a single field is a batch of one
row, and mass is the one single-field reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "FieldState",
    "fft_field",
    "ifft_field",
    "row_sums",
    "mass",
    "abs2_power",
    "boundary_fraction_rows",
    "tail_fraction_rows",
]


def _as_tuple(value, dim, caster):
    if np.isscalar(value):
        return tuple(caster(value) for _ in range(dim))
    out = tuple(caster(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^dim.

    extent and points may be scalars (same on every axis) or per-axis tuples.
    N must be even and at least 8 on each axis.  dealias_fraction is the kept
    fraction of the Nyquist wavenumber; 2/3 is the usual rule for quadratic
    nonlinearities and is a heuristic accuracy knob for fractional powers.
    """

    dim: int
    extent: tuple
    points: tuple
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        object.__setattr__(self, "extent", _as_tuple(self.extent, self.dim, float))
        object.__setattr__(self, "points", _as_tuple(self.points, self.dim, int))
        for L in self.extent:
            if L <= 0:
                raise ValueError("extent must be positive")
        for N in self.points:
            if N < 8 or N % 2 != 0:
                raise ValueError("points must be even and >= 8 per axis")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias_fraction must lie in (0, 1]")

    @cached_property
    def spacing(self):
        return tuple(L / N for L, N in zip(self.extent, self.points))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def total_points(self) -> int:
        return int(np.prod(self.points))

    @cached_property
    def shape(self):
        return tuple(self.points)

    @cached_property
    def axes(self):
        """Per-axis coordinate arrays, centered so x = 0 is a grid point."""
        return tuple(
            -L / 2.0 + h * np.arange(N)
            for L, h, N in zip(self.extent, self.spacing, self.points)
        )

    @cached_property
    def coords(self):
        """Meshgrid coordinate arrays, one per axis, shape == grid shape."""
        return np.meshgrid(*self.axes, indexing="ij")

    @cached_property
    def radius_sq(self):
        """|x|^2 on the grid."""
        r2 = np.zeros(self.shape)
        for x in self.coords:
            r2 += x**2
        return r2

    @cached_property
    def wavenumbers(self):
        """Per-axis signed wavenumbers xi = 2 pi k / L in FFT ordering."""
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(N, d=h)
            for N, h in zip(self.points, self.spacing)
        )

    @cached_property
    def mode_indices(self):
        """Per-axis signed integer mode numbers in FFT ordering."""
        return tuple(
            np.rint(np.fft.fftfreq(N) * N).astype(int) for N in self.points
        )

    @cached_property
    def wavenumber_mesh(self):
        return np.meshgrid(*self.wavenumbers, indexing="ij")

    @cached_property
    def laplacian_symbol(self):
        """|xi|^2 on the spectral grid."""
        k2 = np.zeros(self.shape)
        for xi in self.wavenumber_mesh:
            k2 += xi**2
        return k2

    @cached_property
    def dealias_mask(self):
        """Boolean keep-mask: True where every |xi_i| <= fraction * pi N_i / L_i.

        Comparison is done on integer mode numbers (|k| <= fraction * N/2 with
        a tiny tolerance) so the retained band is exactly reproducible.  For
        fraction < 1 the -N/2 column is always dropped, which keeps the
        retained wavenumber set symmetric about 0.
        """
        mask = np.ones(self.shape, dtype=bool)
        for axis, (k, N) in enumerate(zip(self.mode_indices, self.points)):
            cut = self.dealias_fraction * (N / 2.0) + 1e-9
            keep = np.abs(k) <= cut
            shape = [1] * self.dim
            shape[axis] = N
            mask &= keep.reshape(shape)
        return mask


def fft_field(values: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized forward FFT over the last dim axes, so a leading row axis is kept.

    The spectrum is written into out when it is given, which may be values
    itself.  A 2d or 3d transform takes one pass per grid axis, the first grid
    axis first, as scipy.fft.fftn does; numpy.fft.fftn takes the last axis
    first, and its bits differ.
    """
    if dim == 1:
        return np.fft.fft(values, out=out)
    out = np.fft.fft(values, axis=-dim, out=out)
    for axis in range(1 - dim, 0):
        np.fft.fft(out, axis=axis, out=out)
    return out


def ifft_field(spectral: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of fft_field, written into out (C-contiguous, may be spectral) when given.

    A 2d or 3d inverse takes unnormalized passes in fft_field's axis order and
    scales by 1 / Ntot right after the first pass, where scipy.fft.ifftn
    applies its factor.  Scaling each pass by its own 1 / N, or once after the
    last, rounds differently except on power-of-two grids.
    """
    if dim == 1:
        return np.fft.ifft(spectral, out=out)
    if out is None:
        out = np.empty(spectral.shape, dtype=np.complex128)
    np.fft.ifft(spectral, axis=-dim, norm="forward", out=out)
    floats = out.view(np.float64)
    floats *= 1.0 / math.prod(out.shape[-dim:])
    for axis in range(1 - dim, 0):
        np.fft.ifft(out, axis=axis, norm="forward", out=out)
    return out


class FieldState:
    """Complex field samples on a GridSpec plus a lazily cached spectrum and |uhat|^2.

    values has the grid's shape, or (B, *grid.shape) for a batch of B fields,
    one per row; transforms act on the grid axes only.  Treated as immutable:
    stepping returns fresh instances, so states can be shared read-only across
    trajectory workers.
    """

    __slots__ = ("grid", "values", "_spectral", "_spectral_abs2")

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape[values.ndim - grid.dim:] != grid.shape or values.ndim > grid.dim + 1:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values = values
        self._spectral = None
        self._spectral_abs2 = None

    @property
    def spectral(self):
        if self._spectral is None:
            self._spectral = fft_field(self.values, self.grid.dim)
        return self._spectral

    @property
    def spectral_abs2(self):
        """|uhat|^2, shared by the gradient norm and the spectral-tail check."""
        if self._spectral_abs2 is None:
            self._spectral_abs2 = np.abs(self.spectral) ** 2
        return self._spectral_abs2

    def with_values(self, values) -> "FieldState":
        return FieldState(self.grid, values)


def row_sums(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sums over the grid axes, one per row; a single field is one row.

    Each row is summed on its own, so a row's sum is bitwise that of the
    field alone.  Reductions never go through BLAS, whose result can depend
    on its thread count.
    """
    return np.add.reduce(a.reshape(-1, grid.total_points), axis=1)


def _row_take_sums(a: np.ndarray, grid: GridSpec, index: np.ndarray) -> np.ndarray:
    """Per-row sums of the grid points at the flat index.

    take gives a C-ordered (B, k) array whose row sums equal a[i][mask].sum()
    bitwise; the boolean gather a[:, mask] is F-ordered and its row sums do not.
    """
    return np.add.reduce(a.reshape(-1, grid.total_points).take(index, axis=1), axis=1)


def _fractions(part: np.ndarray, total: list) -> list:
    """part / total row by row, and 0 where total is 0."""
    return [p / t if t != 0.0 else 0.0 for p, t in zip(part.tolist(), total)]


def _require_finite(state: FieldState):
    if not np.all(np.isfinite(state.values.view(np.float64))):
        raise ValueError("non-finite field")


def mass(state: FieldState) -> float:
    """M(u) = ||u||_{L^2}^2 of one field."""
    _require_finite(state)
    return float(state.grid.cell_volume * np.sum(np.abs(state.values) ** 2))


def abs2_power(abs2: np.ndarray, sigma: float) -> np.ndarray:
    """|u|^(2 sigma) from abs2 = |u|^2.

    An integer sigma >= 1 takes repeated products (abs2 itself when sigma is
    1).  Any other sigma takes exp(sigma log abs2) with abs2 floored at 1e-300,
    so a zero field has a finite logarithm.
    """
    k = int(sigma)
    if k == sigma and k >= 1:
        out = abs2 if k == 1 else abs2 * abs2
        for _ in range(k - 2):
            out *= abs2
        return out
    return np.exp(sigma * np.log(np.maximum(abs2, 1e-300)))


@lru_cache(maxsize=16)
def _outer_index(grid: GridSpec, shell: float) -> np.ndarray:
    outer = np.zeros(grid.shape, dtype=bool)
    for x, L in zip(grid.coords, grid.extent):
        outer |= np.abs(x) > (1.0 - shell) * (L / 2.0)
    return _frozen_flat_index(outer)


@lru_cache(maxsize=16)
def _tail_kept_index(grid: GridSpec, inner: float) -> tuple:
    """The flat index of the tail modes followed by that of the kept modes, and
    the number of tail modes: one gather serves both sums of the tail check."""
    tail = np.zeros(grid.shape, dtype=bool)
    for axis, (k, N) in enumerate(zip(grid.mode_indices, grid.points)):
        cut = grid.dealias_fraction * (N / 2.0)
        sel = np.abs(k) > inner * cut
        shape = [1] * grid.dim
        shape[axis] = N
        tail |= sel.reshape(shape)
    tail &= grid.dealias_mask
    tail_index = np.flatnonzero(tail)
    index = np.concatenate([tail_index, np.flatnonzero(grid.dealias_mask)])
    index.flags.writeable = False
    return index, tail_index.size


def _frozen_flat_index(mask: np.ndarray) -> np.ndarray:
    index = np.flatnonzero(mask)
    index.flags.writeable = False
    return index


def boundary_fraction_rows(grid: GridSpec, abs2: np.ndarray, total: list,
                           shell: float = 0.1) -> list:
    """Mass fraction in the outer `shell` of the box, per row (torus health diagnostic).

    abs2 is |u|^2 and total the list of its row sums.  The outer region is where
    max_i |x_i| / (L_i/2) > 1 - shell.  Values that are not tiny mean the
    torus truncation of R^n is no longer trustworthy.
    """
    return _fractions(_row_take_sums(abs2, grid, _outer_index(grid, shell)), total)


def tail_fraction_rows(state: FieldState, inner: float = 0.75) -> list:
    """Spectral mass fraction in the outer part of the retained band, per row.

    Tail modes are retained modes with some |xi_i| above `inner` times the
    band limit.  A large value means the collapse is no longer resolved.
    """
    g = state.grid
    index, n_tail = _tail_kept_index(g, inner)
    both = state.spectral_abs2.reshape(-1, g.total_points).take(index, axis=1)
    # each part of a row is contiguous, so its sum is that of its own gather
    return _fractions(np.add.reduce(both[:, :n_tail], axis=1),
                      np.add.reduce(both[:, n_tail:], axis=1).tolist())
