"""Covariance operator phi, Wiener increment sampling, and noise functionals.

The operator acts diagonally on the real trigonometric basis of the torus:
for each unordered mode pair {m, -m} the basis holds sqrt(2/L^d) cos(xi x)
and sqrt(2/L^d) sin(xi x) (the constant 1/sqrt(L^d) for m = 0), and phi
multiplies both by the amplitude lambda_m >= 0.  A convolution kernel is the
same thing with lambda read off its Fourier multiplier.  No basis field is
stored: increments are synthesised by an inverse real FFT (Lord, Powell &
Shardlow 2014, ch. 10) that skips the lines known to be zero, and the
functionals used by the bounds are the grid quadratures of the basis fields
in closed form, exactly the constants the sampler realizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .grid import GridSpec

__all__ = [
    "CovarianceSpec",
    "NoiseConstants",
    "NoiseSampler",
    "noise_constants",
    "gaussian_spectrum_amplitudes",
    "make_rng",
]


def make_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (master_seed, index); bitwise reproducible."""
    key = np.array([np.uint64(index), np.uint64(master_seed)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pair_representative(mode) -> tuple:
    """One representative per {m, -m} pair, a tuple of Python ints whose first
    nonzero component is positive; a scalar key m is the 1d mode (m,)."""
    if type(mode) is not tuple:
        mode = (mode,)
    first = 0
    for m in mode:
        if type(m) is not int:  # numpy integers, bools, ...: convert, then decide
            return _pair_representative(tuple(map(int, mode)))
        first = first or m
    return tuple(-m for m in mode) if first < 0 else mode


@dataclass(frozen=True)
class CovarianceSpec:
    """Spatial covariance of the driving noise.

    kind 'fourier_diagonal': amplitudes maps integer mode tuples (or, in 1d,
    integers) to lambda >= 0; the +/-m pair shares one amplitude.  The stored
    amplitudes are canonical: one key per pair, its representative as a tuple
    of Python ints whose first nonzero component is positive, mapped to a
    Python float.  Key order is not part of the contract.  kind 'physical_kernel':
    kernel holds samples of a real even convolution kernel K(x - y) on the
    grid; its Fourier multiplier must be nonnegative.  scale multiplies every
    amplitude, so all quadratic functionals pick up scale^2.
    """

    kind: str
    amplitudes: dict = field(default_factory=dict)
    kernel: np.ndarray | None = None
    scale: float = 1.0
    # kernel multipliers below this relative level are treated as zero; the
    # boundary truncation of a sampled kernel leaves a tail at ~1e-10
    kernel_floor: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("fourier_diagonal", "physical_kernel"):
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("scale must be >= 0")
        if self.kind == "fourier_diagonal":
            amps = {}
            for mode, lam in self.amplitudes.items():
                lam = float(lam)
                if lam < 0:
                    raise ValueError("amplitudes must be nonnegative")
                rep = _pair_representative(mode)
                if rep in amps and abs(amps[rep] - lam) > 1e-14 * max(1.0, lam):
                    raise ValueError(f"conflicting amplitudes for mode pair {rep}")
                amps[rep] = lam
            object.__setattr__(self, "amplitudes", amps)
        elif self.kernel is None:
            raise ValueError("physical_kernel spec needs kernel samples")

    def mode_amplitudes(self, grid: GridSpec) -> dict:
        """Resolved {pair representative mode: scaled amplitude} on this grid."""
        if self.kind == "fourier_diagonal":
            return {m: self.scale * lam for m, lam in self.amplitudes.items() if lam > 0}
        kernel = np.asarray(self.kernel, dtype=float)
        if kernel.shape != grid.shape:
            raise ValueError("kernel shape does not match grid")
        # Multiplier of u -> integral K(x-y) u(y) dy on the torus.  The kernel is
        # sampled on centered coordinates; the DFT phase from the half-shift is
        # removed by evaluating against the even extension (take the real part).
        mult = grid.cell_volume * np.real(
            np.fft.fftn(np.fft.ifftshift(kernel))
        )
        tol = self.kernel_floor * float(np.max(np.abs(mult)))
        if np.min(mult) < -tol:
            raise ValueError("kernel multiplier is not nonnegative")
        keep = np.flatnonzero(mult > tol)
        modes = np.stack([k[i] for k, i in zip(grid.mode_indices,
                                                np.unravel_index(keep, grid.shape))], axis=1)
        first = modes[np.arange(len(modes)), np.argmax(modes != 0, axis=1)]
        modes = np.where((first < 0)[:, None], -modes, modes)
        # later grid points overwrite earlier ones of the same pair, as dict() does
        return dict(zip(map(tuple, modes.tolist()), (self.scale * mult.ravel()[keep]).tolist()))


@dataclass(frozen=True)
class NoiseConstants:
    """All scalar functionals of phi entering the bounds (see module docstring)."""

    hs00: float            # ||phi||^2 Hilbert-Schmidt L2 -> L2
    hs01: float            # ||phi||^2 Hilbert-Schmidt L2 -> H1
    F_phi: np.ndarray      # sum_k (phi e_k)^2, a field
    f1_phi: np.ndarray     # sum_k |grad(phi e_k)|^2, a field
    M_phi: float           # sup_x f1_phi
    C_phi_interp: float    # ||phi||_{01}^{n s/(2s+2)} ||phi||_{00}^{(2-(n-2)s)/(2s+2)}
    C_rad_2s2: float       # sum_k ||phi e_k||^2_{L^{2 sigma + 2}}
    C_phi_Sigma: float     # sum_k ||x phi e_k||^2_{L^2}
    C_phi_1: float         # sum_k ||grad(phi e_k)||^2_{L^2}
    C_phi_2: float         # Im sum_k int phi e_k  x . grad(conj phi e_k)


def _mode_table(spec: CovarianceSpec, grid: GridSpec):
    """Sorted pair representatives, one per row, and their amplitudes."""
    amps = spec.mode_amplitudes(grid)
    keys = sorted(amps)
    if set(map(len, keys)) - {grid.dim}:
        raise ValueError(f"covariance mode length differs from grid dim {grid.dim}")
    modes = np.fromiter(chain.from_iterable(keys), np.int64,
                        len(keys) * grid.dim).reshape(len(keys), grid.dim)
    if np.any(np.abs(modes) > grid.dealias_fraction * (np.array(grid.points) / 2.0) + 1e-9):
        raise ValueError("covariance exceeds spectral band")
    return modes, np.fromiter(map(amps.__getitem__, keys), float, len(keys))


@lru_cache(maxsize=64)
def _phase_mean_lp_sq(D: int, p: float) -> float:
    """(mean |cos|^p)^(2/p) + (mean |sin|^p)^(2/p) over the phases 2 pi r/D, r < D."""
    phase = 2.0 * np.pi * np.arange(D) / D
    return sum(float(np.mean(np.abs(f(phase)) ** p)) ** (2.0 / p) for f in (np.cos, np.sin))


def _constants(modes, lam, grid: GridSpec, sigma: float) -> NoiseConstants:
    p, n = 2.0 * sigma + 2.0, grid.dim
    vol = math.prod(grid.extent)
    # cos^2 + sin^2 = 1 on the grid, so a pair's e^2 sums like the constant 2/V
    # and its |grad e|^2 like |xi|^2 2/V; the single m = 0 field is 1/V.
    w2 = np.where(modes.any(axis=1), 2.0, 1.0) * lam**2
    xi2 = np.sum((2.0 * np.pi * modes / np.array(grid.extent)) ** 2, axis=1)
    hs00 = float(np.sum(w2))
    C1 = float(np.sum(w2 * xi2))
    hs01 = hs00 + C1
    c_sigma = hs00 * sum(float(np.mean(x**2)) for x in grid.axes)
    # m.j/N (mod 1) covers the cyclic group of order D = lcm_a N_a / gcd(m_a, N_a)
    # evenly, so h sum_x |cos(xi x)|^p is V times its mean over that group.
    order = np.lcm.reduce(grid.points // np.gcd(modes, grid.points), axis=1)
    D, of_pair = np.unique(order, return_inverse=True)
    lp_sq = vol ** (2.0 / p) * np.array([_phase_mean_lp_sq(int(d), p) for d in D])
    c_rad = float(np.sum(w2 / vol * lp_sq[of_pair]))
    c_interp = hs01 ** (n * sigma / (2.0 * p)) * hs00 ** ((2.0 - (n - 2) * sigma) / (2.0 * p))
    # Basis fields are real, so Im int phi e_k x.grad(phi e_k) vanishes exactly.
    return NoiseConstants(
        hs00=hs00, hs01=hs01, F_phi=np.full(grid.shape, hs00 / vol),
        f1_phi=np.full(grid.shape, C1 / vol), M_phi=C1 / vol,
        C_phi_interp=float(c_interp) if hs00 > 0 else 0.0,
        C_rad_2s2=c_rad, C_phi_Sigma=c_sigma, C_phi_1=C1, C_phi_2=0.0,
    )


class NoiseSampler:
    """Spectral synthesis of increments on one grid, without basis fields.

    Drawing and synthesis are separate steps.  A real field takes n_basis
    standard normals, one per basis field in a fixed order: sorted pair
    representatives, cos before sin.  synthesize turns drawn normals into
    increments; sample_rows draws one row per rng and synthesizes it.  A
    caller that draws the normals of many steps at once (dynamics.Trajectory)
    gets the increments of drawing them step by step, since a stream's
    normals drawn k at a time are its single draws in order.

    Each normal owns one slot (re or im part) of the half spectrum an inverse
    real FFT reads; Nyquist pairs such as (1, 4) and (1, -4) at N = 8 share
    one, and their normals add.  Synthesis writes one row per real field of
    scratch spectra the sampler owns, so use one sampler per thread, and runs
    the passes of numpy's irfftn in its order over all rows: an inverse
    complex FFT along each grid axis but the last, each into a scratch buffer
    of its input's shape, then the inverse real FFT along the last, into a
    fresh array of increments.  A pass transforms only the lines whose
    later-axis indices some mode takes (FFT pruning, Markel 1971).  That is
    exact: every other line is all zero and would transform to exact zeros,
    and each line is transformed on its own, so the increments are bitwise
    irfftn's.  In 1d there is only the last pass.
    """

    def __init__(self, spec: CovarianceSpec, grid: GridSpec):
        self.spec = spec
        self.grid = grid
        modes, lam = _mode_table(spec, grid)
        per_pair = np.where(modes.any(axis=1), 2, 1)
        pair = np.repeat(np.arange(len(lam)), per_pair)
        is_sin = np.arange(pair.size) - (np.cumsum(per_pair) - per_pair)[pair]
        self.weights = lam[pair]
        self.n_basis = int(pair.size)
        # lambda e_m = Re[c exp(2 pi i m.j/N)] on x_j = -L/2 + j h, c = lambda sqrt(2/V)
        # (-1)^{sum m} (cos), -i c (sin), lambda / sqrt(V) (m = 0).  irfftn reads last-axis
        # indices 0..N/2 (m_last < 0 writes conj(c) at -m) and doubles all but 0 and N/2.
        vol = float(np.prod(grid.extent))
        last = modes[:, -1]
        edge = (last == 0) | (2 * np.abs(last) == grid.points[-1])
        flip = (last < 0) & ~edge
        sign = 1 - 2 * (modes.sum(axis=1) % 2)
        coef = grid.total_points * lam * sign * np.where(edge, 1.0, 0.5) * np.where(
            per_pair == 1, vol**-0.5, (2.0 / vol) ** 0.5)
        self._coef = coef[pair] * np.where(is_sin, np.where(flip[pair], 1, -1), 1)
        half_shape = grid.shape[:-1] + (grid.points[-1] // 2 + 1,)
        target = np.where(flip[:, None], -modes, modes) % grid.points
        # The half spectrum is zero off the lines whose later-axis indices some mode
        # takes, so the pass over grid axis a reads a spectrum whose later axes are
        # cut to their taken indices _lines[a:], and writes its lines into the next
        # one; a pass whose next axis takes every index hands its output on whole.
        self._lines = [np.unique(col) for col in target.T[1:]]
        shapes = self._shapes = [half_shape[:a + 1] + tuple(map(len, self._lines[a:]))
                                 for a in range(grid.dim)]
        cut = [target[:, 0]] + [np.searchsorted(i, c) for i, c in zip(self._lines, target.T[1:])]
        slots = 2 * np.ravel_multi_index(cut, shapes[0])[pair] + is_sin
        unique = np.unique(slots)
        self._slots, self._gather = ((unique, np.searchsorted(unique, slots))
                                     if unique.size < slots.size else (slots, None))
        # scratch, one row per real field, zero off the slots and lines
        self._spectra = [np.zeros((0,) + shapes[0], complex)]

    def sample_rows(self, dts, rngs, complex_valued: bool = False) -> np.ndarray:
        """One increment per row, row i drawn from rngs[i] with step dts[i].

        The rows' normals are drawn in row order, each row's from its rng, so
        rngs may repeat one generator; then synthesize makes the increments.
        """
        g = np.empty((len(rngs), 2 if complex_valued else 1, self.n_basis))
        for row, rng in zip(g, rngs):
            rng.standard_normal(out=row)
        return self.synthesize(g, dts, complex_valued)

    def synthesize(self, normals, dts, complex_valued: bool = False) -> np.ndarray:
        """The increments of drawn normals, one row per row of normals, step dts[i].

        normals has shape (rows, parts, n_basis): parts is 2 for complex rows
        (the Re part's normals, then the Im part's) and 1 for real ones; it is
        not modified.  Real rows are Delta W = sqrt(dt) sum_k lambda_k g_k e_k.
        Complex rows have independent Re and Im parts, each with amplitude /
        sqrt(2); this normalization gives E ||Delta W||_{L^2}^2 = hs00 * dt,
        which is what the additive mass identity  E M(u(t)) = M(u_0) + t ||phi||^2
        requires.  A row's increment does not depend on the other rows.
        """
        if min(dts) <= 0:
            raise ValueError("dt must be positive")
        g = normals * np.multiply.outer([float(dt) ** 0.5 for dt in dts], self._coef)[:, None]
        n_rows = g.shape[0] * g.shape[1]  # one half spectrum per real field
        if self._gather is not None:
            offsets = self._slots.size * np.arange(n_rows)[:, None]
            g = np.bincount((self._gather + offsets).ravel(), weights=g.ravel(),
                            minlength=n_rows * self._slots.size)
        if len(self._spectra[0]) != n_rows:
            shapes = [(n_rows,) + shape for shape in self._shapes]
            self._spectra = [np.zeros(shapes[0], complex)] + [
                np.zeros(s, complex) if s != p else None for p, s in zip(shapes, shapes[1:])]
            self._buffers = [np.empty(s, complex) for s in shapes[:-1]]  # one per pass
            self._parts = self._spectra[0].reshape(-1).view(np.float64)
            self._index = (self._parts.size // n_rows * np.arange(n_rows)[:, None]
                           + self._slots).ravel()
        self._parts[self._index] = g.ravel()
        out = self._spectra[0]
        for axis, (lines, spectrum, buffer) in enumerate(
                zip(self._lines, self._spectra[1:], self._buffers), 1):
            out = np.fft.ifft(out, axis=axis, out=buffer)
            if spectrum is not None:
                spectrum[(slice(None),) * (axis + 1) + (lines,)] = out
                out = spectrum
        out = np.fft.irfft(out, self.grid.points[-1])
        if not complex_valued:
            return out
        out = out.reshape((-1, 2) + self.grid.shape)
        return out[:, 0] / np.sqrt(2.0) + 1j * (out[:, 1] / np.sqrt(2.0))


def noise_constants(spec: CovarianceSpec, grid: GridSpec, sigma: float) -> NoiseConstants:
    """All scalar functionals of phi on this grid (see NoiseConstants)."""
    return _constants(*_mode_table(spec, grid), grid, sigma)



def gaussian_spectrum_amplitudes(grid: GridSpec, strength: float, width: float,
                                 k_max: int) -> dict:
    """Named profile: lambda_m = strength * exp(-|xi_m|^2 width^2 / 2), |m_i| <= k_max.

    Keys are the pair representatives of the cube (2 k_max + 1)^dim, as
    CovarianceSpec canonicalizes them: the zero mode and every mode whose first
    nonzero component is positive, each a tuple of Python ints; values are
    Python floats.  Key order is not part of the contract.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    side = 2 * k_max + 1
    n = side**grid.dim
    # In lexicographic order over the symmetric cube, -m sits at the mirror
    # index of m, so the upper half from the zero mode on holds one mode per pair.
    modes = np.indices((side,) * grid.dim).reshape(grid.dim, n)[:, n // 2:] - k_max
    xi2 = 0
    for m, L in zip(modes, grid.extent):
        xi2 = xi2 + (2.0 * np.pi * m / L) ** 2
    lam = strength * np.exp(-0.5 * xi2 * width**2)
    return dict(zip(map(tuple, modes.T.tolist()), lam.tolist()))
