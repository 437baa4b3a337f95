"""The field and noise transforms are numpy.fft's, taken so that they give
scipy.fft's bits: scipy is the oracle here and is imported by no run.

The cases cover single fields and batches in 1d, 2d and 3d, on power-of-two
grids and on the grids (24, 40) and (30, 36, 12), where the place of the
inverse's 1 / Ntot changes the rounding.
"""

import math

import numpy as np
import pytest
import scipy.fft

from snls.grid import GridSpec, fft_field, ifft_field
from snls.noise_model import CovarianceSpec, NoiseSampler, gaussian_spectrum_amplitudes
from test_noise_model import _irfftn_reference

# (dim, array shape): a leading axis beyond dim is the row axis of a batch
FIELD_CASES = [
    (1, (64,)), (1, (2, 1024)), (1, (1, 64)), (1, (125, 64)),
    (2, (24, 40)), (2, (3, 24, 40)), (2, (48, 20)),
    (3, (32, 32, 32)), (3, (2, 16, 16, 16)), (3, (30, 36, 12)), (3, (2, 30, 36, 12)),
]


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _scipy_fft(values, dim):
    return scipy.fft.fftn(values, axes=range(-dim, 0))


def _scipy_ifft(spectral, dim):
    return scipy.fft.ifftn(spectral, axes=range(-dim, 0))


@pytest.mark.parametrize("dim, shape", FIELD_CASES)
def test_field_transforms_are_scipy_bitwise(dim, shape):
    values = _field(shape)
    want = _scipy_fft(values, dim)
    assert fft_field(values, dim).tobytes() == want.tobytes()
    assert ifft_field(values, dim).tobytes() == _scipy_ifft(values, dim).tobytes()
    # in place, as the step and the momentum take them
    work = values.copy()
    assert fft_field(work, dim, out=work) is work
    assert work.tobytes() == want.tobytes()
    assert ifft_field(work, dim, out=work) is work
    assert work.tobytes() == _scipy_ifft(want, dim).tobytes()


def _fftn_last_axis_first(values, dim):
    return np.fft.fftn(values, axes=range(-dim, 0))


def _ifft_scaled_per_axis(spectral, dim):
    for axis in range(-dim, 0):
        spectral = np.fft.ifft(spectral, axis=axis)
    return spectral


def _ifft_scaled_after_last(spectral, dim):
    for axis in range(-dim, 0):
        spectral = np.fft.ifft(spectral, axis=axis, norm="forward")
    return spectral * (1.0 / math.prod(spectral.shape[-dim:]))


@pytest.mark.parametrize("mutant, oracle", [(_fftn_last_axis_first, _scipy_fft),
                                            (_ifft_scaled_per_axis, _scipy_ifft),
                                            (_ifft_scaled_after_last, _scipy_ifft)])
def test_field_cases_tell_the_rules_apart(mutant, oracle):
    # each other way to take the transforms misses scipy's bits on some case
    missed = [shape for dim, shape in FIELD_CASES if dim > 1
              and mutant(_field(shape), dim).tobytes() != oracle(_field(shape), dim).tobytes()]
    assert missed


def _scipy_irfftn(half, shape, axes):
    """numpy.fft.irfftn's passes, each taken by scipy.fft."""
    *first, last = axes
    for axis in first:
        half = scipy.fft.ifft(half, axis=axis)
    return scipy.fft.irfft(half, shape[-1], axis=last)


SAMPLER_CASES = [
    (GridSpec(1, 20.0, 1024), {(1,): 0.2}),
    (GridSpec(1, 20.0, 64), {(0,): 0.2, (1,): 0.2, (3,): 0.1}),
    (GridSpec(2, (12.0, 20.0), (24, 40)), 3),
    (GridSpec(2, 10.0, (48, 20), dealias_fraction=1.0), {(1, 10): 0.1, (2, -3): 0.05}),
    (GridSpec(3, 12.0, 32), 4),
    (GridSpec(3, (10.0, 12.0, 6.0), (30, 36, 12)), 2),
]


@pytest.mark.parametrize("grid, amplitudes", SAMPLER_CASES)
@pytest.mark.parametrize("n_rows", [1, 3])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_synthesize_is_scipy_bitwise(grid, amplitudes, n_rows, complex_valued):
    if isinstance(amplitudes, int):  # k_max of a Gaussian spectrum
        amplitudes = gaussian_spectrum_amplitudes(grid, 0.3, 0.7, amplitudes)
    sampler = NoiseSampler(CovarianceSpec("fourier_diagonal", amplitudes), grid)
    rng = np.random.default_rng(n_rows)
    for dts in ([1e-3] * n_rows, [0.5] * n_rows):  # a second call reuses the scratch
        normals = rng.standard_normal((n_rows, 1 + complex_valued, sampler.n_basis))
        got = sampler.synthesize(normals, dts, complex_valued)
        want = _irfftn_reference(sampler, normals, dts, complex_valued, _scipy_irfftn)
        assert got.tobytes() == want.tobytes()
