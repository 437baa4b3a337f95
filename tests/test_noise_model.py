import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.grid import GridSpec
from snls.noise_model import (
    CovarianceSpec,
    NoiseSampler,
    _mode_table,
    gaussian_spectrum_amplitudes,
    make_rng,
    noise_constants,
)


@pytest.fixture()
def grid():
    return GridSpec(1, 2 * np.pi, 64)


def test_single_zero_mode_constants(grid):
    a = 0.7
    nc = noise_constants(CovarianceSpec("fourier_diagonal", {(0,): a}), grid, 2.0)
    # one-term basis: phi e_0 = a / sqrt(L)
    assert nc.hs00 == pytest.approx(a**2, rel=1e-13)
    assert nc.M_phi == pytest.approx(0.0, abs=1e-15)
    assert nc.hs01 == pytest.approx(a**2, rel=1e-13)
    assert nc.C_phi_1 == 0.0
    assert np.allclose(nc.F_phi, a**2 / (2 * np.pi), rtol=1e-13)


def test_zero_covariance_all_constants_vanish(grid):
    nc = noise_constants(CovarianceSpec("fourier_diagonal", {}), grid, 2.0)
    for v in (nc.hs00, nc.hs01, nc.M_phi, nc.C_rad_2s2, nc.C_phi_Sigma,
              nc.C_phi_1, nc.C_phi_2, nc.C_phi_interp):
        assert v == 0.0
    assert np.all(nc.F_phi == 0.0)


def test_pm1_modes_f1_constant(grid):
    # lambda = a on modes +-1, L = 2 pi: f1_phi = 2 a^2 / L, spatially constant
    a = 0.5
    nc = noise_constants(CovarianceSpec("fourier_diagonal", {(1,): a, (-1,): a}),
                         grid, 2.0)
    expect = 2 * a**2 / (2 * np.pi)
    assert np.allclose(nc.f1_phi, expect, rtol=1e-12)
    assert nc.M_phi == pytest.approx(expect, rel=1e-12)
    assert nc.hs00 == pytest.approx(2 * a**2, rel=1e-13)
    assert nc.hs01 == pytest.approx(2 * a**2 * (1 + 1.0), rel=1e-13)  # xi_1 = 1


def test_conflicting_pair_amplitudes_rejected():
    with pytest.raises(ValueError, match="conflicting"):
        CovarianceSpec("fourier_diagonal", {(1,): 0.5, (-1,): 0.6})
    with pytest.raises(ValueError, match="nonnegative"):
        CovarianceSpec("fourier_diagonal", {(1,): -0.5})


def test_band_validation(grid):
    # mode 30 exceeds the 2/3 band of N = 64 (cut at |k| <= 21)
    spec = CovarianceSpec("fourier_diagonal", {(30,): 0.1})
    with pytest.raises(ValueError, match="exceeds spectral band"):
        noise_constants(spec, grid, 2.0)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.1, 10.0))
def test_quadratic_scaling_law(c):
    grid = GridSpec(1, 2 * np.pi, 64)
    amps = {(0,): 0.3, (1,): 0.2, (2,): 0.1}
    nc0 = noise_constants(CovarianceSpec("fourier_diagonal", amps), grid, 2.0)
    nc1 = noise_constants(CovarianceSpec("fourier_diagonal", amps, scale=c), grid, 2.0)
    for a, b in [(nc0.hs00, nc1.hs00), (nc0.hs01, nc1.hs01), (nc0.M_phi, nc1.M_phi),
                 (nc0.C_phi_1, nc1.C_phi_1), (nc0.C_phi_Sigma, nc1.C_phi_Sigma),
                 (nc0.C_rad_2s2, nc1.C_rad_2s2)]:
        assert b == pytest.approx(c**2 * a, rel=1e-12)


def test_cauchy_schwarz_chain(grid):
    rng = np.random.default_rng(7)
    for _ in range(10):
        amps = {(int(k),): float(rng.uniform(0, 1)) for k in rng.integers(0, 8, size=4)}
        nc = noise_constants(CovarianceSpec("fourier_diagonal", amps), grid, 2.0)
        assert nc.C_phi_2 <= math.sqrt(nc.C_phi_1 * nc.C_phi_Sigma) + 1e-12
        assert nc.C_phi_1 <= nc.hs01 + 1e-12


def test_reproducible_increments(grid):
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.5, (2,): 0.25})
    a = NoiseSampler(spec, grid).sample_rows((0.1,), (make_rng(7, 3),))[0]
    b = NoiseSampler(spec, grid).sample_rows((0.1,), (make_rng(7, 3),))[0]
    assert np.array_equal(a, b)
    c = NoiseSampler(spec, grid).sample_rows((0.1,), (make_rng(7, 4),))[0]
    assert not np.array_equal(a, c)


def test_zero_covariance_increment(grid):
    spec = CovarianceSpec("fourier_diagonal", {})
    dw = NoiseSampler(spec, grid).sample_rows((0.1,), (make_rng(0, 0),))[0]
    assert np.all(dw == 0.0)
    dwc = NoiseSampler(spec, grid).sample_rows((0.1,), (make_rng(0, 0),), complex_valued=True)[0]
    assert np.all(dwc == 0.0)


def test_real_increment_pointwise_variance(grid):
    # Var(dW(x)) / dt = F_phi(x) within 3 standard errors (Monte Carlo oracle)
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.2, (1,): 0.15, (3,): 0.1})
    nc = noise_constants(spec, grid, 2.0)
    sampler = NoiseSampler(spec, grid)
    rng = make_rng(123, 0)
    n, dt = 100_000, 0.05
    acc = np.zeros(grid.shape)
    acc2 = np.zeros(grid.shape)
    for _ in range(n):
        dw = sampler.sample_rows((dt,), (rng,))[0]
        acc += dw
        acc2 += dw**2
    assert np.max(np.abs(acc / n)) < 4 * math.sqrt(np.max(nc.F_phi) * dt / n)
    var = acc2 / n - (acc / n) ** 2
    se = nc.F_phi * dt * math.sqrt(2.0 / n)
    assert np.all(np.abs(var - nc.F_phi * dt) <= 3 * se + 1e-12)


def test_disjoint_mode_projections_uncorrelated(grid):
    # increments project independently onto disjoint-support spectral amplitudes
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.3, (4,): 0.3})
    sampler = NoiseSampler(spec, grid)
    rng = make_rng(55, 0)
    x = grid.axes[0]
    e1 = np.cos(x) * math.sqrt(2 / (2 * np.pi))
    e4 = np.cos(4 * x) * math.sqrt(2 / (2 * np.pi))
    h = grid.cell_volume
    n, dt = 30_000, 0.1
    p1 = np.empty(n)
    p4 = np.empty(n)
    for i in range(n):
        dw = sampler.sample_rows((dt,), (rng,))[0]
        p1[i] = h * np.sum(dw * e1)
        p4[i] = h * np.sum(dw * e4)
    corr = np.corrcoef(p1, p4)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_complex_increment_normalization(grid):
    # E ||dW||_L2^2 = hs00 dt, and Re/Im parts uncorrelated
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.2, (2,): 0.1})
    nc = noise_constants(spec, grid, 2.0)
    sampler = NoiseSampler(spec, grid)
    rng = make_rng(321, 0)
    n, dt = 100_000, 0.05
    norms = np.empty(n)
    re0 = np.empty(n)
    im0 = np.empty(n)
    for i in range(n):
        dw = sampler.sample_rows((dt,), (rng,), complex_valued=True)[0]
        norms[i] = grid.cell_volume * np.sum(np.abs(dw) ** 2)
        re0[i] = dw.real[0]
        im0[i] = dw.imag[0]
    z = (norms.mean() - nc.hs00 * dt) / (norms.std(ddof=1) / math.sqrt(n))
    assert abs(z) <= 3.0
    corr = np.corrcoef(re0, im0)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_gaussian_spectrum_profile():
    grid = GridSpec(1, 2 * np.pi, 64)
    amps = gaussian_spectrum_amplitudes(grid, strength=0.5, width=1.0, k_max=3)
    assert amps[(0,)] == pytest.approx(0.5)
    assert amps[(3,)] == pytest.approx(0.5 * math.exp(-4.5), rel=1e-12)
    assert (2,) in amps and (-2,) not in amps  # canonical pair representatives


def _reference_representative(mode):
    for m in mode:
        if m > 0:
            return mode
        if m < 0:
            return tuple(-c for c in mode)
    return mode


def _reference_canonical_amplitudes(amplitudes):
    """Per-key canonicalization with np.isscalar: the reference for CovarianceSpec."""
    amps = {}
    for mode, lam in amplitudes.items():
        lam = float(lam)
        if lam < 0:
            raise ValueError("amplitudes must be nonnegative")
        mode = (int(mode),) if np.isscalar(mode) else mode
        rep = _reference_representative(tuple(int(m) for m in mode))
        if rep in amps and abs(amps[rep] - lam) > 1e-14 * max(1.0, lam):
            raise ValueError(f"conflicting amplitudes for mode pair {rep}")
        amps[rep] = lam
    return amps


def _reference_gaussian_amplitudes(grid, strength, width, k_max):
    """Per-mode loop over the cube: the reference for gaussian_spectrum_amplitudes."""
    amps = {}
    for mode in np.ndindex(*[2 * k_max + 1] * grid.dim):
        m = tuple(mi - k_max for mi in mode)
        xi2 = sum((2.0 * np.pi * mi / L) ** 2 for mi, L in zip(m, grid.extent))
        amps[_reference_representative(m)] = strength * float(np.exp(-0.5 * xi2 * width**2))
    return amps


@pytest.mark.parametrize("width", [0.5, 1.0])
@pytest.mark.parametrize("grid", [
    GridSpec(1, 2 * np.pi, 64), GridSpec(2, (8.0, 6.0), (16, 24)),
    GridSpec(3, 20.0, 32, dealias_fraction=1.0), GridSpec(3, (20.0, 13.0, 7.5), (16, 12, 8)),
], ids=["1d", "2d", "3d-32", "3d-aniso"])
def test_gaussian_spectrum_matches_per_mode_loop(grid, width):
    for k_max in range(6):
        got = gaussian_spectrum_amplitudes(grid, 0.05, width, k_max)
        want = _reference_gaussian_amplitudes(grid, 0.05, width, k_max)
        assert got.keys() == want.keys()
        assert all(got[m] == want[m] for m in want), k_max
        assert all(type(v) is float for v in got.values())
        assert all(type(c) is int for m in got for c in m)


def _mode_key(draw, components):
    """components as a key: Python ints, np.int64 or a mix; a bare integer in 1d."""
    wrap = [draw(st.sampled_from([int, np.int64])) for _ in components]
    key = tuple(w(c) for w, c in zip(wrap, components))
    return key[0] if len(key) == 1 and draw(st.booleans()) else key


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_amplitudes_match_per_key_reference(data):
    dim = data.draw(st.integers(1, 3))
    amplitudes = {}
    for _ in range(data.draw(st.integers(0, 6))):
        m = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        lam = data.draw(st.sampled_from([0.0, 0.1, 0.5, 2.0, -0.25]))
        amplitudes[_mode_key(data.draw, m)] = lam
        if data.draw(st.booleans()):  # the pair partner, equal up to the tolerance
            lam *= data.draw(st.sampled_from([1.0, 1.0 + 2e-16, 1.0 + 1e-12]))
            amplitudes[_mode_key(data.draw, [-c for c in m])] = np.float64(lam)
    try:
        want = _reference_canonical_amplitudes(amplitudes)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            CovarianceSpec("fourier_diagonal", amplitudes)
        assert str(got.value) == str(err)
        return
    got = CovarianceSpec("fourier_diagonal", amplitudes).amplitudes
    assert got == want
    assert all(type(v) is float for v in got.values())
    assert all(type(k) is tuple and all(type(c) is int for c in k) for k in got)


def test_mode_dimension_must_match_grid():
    spec = CovarianceSpec("fourier_diagonal", {(0,): 0.1, (1,): 0.1})
    with pytest.raises(ValueError, match="grid dim 2"):
        noise_constants(spec, GridSpec(2, 10.0, 16), 1.0)
    spec = CovarianceSpec("fourier_diagonal", {(0, 1): 0.1, (1, 0): 0.1})
    with pytest.raises(ValueError, match="grid dim 1"):
        NoiseSampler(spec, GridSpec(1, 10.0, 16))


def test_physical_kernel_reduces_to_diagonal():
    grid = GridSpec(1, 2 * np.pi, 64)
    width = 0.5
    x = grid.axes[0]
    kern = np.exp(-(x**2) / (2 * width**2))
    spec = CovarianceSpec("physical_kernel", kernel=kern)
    nc = noise_constants(spec, grid, 2.0)
    # multiplier oracle: lambda(xi) = int K(z) cos(xi z) dz (K even, real)
    h = grid.cell_volume
    lam0 = h * np.sum(kern)
    lam1 = h * np.sum(kern * np.cos(x))
    amps = spec.mode_amplitudes(grid)
    assert amps[(0,)] == pytest.approx(lam0, rel=1e-12)
    assert amps[(1,)] == pytest.approx(lam1, rel=1e-12)
    expect_hs00 = sum(v**2 * (1 if k == (0,) else 2) for k, v in amps.items())
    assert nc.hs00 == pytest.approx(expect_hs00, rel=1e-12)


def test_multiplicative_increment_is_real(grid):
    spec = CovarianceSpec("fourier_diagonal", {(1,): 0.5})
    dw = NoiseSampler(spec, grid).sample_rows((0.1,), (make_rng(1, 1),))[0]
    assert np.isrealobj(dw)


def test_2d_constants_and_sampling():
    grid = GridSpec(2, 10.0, 16)
    spec = CovarianceSpec("fourier_diagonal", {(0, 0): 0.2, (1, 0): 0.1, (1, 1): 0.1})
    nc = noise_constants(spec, grid, 1.0)
    assert nc.hs00 == pytest.approx(0.2**2 + 2 * 0.1**2 + 2 * 0.1**2, rel=1e-12)
    dw = NoiseSampler(spec, grid).sample_rows((0.1,), (make_rng(0, 0),))[0]
    assert dw.shape == grid.shape


# Dense cos/sin reference: the basis fields phi e_k and their exact gradients
# in draw order, streamed one at a time.  This is the test oracle for the
# spectral sampler and the closed-form constants.
def _dense_basis(spec, grid):
    amps = spec.mode_amplitudes(grid)
    vol = float(np.prod(grid.extent))
    for mode in sorted(amps):
        lam = amps[mode]
        xi = [2.0 * np.pi * m / L for m, L in zip(mode, grid.extent)]
        if not any(mode):
            yield lam, np.full(grid.shape, vol**-0.5), np.zeros((grid.dim,) + grid.shape)
            continue
        phase = sum(c * x for c, x in zip(xi, grid.coords))
        cosf = math.sqrt(2.0 / vol) * np.cos(phase)
        sinf = math.sqrt(2.0 / vol) * np.sin(phase)
        yield lam, cosf, np.stack([-c * sinf for c in xi])
        yield lam, sinf, np.stack([c * cosf for c in xi])


def _dense_draw(spec, grid, dt, rng):
    g = iter(rng.standard_normal(sum(2 if any(m) else 1 for m in spec.mode_amplitudes(grid))))
    return sum(math.sqrt(dt) * lam * next(g) * f for lam, f, _ in _dense_basis(spec, grid))


def _dense_constants(spec, grid, sigma):
    h, p, n = grid.cell_volume, 2.0 * sigma + 2.0, grid.dim
    F = np.zeros(grid.shape)
    f1 = np.zeros(grid.shape)
    hs00 = c1 = c_rad = c_sigma = 0.0
    for lam, f, grad in _dense_basis(spec, grid):
        gsq = np.sum(grad**2, axis=0)
        F += lam**2 * f**2
        f1 += lam**2 * gsq
        hs00 += lam**2 * h * np.sum(f**2)
        c1 += lam**2 * h * np.sum(gsq)
        c_rad += lam**2 * (h * np.sum(np.abs(f) ** p)) ** (2.0 / p)
        c_sigma += lam**2 * h * np.sum(grid.radius_sq * f**2)
    hs01 = hs00 + c1
    interp = hs01 ** (n * sigma / (2.0 * p)) * hs00 ** ((2.0 - (n - 2) * sigma) / (2.0 * p))
    return dict(hs00=hs00, hs01=hs01, F_phi=F, f1_phi=f1, M_phi=np.max(f1),
                C_phi_interp=interp, C_rad_2s2=c_rad, C_phi_Sigma=c_sigma, C_phi_1=c1,
                C_phi_2=0.0)


def _oracle_cases():
    g1 = GridSpec(1, 7.0, 16, dealias_fraction=1.0)
    yield "1d-nyquist", g1, CovarianceSpec(
        "fourier_diagonal", {(0,): 0.3, (1,): 0.2, (5,): 0.15, (8,): 0.1}), 2.0
    # (1, +-4), (6, +-4) and (6, 0) sit on Nyquist bins of the (12, 8) grid;
    # the +-4 pairs share one bin each
    g2 = GridSpec(2, (10.0, 6.0), (12, 8), dealias_fraction=1.0)
    yield "2d-anisotropic", g2, CovarianceSpec("fourier_diagonal", {
        (0, 0): 0.2, (1, 4): 0.1, (1, -4): 0.15, (2, -3): 0.05, (0, 4): 0.07,
        (6, 0): 0.03, (6, 4): 0.02, (6, -4): 0.01, (3, 1): 0.04, (0, 1): 0.06}), 1.3
    gk = GridSpec(2, (2 * np.pi, 8.0), (48, 56))
    yield "2d-kernel", gk, CovarianceSpec(
        "physical_kernel", kernel=np.exp(-gk.radius_sq / (2 * 0.5**2)), scale=0.3), 2.5
    ga = GridSpec(3, (6.0, 8.0, 5.0), (8, 12, 10), dealias_fraction=1.0)
    yield "3d-anisotropic", ga, CovarianceSpec("fourier_diagonal", {
        (0, 0, 0): 0.1, (1, 2, -3): 0.2, (0, 1, 5): 0.05, (4, -6, 1): 0.07,
        (2, 0, -5): 0.03, (3, 3, 3): 0.04, (0, 0, 2): 0.08, (4, 6, -5): 0.02}), 0.7
    g3 = GridSpec(3, 20.0, 32, dealias_fraction=1.0)
    yield "3d-32", g3, CovarianceSpec(
        "fourier_diagonal", gaussian_spectrum_amplitudes(g3, 0.05, 1.0, 4)), 1.0


ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_spectral_draw_matches_dense_basis(case):
    _, grid, spec, _ = case
    sampler = NoiseSampler(spec, grid)
    rng, ref_rng = make_rng(11, 2), make_rng(11, 2)
    for dt in (0.1, 0.003):
        dw = sampler.sample_rows((dt,), (rng,))[0]
        ref = _dense_draw(spec, grid, dt, ref_rng)
        assert dw.shape == grid.shape
        assert np.max(np.abs(dw - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_closed_form_constants_match_dense_quadrature(case):
    _, grid, spec, sigma = case
    nc = noise_constants(spec, grid, sigma)
    ref = _dense_constants(spec, grid, sigma)
    for name, want in ref.items():
        got = np.asarray(getattr(nc, name))
        assert got.shape == np.shape(want), name
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_draw_consumes_exactly_n_basis_normals():
    grid = GridSpec(2, (10.0, 6.0), (12, 8), dealias_fraction=1.0)
    spec = CovarianceSpec("fourier_diagonal", {(0, 0): 0.2, (1, 4): 0.1, (1, -4): 0.1, (2, 1): 0.3})
    sampler = NoiseSampler(spec, grid)
    assert sampler.n_basis == 7
    rng, ref = make_rng(4, 9), make_rng(4, 9)
    sampler.sample_rows((0.01,), (rng,))
    ref.standard_normal(sampler.n_basis)
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


def test_3d_sampler_holds_no_basis():
    grid = GridSpec(3, 20.0, 32, dealias_fraction=1.0)
    spec = CovarianceSpec("fourier_diagonal", gaussian_spectrum_amplitudes(grid, 0.05, 1.0, 4))
    sampler = NoiseSampler(spec, grid)
    assert sampler.n_basis == 729
    assert not hasattr(sampler, "basis") and not hasattr(sampler, "basis_grad")
    held = sum(v.nbytes for v in vars(sampler).values() if isinstance(v, np.ndarray))
    assert held < 2e6


def _reference_kernel_amplitudes(spec, grid):
    """Per-grid-point loop over the kernel multiplier: the reference for mode_amplitudes."""
    mult = grid.cell_volume * np.real(np.fft.fftn(np.fft.ifftshift(spec.kernel)))
    tol = spec.kernel_floor * float(np.max(np.abs(mult)))
    flat = [k.ravel() for k in np.meshgrid(*grid.mode_indices, indexing="ij")]
    amps = {}
    for i, lam in enumerate(mult.ravel()):
        if lam <= tol:
            continue
        mode = tuple(int(k[i]) for k in flat)
        sign = next((1 if m > 0 else -1 for m in mode if m != 0), 1)
        amps[tuple(sign * m for m in mode)] = spec.scale * float(lam)
    return amps


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_mode_amplitudes_match_per_point_loop(dim):
    grid = GridSpec(dim, 2 * np.pi, 64) if dim == 1 else GridSpec(2, (8.0, 6.0), (16, 24))
    r2 = sum(x**2 for x in grid.coords)
    spec = CovarianceSpec("physical_kernel", kernel=np.exp(-r2 / (2 * 0.5**2)), scale=0.7)
    got = spec.mode_amplitudes(grid)
    want = _reference_kernel_amplitudes(spec, grid)
    assert list(got) == list(want)
    assert all(np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes() for k in want)
    assert all(type(m) is int for k in got for m in k)


def _irfftn_reference(sampler, normals, dts, complex_valued, irfftn=np.fft.irfftn):
    """The increments of numpy's irfftn (or the irfftn given) over whole half
    spectra: each row's scaled normals scattered into a half spectrum of the
    full grid, the normals of a shared slot added in order, with slots worked
    out here from the mode table."""
    grid = sampler.grid
    modes, _ = _mode_table(sampler.spec, grid)
    per_pair = np.where(modes.any(axis=1), 2, 1)
    pair = np.repeat(np.arange(len(modes)), per_pair)
    is_sin = np.arange(pair.size) - (np.cumsum(per_pair) - per_pair)[pair]
    last = modes[:, -1]
    flip = (last < 0) & (2 * last != -grid.points[-1])  # conj(c) at -m, off the Nyquist bin
    target = np.where(flip[:, None], -modes, modes) % grid.points
    half_shape = grid.shape[:-1] + (grid.points[-1] // 2 + 1,)
    slots = 2 * np.ravel_multi_index(tuple(target.T), half_shape)[pair] + is_sin
    g = normals * np.multiply.outer([dt**0.5 for dt in dts], sampler._coef)[:, None]
    half = np.zeros((g.shape[0] * g.shape[1],) + half_shape, complex)
    parts = half.reshape(len(half), -1).view(np.float64)
    for row, values in zip(parts, g.reshape(len(half), -1)):
        if np.unique(slots).size == slots.size:
            row[slots] = values
        else:
            np.add.at(row, slots, values)
    out = irfftn(half, grid.shape, axes=range(1, grid.dim + 1))
    if not complex_valued:
        return out
    out = out.reshape((-1, 2) + grid.shape)
    return out[:, 0] / np.sqrt(2.0) + 1j * (out[:, 1] / np.sqrt(2.0))


@st.composite
def _sampler_cases(draw):
    """A grid and a covariance: drawn modes (Nyquist components included, so pairs
    such as (1, 4) and (1, -4) at N = 8 share a slot), a Gaussian spectrum of
    k_max 0-4, or the 2d physical kernel of the oracle cases."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["modes", "gaussian"] + (["kernel"] if dim == 2 else [])))
    if kind == "kernel":
        _, grid, spec, _ = next(c for c in ORACLE_CASES if c[0] == "2d-kernel")
        return grid, spec
    points = tuple(draw(st.sampled_from([8, 10, 12, 16])) for _ in range(dim))
    extent = tuple(draw(st.sampled_from([5.0, 2 * np.pi, 9.0])) for _ in range(dim))
    grid = GridSpec(dim, extent, points, dealias_fraction=1.0)
    if kind == "gaussian":
        k_max = draw(st.integers(0, 4))
        return grid, CovarianceSpec(
            "fourier_diagonal", gaussian_spectrum_amplitudes(grid, 0.3, 0.7, k_max))
    amplitudes = {}
    for _ in range(draw(st.integers(0, 8))):
        m = tuple(draw(st.integers(-n // 2, n // 2)) for n in points)
        amplitudes[m] = 0.1 / (1 + sum(map(abs, m)))  # the same for m and -m
    return grid, CovarianceSpec("fourier_diagonal", amplitudes)


@settings(max_examples=150, deadline=None)
@given(case=_sampler_cases(), seed=st.integers(0, 2**32 - 1),
       calls=st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=3))
def test_synthesize_is_bitwise_irfftn(case, seed, calls):
    # one sampler over several calls, so its scratch spectra are reused and resized
    grid, spec = case
    sampler = NoiseSampler(spec, grid)
    rng = np.random.default_rng(seed)
    for n_rows, complex_valued in calls:
        normals = rng.standard_normal((n_rows, 1 + complex_valued, sampler.n_basis))
        dts = rng.choice([1e-3, 0.01, 0.5], n_rows).tolist()
        kept = normals.copy()
        got = sampler.synthesize(normals, dts, complex_valued)
        want = _irfftn_reference(sampler, normals, dts, complex_valued)
        assert got.shape == want.shape == (n_rows,) + grid.shape
        assert got.tobytes() == want.tobytes()
        assert normals.tobytes() == kept.tobytes()
