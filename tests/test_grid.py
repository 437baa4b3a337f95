import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from snls.grid import FieldState, GridSpec, boundary_fraction_rows, mass, tail_fraction_rows
from snls.observables import observe
from snls.verify import random_smooth_field


def grad_sq(u: FieldState) -> float:
    """||grad u||^2 as observe records it."""
    return observe(u, 0.0, 1.0, 0.0, 1.0).grad_sq


def variance(grid: GridSpec, values) -> float:
    """V(u) = int |x|^2 |u|^2 as observe records it."""
    return observe(FieldState(grid, values), 0.0, 1.0, 0.0, 1.0).variance


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 10.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 10.0, 63)  # odd
    with pytest.raises(ValueError):
        GridSpec(1, 10.0, 4)  # too small
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 10.0, 64, dealias_fraction=0.0)


def test_quadrature_constant_field():
    # u == 1 on L = 2 pi: M(u) = 2 pi, exact for a constant
    for N in (8, 64, 130):
        g = GridSpec(1, 2 * np.pi, N)
        u = FieldState(g, np.ones(N, dtype=complex))
        assert mass(u) == pytest.approx(2 * np.pi, rel=1e-14)


def test_quadrature_zero_field():
    g = GridSpec(1, 10.0, 64)
    u = FieldState(g, np.zeros(64, dtype=complex))
    assert mass(u) == 0.0


def test_quadrature_sech_vs_quad_oracle():
    g = GridSpec(1, 40.0, 512)
    u = FieldState(g, 1.0 / np.cosh(g.axes[0]))
    oracle = 2.0 * quad(lambda x: 1.0 / np.cosh(x) ** 2, 0, 30, epsabs=1e-14)[0]
    assert oracle == pytest.approx(2.0, abs=1e-12)  # int sech^2 = 2
    assert mass(u) == pytest.approx(oracle, abs=1e-10)


def test_quadrature_rejects_bad_input():
    g = GridSpec(1, 10.0, 64)
    u = FieldState(g, np.full(64, np.nan, dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        mass(u)


def test_gradient_single_mode():
    g = GridSpec(1, 2 * np.pi, 64)
    xi0 = 3.0  # mode 3 on L = 2 pi
    u_raw = np.exp(1j * xi0 * g.axes[0])
    u = FieldState(g, u_raw / np.sqrt(mass(FieldState(g, u_raw))))
    assert mass(u) == pytest.approx(1.0, rel=1e-13)
    assert grad_sq(u) == pytest.approx(xi0**2, rel=1e-12)


def test_gradient_constant_is_zero():
    g = GridSpec(1, 10.0, 64)
    u = FieldState(g, np.full(64, 2.3 + 1.1j))
    assert grad_sq(u) == pytest.approx(0.0, abs=1e-20)


def test_gradient_sech_vs_quad_oracle():
    g = GridSpec(1, 40.0, 512)
    u = FieldState(g, 1.0 / np.cosh(g.axes[0]))
    oracle = 2.0 * quad(lambda x: (np.tanh(x) / np.cosh(x)) ** 2, 0, 30, epsabs=1e-14)[0]
    assert oracle == pytest.approx(2.0 / 3.0, abs=1e-12)  # int sech^2 tanh^2 = 2/3
    assert grad_sq(u) == pytest.approx(oracle, abs=1e-10)


def test_variance_zero_field():
    g = GridSpec(1, 10.0, 64)
    assert variance(g, np.zeros(64)) == 0.0


def test_variance_sech_vs_quad_oracle():
    g = GridSpec(1, 40.0, 512)
    u = FieldState(g, 1.0 / np.cosh(g.axes[0]))
    oracle = 2.0 * quad(lambda x: x**2 / np.cosh(x) ** 2, 0, 35, epsabs=1e-14)[0]
    assert oracle == pytest.approx(np.pi**2 / 6.0, abs=1e-10)
    assert variance(g, u.values) == pytest.approx(
        np.pi**2 / 6.0, abs=1e-8)


def test_variance_translation_rule():
    # V(u(. - x0)) = V + 2 x0 . first_moment + x0^2 M, brute-force oracle
    g = GridSpec(1, 40.0, 512)
    x = g.axes[0]
    u_vals = np.exp(-((x + 3.0) ** 2))  # keep both copies away from the edge
    h = g.spacing[0]
    x0 = 5.0
    shift = int(round(x0 / h))
    v0 = variance(g, u_vals)
    m = mass(FieldState(g, u_vals))
    first_moment = h * np.sum(x * np.abs(u_vals) ** 2)
    v_shift = variance(g, np.roll(u_vals, shift))
    brute = h * np.sum(x**2 * np.abs(np.roll(u_vals, shift)) ** 2)
    assert v_shift == pytest.approx(brute, rel=1e-14)
    assert v_shift == pytest.approx(v0 + 2 * x0 * first_moment + x0**2 * m, rel=1e-9)


def test_dealias_band_count_1d():
    # fraction 2/3 on N = 512: mode numbers |k| <= 170 survive, 341 modes
    g = GridSpec(1, 10.0, 512)
    kept = g.dealias_mask
    k = g.mode_indices[0]
    expected = np.abs(k) <= (2.0 / 3.0) * 256 + 1e-9  # direct enumeration oracle
    assert np.array_equal(kept, expected)
    assert int(kept.sum()) == 341 == (2 * 512) // 3
    # retained set symmetric about 0
    assert np.array_equal(np.sort(k[kept]), -np.sort(-k[kept])[::-1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_parseval_random_fields(seed):
    g = GridSpec(1, 25.0, 128)
    u = random_smooth_field(g, np.random.default_rng(seed))
    m = mass(u)
    spec_mass = g.cell_volume / g.total_points * np.sum(np.abs(u.spectral) ** 2)
    assert abs(m - spec_mass) <= 1e-12 * max(m, 1e-30)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), theta=st.floats(0, 2 * np.pi))
def test_gradient_gauge_invariance(seed, theta):
    g = GridSpec(1, 25.0, 128)
    u = random_smooth_field(g, np.random.default_rng(seed))
    rotated = u.with_values(np.exp(1j * theta) * u.values)
    assert grad_sq(rotated) == pytest.approx(grad_sq(u), rel=1e-12)


def test_fft_roundtrip_and_cache():
    g = GridSpec(2, (10.0, 12.0), (32, 64))
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
    u = FieldState(g, vals)
    assert u._spectral is None  # nothing transformed until asked
    spec = u.spectral
    assert u.spectral is spec  # cached, not recomputed
    back = np.fft.ifftn(spec)
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_3d_grid_quadrature():
    g = GridSpec(3, 8.0, 16)
    u = FieldState(g, np.ones(g.shape, dtype=complex))
    assert mass(u) == pytest.approx(8.0**3, rel=1e-13)


def _reference_boundary_fraction(state, shell):
    g = state.grid
    outer = np.zeros(g.shape, dtype=bool)
    for x, L in zip(g.coords, g.extent):
        outer |= np.abs(x) > (1.0 - shell) * (L / 2.0)
    total = np.sum(np.abs(state.values) ** 2)
    return 0.0 if total == 0.0 else float(np.sum(np.abs(state.values[outer]) ** 2) / total)


def _reference_tail_fraction(state, inner):
    g = state.grid
    uh2 = np.abs(state.spectral) ** 2
    tail = np.zeros(g.shape, dtype=bool)
    for axis, (k, N) in enumerate(zip(g.mode_indices, g.points)):
        sel = np.abs(k) > inner * g.dealias_fraction * (N / 2.0)
        shape = [1] * g.dim
        shape[axis] = N
        tail |= sel.reshape(shape)
    tail &= g.dealias_mask
    total = np.sum(uh2[g.dealias_mask])
    return 0.0 if total == 0.0 else float(np.sum(uh2[tail]) / total)


@pytest.mark.parametrize("grid", [GridSpec(1, 10.0, 64),
                                  GridSpec(2, (8.0, 12.0), (16, 24), dealias_fraction=1.0),
                                  GridSpec(3, 6.0, 8)])
def test_cached_masks_match_per_call_reference(grid):
    rng = np.random.default_rng(3)
    u = FieldState(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    abs2 = np.abs(u.values) ** 2
    for _ in range(2):  # the second pass reads the cached masks
        for shell in (0.1, 0.3):
            assert (boundary_fraction_rows(grid, abs2, [np.sum(abs2)], shell)[0]
                    == _reference_boundary_fraction(u, shell))
        for inner in (0.75, 0.5):
            assert tail_fraction_rows(u, inner)[0] == _reference_tail_fraction(u, inner)
    zero = FieldState(grid, np.zeros(grid.shape))
    assert (boundary_fraction_rows(grid, np.zeros(grid.shape), [0.0])[0] == 0.0
            and tail_fraction_rows(zero)[0] == 0.0)
