import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.grid import (FieldState, GridSpec, _require_finite, abs2_power,
                       boundary_fraction_rows, fft_field, ifft_field, mass, row_sums)
from snls.initial_data import ground_state_field
from snls import observables
from snls.observables import _i_xi, classify_dichotomy, observe, observe_rows
from snls.verify import random_smooth_field

ORACLE_GRIDS = [GridSpec(1, 25.0, 128), GridSpec(2, 20.0, 32), GridSpec(3, 16.0, 16)]
ORACLE_SIGMAS = [1.0, 2.0, 3.0, 2.0 / 3.0, 1.3]


def test_ground_state_observables(gs_1d_s2, q_field):
    s = observe(q_field, 0.0, mass(q_field), 0.0, 2.0)
    assert s.energy == pytest.approx(0.0, abs=1e-8)  # H(Q) = 0 at s_c = 0
    assert s.mass == pytest.approx(gs_1d_s2.mass, rel=1e-9)
    assert s.momentum == pytest.approx(0.0, abs=1e-12)  # real field
    assert s.boundary_mass_fraction < 1e-12


def test_x_equals_xstar_at_q(gs_1d_s3):
    grid = GridSpec(1, 30.0, 512)
    q = ground_state_field(gs_1d_s3, grid)
    s = observe(q, 0.0, mass(q), gs_1d_s3.alpha, 3.0)
    assert s.X == pytest.approx(gs_1d_s3.x_star, rel=1e-7)
    assert s.me_product == pytest.approx(gs_1d_s3.me_threshold, rel=1e-7)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 2**31))
def test_gauge_invariance_all_observables(theta, seed):
    grid = GridSpec(1, 25.0, 128)
    u = random_smooth_field(grid, np.random.default_rng(seed))
    s0 = observe(u, 0.0, mass(u), 0.5, 2.0)
    s1 = observe(u.with_values(np.exp(1j * theta) * u.values), 0.0, mass(u), 0.5, 2.0)
    for name in ("mass", "energy", "grad_sq", "lp2s2", "variance", "momentum", "X"):
        a, b = getattr(s0, name), getattr(s1, name)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-12)


def test_momentum_real_field_zero():
    grid = GridSpec(1, 20.0, 128)
    u = FieldState(grid, np.exp(-grid.axes[0] ** 2).astype(complex))
    assert observe(u, 0.0, 1.0, 0.0, 1.0).momentum == pytest.approx(0.0, abs=1e-14)


def test_momentum_boosted_gaussian_oracle():
    # u = e^{i xi0 x} g(x), g real: G = Im int u x. grad(conj u) = -xi0 int x g^2
    grid = GridSpec(1, 30.0, 256)
    x = grid.axes[0]
    g = np.exp(-((x - 1.0) ** 2))
    xi0 = 2.0 * np.pi * 3 / 30.0
    u = FieldState(grid, g * np.exp(1j * xi0 * x))
    brute = -xi0 * grid.cell_volume * np.sum(x * g**2)
    assert observe(u, 0.0, 1.0, 0.0, 1.0).momentum == pytest.approx(brute, rel=1e-10)


def test_gn_bound_every_sample(gs_1d_s2):
    grid = GridSpec(1, 25.0, 128)
    rng = np.random.default_rng(11)
    n, sigma = 1, 2.0
    for _ in range(20):
        u = random_smooth_field(grid, rng)
        s = observe(u, 0.0, mass(u), 0.0, sigma)
        bound = (gs_1d_s2.C_GN * s.grad_sq ** (n * sigma / 2.0)
                 * s.mass ** ((2 - (n - 2) * sigma) / 2.0))
        assert s.lp2s2 <= bound * (1 + 1e-8)


def test_critical_coercivity(gs_1d_s2):
    # M(u) < M(Q) at s_c = 0: grad^2 (1 - (M/MQ)^(2/n)) <= 2H + slack
    grid = GridSpec(1, 40.0, 512)
    q = ground_state_field(gs_1d_s2, grid)
    rng = np.random.default_rng(3)
    for c in (0.3, 0.6, 0.9):
        u = q.with_values(c * q.values * np.exp(1j * rng.uniform(0, 1)))
        s = observe(u, 0.0, mass(u), 0.0, 2.0)
        ratio = (s.mass / gs_1d_s2.mass) ** 2.0  # (M/MQ)^(2/n), n = 1
        lhs = s.grad_sq * (1 - ratio * (1 + 1e-8))
        assert lhs <= 2 * s.energy + 1e-8 * s.grad_sq


def test_classify_critical(gs_1d_s2, q_field):
    below = q_field.with_values(0.9 * q_field.values)
    rep = classify_dichotomy(below, gs_1d_s2)
    assert rep.regime == "global-side"
    assert rep.mass_ratio == pytest.approx(0.81, rel=1e-9)
    above = q_field.with_values(1.1 * q_field.values)
    assert classify_dichotomy(above, gs_1d_s2).regime == "above-threshold"


def test_classify_intercritical_boundary(gs_1d_s3):
    grid = GridSpec(1, 30.0, 512)
    q = ground_state_field(gs_1d_s3, grid)
    rep = classify_dichotomy(q, gs_1d_s3, rel_tol=1e-5)
    assert rep.regime == "boundary"
    assert rep.beta == pytest.approx(1.0, abs=1e-5)
    assert rep.delta0 == pytest.approx(1.0, abs=1e-5)


def test_classify_boosted_is_above_threshold(gs_1d_s3):
    # a large boost raises H(u0) = H(Q) + xi0^2 M(Q)/2 above the threshold,
    # so the classifier must NOT call it blow-up-side
    grid = GridSpec(1, 30.0, 512)
    q = ground_state_field(gs_1d_s3, grid)
    xi0 = 2 * np.pi * 24 / 30.0  # mode 24
    boosted = q.with_values(q.values * np.exp(1j * xi0 * grid.axes[0]))
    s = observe(boosted, 0.0, mass(boosted), gs_1d_s3.alpha, 3.0)
    # quadrature oracle for the boosted energy
    assert s.energy == pytest.approx(gs_1d_s3.energy + xi0**2 * gs_1d_s3.mass / 2,
                                     rel=1e-6)
    rep = classify_dichotomy(boosted, gs_1d_s3)
    assert rep.regime == "above-threshold"
    assert rep.beta > 1.0


def test_classify_blowup_side(gs_1d_s3):
    grid = GridSpec(1, 30.0, 512)
    q = ground_state_field(gs_1d_s3, grid)
    u = q.with_values(1.05 * q.values)
    rep = classify_dichotomy(u, gs_1d_s3)
    assert rep.regime == "blow-up-side"
    assert rep.beta < 1.0 < rep.delta0



def _reference_observe(u, m0, alpha, sigma):
    """observe written out with plain numpy: |u|^2 by abs, |u|^(2 sigma + 2) by a
    float power, the momentum through conj, one FFT per functional."""
    g = u.grid
    h = g.cell_volume
    abs2 = np.abs(u.values) ** 2
    total = np.sum(abs2)
    p = 2.0 * sigma + 2.0
    lp2s2 = h * np.sum(abs2 ** (sigma + 1.0))
    uh = np.fft.fftn(u.values)
    grad_sq = h / g.total_points * np.sum(g.laplacian_symbol * np.abs(uh) ** 2)
    energy = 0.5 * grad_sq - lp2s2 / p
    acc = 0.0
    for x, xi in zip(g.coords, g.wavenumber_mesh):
        du = np.fft.ifftn(1j * xi * uh)
        acc += np.sum(x * np.imag(u.values * np.conj(du)))
    outer = np.zeros(g.shape, dtype=bool)
    for x, L in zip(g.coords, g.extent):
        outer |= np.abs(x) > 0.9 * (L / 2.0)
    variance = h * np.sum(g.radius_sq * abs2)
    return {
        "mass": h * total, "energy": energy, "grad_sq": grad_sq, "lp2s2": lp2s2,
        "variance": variance, "momentum": h * acc,
        "X": math.sqrt(grad_sq) * m0 ** (alpha / 2.0), "me_product": energy * m0**alpha,
        "boundary_mass_fraction": np.sum(abs2[outer]) / total,
        # natural scales of the signed or cancelling values: the two energy
        # terms, the Cauchy-Schwarz bound |G| <= ||x u|| ||grad u||, a mass share
        "scale_energy": 0.5 * grad_sq + lp2s2 / p,
        "scale_momentum": math.sqrt(variance * grad_sq),
    }


@pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["1d", "2d", "3d"])
def test_observe_matches_reference_formulas(grid, sigma):
    u = random_smooth_field(grid, np.random.default_rng(17))
    m0, alpha = 1.7, 0.5
    s = observe(u, 0.25, m0, alpha, sigma)
    ref = _reference_observe(u, m0, alpha, sigma)
    scales = {"energy": ref["scale_energy"], "me_product": ref["scale_energy"] * m0**alpha,
              "momentum": ref["scale_momentum"], "boundary_mass_fraction": 1.0}
    assert s.t == 0.25
    for key in ("mass", "energy", "grad_sq", "lp2s2", "variance", "momentum", "X",
                "me_product", "boundary_mass_fraction"):
        scale = scales.get(key, abs(ref[key]))
        assert abs(getattr(s, key) - ref[key]) <= 1e-13 * scale, key


@pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["1d", "2d", "3d"])
def test_abs2_power_matches_exp_log(grid, sigma):
    u = random_smooth_field(grid, np.random.default_rng(5)).values
    abs2 = u.real**2 + u.imag**2
    abs2[0] = 0.0  # the floor keeps log finite
    exp_log = np.exp(sigma * np.log(np.maximum(abs2, 1e-300)))
    got = abs2_power(abs2, sigma)
    if sigma == int(sigma):
        assert np.max(np.abs(got - exp_log)) <= 1e-14 * np.max(exp_log)
    else:  # a fractional power is the exp-log form itself
        assert np.array_equal(got, exp_log)


def _reference_rows(u, t, m0, alpha, sigma):
    """observe_rows with one row_sums per quantity, the per-quantity formulas it
    replaced: the reference for its stacked reduction, which must match bitwise."""
    g = u.grid
    h = g.cell_volume
    abs2 = u.values.real**2 + u.values.imag**2
    total = row_sums(abs2, g).tolist()
    if not all(map(math.isfinite, total)):
        _require_finite(u)
    k = int(sigma)
    if k == sigma and k >= 1:
        power = abs2
        for _ in range(k - 1):
            power = power * abs2
    else:
        power = np.exp(sigma * np.log(np.maximum(abs2, 1e-300)))
    p = 2.0 * sigma + 2.0
    c = g.cell_volume / g.total_points
    grad = [c * x for x in row_sums(g.laplacian_symbol * np.abs(fft_field(u.values, g.dim)) ** 2,
                                    g).tolist()]
    variance = [h * x for x in row_sums(g.radius_sq * abs2, g).tolist()]
    uh = fft_field(u.values, g.dim)
    acc = 0.0
    for axis in range(g.dim):
        du = ifft_field(_i_xi(g, axis) * uh, g.dim)
        np.conjugate(du, out=du)
        du *= u.values
        acc = acc + row_sums(g.coords[axis] * du.imag, g)
    momentum = (h * acc).tolist()
    columns = zip(t, m0, total, row_sums(abs2 * power, g).tolist(), grad, variance, momentum,
                  boundary_fraction_rows(g, abs2, total))
    rows = []
    for t_row, m0_row, total_row, lp_row, grad_sq, var, mom, boundary in columns:
        lp2s2 = h * lp_row
        energy = 0.5 * grad_sq - lp2s2 / p
        rows.append((float(t_row), h * total_row, energy, grad_sq, lp2s2, var, mom,
                     math.sqrt(grad_sq) * m0_row ** (alpha / 2.0), energy * m0_row**alpha,
                     boundary))
    return rows


ROW_GRIDS = {1: GridSpec(1, 25.0, 64), 2: GridSpec(2, (20.0, 16.0), (16, 12)),
             3: GridSpec(3, 16.0, 8)}


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), n_rows=st.integers(1, 4),
       sigma=st.sampled_from([1.0, 2.0, 3.0, 1.5]), seed=st.integers(0, 2**31),
       single=st.booleans(), stacked=st.booleans())
def test_observe_rows_is_bitwise_the_per_quantity_sums(dim, n_rows, sigma, seed, single,
                                                       stacked):
    # every value, stacked into one reduction or reduced one by one, equals its own row_sums
    grid = ROW_GRIDS[dim]
    rng = np.random.default_rng(seed)
    n_rows = 1 if single else n_rows
    vals = np.stack([random_smooth_field(grid, rng).values for _ in range(n_rows)])
    u = FieldState(grid, vals[0] if single else vals)  # a single field is one row
    t, m0 = rng.uniform(0, 1, n_rows).tolist(), rng.uniform(0.5, 2, n_rows).tolist()
    alpha = float(rng.uniform(0, 1))
    want = _reference_rows(FieldState(grid, u.values), t, m0, alpha, sigma)
    with patch.object(observables, "_STACK_BYTES", observables._STACK_BYTES if stacked else 0):
        assert observe_rows(u, t, m0, alpha, sigma) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cached", [False, True])
def test_observe_rows_leaves_the_state_alone(dim, cached):
    # a record reads u and its cached spectrum and writes into neither
    grid = ROW_GRIDS[dim]
    rng = np.random.default_rng(dim)
    u = FieldState(grid, np.stack([random_smooth_field(grid, rng).values for _ in range(2)]))
    values = u.values.tobytes()
    spectral = u.spectral if cached else None
    spectral_bytes = None if spectral is None else spectral.tobytes()
    observe_rows(u, [0.0, 0.0], [1.0, 1.0], 0.5, 1.0)
    assert u.values.tobytes() == values
    if cached:
        assert u.spectral is spectral and spectral.tobytes() == spectral_bytes
    assert u.spectral.tobytes() == fft_field(np.frombuffer(values, complex).reshape(
        u.values.shape), dim).tobytes()
