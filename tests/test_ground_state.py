import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import snls
from snls.grid import GridSpec
from snls.ground_state import (
    GroundStateError,
    _CubicSpline,
    _gtsv,
    classify_regime,
    energy_three_ways,
    explicit_q_1d,
    ground_state_variance,
    scaling_index,
    sharp_gn_constant,
    solve_ground_state,
    threshold_abscissa,
)


def test_scaling_index_values():
    assert scaling_index(1, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert scaling_index(3, 1.0) == pytest.approx(0.5)
    assert scaling_index(2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert classify_regime(1, 2.0) == "critical"
    assert classify_regime(3, 1.0) == "intercritical"
    assert classify_regime(1, 1.0) == "subcritical"


def test_alpha_exponent():
    # GroundState.alpha is (1-s_c)/s_c; check it against (2-(n-2)sigma)/(n sigma - 2)
    for n, sigma, want in ((3, 1.0, 1.0), (1, 3.0, 5.0)):
        alpha = solve_ground_state(n, sigma).alpha
        assert alpha == pytest.approx((2.0 - (n - 2) * sigma) / (n * sigma - 2.0), rel=1e-14)
        assert alpha == pytest.approx(want)
    assert solve_ground_state(1, 2.0).alpha is None  # s_c = 0


def test_explicit_profile_values():
    assert explicit_q_1d(2.0, 0.0) == pytest.approx(3.0**0.25, rel=1e-15)
    assert explicit_q_1d(1.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # even in x
    assert explicit_q_1d(2.0, 1.3) == pytest.approx(explicit_q_1d(2.0, -1.3), rel=1e-15)
    x = np.linspace(0, 5, 50)
    q = explicit_q_1d(2.0, x)
    assert np.all(np.diff(q) < 0)  # strictly decreasing in |x|


def test_explicit_mass_sigma2_quadrature_oracle():
    # M(Q) = int (1+s)^(1/s) sech^(2/s)(s x) dx = sqrt(3) pi / 2 for s = 2
    oracle = 2.0 * quad(lambda x: explicit_q_1d(2.0, x) ** 2, 0, 40, epsabs=1e-14)[0]
    assert oracle == pytest.approx(math.sqrt(3.0) * math.pi / 2.0, rel=1e-12)
    gs = solve_ground_state(1, 2.0)
    assert gs.mass == pytest.approx(oracle, rel=1e-12)
    assert gs.mass == pytest.approx(2.72070, abs=5e-6)


@pytest.mark.parametrize("n,sigma,tol", [(1, 2.0, 1e-8), (1, 3.0, 1e-8),
                                         (2, 1.0, 1e-6), (3, 1.0, 1e-6)])
def test_pokhozhaev_residuals(n, sigma, tol):
    gs = solve_ground_state(n, sigma)
    r1, r2 = gs.pokhozhaev_residuals()
    assert r1 <= tol and r2 <= tol


@pytest.mark.parametrize("n,sigma,tol", [(1, 2.0, 1e-8), (1, 3.0, 1e-8),
                                         (2, 1.0, 1e-6), (3, 1.0, 1e-6)])
def test_energy_triple_consistency(n, sigma, tol):
    gs = solve_ground_state(n, sigma)
    h_def, h_mass, h_grad = energy_three_ways(gs)
    scale = max(abs(h_def), gs.mass)
    assert abs(h_def - h_mass) <= tol * scale
    assert abs(h_def - h_grad) <= tol * scale


def test_ratio_grad_to_mass_1d_s2():
    # Pokhozhaev: ||grad Q||^2 / M(Q) = n sigma / (2 - (n-2) sigma) = 1/2
    gs = solve_ground_state(1, 2.0)
    assert gs.grad_sq / gs.mass == pytest.approx(0.5, rel=1e-12)
    assert gs.energy == pytest.approx(0.0, abs=1e-10)  # H(Q) = 0 at s_c = 0


def test_solver_matches_explicit_1d():
    gs = solve_ground_state(1, 3.0)
    assert np.max(np.abs(gs.profile - explicit_q_1d(3.0, gs.r))) < 1e-10


def test_2d_cubic_literature_sanity():
    gs = solve_ground_state(2, 1.0)
    assert gs.mass == pytest.approx(11.70, abs=0.01)  # classical cross-check


def test_radial_profile_positive_decreasing_with_tail():
    gs = solve_ground_state(3, 1.0)
    assert np.all(gs.profile > 0)
    assert np.all(np.diff(gs.profile) < 1e-12)
    # exponential tail bound on the outer quarter of the sampled radius
    outer = gs.r > 0.75 * gs.r[-1]
    c = 2.0 * gs.profile[0]
    assert np.all(gs.profile[outer] <= c * np.exp(-gs.r[outer] / 2.0))


def test_supercritical_rejected():
    with pytest.raises(ValueError, match="energy-supercritical"):
        solve_ground_state(3, 2.0)
    with pytest.raises(GroundStateError):
        # unreachable residual tolerance must be reported, not silently accepted
        solve_ground_state(2, 1.0, tol=1e-15)


def test_gn_constant_critical_case():
    # s_c = 0: K = sigma + 1
    for n, sigma in ((1, 2.0), (2, 1.0)):
        _, K = sharp_gn_constant(n, sigma, 1.0)
        assert K == pytest.approx(sigma + 1.0, rel=1e-14)


def test_gn_constant_3d_cubic_closed_form_and_gaussian_oracle():
    gs = solve_ground_state(3, 1.0)
    assert gs.gn_K == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-14)

    # Gaussian trial functions cannot beat the sharp constant.  Closed forms
    # for u = exp(-|x|^2/(2 w^2)) in 3d: ||u||_2^2 = (pi w^2)^(3/2),
    # ||grad u||^2 = (3/(2 w^2)) ||u||_2^2, ||u||_4^4 = (pi/2)^(3/2) w^3.
    best = 0.0
    for w in np.geomspace(0.2, 5.0, 200):
        l2sq = (math.pi * w**2) ** 1.5
        grad_sq = 1.5 / w**2 * l2sq
        l4 = (math.pi / 2.0) ** 1.5 * w**3
        best = max(best, l4 / (grad_sq**1.5 * l2sq**0.5))
    assert best <= gs.C_GN * (1 + 1e-12)
    assert best >= 0.5 * gs.C_GN  # the Gaussian family is not absurdly far off


def test_gn_equality_at_q():
    gs = solve_ground_state(3, 1.0)
    n, sigma = 3, 1.0
    rhs = gs.C_GN * gs.grad_sq ** (n * sigma / 2.0) * gs.mass ** ((2 - (n - 2) * sigma) / 2.0)
    assert gs.lp2s2 == pytest.approx(rhs, rel=1e-8)


def test_threshold_abscissa_identities():
    gs = solve_ground_state(3, 1.0)
    x_star, f_xstar = threshold_abscissa(gs)
    # independent evaluations of both sides
    assert x_star**2 == pytest.approx(gs.grad_sq * gs.mass**gs.alpha, rel=1e-5)
    assert f_xstar == pytest.approx(gs.energy * gs.mass**gs.alpha, rel=1e-5)
    # f increasing on (0, x*), f(0) = 0
    B = gs.C_GN / (gs.sigma + 1.0)
    f = lambda x: 0.5 * (x**2 - B * x ** (gs.n * gs.sigma))
    xs = np.linspace(0, x_star, 200)
    assert f(0.0) == 0.0
    assert np.all(np.diff(f(xs)) > 0)


def test_threshold_requires_intercritical():
    gs = solve_ground_state(1, 2.0)
    with pytest.raises(ValueError):
        threshold_abscissa(gs)
    assert gs.x_star is None


def test_ground_state_variance_1d_oracle():
    gs = solve_ground_state(1, 2.0)
    oracle = 2.0 * quad(lambda x: x**2 * explicit_q_1d(2.0, x) ** 2, 0, 40,
                        epsabs=1e-13)[0]
    assert ground_state_variance(gs) == pytest.approx(oracle, rel=1e-7)


def test_profile_at_matches_explicit():
    gs = solve_ground_state(1, 2.0)
    r = np.linspace(0, 20, 777)
    assert np.max(np.abs(gs.profile_at(r) - explicit_q_1d(2.0, r))) < 1e-14
    gs3 = solve_ground_state(3, 1.0)
    # spline consistency at the sample points themselves
    assert np.max(np.abs(gs3.profile_at(gs3.r) - gs3.profile)) < 1e-12


def _scipy_profile_at(gs, radius):
    """profile_at as it was with scipy.interpolate.CubicSpline: the oracle."""
    from scipy.interpolate import CubicSpline

    r_e, q_e = gs.r[-1], gs.profile[-1]
    q = CubicSpline(gs.r, gs.profile)(np.minimum(radius, r_e))
    beyond = radius > r_e
    decay = (r_e / radius[beyond]) ** ((gs.n - 1) / 2.0)
    q[beyond] = q_e * decay * np.exp(-(radius[beyond] - r_e))
    return q


@pytest.mark.parametrize("n,sigma", [(2, 1.0), (3, 1.0), (2, 1.5), (3, 0.7)])
def test_profile_spline_is_scipy_cubic_spline_bitwise(n, sigma):
    from scipy.interpolate import CubicSpline

    gs = solve_ground_state(n, sigma)
    ref = CubicSpline(gs.r, gs.profile)
    spline = _CubicSpline(gs.r, gs.profile)
    assert spline.uniform
    for k in range(4):
        assert spline.c[k].tobytes() == ref.c[k].tobytes()
    r_e = gs.r[-1]
    mid = (gs.r[:-1] + gs.r[1:]) / 2.0
    grid = GridSpec(n, (20.0, 30.0, 12.0)[:n], (32, 16, 8)[:n])
    for radius in (np.array([0.0]), gs.r, mid, np.array([r_e, np.nextafter(r_e, 0.0)]),
                   np.linspace(0.0, r_e, 4097), np.sqrt(grid.radius_sq)):
        assert spline(radius).tobytes() == ref(radius).tobytes()
        assert np.array_equal(spline.interval(radius),
                              np.clip(np.searchsorted(gs.r, radius, side="right") - 1,
                                      0, len(gs.r) - 2))
    # profile_at, tail branch included
    radius = np.concatenate(([0.0, r_e, 1.5 * r_e, 3.0 * r_e], np.sqrt(grid.radius_sq).ravel()))
    assert gs.profile_at(radius).tobytes() == _scipy_profile_at(gs, radius).tobytes()
    for scalar in (0.0, r_e / 2.0, 1.5 * r_e):  # a number gives a 0-d array, as before
        q = gs.profile_at(scalar)
        assert q.shape == () and q.tobytes() == gs.profile_at(np.array([scalar])).tobytes()


def test_profile_spline_is_scipy_cubic_spline_on_uneven_knots():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(3)
    x = np.cumsum(rng.uniform(0.1, 2.0, 60))
    y = np.sin(x) + rng.normal(0.0, 0.1, 60)
    spline, ref = _CubicSpline(x, y), CubicSpline(x, y)
    assert not spline.uniform
    assert all(spline.c[k].tobytes() == ref.c[k].tobytes() for k in range(4))
    v = np.concatenate(([x[0] - 1.0], x, rng.uniform(x[0], x[-1], 1000)))
    assert spline(v).tobytes() == ref(v).tobytes()


def test_tridiagonal_solve_is_lapack_gtsv_bitwise():
    # random systems, so that rows are interchanged, against dgtsv itself
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(0)
    for n in range(3, 40):
        dl, d, du, b = (rng.normal(size=m) for m in (n - 1, n, n - 1, n))
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        ref = solve_banded((1, 1), ab, b.reshape(n, 1)).ravel()
        got = np.array(_gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))
        assert got.tobytes() == ref.tobytes()


def test_a_run_imports_no_scipy_module():
    # a fresh process, because this one has imported scipy.integrate and more
    code = (
        "import sys\n"
        "import snls.cli\n"
        "from snls.config import ExperimentConfig, materialize\n"
        "from snls.dynamics import Trajectory\n"
        "from snls.initial_data import initial_state\n"
        "def run(**doc):\n"
        "    cfg = ExperimentConfig.from_dict({'name': 'path',\n"
        "        'initial_data': {'family': 'scaled_ground_state',\n"
        "                         'params': {'mass_fraction': 0.64}},\n"
        "        'run': {'dt': 1e-3, 'T_end': 0.005, 'record_stride': 2}, **doc})\n"
        "    grid, gs, sim, cov, init, _ = materialize(cfg)\n"
        "    path = Trajectory(sim, [initial_state(init, grid, gs, 0, 0)], cov, [(0, 0)])\n"
        "    while path.advance():\n"
        "        pass\n"
        "    assert path.rows[0].status.time > 0\n"
        "run(grid={'dim': 1, 'extent': 20.0, 'points': 64},\n"
        "    physics={'n': 1, 'sigma': 2.0, 'noise_type': 'additive'},\n"
        "    covariance={'kind': 'fourier_diagonal', 'scale': 1.0,\n"
        "                'amplitudes': {'0': 0.1, '1': 0.1}})\n"
        "run(grid={'dim': 3, 'extent': 20.0, 'points': 8},\n"
        "    physics={'n': 3, 'sigma': 1.0, 'noise_type': 'multiplicative'},\n"
        "    covariance={'kind': 'gaussian_spectrum', 'scale': 1.0, 'strength': 0.05,\n"
        "                'width': 1.0, 'k_max': 2})\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))\n")
    src = str(Path(snls.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded.split() == []


# Q(1e-8), M, ||grad Q||^2 and ||Q||^(2s+2) from the radial shooting solver that
# the collocation solver replaced (bisection on Q(0), DOP853 at rtol 1e-12).
SHOOTING_REFERENCE = {
    (2, 1.0): (2.2062008646504996, 11.700896524572006, 11.700896524546188, 23.40179304911689),
    (2, 1.5): (2.0853301695030004, 6.301356017759735, 9.452034026621945, 15.753390044381055),
    (2, 3.0): (1.8890429628255647, 2.040474527817686, 6.121423583409795, 8.161898111224582),
    (3, 0.7): (4.197129816284904, 55.921327598880715, 90.33445227522441, 146.25577987410875),
    (3, 1.0): (4.3373876799771365, 18.89725130256801, 56.69175390761319, 75.58900521017934),
    (3, 1.5): (5.22387856072981, 3.1941966969851383, 28.747770272513574, 31.941966969482237),
    (3, 1.8): (7.405395954833135, 0.6983363130025767, 18.855080450399225, 19.553416763381126),
}


@pytest.mark.parametrize("n,sigma", sorted(SHOOTING_REFERENCE))
def test_radial_solver_matches_shooting_reference(n, sigma):
    gs = solve_ground_state(n, sigma)
    got = (gs.profile[0], gs.mass, gs.grad_sq, gs.lp2s2)
    for value, ref in zip(got, SHOOTING_REFERENCE[n, sigma]):
        assert value == pytest.approx(ref, rel=1e-9)
    assert max(gs.pokhozhaev_residuals()) <= gs.tol
    assert np.all(gs.profile > 0) and np.all(np.diff(gs.profile) < 1e-12)


def test_radial_solver_is_bitwise_independent_of_blas_threads():
    # (3, 1.8) solves at degree 486, where LAPACK's dgesv gives different bits
    # under 1 and 2 OpenBLAS threads
    code = ("import hashlib, numpy as np; from snls.ground_state import solve_ground_state\n"
            "for n, sigma in ((2, 1.0), (3, 1.0), (3, 1.8)):\n"
            "    gs = solve_ground_state(n, sigma)\n"
            "    v = [gs.mass, gs.grad_sq, gs.lp2s2, gs.energy, gs.C_GN]\n"
            "    print(hashlib.sha256(np.array(v).tobytes() + gs.r.tobytes()"
            " + gs.profile.tobytes()).hexdigest())\n")
    src = str(Path(snls.__file__).resolve().parent.parent)
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout)
    assert len(out[0].split()) == 3
    assert out[0] == out[1]
