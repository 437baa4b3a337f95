import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from snls.config import ExperimentConfig
from snls.ground_state import solve_ground_state
from snls.initial_data import coefficient_moment
from snls.noise_model import CovarianceSpec, noise_constants
from snls.grid import GridSpec
from snls.presets import get_preset
from snls.report import build_theory_report
from snls.theory import (
    apriori_bounds,
    blowup_conditions_additive,
    blowup_conditions_multiplicative,
    blowup_conditions_multiplicative_random,
    gradient_cap,
    mass_moment_bound,
    mass_sup_moment,
    t_star_additive_critical,
    t_star_multiplicative,
    t_star_multiplicative_random,
    t_tilde_additive_intercritical,
)


def t_star_mult_oracle(beta, s_c, n, M_phi, massQ, mass0):
    """Independent route: the positive root Y2 of a Y^2 + b Y - c, squared.

    a = M0^(a+1)/2, b = 3 (n/(2(1-s_c)))^(1/2) (M0 MQ)^((a+1)/2),
    c = (delta gamma - beta) s_c/(2(1-s_c)) MQ^(a+1) with delta, gamma -> 1.
    """
    alpha = (1 - s_c) / s_c
    a = 0.5 * mass0 ** (alpha + 1)
    b = 3.0 * math.sqrt(n / (2 * (1 - s_c))) * (mass0 * massQ) ** ((alpha + 1) / 2)
    c = (1.0 - beta) * s_c / (2 * (1 - s_c)) * massQ ** (alpha + 1)
    disc = b**2 + 4 * a * c
    y2 = (-b + math.sqrt(disc)) / (2 * a)
    return y2**2 / M_phi


def test_t_star_mult_spot_value():
    # (n=3, s_c=1/2, beta=1/2, M_phi=1, mass_ratio=1) -> ~2.29e-3
    v = t_star_multiplicative(0.5, 0.5, 3, 1.0, 1.0)
    assert v == pytest.approx(2.29e-3, rel=2e-3)
    oracle = t_star_mult_oracle(0.5, 0.5, 3, 1.0, 1.0, 1.0)
    assert v == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.05, 0.95), s_c=st.floats(0.05, 0.95),
       n=st.integers(1, 3), mphi=st.floats(0.01, 2.0),
       m0=st.floats(0.2, 3.0), mq=st.floats(0.2, 3.0))
def test_t_star_mult_matches_quadratic_root_oracle(beta, s_c, n, mphi, m0, mq):
    v = t_star_multiplicative(beta, s_c, n, mphi, mq / m0)
    oracle = t_star_mult_oracle(beta, s_c, n, mphi, mq, m0)
    assert v == pytest.approx(oracle, rel=1e-10)


def test_t_star_mult_limits_and_errors():
    assert t_star_multiplicative(0.5, 0.5, 3, 0.0, 1.0) == math.inf
    tiny = t_star_multiplicative(1 - 1e-12, 0.5, 3, 1.0, 1.0)
    assert tiny < 1e-12  # beta -> 1 collapses the bracket
    with pytest.raises(ValueError):
        t_star_multiplicative(1.5, 0.5, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        t_star_multiplicative(0.5, 1.5, 3, 1.0, 1.0)


def test_t_star_mult_monotonicity_sweeps():
    rng = np.random.default_rng(0)
    for _ in range(100):
        beta = rng.uniform(0.05, 0.9)
        s_c = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 4))
        mphi = rng.uniform(0.01, 1.0)
        m0 = rng.uniform(0.3, 2.0)
        mq = 1.0
        t0 = t_star_multiplicative(beta, s_c, n, mphi, mq / m0)
        assert t_star_multiplicative(beta + 0.05, s_c, n, mphi, mq / m0) < t0
        assert t_star_multiplicative(beta, s_c, n, mphi * 1.2, mq / m0) < t0
        assert t_star_multiplicative(beta, s_c, n, mphi, mq / (m0 * 1.1)) < t0


def test_t_star_mult_random_variant():
    # moment substitution: ratio^(1/s_c) -> MQ^(1/s_c) / E(M0^(1/s_c))
    v1 = t_star_multiplicative(0.4, 0.5, 3, 0.7, 2.0)
    v2 = t_star_multiplicative_random(0.4, 0.5, 3, 0.7, 2.0, 1.0 ** (1 / 0.5))
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert t_star_multiplicative_random(0.4, 0.5, 3, 0.0, 2.0, 1.0) == math.inf


@pytest.mark.parametrize("beta, s_c, mphi", [(1.2, 0.5, 0.7), (0.4, 1.5, 0.7),
                                             (0.4, 0.5, -0.7)])
def test_t_star_mult_random_checks_the_hypotheses(beta, s_c, mphi):
    # the same beta in (0, 1), s_c in (0, 1) and M_phi >= 0 as the deterministic horizon
    with pytest.raises(ValueError):
        t_star_multiplicative_random(beta, s_c, 3, mphi, 2.0, 1.0)


def test_eps_star_spot_value_and_argmax_oracle():
    eps0, _ = t_star_additive_critical(0.0, 1.0, 1.0)
    assert abs(eps0 - (3 * math.sqrt(10) - 9)) < 1e-12

    # oracle: maximize phi_delta(eps) = eps (delta^2 (1-eps) - beta^2)/(9+eps)
    # at delta = 1 and compare the argmax with the closed form
    for beta in (0.0, 0.3, 0.7, 0.95):
        res = minimize_scalar(
            lambda e: -(e * ((1 - e) - beta**2) / (9 + e)),
            bounds=(1e-9, 1 - beta**2 - 1e-9), method="bounded",
            options={"xatol": 1e-12})
        eps_star, t_star = t_star_additive_critical(beta, 1.0, 1.0)
        assert eps_star == pytest.approx(res.x, abs=1e-7)
        assert t_star == pytest.approx(-res.fun, rel=1e-7)
        assert eps_star < (1 - beta**2) / 2


def test_t_star_add_crit_limits():
    eps, t = t_star_additive_critical(1 - 1e-13, 1.0, 1.0)
    assert t < 1e-12
    _, t0 = t_star_additive_critical(0.5, 1.0, 2.0)
    _, t1 = t_star_additive_critical(0.5, 2.0, 2.0)
    assert t1 < t0  # decreasing in hs00
    _, t2 = t_star_additive_critical(0.5, 1.0, 4.0)
    assert t2 > t0  # increasing in massQ
    assert t_star_additive_critical(0.3, 0.0, 1.0)[1] == math.inf


def test_t_tilde_limits_and_validation():
    args = dict(massQ=2.7, HQ=0.27, normQ_L2=1.64, s_c=0.5, n=3, sigma=1.0,
                K=4 / (3 * math.sqrt(3)))
    with pytest.raises(ValueError, match="above additive threshold"):
        t_tilde_additive_intercritical(0.8, 0.5, 0.1, 0.1, **args)
    # noise -> 0: T~ -> infinity
    t_prev = 0.0
    for h in (1e-2, 1e-4, 1e-6):
        t_tilde, *_ = t_tilde_additive_intercritical(0.3, 0.2, h, h, **args)
        assert t_tilde > t_prev
        t_prev = t_tilde
    t_inf, *_ = t_tilde_additive_intercritical(0.3, 0.2, 0.0, 0.0, **args)
    assert t_inf == math.inf
    # beta^2 + gamma -> 1: eps~ -> 0, F -> 0, T~ -> 0 (numeric limit sweep)
    prev = math.inf
    for k in (2, 4, 6, 8):
        gamma = 1 - 0.3**2 - 10.0**-k
        t_tilde, eps, F, G, b = t_tilde_additive_intercritical(0.3, gamma, 0.1, 0.1, **args)
        assert t_tilde < prev
        prev = t_tilde
    assert prev < 1e-10


@settings(max_examples=50, deadline=None)
@given(beta=st.floats(0.05, 0.9), frac=st.floats(0.01, 0.99))
def test_eps_tilde_inside_proved_interval(beta, frac):
    # 0 < eps~ < (1 - gamma - beta^2)/(1 - gamma) for valid (beta, gamma)
    gamma = frac * (1 - beta**2)
    if beta**2 + gamma >= 1:
        return
    _, eps, F, G, b = t_tilde_additive_intercritical(
        beta, gamma, 0.1, 0.1, massQ=2.7, HQ=0.27, normQ_L2=1.64,
        s_c=0.5, n=3, sigma=1.0, K=1.0)
    assert 0.0 < eps < (1 - gamma - beta**2) / (1 - gamma)
    assert F > 0.0


def test_mass_moment_bound_examples():
    assert mass_moment_bound(2.0, 4.0, 1.0, 0.0, 0.3) == pytest.approx(4.0 / 0.7)
    assert mass_moment_bound(2.0, 4.0, 0.0, 5.0, 0.3) == pytest.approx(4.0 / 0.7)
    # monotone increasing in t and hs00 (finite-difference sweep)
    base = mass_moment_bound(2.0, 4.0, 1.0, 0.5, 0.3)
    for dt in (0.1, 0.5, 1.0):
        assert mass_moment_bound(2.0, 4.0, 1.0 + dt, 0.5, 0.3) > base
    for dh in (0.1, 0.5):
        assert mass_moment_bound(2.0, 4.0, 1.0, 0.5 + dh, 0.3) > base
    with pytest.raises(ValueError):
        mass_moment_bound(1.0, 4.0, 1.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        mass_moment_bound(2.0, 4.0, 1.0, 0.5, 1.5)


def test_uniform_coefficient_moment_is_exact():
    # E(c^12) for c ~ U[0.5, 0.9], integrated exactly in rationals
    lo, hi = Fraction(1, 2), Fraction(9, 10)
    exact = float((hi**13 - lo**13) / (13 * (hi - lo)))
    got = coefficient_moment({"kind": "uniform", "lo": 0.5, "hi": 0.9}, 12.0)
    assert got == pytest.approx(exact, rel=1e-14)


def test_mass_sup_moment_jensen_extension():
    # below p = 2 the Jensen route C(2)^(p/2) is used
    v = mass_sup_moment(1.0, 2.0, 0.3, 0.1)
    ref = mass_moment_bound(2.0, 4.0, 0.3, 0.1) ** 0.5
    assert v == pytest.approx(ref, rel=1e-14)
    assert mass_sup_moment(2.5, 2.0, 0.3, 0.1) == pytest.approx(
        mass_moment_bound(2.5, 2.0**2.5, 0.3, 0.1), rel=1e-14)


@pytest.fixture(scope="module")
def gs3():
    return solve_ground_state(1, 3.0)


def u0_stats_for(gs, c):
    m = c**2 * gs.mass
    h = 0.5 * c**2 * gs.grad_sq - c**8 / 8.0 * gs.lp2s2
    return {"M": m, "H": h, "V": c**2 * 0.55, "G": 0.0}


def test_blowup_mult_ledger_deterministic_limit(gs3):
    # M_phi = 0, G(u0) <= 0, delta^2 > beta: cond_3 reduces to the variance
    # convexity condition, satisfied for t large
    stats = u0_stats_for(gs3, 1.05)
    led_small = blowup_conditions_multiplicative(stats, gs3, 0.0, 0.05, 1e-6,
                                                 N=25.0, delta=1.2, beta=0.6)
    assert not led_small["cond_3"].passed  # too early: positive lhs
    led = blowup_conditions_multiplicative(stats, gs3, 0.0, 5.0, 1e-6,
                                           N=25.0, delta=1.2, beta=0.6)
    assert led["cond_1"].passed and led["cond_2"].passed and led["cond_3"].passed
    assert led.satisfied


def test_blowup_mult_eps_zero_forces_zero_noise(gs3):
    stats = u0_stats_for(gs3, 1.05)
    led = blowup_conditions_multiplicative(stats, gs3, 1e-8, 1.0, 0.0,
                                           N=25.0, delta=1.2, beta=0.6)
    assert not led["cond_1"].passed  # (cond_1) fails for any M_phi t^2 > 0
    led0 = blowup_conditions_multiplicative(stats, gs3, 0.0, 1.0, 0.0,
                                            N=25.0, delta=1.2, beta=0.6)
    assert led0["cond_1"].passed and led0["cond_2"].passed


def test_blowup_ledgers_are_pure(gs3):
    stats = u0_stats_for(gs3, 1.05)
    a = blowup_conditions_multiplicative(stats, gs3, 1e-6, 2.0, 0.01,
                                         N=25.0, delta=1.2, beta=0.6)
    b = blowup_conditions_multiplicative(stats, gs3, 1e-6, 2.0, 0.01,
                                         N=25.0, delta=1.2, beta=0.6)
    for ca, cb in zip(a.checks, b.checks):
        assert ca.lhs == cb.lhs and ca.rhs == cb.rhs  # bit identical


def test_blowup_mult_double_evaluation_oracle(gs3):
    # worked 1d sigma=3 configuration, recomputed by independent scalar script
    stats = u0_stats_for(gs3, 1.05)
    M_phi, t, eps, N, delta, beta = 1e-5, 2.0, 0.5, 25.0, 1.2, 0.6
    led = blowup_conditions_multiplicative(stats, gs3, M_phi, t, eps, N, delta, beta)
    alpha = gs3.alpha
    lhs1 = 4 * stats["M"] ** (alpha + 1) * M_phi * t**2 * (1 + t / 3)
    lhs2 = (32 / 15) * 1 * 3.0 * stats["M"] ** (alpha + 0.5) * math.sqrt(M_phi) * N * t**2.5
    lhs3 = (stats["V"] * stats["M"] ** alpha + 2 * eps
            + 4 * stats["G"] * stats["M"] ** alpha * t
            - 4 * 3.0 * gs3.s_c * (delta**2 - beta) * gs3.grad_sq
            * gs3.mass**alpha * t**2)
    assert led["cond_1"].lhs == pytest.approx(lhs1, rel=1e-12)
    assert led["cond_2"].lhs == pytest.approx(lhs2, rel=1e-12)
    assert led["cond_3"].lhs == pytest.approx(lhs3, rel=1e-12)


def test_blowup_mult_random_variant(gs3):
    moments = {"M_a1": 2.0, "M_a12": 1.5, "V_Ma": 0.8, "G2_M2a": 0.1}
    led = blowup_conditions_multiplicative_random(moments, gs3, 1e-14, 4.0, 1e-3,
                                                  N=25.0, delta=1.2, beta=0.6)
    lhs1 = 2.0 * 1e-14 * 4.0**3 * (4.0 / 3.0 + 18.0)
    lhs2 = (32 / 15) * 3.0 * 1.5 * math.sqrt(1e-14) * 25.0 * 4.0**2.5
    assert led["cond_1_bis"].lhs == pytest.approx(lhs1, rel=1e-12)
    assert led["cond_2_bis"].lhs == pytest.approx(lhs2, rel=1e-12)
    assert led.satisfied


@pytest.fixture(scope="module")
def noise_consts_small():
    grid = GridSpec(1, 20.0, 128)
    spec = CovarianceSpec("fourier_diagonal", {(1,): 4e-4})
    return noise_constants(spec, grid, 3.0)


def test_blowup_additive_zero_noise_passes(gs3):
    class _NC:
        hs00 = hs01 = C_phi_1 = C_phi_2 = C_phi_Sigma = C_rad_2s2 = 0.0
        C_phi_interp = 0.0
        F_phi = f1_phi = None
        M_phi = 0.0

    stats = u0_stats_for(gs3, 1.05)
    led = blowup_conditions_additive(stats, gs3, _NC(), t=4.0, eps=1e-3,
                                     frak_M=25.0, lam=1.1, beta=0.7, delta=1.2)
    for name in ("cond_1_add", "cond_2_add", "cond_3_add", "cond_4_add"):
        assert led[name].passed
    assert led.satisfied


def test_blowup_additive_eps_zero_fails_with_noise(gs3, noise_consts_small):
    stats = u0_stats_for(gs3, 1.05)
    led = blowup_conditions_additive(stats, gs3, noise_consts_small, t=4.0, eps=0.0,
                                     frak_M=25.0, lam=1.1, beta=0.7, delta=1.2)
    assert not led["cond_1_add"].passed


def test_blowup_additive_double_evaluation(gs3, noise_consts_small):
    nc = noise_consts_small
    stats = u0_stats_for(gs3, 1.05)
    t, eps, frak_M, lam, beta, delta = 2.0, 0.5, 25.0, 1.1, 0.7, 1.2
    led = blowup_conditions_additive(stats, gs3, nc, t, eps, frak_M, lam, beta, delta)
    alpha = gs3.alpha
    lam2MQ_a = (lam**2 * gs3.mass) ** alpha
    lhs1 = lam2MQ_a * (nc.C_phi_Sigma + nc.C_phi_Sigma * t
                       + (8 * math.sqrt(2) / 3) * 1 * math.sqrt(nc.hs00) * t**1.5
                       + (2 * nc.C_phi_2 + 32 * nc.C_phi_1) * t**2
                       + (4 / 3) * 1 * 3.0 * nc.C_phi_1 * t**3)
    assert led["cond_1_add"].lhs == pytest.approx(lhs1, rel=1e-12)
    p4 = (2 + 3.0) * 3.0 / 4.0
    mom4 = mass_sup_moment(p4, stats["M"], t, nc.hs00)
    lhs4 = ((1 / 3) * 1 * 3.0 * 7.0 * lam2MQ_a * gs3.C_GN ** (3.0 / 4.0)
            * frak_M ** (1 * 9.0 / 4.0) * mom4 * nc.C_rad_2s2 * t**3)
    assert led["cond_4_add"].lhs == pytest.approx(lhs4, rel=1e-12)


def test_apriori_bounds(gs3, noise_consts_small):
    stats = u0_stats_for(gs3, 0.8)
    out = apriori_bounds(noise_consts_small, stats, t=1.0, eps=0.5, gs=gs3, beta=0.8)
    # noise -> 0, eps -> 0+: E sup M -> M(u0)
    class _Z:
        hs00 = 0.0

    for eps in (1e-3, 1e-6):
        z = apriori_bounds(_Z(), stats, t=1.0, eps=eps)
        assert z["E_sup_M"] == pytest.approx(stats["M"], rel=2 * eps)
    # u0 = Q: grad bound equals ||grad Q||^2 (consistency with Pokhozhaev)
    statq = {"M": gs3.mass, "H": gs3.energy, "V": 0.0, "G": 0.0}
    assert gradient_cap(gs3, statq["M"]) == pytest.approx(gs3.grad_sq, rel=1e-10)
    # probability clamps to [0, 1]
    big = apriori_bounds(noise_consts_small, stats, t=1e12, eps=0.5, gs=gs3, beta=0.999)
    assert big["containment_exit_prob"] == 1.0
    assert 0.0 <= out["containment_exit_prob"] <= 1.0


def test_report_regime_is_the_ground_state_classification():
    # sigma = 1 in 1d is mass-subcritical (s_c = -1/2), run under allow_conditional_regime
    cfg = get_preset("add-critical").to_dict()
    cfg["physics"]["sigma"] = 1.0
    cfg["run"]["allow_conditional_regime"] = True
    rep = build_theory_report(ExperimentConfig.from_dict(cfg))
    assert rep.s_c == -0.5
    assert rep.regime == "subcritical"


def test_report_takes_the_envelope_of_a_uniform_law_without_kind():
    # c_dist's kind defaults to uniform when c is drawn, so the report needs the
    # envelope c = hi, not the mean, and then gives the random-data horizon
    cfg = get_preset("mult-inter-survival").to_dict()
    reports = []
    for law in ({"kind": "uniform", "lo": 0.5, "hi": 0.8}, {"lo": 0.5, "hi": 0.8}):
        cfg["initial_data"] = {"family": "random_scaled_ground_state",
                               "params": {"c_dist": law}}
        reports.append(build_theory_report(ExperimentConfig.from_dict(cfg)).to_dict())
    assert reports[0]["T_star_mult_random"] is not None
    assert reports[1] == reports[0] | {"config_hash": reports[1]["config_hash"]}
