"""Closed-form existence-time bounds, a priori bounds, and blow-up ledgers.

Everything here is a pure function of previously computed scalars (ground
state constants, noise functionals, initial-data statistics).  This module
never simulates; expectation inputs such as E(t ^ tau) are parameters, either
worst-case (t, t^2) or plugged from ensemble estimates.  Unbounded results are
returned as math.inf, never as large floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .schema import plain

if TYPE_CHECKING:
    from .noise_model import NoiseConstants

__all__ = [
    "ConditionCheck",
    "ConditionLedger",
    "TheoryReport",
    "t_star_multiplicative",
    "t_star_additive_critical",
    "t_tilde_additive_intercritical",
    "mass_moment_bound",
    "mass_sup_moment",
    "apriori_bounds",
    "gradient_cap",
    "blowup_conditions_multiplicative",
    "blowup_conditions_multiplicative_random",
    "blowup_conditions_additive",
]


def t_star_multiplicative(beta: float, s_c: float, n: int, M_phi: float,
                          mass_ratio: float) -> float:
    """Lower existence horizon for multiplicative intercritical noise.

    T* = [sqrt(n + 2 s_c (1-beta)/9) - sqrt(n)]^2 / (2(1-s_c)) * 9/M_phi
         * mass_ratio^(1/s_c),
    with mass_ratio = M(Q)/M(u0).  For random data pass
    mass_ratio = (M(Q)^(1/s_c) / E[M(u0)^(1/s_c)])^(s_c) equivalently via
    t_star_multiplicative_random.  M_phi = 0 returns infinity (deterministic
    limit: global existence).
    """
    if mass_ratio <= 0:
        raise ValueError("mass_ratio must be positive")
    return _t_star_bracket(beta, s_c, n, M_phi) * mass_ratio ** (1.0 / s_c)


def t_star_multiplicative_random(beta: float, s_c: float, n: int, M_phi: float,
                                 massQ: float, mass_inv_sc_moment: float) -> float:
    """Random-data variant: mass_ratio^(1/s_c) -> M(Q)^(1/s_c) / E(M(u0)^(1/s_c))."""
    if mass_inv_sc_moment <= 0:
        raise ValueError("E(M(u0)^(1/s_c)) must be positive")
    return _t_star_bracket(beta, s_c, n, M_phi) * massQ ** (1.0 / s_c) / mass_inv_sc_moment


def _t_star_bracket(beta: float, s_c: float, n: int, M_phi: float) -> float:
    """The data-free factor of both T* horizons, after checking their hypotheses."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if not 0.0 < s_c < 1.0:
        raise ValueError("s_c must lie in (0, 1)")
    if M_phi < 0:
        raise ValueError("M_phi must be >= 0")
    if M_phi == 0.0:
        return math.inf
    bracket = (math.sqrt(n + 2.0 * s_c * (1.0 - beta) / 9.0) - math.sqrt(n)) ** 2
    return bracket / (2.0 * (1.0 - s_c)) * 9.0 / M_phi


def t_star_additive_critical(beta: float, hs00: float, massQ: float):
    """(eps*, T*) for additive mass-critical noise.

    eps* = 3 sqrt(10 - beta^2) - 9 and
    T* = eps* (1 - beta^2 - eps*) / (9 + eps*) * M(Q) / ||phi||_00^2.
    Also enforces the derivation's inequality eps* < (1 - beta^2)/2.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    eps_star = 3.0 * math.sqrt(10.0 - beta**2) - 9.0
    if not eps_star < (1.0 - beta**2) / 2.0 + 1e-15:
        raise AssertionError("eps* < (1 - beta^2)/2 violated")
    if hs00 == 0.0:
        return eps_star, math.inf
    if hs00 < 0:
        raise ValueError("hs00 must be >= 0")
    t_star = eps_star * (1.0 - beta**2 - eps_star) / (9.0 + eps_star) * massQ / hs00
    return eps_star, t_star


def t_tilde_additive_intercritical(beta: float, gamma: float, hs01: float,
                                   C_phi_interp: float, massQ: float, HQ: float,
                                   normQ_L2: float, s_c: float, n: int,
                                   sigma: float, K: float):
    """(T_tilde, eps_tilde, F, G, b_star) for additive intercritical noise.

    eps~ = (1 - gamma - beta^2) / (4(1 - gamma) - beta^2)
    F    = 1 - gamma - beta^2 / (1 - eps~)
    G    = (4 hs01 / M(Q)) ((9 + eps~)/(eps~(1 - eps~)) + (1 - s_c)/s_c)
    b*   = 3 ||Q|| / H(Q) [ sqrt(hs01) (n/(2(1-s_c)))^(1/2)
           + K C(phi) (n/(2(1-s_c)))^(n sigma (2 sigma + 1)/(2(2 sigma + 2))) ]
    T~   = (2F / (b* + sqrt(b*^2 + G F)))^2
    hs01 is the squared Hilbert-Schmidt L2->H1 norm.
    """
    if beta**2 + gamma >= 1.0:
        raise ValueError("above additive threshold")
    if not (0.0 < s_c < 1.0 and hs01 >= 0 and C_phi_interp >= 0):
        raise ValueError("invalid parameters")
    eps = (1.0 - gamma - beta**2) / (4.0 * (1.0 - gamma) - beta**2)
    F = 1.0 - gamma - beta**2 / (1.0 - eps)
    G = 4.0 * hs01 / massQ * ((9.0 + eps) / (eps * (1.0 - eps)) + (1.0 - s_c) / s_c)
    exp2 = n * sigma * (2.0 * sigma + 1.0) / (2.0 * (2.0 * sigma + 2.0))
    base = n / (2.0 * (1.0 - s_c))
    b_star = 3.0 * normQ_L2 / HQ * (
        math.sqrt(hs01) * math.sqrt(base) + K * C_phi_interp * base**exp2
    )
    if b_star == 0.0 and G == 0.0:
        return math.inf, eps, F, G, b_star
    t_tilde = (2.0 * F / (b_star + math.sqrt(b_star**2 + G * F))) ** 2
    return t_tilde, eps, F, G, b_star


def mass_moment_bound(p: float, m0_moment: float, t: float, hs00: float,
                      eps_tilde: float = 0.5) -> float:
    """C(p, u0, t, phi): bound on E sup_{s<=t} M(u(s))^p under additive noise.

    C = 1/(1 - e) [m0_moment + hs00 p (2p - 1 + 9p/e) t] exp(hs00 p (2p-1+9p/e) t).
    """
    if p < 2.0:
        raise ValueError("mass moment bound needs p >= 2")
    if not 0.0 < eps_tilde < 1.0:
        raise ValueError("eps_tilde must lie in (0, 1)")
    rate = hs00 * p * (2.0 * p - 1.0 + 9.0 * p / eps_tilde)
    return 1.0 / (1.0 - eps_tilde) * (m0_moment + rate * t) * math.exp(rate * t)


def mass_sup_moment(p: float, m0: float, t: float, hs00: float,
                    eps_tilde: float = 0.5) -> float:
    """E sup M(u)^p for deterministic u0, valid for any p > 0.

    Uses the p >= 2 bound directly, and Jensen C(2)^(p/2) with the matching
    initial moment below p = 2 (the low powers appear in the additive blow-up
    conditions).
    """
    if p >= 2.0:
        return mass_moment_bound(p, m0**p, t, hs00, eps_tilde)
    return mass_moment_bound(2.0, m0**2, t, hs00, eps_tilde) ** (p / 2.0)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    lhs: float
    rhs: float
    comparator: str  # "<=" or "<"
    passed: bool


@dataclass(frozen=True)
class ConditionLedger:
    checks: tuple
    satisfied: bool

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _check(name, lhs, rhs, comparator="<="):
    passed = lhs <= rhs if comparator == "<=" else lhs < rhs
    return ConditionCheck(name, float(lhs), float(rhs), comparator, bool(passed))


def blowup_conditions_multiplicative(u0_stats: dict, gs, M_phi: float, t: float,
                                     eps: float, N: float, delta: float, beta: float,
                                     e_t_tau: float | None = None,
                                     e_t_tau_sq: float | None = None) -> ConditionLedger:
    """Sufficient blow-up conditions, deterministic data, multiplicative noise.

    u0_stats supplies M, H, V, G of u0.  e_t_tau and e_t_tau_sq are the
    expectation placeholders E(t ^ tau) and E((t ^ tau)^2); the worst cases
    t and t^2 are used when omitted.  delta must exceed 1 (and sit below the
    initial gradient ratio delta_0).
    """
    if delta <= 1.0:
        raise ValueError("delta must exceed 1")
    m0, h0 = u0_stats["M"], u0_stats["H"]
    v0, g0 = u0_stats["V"], u0_stats["G"]
    alpha = gs.alpha
    n, sigma, s_c = gs.n, gs.sigma, gs.s_c
    if e_t_tau is None:
        e_t_tau = t
    if e_t_tau_sq is None:
        e_t_tau_sq = t**2
    c1 = _check("cond_1", 4.0 * m0 ** (alpha + 1.0) * M_phi * t**2 * (1.0 + t / 3.0), eps)
    c2 = _check("cond_2",
                32.0 / 15.0 * n * sigma * m0 ** (alpha + 0.5) * math.sqrt(M_phi) * N * t**2.5,
                eps)
    lhs3 = (v0 * m0**alpha + 2.0 * eps + 4.0 * g0 * m0**alpha * e_t_tau
            - 4.0 * sigma * s_c * (delta**2 - beta) * gs.grad_sq * gs.mass**alpha * e_t_tau_sq)
    c3 = _check("cond_3", lhs3, 0.0, "<")
    checks = (c1, c2, c3)
    return ConditionLedger(checks, all(c.passed for c in checks))


def blowup_conditions_multiplicative_random(u0_moments: dict, gs, M_phi: float,
                                            t: float, eps: float, N: float,
                                            delta: float, beta: float,
                                            e_t_tau_sq: float | None = None) -> ConditionLedger:
    """Random-data variant; u0_moments holds E(M^(a+1)), E(M^(a+1/2)),
    E(V M^a), E(G^2 M^(2a))."""
    if delta <= 1.0:
        raise ValueError("delta must exceed 1")
    n, sigma, s_c = gs.n, gs.sigma, gs.s_c
    alpha = gs.alpha
    if e_t_tau_sq is None:
        e_t_tau_sq = t**2
    c1 = _check("cond_1_bis",
                u0_moments["M_a1"] * M_phi * t**3 * (4.0 / 3.0 + 18.0), eps)
    c2 = _check("cond_2_bis",
                32.0 / 15.0 * n * sigma * u0_moments["M_a12"] * math.sqrt(M_phi) * N * t**2.5,
                eps)
    lhs3 = (u0_moments["V_Ma"] + 2.0 * eps
            + 4.0 * math.sqrt(u0_moments["G2_M2a"]) * math.sqrt(e_t_tau_sq)
            - 4.0 * sigma * s_c * (delta**2 - beta) * gs.grad_sq * gs.mass**alpha * e_t_tau_sq)
    c3 = _check("cond_3_bis", lhs3, 0.0, "<")
    checks = (c1, c2, c3)
    return ConditionLedger(checks, all(c.passed for c in checks))


def blowup_conditions_additive(u0_stats: dict, gs, nc, t: float, eps: float,
                               frak_M: float, lam: float, beta: float, delta: float,
                               p_omega: float = 1.0,
                               e_ind_t_tau: float | None = None,
                               e_ind_t_tau_sq: float | None = None) -> ConditionLedger:
    """Sufficient blow-up conditions, deterministic data, additive noise.

    nc is the NoiseConstants bundle; lam is the mass-containment level
    (||u|| <= lam ||Q|| defines the localizing sets), frak_M the gradient cap
    of tau~_M.  The mass-moment factors use C(p, u0, t, phi) at eps~ = 1/2,
    with the Jensen extension below p = 2.
    """
    if delta <= 1.0:
        raise ValueError("delta must exceed 1")
    m0 = u0_stats["M"]
    v0, g0 = u0_stats["V"], u0_stats["G"]
    alpha = gs.alpha
    n, sigma, s_c = gs.n, gs.sigma, gs.s_c
    lam2MQ_a = (lam**2 * gs.mass) ** alpha
    hs00 = nc.hs00
    if e_ind_t_tau is None:
        e_ind_t_tau = t
    if e_ind_t_tau_sq is None:
        e_ind_t_tau_sq = t**2
    lhs1 = lam2MQ_a * (
        nc.C_phi_Sigma + nc.C_phi_Sigma * t
        + 8.0 * math.sqrt(2.0) / 3.0 * n * math.sqrt(hs00) * t**1.5
        + (2.0 * nc.C_phi_2 + 32.0 * nc.C_phi_1) * t**2
        + 4.0 / 3.0 * n * sigma * nc.C_phi_1 * t**3
    )
    c1 = _check("cond_1_add", lhs1, eps)
    c2 = _check("cond_2_add",
                32.0 / 15.0 * n * sigma * lam2MQ_a * frak_M * math.sqrt(nc.C_phi_1) * t**2.5,
                eps)
    p3 = (2.0 - (n - 2) * sigma) * (2.0 * sigma + 1.0) / (2.0 * sigma + 2.0)
    moment3 = mass_sup_moment(p3, m0, t, hs00)
    lhs3 = (32.0 / 15.0 * n * sigma * lam2MQ_a
            * gs.C_GN ** ((2.0 * sigma + 1.0) / (2.0 * sigma + 2.0))
            * frak_M ** (n * sigma * (2.0 * sigma + 1.0) / (2.0 * sigma + 2.0))
            * math.sqrt(moment3) * math.sqrt(nc.C_rad_2s2) * t**2.5)
    c3 = _check("cond_3_add", lhs3, eps)
    p4 = (2.0 - (n - 2) * sigma) * sigma / (sigma + 1.0)
    moment4 = mass_sup_moment(p4, m0, t, hs00)
    lhs4 = (1.0 / 3.0 * n * sigma * (2.0 * sigma + 1.0) * lam2MQ_a
            * gs.C_GN ** (sigma / (sigma + 1.0))
            * frak_M ** (n * sigma**2 / (sigma + 1.0))
            * moment4 * nc.C_rad_2s2 * t**3)
    c4 = _check("cond_4_add", lhs4, eps)
    lhs5 = (p_omega * v0 * lam2MQ_a + 4.0 * eps
            + 4.0 * g0 * lam2MQ_a * e_ind_t_tau
            - 4.0 * sigma * s_c * (delta**2 - beta) * gs.grad_sq * gs.mass**alpha
            * e_ind_t_tau_sq)
    c5 = _check("cond_3_add_variance", lhs5, 0.0, "<")
    checks = (c1, c2, c3, c4, c5)
    return ConditionLedger(checks, all(c.passed for c in checks))


def apriori_bounds(nc, u0_stats: dict, t: float, eps: float, gs=None,
                   delta: float = 1.0, beta: float | None = None) -> dict:
    """A priori expectation bounds for the additive flow at horizon t.

    Returns E sup M (E_sup_M), the mass excess bound (E_sup_M-M0) and the
    mass-containment tail probability of Omega_t^c (E:star, needs gs and
    beta), clamped to [0, 1].  The intercritical gradient cap is gradient_cap.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    m0 = u0_stats["M"]
    out = {}
    out["E_sup_M"] = 1.0 / (1.0 - eps) * (m0 + (9.0 + eps) / eps * nc.hs00 * t)
    out["E_sup_M_excess"] = (eps / (1.0 - eps) * m0
                             + 1.0 / (1.0 - eps) * (9.0 / eps + 1.0) * t * nc.hs00)
    if gs is not None and beta is not None:
        p = (1.0 / (delta**2 * gs.mass) / (1.0 - eps)
             * (beta**2 * gs.mass + (9.0 + eps) / eps * nc.hs00 * t))
        out["containment_exit_prob"] = min(1.0, max(0.0, p))
    return out


def gradient_cap(gs, m0: float) -> float:
    """Intercritical gradient cap n/(2(1-s_c)) M(Q)^(1+alpha) / M(u0)^alpha."""
    return gs.n / (2.0 * (1.0 - gs.s_c)) * gs.mass ** (1.0 + gs.alpha) / m0**gs.alpha


@dataclass(frozen=True)
class TheoryReport:
    """Every closed-form threshold and bound evaluated for one configuration."""

    n: int
    sigma: float
    s_c: float
    alpha: float | None
    regime: str
    beta: float | None = None
    gamma: float | None = None
    delta0: float | None = None
    T_star_mult: float | None = None
    T_star_mult_random: float | None = None
    eps_star: float | None = None
    T_star_add_crit: float | None = None
    T_tilde_add_inter: float | None = None
    t_tilde_detail: dict = field(default_factory=dict)
    grad_bound: float | None = None
    mass_sup_bound: float | None = None
    mass_excess_bound: float | None = None
    mass_moment_bound: float | None = None
    blowup_multiplicative: ConditionLedger | None = None
    blowup_additive: ConditionLedger | None = None
    notes: tuple = ()
    config_hash: str | None = None
    # the NoiseConstants the bounds used, for callers' drift checks
    noise: NoiseConstants | None = field(default=None, repr=False, compare=False,
                                         metadata={"serialize": False})

    def to_dict(self):
        return plain(self)
