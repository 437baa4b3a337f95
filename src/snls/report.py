"""Assemble the full TheoryReport for one experiment configuration.

It reads what the config builds, never its raw sections: n, sigma, the noise
type, T_end and grad_threshold from the SimConfig, the noise constants from
the CovarianceSpec on the GridSpec, and the initial data from the InitialData
through the family rules of snls.initial_data.
"""

from __future__ import annotations

import math

from .config import ExperimentConfig, config_hash
from .grid import GridSpec, mass as grid_mass
from .ground_state import GroundState, classify_regime, ground_state_variance, solve_ground_state
from .initial_data import (InitialData, boost_vector, build_initial_data, coefficient_dist,
                           coefficient_moment, scale_coefficient)
from .noise_model import noise_constants
from .observables import observe
from .theory import (
    TheoryReport,
    apriori_bounds,
    blowup_conditions_additive,
    blowup_conditions_multiplicative,
    gradient_cap,
    mass_moment_bound,
    t_star_additive_critical,
    t_star_multiplicative,
    t_star_multiplicative_random,
    t_tilde_additive_intercritical,
)

__all__ = ["initial_data_stats", "build_theory_report"]


def initial_data_stats(init: InitialData, grid: GridSpec, gs: GroundState) -> dict:
    """M, H, V, G (and moments for random c Q) of the configured initial data.

    The scaled/boosted ground-state families have closed forms in the
    ground-state constants; deterministic grid families are integrated on the
    grid.  Of the random families only random c Q has closed-form statistics.
    """
    fam, params = init.family, init.params
    sigma = gs.sigma

    def scaled_stats(c):
        m = c**2 * gs.mass
        h = 0.5 * c**2 * gs.grad_sq - c ** (2 * sigma + 2) * gs.lp2s2 / (2 * sigma + 2)
        return {"M": m, "H": h, "V": c**2 * ground_state_variance(gs), "G": 0.0,
                "grad_sq": c**2 * gs.grad_sq}

    if fam == "scaled_ground_state":
        return scaled_stats(scale_coefficient(params))
    if fam == "boosted_ground_state":
        st = scaled_stats(scale_coefficient(params))
        xi2 = sum(v**2 for v in boost_vector(params, gs.n))
        st["H"] += 0.5 * xi2 * st["M"]
        st["grad_sq"] += xi2 * st["M"]
        return st
    if fam == "zero":
        return {"M": 0.0, "H": 0.0, "V": 0.0, "G": 0.0, "grad_sq": 0.0}
    if fam == "random_scaled_ground_state":
        dist = coefficient_dist(params)

        def mass_moment(q):
            return coefficient_moment(dist, 2.0 * q) * gs.mass**q

        # hypothesis checks need the a.s. envelope of the support; only a
        # bounded support gives one (beta(c) and delta0(c) increase on (0, 1])
        if dist.get("kind", "uniform") == "uniform":
            st = scaled_stats(float(dist["hi"]))
            st["as_envelope"] = True
        else:
            st = scaled_stats(coefficient_moment(dist, 1.0))
            st["as_envelope"] = False
        st["mass_moment"] = mass_moment
        return st
    if init.is_random:
        raise ValueError(f"initial-data family {fam!r} is random without closed-form "
                         "statistics, so it has no theory report")
    # Grid-quadrature fall-back for bump-like families.
    u0 = build_initial_data(init, grid, gs)
    s = observe(u0, 0.0, grid_mass(u0), gs.alpha or 0.0, sigma)
    return {"M": s.mass, "H": s.energy, "V": s.variance, "G": s.momentum,
            "grad_sq": s.grad_sq}


def _ledger_at_smallest_eps(ledger, **kw):
    """The ledger at the smallest eps > 0 that clears its noise-size conditions.

    The sufficient condition holds for some eps > 0: every check but the
    variance condition compares an eps-free term with eps, so probe at eps = 1,
    step just past the largest such term, then test the variance condition.
    """
    probe = ledger(eps=1.0, **kw)
    eps = max(1e-300, *(c.lhs for c in probe.checks[:-1]))
    return ledger(eps=eps * (1 + 1e-9), **kw)


def build_theory_report(cfg: ExperimentConfig, gs: GroundState | None = None,
                        horizon: float | None = None) -> TheoryReport:
    """Evaluate every applicable bound for this configuration."""
    sim = cfg.build_sim_config()
    grid = cfg.build_grid()
    spec = cfg.build_covariance()
    n, sigma, noise_type = sim.n, sim.sigma, sim.noise_type
    if gs is None:
        gs = solve_ground_state(n, sigma)
    stats = initial_data_stats(cfg.build_initial_data(), grid, gs)
    notes = ["tau* surrogate: numerical blow-up detection is an interpretation "
             "of the exact stopping time",
             "continuum radonifying norm of (H1) replaced by the finite-support "
             "discrete proxy"]
    s_c, alpha = gs.s_c, gs.alpha
    nc = noise_constants(spec, grid, sigma) if spec is not None else None

    t = horizon if horizon is not None else sim.T_end
    m0 = stats["M"]
    beta = beta0 = gamma = delta0 = None
    regime = classify_regime(n, sigma)
    critical = regime == "critical"
    if alpha is not None and m0 > 0:
        beta = beta0 = stats["H"] * m0**alpha / gs.me_threshold
        delta0 = math.sqrt(stats["grad_sq"]) * m0 ** (alpha / 2.0) / gs.x_star
    elif critical and m0 > 0:
        beta = math.sqrt(m0 / gs.mass)

    kw = {}
    if noise_type == "multiplicative" and nc is not None and delta0 is not None \
            and 0.0 < beta < 1.0:
        # the existence horizon also requires the gradient-side hypothesis
        # ||grad u0|| ||u0||^a < ||grad Q|| ||Q||^a
        if delta0 < 1.0:
            kw["T_star_mult"] = t_star_multiplicative(beta, s_c, n, nc.M_phi,
                                                      gs.mass / m0)
            mm = stats.get("mass_moment")
            if mm is not None and stats.get("as_envelope"):
                kw["T_star_mult_random"] = t_star_multiplicative_random(
                    beta, s_c, n, nc.M_phi, gs.mass, mm(1.0 / s_c))
        if delta0 > 1.0:
            kw["blowup_multiplicative"] = _ledger_at_smallest_eps(
                blowup_conditions_multiplicative, u0_stats=stats, gs=gs, M_phi=nc.M_phi,
                t=t, N=sim.grad_threshold, delta=1.0 + 0.5 * (delta0 - 1.0), beta=beta)
    if noise_type == "additive" and nc is not None:
        if critical and beta is not None and 0.0 <= beta < 1.0:
            kw["eps_star"], kw["T_star_add_crit"] = t_star_additive_critical(
                beta, nc.hs00, gs.mass)
        if alpha is not None and m0 > 0:
            b = math.sqrt(m0 / gs.mass)
            g = stats["H"] / gs.energy
            if b**2 + g < 1.0 and g >= 0.0 and stats["grad_sq"] < gs.grad_sq:
                t_tilde, eps, F, G, b_star = t_tilde_additive_intercritical(
                    b, g, nc.hs01, nc.C_phi_interp, gs.mass, gs.energy,
                    gs.l2_norm, s_c, n, sigma, gs.gn_K)
                gamma, beta = g, b
                kw["T_tilde_add_inter"] = t_tilde
                kw["t_tilde_detail"] = {"eps_tilde": eps, "F": F, "G": G, "b_star": b_star}
            elif b**2 + g >= 1.0:
                gamma, beta = g, b
                regime = "above-additive-threshold"
                notes.append("above additive threshold: beta^2 + gamma >= 1, "
                             "no existence horizon available")
        if delta0 is not None and delta0 > 1.0 and 0.0 < beta0 < 1.0:
            # mass-containment level lam > lam0 = ||u0||/||Q||, chosen so the
            # ledger's beta = lam^(2 alpha) H(u0)/H(Q) lands at sqrt(beta0) < 1
            lam = math.sqrt(m0 / gs.mass) * (1.0 / beta0) ** (1.0 / (4.0 * alpha))
            beta_led = stats["H"] * (lam**2 * gs.mass) ** alpha / gs.me_threshold
            if beta_led < 1.0:
                kw["blowup_additive"] = _ledger_at_smallest_eps(
                    blowup_conditions_additive, u0_stats=stats, gs=gs, nc=nc, t=t,
                    frak_M=sim.grad_threshold, lam=lam, beta=beta_led,
                    delta=1.0 + 0.5 * (delta0 - 1.0))
        kw["mass_moment_bound"] = mass_moment_bound(2.0, m0**2, t, nc.hs00)
        ap = apriori_bounds(nc, stats, t, eps=0.5)
        kw["mass_sup_bound"] = ap["E_sup_M"]
        kw["mass_excess_bound"] = ap["E_sup_M_excess"]
    if alpha is not None and m0 > 0 and (nc is not None or noise_type == "multiplicative"):
        kw["grad_bound"] = gradient_cap(gs, m0)

    if beta is not None and beta >= 1.0:
        regime = "above-threshold"

    return TheoryReport(
        n=n, sigma=sigma, s_c=s_c, alpha=alpha, regime=regime,
        beta=beta, gamma=gamma, delta0=delta0,
        notes=tuple(notes), config_hash=config_hash(cfg), noise=nc, **kw)
