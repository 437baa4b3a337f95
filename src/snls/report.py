"""Assemble the full TheoryReport for one experiment configuration."""

from __future__ import annotations

import math

from .config import ExperimentConfig, config_hash
from .ground_state import GroundState, ground_state_variance, solve_ground_state
from .initial_data import coefficient_moment
from .noise_model import noise_constants
from .theory import (
    TheoryReport,
    apriori_bounds,
    blowup_conditions_additive,
    blowup_conditions_multiplicative,
    mass_moment_bound,
    t_star_additive_critical,
    t_star_multiplicative,
    t_star_multiplicative_random,
    t_tilde_additive_intercritical,
)

__all__ = ["initial_data_stats", "build_theory_report"]


def initial_data_stats(cfg: ExperimentConfig, gs: GroundState) -> dict:
    """M, H, V, G (and moments for random c Q) of the configured initial data.

    The scaled/boosted ground-state families have closed forms in the
    ground-state constants; grid families are integrated on the grid.
    """
    fam = cfg.initial_data["family"]
    params = cfg.initial_data.get("params", {})
    sigma = gs.sigma

    def scaled_stats(c):
        m = c**2 * gs.mass
        h = 0.5 * c**2 * gs.grad_sq - c ** (2 * sigma + 2) * gs.lp2s2 / (2 * sigma + 2)
        return {"M": m, "H": h, "V": c**2 * ground_state_variance(gs), "G": 0.0,
                "grad_sq": c**2 * gs.grad_sq}

    if fam == "scaled_ground_state":
        c = math.sqrt(params["mass_fraction"]) if "mass_fraction" in params \
            else float(params.get("c", 1.0))
        return scaled_stats(c)
    if fam == "boosted_ground_state":
        c = math.sqrt(params.get("mass_fraction", 1.0)) if "mass_fraction" in params \
            else float(params.get("c", 1.0))
        st = scaled_stats(c)
        xi0 = params.get("boost", 0.0)
        xi2 = float(xi0) ** 2 * gs.n if not hasattr(xi0, "__len__") \
            else sum(float(v) ** 2 for v in xi0)
        st["H"] += 0.5 * xi2 * st["M"]
        st["grad_sq"] += xi2 * st["M"]
        return st
    if fam == "zero":
        return {"M": 0.0, "H": 0.0, "V": 0.0, "G": 0.0, "grad_sq": 0.0}
    if fam == "random_scaled_ground_state":
        dist = params.get("c_dist", {"kind": "uniform", "lo": 0.5, "hi": 0.9})

        def mass_moment(q):
            return coefficient_moment(dist, 2.0 * q) * gs.mass**q

        # hypothesis checks need the a.s. envelope of the support; only a
        # bounded support gives one (beta(c) and delta0(c) increase on (0, 1])
        if dist.get("kind") == "uniform":
            st = scaled_stats(float(dist["hi"]))
            st["as_envelope"] = True
        else:
            st = scaled_stats(coefficient_moment(dist, 1.0))
            st["as_envelope"] = False
        st["mass_moment"] = mass_moment
        return st
    # Grid-quadrature fall-back for bump-like families.
    from .grid import mass as grid_mass
    from .initial_data import build_initial_data
    from .observables import observe

    grid = cfg.build_grid()
    u0 = build_initial_data(cfg.build_initial_data(), grid, gs, rng=None)
    s = observe(u0, 0.0, grid_mass(u0), gs.alpha or 0.0, sigma)
    return {"M": s.mass, "H": s.energy, "V": s.variance, "G": s.momentum,
            "grad_sq": s.grad_sq}


def build_theory_report(cfg: ExperimentConfig, gs: GroundState | None = None,
                        horizon: float | None = None) -> TheoryReport:
    """Evaluate every applicable bound for this configuration."""
    n = int(cfg.physics["n"])
    sigma = float(cfg.physics["sigma"])
    noise_type = cfg.physics.get("noise_type", "none")
    if gs is None:
        gs = solve_ground_state(n, sigma)
    stats = initial_data_stats(cfg, gs)
    notes = ["tau* surrogate: numerical blow-up detection is an interpretation "
             "of the exact stopping time",
             "continuum radonifying norm of (H1) replaced by the finite-support "
             "discrete proxy"]
    s_c, alpha = gs.s_c, gs.alpha

    spec = cfg.build_covariance()
    nc = None
    if spec is not None:
        nc = noise_constants(spec, cfg.build_grid(), sigma)

    t = horizon if horizon is not None else float(cfg.run["T_end"])
    m0 = stats["M"]
    beta = gamma = delta0 = None
    regime = "critical" if abs(s_c) < 1e-12 else "intercritical"
    if alpha is not None and m0 > 0:
        beta = stats["H"] * m0**alpha / gs.me_threshold
        delta0 = math.sqrt(stats["grad_sq"]) * m0 ** (alpha / 2.0) / gs.x_star
    elif abs(s_c) < 1e-12 and m0 > 0:
        beta = math.sqrt(m0 / gs.mass)

    kw = {}
    if noise_type == "multiplicative" and nc is not None and alpha is not None \
            and beta is not None and 0.0 < beta < 1.0:
        # the existence horizon also requires the gradient-side hypothesis
        # ||grad u0|| ||u0||^a < ||grad Q|| ||Q||^a
        if delta0 is not None and delta0 < 1.0:
            kw["T_star_mult"] = t_star_multiplicative(beta, s_c, n, nc.M_phi,
                                                      gs.mass / m0)
            mm = stats.get("mass_moment")
            if mm is not None and stats.get("as_envelope"):
                kw["T_star_mult_random"] = t_star_multiplicative_random(
                    beta, s_c, n, nc.M_phi, gs.mass, mm(1.0 / s_c))
        if delta0 is not None and delta0 > 1.0:
            delta = 1.0 + 0.5 * (delta0 - 1.0)
            N = float(cfg.run.get("grad_threshold", 1e3))
            # the sufficient condition holds for some eps > 0: take the smallest eps that
            # clears the noise-size conditions, then test the variance condition
            probe = blowup_conditions_multiplicative(
                stats, gs, nc.M_phi, t, eps=1.0, N=N, delta=delta, beta=beta)
            eps = max(probe["cond_1"].lhs, probe["cond_2"].lhs, 1e-300) * (1 + 1e-9)
            kw["blowup_multiplicative"] = blowup_conditions_multiplicative(
                stats, gs, nc.M_phi, t, eps=eps, N=N, delta=delta, beta=beta)
    if noise_type == "additive" and nc is not None:
        if abs(s_c) < 1e-12 and beta is not None and 0.0 <= beta < 1.0:
            eps_star, t_star = t_star_additive_critical(beta, nc.hs00, gs.mass)
            kw["eps_star"] = eps_star
            kw["T_star_add_crit"] = t_star
        if alpha is not None and m0 > 0:
            b = math.sqrt(m0 / gs.mass)
            g = stats["H"] / gs.energy
            if b**2 + g < 1.0 and g >= 0.0 and stats["grad_sq"] < gs.grad_sq:
                t_tilde, eps, F, G, b_star = t_tilde_additive_intercritical(
                    b, g, nc.hs01, nc.C_phi_interp, gs.mass, gs.energy,
                    gs.l2_norm, s_c, n, sigma, gs.gn_K)
                gamma = g
                beta = b
                kw["T_tilde_add_inter"] = t_tilde
                kw["t_tilde_detail"] = {"eps_tilde": eps, "F": F, "G": G, "b_star": b_star}
            elif b**2 + g >= 1.0:
                gamma = g
                beta = b
                regime = "above-additive-threshold"
                notes.append("above additive threshold: beta^2 + gamma >= 1, "
                             "no existence horizon available")
        if alpha is not None and delta0 is not None and delta0 > 1.0 and m0 > 0:
            # mass-containment level lam > lam0 = ||u0||/||Q||, chosen so the
            # ledger's beta = lam^(2 alpha) H(u0)/H(Q) lands at sqrt(beta0) < 1
            beta0 = stats["H"] * m0**alpha / gs.me_threshold
            lam0 = math.sqrt(m0 / gs.mass)
            if 0.0 < beta0 < 1.0:
                lam = lam0 * (1.0 / beta0) ** (1.0 / (4.0 * alpha))
                beta_led = stats["H"] * (lam**2 * gs.mass) ** alpha / gs.me_threshold
            else:
                beta_led = math.inf
            if beta_led < 1.0:
                frak_M = float(cfg.run.get("grad_threshold", 1e3))
                probe = blowup_conditions_additive(
                    stats, gs, nc, t, eps=1.0, frak_M=frak_M, lam=lam,
                    beta=beta_led, delta=1.0 + 0.5 * (delta0 - 1.0))
                eps = max(1e-300, *(probe[k].lhs for k in
                                    ("cond_1_add", "cond_2_add", "cond_3_add",
                                     "cond_4_add")))
                kw["blowup_additive"] = blowup_conditions_additive(
                    stats, gs, nc, t, eps=eps * (1 + 1e-9), frak_M=frak_M, lam=lam,
                    beta=beta_led, delta=1.0 + 0.5 * (delta0 - 1.0))
        kw["mass_moment_bound"] = mass_moment_bound(2.0, m0**2, t, nc.hs00)
        ap = apriori_bounds(nc, stats, t, eps=0.5, gs=gs,
                            beta=beta if beta is not None else None)
        kw["mass_sup_bound"] = ap["E_sup_M"]
        kw["mass_excess_bound"] = ap["E_sup_M_excess"]
        if "grad_bound" in ap:
            kw["grad_bound"] = ap["grad_bound"]
    if noise_type == "multiplicative" and alpha is not None and m0 > 0:
        kw.setdefault("grad_bound",
                      gs.n / (2.0 * (1.0 - s_c)) * gs.mass ** (1.0 + alpha) / m0**alpha)

    if beta is not None and beta >= 1.0:
        regime = "above-threshold"

    return TheoryReport(
        n=n, sigma=sigma, s_c=s_c, alpha=alpha, regime=regime,
        beta=beta, gamma=gamma, delta0=delta0,
        notes=tuple(notes), config_hash=config_hash(cfg), noise=nc, **kw)
