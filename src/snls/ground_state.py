"""Ground state Q of  -Q + Lap Q + Q^(2 sigma + 1) = 0  and derived constants.

In 1d the profile is explicit, Q(x) = (1+sigma)^(1/(2 sigma)) sech^(1/sigma)(sigma x),
and all norms are Beta-function closed forms, so 1d runs never import
scipy.integrate (about 25 MB of resident memory).  In 2d/3d
the radial profile is found by shooting on Q(0) with bisection between the
oscillating (undershoot) and sign-changing (overshoot) branches, integrating

    Q'' + (n-1)/r Q' - Q + Q^(2 sigma + 1) = 0,   Q'(0) = 0,

with the radial norm integrals accumulated alongside the ODE state.  Every
returned GroundState is validated against the two Pokhozhaev identities

    ||grad Q||^2        = n sigma / (2 - (n-2) sigma) * M(Q)
    ||Q||_{2s+2}^{2s+2} = 2 (sigma+1) / (2 - (n-2) sigma) * M(Q)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroundState",
    "GroundStateError",
    "scaling_index",
    "classify_regime",
    "alpha_exponent",
    "explicit_q_1d",
    "solve_ground_state",
    "sharp_gn_constant",
    "threshold_abscissa",
    "energy_three_ways",
    "ground_state_variance",
]

DEFAULT_TOL_1D = 1e-8
DEFAULT_TOL_RADIAL = 1e-6


class GroundStateError(RuntimeError):
    pass


def scaling_index(n: int, sigma: float) -> float:
    """s_c = n/2 - 1/sigma."""
    if n < 1 or sigma <= 0:
        raise ValueError("need n >= 1 and sigma > 0")
    return n / 2.0 - 1.0 / sigma


def classify_regime(n: int, sigma: float) -> str:
    s_c = scaling_index(n, sigma)
    if abs(s_c) < 1e-12:
        return "critical"
    if s_c < 0:
        return "subcritical"
    if s_c < 1:
        return "intercritical"
    if s_c == 1:
        return "energy-critical"
    return "energy-supercritical"


def alpha_exponent(n: int, sigma: float) -> float:
    """alpha = (1 - s_c)/s_c, the mass exponent of the scale-invariant pairings."""
    s_c = scaling_index(n, sigma)
    if not 0.0 < s_c < 1.0:
        raise ValueError("alpha undefined outside intercritical range")
    return (1.0 - s_c) / s_c


def explicit_q_1d(sigma: float, x) -> np.ndarray | float:
    """The explicit 1d profile (1+sigma)^(1/(2 sigma)) sech^(1/sigma)(sigma x)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    amp = (1.0 + sigma) ** (1.0 / (2.0 * sigma))
    return amp * (1.0 / np.cosh(sigma * np.asarray(x, dtype=float))) ** (1.0 / sigma)


@dataclass(frozen=True)
class GroundState:
    n: int
    sigma: float
    s_c: float
    alpha: float | None          # None outside the intercritical range
    mass: float                  # M(Q)
    grad_sq: float               # ||grad Q||^2
    lp2s2: float                 # ||Q||_{2sigma+2}^{2sigma+2}
    energy: float                # H(Q)
    gn_K: float                  # K in C_GN = K / M(Q)^sigma
    C_GN: float
    x_star: float | None
    f_xstar: float | None
    # the radial profile goes to the CSV, not to the JSON document
    r: np.ndarray = field(metadata={"serialize": False})        # sample points (|x| in 1d)
    profile: np.ndarray = field(metadata={"serialize": False})  # Q on r
    tol: float

    @property
    def l2_norm(self) -> float:
        return math.sqrt(self.mass)

    @property
    def grad_norm(self) -> float:
        return math.sqrt(self.grad_sq)

    @property
    def me_threshold(self) -> float:
        """H(Q) M(Q)^alpha, the mass-energy threshold (intercritical only)."""
        if self.alpha is None:
            raise ValueError("mass-energy threshold needs 0 < s_c < 1")
        return self.energy * self.mass**self.alpha

    def pokhozhaev_residuals(self):
        c1 = self.n * self.sigma / (2.0 - (self.n - 2) * self.sigma)
        c2 = 2.0 * (self.sigma + 1.0) / (2.0 - (self.n - 2) * self.sigma)
        r1 = abs(self.grad_sq - c1 * self.mass) / self.mass
        r2 = abs(self.lp2s2 - c2 * self.mass) / self.mass
        return r1, r2

    def profile_at(self, radius) -> np.ndarray:
        """Q(|x|); explicit formula in 1d, cubic spline of the radial solve else.

        Beyond the sampled range the e^{-r} asymptotics take over.
        """
        radius = np.abs(np.asarray(radius, dtype=float))
        if self.n == 1:
            return explicit_q_1d(self.sigma, radius)
        spline = getattr(self, "_spline", None)
        if spline is None:
            from scipy.interpolate import CubicSpline

            spline = CubicSpline(self.r, self.profile)
            object.__setattr__(self, "_spline", spline)
        r_e, q_e = self.r[-1], self.profile[-1]
        q = np.asarray(spline(np.minimum(radius, r_e)), dtype=float)
        beyond = radius > r_e
        if np.any(beyond) and q_e > 0:
            decay = (r_e / radius[beyond]) ** ((self.n - 1) / 2.0)
            q[beyond] = q_e * decay * np.exp(-(radius[beyond] - r_e))
        return q


def ground_state_variance(gs: GroundState) -> float:
    """V(Q) = integral |x|^2 Q^2 dx from the stored radial profile."""
    area = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[gs.n]
    integrand = gs.r ** (gs.n + 1) * gs.profile**2
    return float(area * np.trapezoid(integrand, gs.r))


def energy_three_ways(gs: GroundState):
    """H(Q) from the definition, from s_c/(2(1-s_c)) M, and from (s_c/n) ||grad||^2."""
    h_def = 0.5 * gs.grad_sq - gs.lp2s2 / (2.0 * gs.sigma + 2.0)
    h_mass = gs.s_c / (2.0 * (1.0 - gs.s_c)) * gs.mass
    h_grad = gs.s_c / gs.n * gs.grad_sq
    return h_def, h_mass, h_grad


def sharp_gn_constant(n: int, sigma: float, mass: float):
    """Optimal Gagliardo-Nirenberg constant: (C_GN, K) with C_GN = K / M(Q)^sigma."""
    ns = n * sigma
    K = 2.0 * (sigma + 1.0) * (2.0 - (n - 2) * sigma) ** ((ns - 2.0) / 2.0) / ns ** (ns / 2.0)
    return K / mass**sigma, K


def threshold_abscissa(gs: GroundState, tol: float = 1e-5):
    """x* = (2/(B n sigma))^(1/(n sigma - 2)) and f(x*), with B = C_GN/(sigma+1).

    Cross-checks the identifications x* = ||grad Q|| M(Q)^(alpha/2) and
    f(x*) = H(Q) M(Q)^alpha before returning.
    """
    if not 0.0 < gs.s_c < 1.0:
        raise ValueError("x* requires 0 < s_c < 1")
    n, sigma = gs.n, gs.sigma
    B = gs.C_GN / (sigma + 1.0)
    ns = n * sigma
    x_star = (2.0 / (B * ns)) ** (1.0 / (ns - 2.0))
    f_xstar = 0.5 * (x_star**2 - B * x_star**ns)
    x_from_q = gs.grad_norm * gs.mass ** (gs.alpha / 2.0)
    f_from_q = gs.energy * gs.mass**gs.alpha
    if abs(x_star - x_from_q) > tol * x_from_q or abs(f_xstar - f_from_q) > tol * abs(f_from_q):
        raise GroundStateError("x* identity violated")
    return x_star, f_xstar


def _norms_1d(sigma: float):
    """M, ||Q'||^2 and ||Q||_{2s+2}^{2s+2} of the explicit profile in closed form.

    int sech^(2a)(sigma x) dx = B(a, 1/2) / sigma, Q^2 = (1+sigma)^(1/sigma)
    sech^(2/sigma)(sigma x) and Q' = -Q tanh(sigma x), with tanh^2 = 1 - sech^2.
    """
    s = 1.0 / sigma

    def beta_half(a):
        return math.gamma(a) * math.sqrt(math.pi) / math.gamma(a + 0.5)

    c = (1.0 + sigma) ** s * s
    m = c * beta_half(s)
    g = m - c * beta_half(s + 1.0)
    p = (1.0 + sigma) * c * beta_half(s + 1.0)
    return m, g, p


def _shoot_once(n, sigma, a, r_max):
    """Integrate from Q(0)=a; classify 'over' (sign change) or 'under' (turns up)."""
    from scipy.integrate import solve_ivp  # 2d/3d only
    p = 2.0 * sigma + 1.0
    r0 = 1e-8

    def rhs(r, y):
        q, dq = y
        return [dq, q - np.sign(q) * np.abs(q) ** p - (n - 1) * dq / r]

    g0 = a - a**p
    y0 = [a + g0 * r0**2 / (2.0 * n), g0 * r0 / n]

    def ev_cross(r, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1

    def ev_turn(r, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1

    sol = solve_ivp(rhs, (r0, r_max), y0, method="DOP853", rtol=1e-12, atol=1e-14,
                    events=(ev_cross, ev_turn), dense_output=False)
    if sol.t_events[0].size:
        return "over"
    if sol.t_events[1].size:
        return "under"
    return "decay"


def _solve_radial(n, sigma, tol):
    from scipy.integrate import solve_ivp  # 2d/3d only

    # Bracket the critical amplitude: small a undershoots, large a overshoots.
    r_max = 30.0
    lo = 1.0 + 1e-6
    hi = 2.0
    while _shoot_once(n, sigma, hi, r_max) != "over":
        hi *= 2.0
        if hi > 1e4:
            raise GroundStateError("shooting failed")
    if _shoot_once(n, sigma, lo, r_max) == "over":
        raise GroundStateError("shooting failed")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _shoot_once(n, sigma, mid, r_max) == "over":
            hi = mid
        else:
            lo = mid
    a = 0.5 * (lo + hi)

    # Final pass with norm accumulators; stop once the tail is far below tol.
    p = 2.0 * sigma + 1.0
    r0 = 1e-8
    floor = max(1e-9, a * 1e-10)

    def rhs(r, y):
        q, dq = y[0], y[1]
        qa = abs(q)
        w = r ** (n - 1)
        return [
            dq,
            q - np.sign(q) * qa**p - (n - 1) * dq / r,
            w * q * q,
            w * dq * dq,
            w * qa ** (2.0 * sigma + 2.0),
        ]

    g0 = a - a**p
    y0 = [a + g0 * r0**2 / (2.0 * n), g0 * r0 / n, 0.0, 0.0, 0.0]

    def ev_floor(r, y):
        return y[0] - floor

    ev_floor.terminal = True
    ev_floor.direction = -1

    sol = solve_ivp(rhs, (r0, 16.0), y0, method="DOP853", rtol=1e-12, atol=1e-14,
                    events=(ev_floor,), dense_output=True)
    r_e = float(sol.t[-1])
    q_e = float(sol.y[0, -1])
    i2, igrad, i2s2 = (float(v) for v in sol.y[2:5, -1])
    # Matched tail Q ~ q_e (r_e/r)^((n-1)/2) e^{-(r - r_e)}; leading-order integrals.
    w_e = r_e ** (n - 1)
    i2 += w_e * q_e**2 / 2.0
    igrad += w_e * q_e**2 / 2.0
    i2s2 += w_e * q_e ** (2.0 * sigma + 2.0) / (2.0 * sigma + 2.0)

    area = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[n]
    m, g, lp = area * i2, area * igrad, area * i2s2

    r_samples = np.linspace(r0, r_e, 2048)
    profile = sol.sol(r_samples)[0]
    return a, m, g, lp, r_samples, profile


def solve_ground_state(n: int, sigma: float, tol: float | None = None) -> GroundState:
    """Compute Q and all derived constants for energy-subcritical (n, sigma)."""
    if n not in (1, 2, 3):
        raise ValueError("ground-state solver supports n in {1, 2, 3}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n >= 3 and sigma >= 2.0 / (n - 2):
        raise ValueError(f"energy-supercritical: need sigma < {2.0 / (n - 2)} for n={n}")
    if tol is None:
        tol = DEFAULT_TOL_1D if n == 1 else DEFAULT_TOL_RADIAL

    if n == 1:
        m, g, lp = _norms_1d(sigma)
        r = np.linspace(0.0, 30.0 / sigma, 2048)
        profile = explicit_q_1d(sigma, r)
    else:
        _, m, g, lp, r, profile = _solve_radial(n, sigma, tol)

    s_c = scaling_index(n, sigma)
    energy = 0.5 * g - lp / (2.0 * sigma + 2.0)
    c_gn, K = sharp_gn_constant(n, sigma, m)
    alpha = (1.0 - s_c) / s_c if 0.0 < s_c < 1.0 else None

    gs = GroundState(
        n=n, sigma=float(sigma), s_c=s_c, alpha=alpha,
        mass=m, grad_sq=g, lp2s2=lp, energy=energy,
        gn_K=K, C_GN=c_gn, x_star=None, f_xstar=None,
        r=np.asarray(r), profile=np.asarray(profile), tol=tol,
    )
    r1, r2 = gs.pokhozhaev_residuals()
    if r1 > tol or r2 > tol:
        raise GroundStateError(
            f"unconverged ground state: Pokhozhaev residuals {r1:.2e}, {r2:.2e} > {tol:.1e}"
        )
    if alpha is not None:
        x_star, f_xstar = threshold_abscissa(gs)
        object.__setattr__(gs, "x_star", x_star)
        object.__setattr__(gs, "f_xstar", f_xstar)
    return gs
