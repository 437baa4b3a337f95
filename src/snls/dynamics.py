"""Single-trajectory time integration.

One step advances the Strang-split deterministic core and then the noise
substep.  Sign conventions follow the dynamics  i u_t - (Lap u + |u|^2s u) = 0,
under which the soliton is u(t, x) = e^{-i t} Q(x):

  * nonlinear half step:  u <- u exp(-i |u|^2s dt/2)      (exact phase flow)
  * linear full step:     uhat <- uhat exp(+i |xi|^2 dt) mask
  * nonlinear half step again
  * multiplicative noise: u <- u exp(-i dW(x))            (Stratonovich-exact;
    the Ito correction -(1/2) F_phi u dt is contained in the exponential and
    must not be added again)
  * additive noise:       u <- u - i dW

The dealiasing mask (GridSpec.dealias_mask) sits on the linear propagator
only: the propagator exp(i |xi|^2 dt) mask is cached per (grid, dt), and no
separate filtering pass follows the trailing half step.  With the
nonlinearity disabled the propagator is unmasked.

The phase substeps are pointwise unimodular multiplications, so the discrete
mass is conserved to rounding, which is the structural counterpart of the
a.s. mass conservation of the Stratonovich equation.  They leave |u|
unchanged and therefore commute: run_trajectory carries the post-linear field
w and fuses the trailing half step, the noise phase and the next leading half
step into one  w exp(-i (dt/2 P + dW + dt'/2 P)),  P = |w|^2s.  A step is then
one FFT pair, one evaluation of P and one complex exponential.  A FieldState
is built only at record times, where the pending phase is applied to give u;
the next leading half step then uses the dt chosen after the adaptive check.
The additive substep is not a phase, so there the trailing half step is
applied before it on every step.  step_deterministic is the same Strang step
on a FieldState, built from the same phase and propagator helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import FieldState, GridSpec, fft_field, ifft_field, mass, spectral_tail_fraction
from .ground_state import GroundState
from .noise_model import CovarianceSpec, NoiseSampler, make_rng
from .observables import SAMPLE_KEYS, ObservableSample, observe, sample_values

__all__ = [
    "AdaptSpec",
    "StoppingThresholds",
    "GroundStateRefs",
    "SimConfig",
    "TerminalStatus",
    "TrajectoryRecord",
    "step_deterministic",
    "step_multiplicative",
    "step_additive",
    "run_trajectory",
    "STOPPING_TIME_NAMES",
]

STOPPING_TIME_NAMES = (
    "tau_delta_energy",    # sup H(u) M0^a >= delta_e H(Q) M(Q)^a
    "tau_delta_mass",      # ||u|| >= delta_m ||Q||
    "tau_delta_gradient",  # downward: X(t) <= delta_g x*
    "tau_A",               # H(u) >= A H(Q)
    "tau_tilde_N",         # ||grad u|| >= N
    "sigma_gamma",         # H(u) M0^a >= gamma H(Q) M(Q)^a
    "sigma_0",             # H(u) <= 0
    "omega_mass_exit",     # ||u|| > lambda ||Q||  (mass containment tracker)
)


@dataclass(frozen=True)
class AdaptSpec:
    """Halve dt when ||grad u||^2 grows by growth_factor since the last change."""

    growth_factor: float = 2.0
    dt_min: float = 1e-6


@dataclass(frozen=True)
class StoppingThresholds:
    """Threshold parameters of the tracked stopping times; None disables a tracker."""

    delta_energy: float | None = None
    delta_mass: float | None = None
    delta_gradient: float | None = None
    gamma: float | None = None
    A_energy: float | None = None
    lam: float | None = None


@dataclass(frozen=True)
class GroundStateRefs:
    """The ground-state scalars the trackers compare against."""

    mass: float
    energy: float
    grad_sq: float
    alpha: float | None
    x_star: float | None

    @classmethod
    def from_ground_state(cls, gs: GroundState):
        return cls(mass=gs.mass, energy=gs.energy, grad_sq=gs.grad_sq,
                   alpha=gs.alpha, x_star=gs.x_star)


_CRIT_SIGMA = {1: 2.0, 2: 1.0, 3: 2.0 / 3.0, 4: 0.5}


def _sigma_in_admissible_range(n: int, sigma: float) -> bool:
    crit = _CRIT_SIGMA.get(n)
    if crit is not None and abs(sigma - crit) < 1e-12:
        return True
    if n in (1, 2):
        return sigma > 2.0 / n
    if n in (3, 4):
        return 2.0 / n < sigma < 2.0 / (n - 2)
    if n == 5:
        return 0.5 <= sigma < 2.0 / 3.0
    return False


@dataclass(frozen=True)
class SimConfig:
    n: int
    sigma: float
    noise_type: str  # none | multiplicative | additive
    dt0: float
    T_end: float
    grad_threshold: float          # blow-up detector N on ||grad u||
    record_stride: int = 1
    adapt: AdaptSpec | None = None
    thresholds: StoppingThresholds = field(default_factory=StoppingThresholds)
    gs_refs: GroundStateRefs | None = None
    tail_fraction_max: float = 0.10
    allow_conditional_regime: bool = False
    disable_nonlinearity: bool = False  # test hook: free Schroedinger evolution

    def __post_init__(self):
        if self.noise_type not in ("none", "multiplicative", "additive"):
            raise ValueError(f"unknown noise_type {self.noise_type!r}")
        if not 0.0 < self.dt0 < self.T_end:
            raise ValueError("need 0 < dt0 < T_end")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.grad_threshold <= 0:
            raise ValueError("grad_threshold must be positive")
        if not self.allow_conditional_regime and not _sigma_in_admissible_range(self.n, self.sigma):
            raise ValueError(
                "sigma outside the admissible critical/intercritical ranges; "
                "set allow_conditional_regime=True to run anyway"
            )

    @property
    def alpha_or_zero(self) -> float:
        if self.gs_refs is not None and self.gs_refs.alpha is not None:
            return self.gs_refs.alpha
        return 0.0


@dataclass(frozen=True)
class TerminalStatus:
    kind: str                 # survived | blownup | failed
    time: float
    reason: str | None = None

    def to_dict(self):
        return {"kind": self.kind, "time": self.time, "reason": self.reason}


@dataclass
class TrajectoryRecord:
    samples: list
    status: TerminalStatus
    hit_times: dict
    seed: object
    dt_final: float
    config_hash: str | None = None

    def sample_arrays(self):
        """Column arrays keyed by observable name, for aggregation."""
        if not self.samples:
            return {}
        columns = np.array([sample_values(s) for s in self.samples]).T.copy()
        return dict(zip(SAMPLE_KEYS, columns))

    def to_summary_dict(self):
        return {
            "status": self.status.to_dict(),
            "hit_times": dict(self.hit_times),
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
            "dt_final": self.dt_final,
            "n_samples": len(self.samples),
            "config_hash": self.config_hash,
        }


def _power(values: np.ndarray, sigma: float) -> np.ndarray:
    # |u|^(2 sigma) as exp(sigma log |u|^2) with a floor, robust for fractional sigma
    abs2 = np.maximum(values.real**2 + values.imag**2, 1e-300)
    return np.exp(sigma * np.log(abs2))


def _phase(values: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """values * exp(-i theta) for a real theta; cos and sin beat a complex exp."""
    rot = np.empty(values.shape, dtype=np.complex128)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    np.negative(rot.imag, out=rot.imag)
    rot *= values
    return rot


@lru_cache(maxsize=8)
def _propagator(grid: GridSpec, dt: float, masked: bool) -> np.ndarray:
    """exp(i |xi|^2 dt), times the dealiasing mask when masked."""
    prop = np.exp(1j * grid.laplacian_symbol * dt)
    if masked:
        prop *= grid.dealias_mask
    prop.flags.writeable = False
    return prop


def _linear(values: np.ndarray, grid: GridSpec, dt: float, masked: bool):
    """The linear full step: (new values, their spectrum)."""
    spec = fft_field(values)
    spec *= _propagator(grid, dt, masked)
    return ifft_field(spec), spec


def step_deterministic(u: FieldState, dt: float, sigma: float,
                       skip_nonlinear: bool = False) -> FieldState:
    """One Strang step of the deterministic flow (see module docstring)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = u.grid
    if skip_nonlinear:
        return FieldState(g, *_linear(u.values, g, dt, masked=False))
    vals = _phase(u.values, (dt / 2.0) * _power(u.values, sigma))
    vals, _ = _linear(vals, g, dt, masked=g.dealias_fraction < 1.0)
    return FieldState(g, _phase(vals, (dt / 2.0) * _power(vals, sigma)))


def step_multiplicative(u: FieldState, dW: np.ndarray) -> FieldState:
    """Exact Stratonovich substep u <- u exp(-i dW) for a real increment."""
    dW = np.asarray(dW)
    if np.iscomplexobj(dW) and np.max(np.abs(dW.imag)) > 0:
        raise ValueError("multiplicative increment must be real")
    return u.with_values(_phase(u.values, dW.real))


def step_additive(u: FieldState, dW: np.ndarray) -> FieldState:
    """Additive substep u <- u - i dW (from i du = dW on the noise flow)."""
    return u.with_values(u.values - 1j * np.asarray(dW, dtype=complex))


def _finite(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values.view(np.float64))))


class _StoppingTrackers:
    """First-crossing detection on the recorded samples."""

    def __init__(self, cfg: SimConfig):
        self.hits = {name: None for name in STOPPING_TIME_NAMES}
        refs = cfg.gs_refs
        th = cfg.thresholds
        alpha = cfg.alpha_or_zero
        self._checks = []
        if refs is not None:
            me_q = refs.energy * refs.mass**alpha
            if th.delta_energy is not None:
                lim = th.delta_energy * me_q
                self._checks.append(("tau_delta_energy", lambda s: s.me_product >= lim))
            if th.gamma is not None:
                lim = th.gamma * me_q
                self._checks.append(("sigma_gamma", lambda s: s.me_product >= lim))
            if th.delta_mass is not None:
                lim = th.delta_mass**2 * refs.mass
                self._checks.append(("tau_delta_mass", lambda s: s.mass >= lim))
            if th.lam is not None:
                lim = th.lam**2 * refs.mass
                self._checks.append(("omega_mass_exit", lambda s: s.mass > lim))
            if th.A_energy is not None:
                lim = th.A_energy * refs.energy
                self._checks.append(("tau_A", lambda s: s.energy >= lim))
            if th.delta_gradient is not None and refs.x_star is not None:
                lim = th.delta_gradient * refs.x_star
                self._checks.append(("tau_delta_gradient", lambda s: s.X <= lim))
        self._checks.append(("sigma_0", lambda s: s.energy <= 0.0))
        nsq = cfg.grad_threshold**2
        self._checks.append(("tau_tilde_N", lambda s: s.grad_sq >= nsq))

    def update(self, sample: ObservableSample):
        for name, pred in self._checks:
            if self.hits[name] is None and pred(sample):
                self.hits[name] = sample.t


def run_trajectory(config: SimConfig, u0: FieldState, spec: CovarianceSpec | None,
                   seed, sampler: NoiseSampler | None = None) -> TrajectoryRecord:
    """Integrate one path to T_end, blow-up, or failure.

    Deterministic given (config, u0, spec, seed): the noise stream is a
    counter-based generator keyed by the seed, so reruns are bitwise identical.
    sampler, if given, is a NoiseSampler of (spec, u0.grid) shared by the
    trajectories of one worker; it is built here otherwise.
    """
    g = u0.grid
    rng = None
    if config.noise_type != "none":
        if spec is None:
            raise ValueError("noise_type set but no covariance spec given")
        if sampler is None:
            sampler = NoiseSampler(spec, g)
        if isinstance(seed, tuple):
            rng = make_rng(seed[0], seed[1])
        else:
            rng = make_rng(int(seed), 0)

    m0 = mass(u0)
    alpha = config.alpha_or_zero
    sigma = config.sigma
    trackers = _StoppingTrackers(config)
    samples: list[ObservableSample] = []

    def record(state, time):
        s = observe(state, time, m0, alpha, sigma)
        samples.append(s)
        trackers.update(s)
        return s

    grad0 = record(u0, 0.0).grad_sq
    if grad0 >= config.grad_threshold**2:
        raise ValueError("grad_threshold must exceed the initial gradient norm")

    nonlinear = not config.disable_nonlinearity
    masked = nonlinear and g.dealias_fraction < 1.0
    multiplicative = config.noise_type == "multiplicative"
    additive = config.noise_type == "additive"
    # The state is vals * exp(-i theta); theta is None when vals is the state.
    # power = |vals|^(2 sigma), which the pending phase leaves unchanged.
    vals = u0.values
    theta = None
    power = _power(vals, sigma) if nonlinear else None
    t = 0.0
    dt = config.dt0
    grad_ref = max(grad0, 1e-300)
    status = None
    step = 0

    def failed(time):
        reason = "unresolved" if (config.adapt and dt <= config.adapt.dt_min) else "overflow"
        return TerminalStatus("failed", time, reason)

    while t < config.T_end - 1e-12 * config.T_end:
        dt_step = min(dt, config.T_end - t)
        try:
            trailing = theta is not None
            if nonlinear:  # the leading half step joins the pending phase
                lead = (dt_step / 2.0) * power
                theta = lead if theta is None else np.add(theta, lead, out=theta)
            if theta is not None:
                vals = _phase(vals, theta)
                if trailing and not _finite(vals):  # the state at t was not finite
                    status = failed(t)
                    break
            vals, _ = _linear(vals, g, dt_step, masked)
            theta = None
            if nonlinear:
                power = _power(vals, sigma)
                theta = (dt_step / 2.0) * power
            if multiplicative:  # Stratonovich phase: commutes with the trailing half step
                dW = sampler.sample_real(dt_step, rng)
                theta = dW if theta is None else np.add(theta, dW, out=theta)
            elif additive:
                if theta is not None:
                    vals = _phase(vals, theta)
                    theta = None
                vals = vals - 1j * sampler.sample_complex(dt_step, rng)
                if nonlinear:
                    power = _power(vals, sigma)
        except (FloatingPointError, ValueError):
            status = TerminalStatus("failed", t, "overflow")
            break
        t += dt_step
        step += 1
        record_now = step % config.record_stride == 0 or t >= config.T_end - 1e-12
        if record_now and theta is not None:
            vals = _phase(vals, theta)
            theta = None
        if theta is None and not _finite(vals):
            status = failed(t)
            break
        if record_now:
            u = FieldState(g, vals)
            s = record(u, t)
            if s.grad_sq >= config.grad_threshold**2:
                status = TerminalStatus("blownup", t)
                break
            if spectral_tail_fraction(u) > config.tail_fraction_max:
                status = TerminalStatus("blownup", t, "spectral tail")
                break
            if config.adapt is not None and s.grad_sq > config.adapt.growth_factor * grad_ref:
                if dt > config.adapt.dt_min:
                    dt = max(dt / 2.0, config.adapt.dt_min)
                grad_ref = s.grad_sq
    if status is None and theta is not None and not _finite(_phase(vals, theta)):
        status = failed(t)  # a last step that was not recorded
    if status is None:
        status = TerminalStatus("survived", config.T_end)
    return TrajectoryRecord(samples=samples, status=status, hit_times=trackers.hits,
                            seed=seed if isinstance(seed, tuple) else int(seed),
                            dt_final=dt)
