"""Single-trajectory time integration.

A Trajectory owns one path: its field, its noise stream, its samples and its
stopping-time hits.  advance() runs the loop to the next record, state() is
the field at the current time and record() the finished path;
run_trajectory builds one and advances it to the end.

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
separate filtering pass follows the trailing half step.

The phase substeps are pointwise unimodular multiplications, so the discrete
mass is conserved to rounding, which is the structural counterpart of the
a.s. mass conservation of the Stratonovich equation.  They leave |u|
unchanged and therefore commute: a Trajectory carries the post-linear field
w and fuses the trailing half step, the noise phase and the next leading half
step into one  w exp(-i (dt/2 P + dW + dt'/2 P)),  P = |w|^2s.  A step is then
one FFT pair, one evaluation of P and one complex exponential; P takes
repeated products of |w|^2 for an integer sigma (grid.abs2_power).  The
additive substep is not a phase, so there the trailing half step is applied
before it on every step.  step_deterministic is the same Strang step on a
FieldState, built from the same phase and propagator helpers.

A record adds one sync phase, which applies the pending phase to give u as a
FieldState, and then observe(u) and the spectral-tail check on that one
state: one |u|^2, one FFT and one |uhat|^2 shared by the gradient norm and
the tail check, and one inverse FFT per axis for the momentum.  The next
leading half step uses the dt chosen after the adaptive check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import (FieldState, GridSpec, abs2_power, fft_field, ifft_field, mass,
                   spectral_tail_fraction)
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
    "Trajectory",
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
    """|u|^(2 sigma) of the field values."""
    return abs2_power(values.real**2 + values.imag**2, sigma)


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


def _square(x):
    return None if x is None else x**2


def _tracker_rows(cfg: SimConfig) -> list:
    """(name, sample field, comparison, limit) of each enabled stopping time.

    A row is left out when its threshold or its ground-state reference is None.
    """
    rows = [("sigma_0", "energy", operator.le, 0.0),
            ("tau_tilde_N", "grad_sq", operator.ge, cfg.grad_threshold**2)]
    refs, th = cfg.gs_refs, cfg.thresholds
    if refs is None:
        return rows
    me_q = refs.energy * refs.mass**cfg.alpha_or_zero
    for name, key, cmp, factor, ref in (
        ("tau_delta_energy", "me_product", operator.ge, th.delta_energy, me_q),
        ("sigma_gamma", "me_product", operator.ge, th.gamma, me_q),
        ("tau_delta_mass", "mass", operator.ge, _square(th.delta_mass), refs.mass),
        ("omega_mass_exit", "mass", operator.gt, _square(th.lam), refs.mass),
        ("tau_A", "energy", operator.ge, th.A_energy, refs.energy),
        ("tau_delta_gradient", "X", operator.le, th.delta_gradient, refs.x_star),
    ):
        if factor is not None and ref is not None:
            rows.append((name, key, cmp, factor * ref))
    return rows


class Trajectory:
    """One path of the fused integrator, advanced from record to record.

    The state at time t is vals * exp(-i theta), theta None when vals is the
    state; power = |vals|^(2 sigma) is unchanged by the pending phase.  The
    noise stream is keyed by the seed, so a path is deterministic given
    (config, u0, spec, seed).  sampler, if given, is a NoiseSampler of
    (spec, u0.grid) shared by the trajectories of one worker.
    """

    def __init__(self, config: SimConfig, u0: FieldState, spec: CovarianceSpec | None,
                 seed, sampler: NoiseSampler | None = None):
        self.config = config
        self.grid = u0.grid
        self.seed = seed if isinstance(seed, tuple) else int(seed)
        self._rng = None
        if config.noise_type != "none":
            if spec is None:
                raise ValueError("noise_type set but no covariance spec given")
            if sampler is None:
                sampler = NoiseSampler(spec, u0.grid)
            self._rng = make_rng(*self.seed) if isinstance(seed, tuple) else make_rng(self.seed)
        self._sampler = sampler
        self._m0 = mass(u0)
        self._rows = _tracker_rows(config)
        self.hits = {name: None for name in STOPPING_TIME_NAMES}
        self.samples: list[ObservableSample] = []
        self.t = 0.0
        grad0 = self._sample(u0).grad_sq
        if grad0 >= config.grad_threshold**2:
            raise ValueError("grad_threshold must exceed the initial gradient norm")
        self.vals = u0.values
        self.theta = None
        self.power = _power(self.vals, config.sigma)
        self.dt = config.dt0
        self.step = 0
        self.grad_ref = max(grad0, 1e-300)
        self.status: TerminalStatus | None = None

    def _sample(self, u: FieldState) -> ObservableSample:
        s = observe(u, self.t, self._m0, self.config.alpha_or_zero, self.config.sigma)
        self.samples.append(s)
        for name, key, cmp, limit in self._rows:
            if self.hits[name] is None and cmp(getattr(s, key), limit):
                self.hits[name] = s.t
        return s

    def _failed(self, time: float, dt: float) -> TerminalStatus:
        adapt = self.config.adapt
        reason = "unresolved" if (adapt and dt <= adapt.dt_min) else "overflow"
        return TerminalStatus("failed", time, reason)

    def state(self) -> FieldState:
        """The field at time t, with the pending phase applied."""
        vals = self.vals if self.theta is None else _phase(self.vals, self.theta)
        return FieldState(self.grid, vals)

    def advance(self) -> bool:
        """Run the fused loop to the next record or to the end of the path.

        Returns whether the path goes on; once the status is set it stays False.
        """
        if self.status is not None:
            return False
        cfg, g = self.config, self.grid
        sigma, t_end, stride = cfg.sigma, cfg.T_end, cfg.record_stride
        masked = g.dealias_fraction < 1.0
        multiplicative = cfg.noise_type == "multiplicative"
        additive = cfg.noise_type == "additive"
        sampler, rng = self._sampler, self._rng
        vals, theta, power = self.vals, self.theta, self.power
        t, dt, step = self.t, self.dt, self.step
        status = None
        while t < t_end - 1e-12 * t_end:
            dt_step = min(dt, t_end - t)
            try:
                trailing = theta is not None
                lead = (dt_step / 2.0) * power  # the leading half step joins the pending phase
                theta = lead if theta is None else np.add(theta, lead, out=theta)
                vals = _phase(vals, theta)
                if trailing and not _finite(vals):  # the state at t was not finite
                    status = self._failed(t, dt)
                    break
                vals, _ = _linear(vals, g, dt_step, masked)
                power = _power(vals, sigma)
                theta = (dt_step / 2.0) * power
                if multiplicative:  # Stratonovich phase: commutes with the trailing half step
                    theta = np.add(theta, sampler.sample_real(dt_step, rng), out=theta)
                elif additive:  # not a phase: the trailing half step goes first
                    vals = _phase(vals, theta) - 1j * sampler.sample_complex(dt_step, rng)
                    theta = None
                    power = _power(vals, sigma)
            except (FloatingPointError, ValueError):
                status = TerminalStatus("failed", t, "overflow")
                break
            t += dt_step
            step += 1
            record_now = step % stride == 0 or t >= t_end - 1e-12
            if record_now and theta is not None:
                vals = _phase(vals, theta)
                theta = None
            if theta is None and not _finite(vals):
                status = self._failed(t, dt)
                break
            if record_now:
                break
        else:
            if theta is not None and not _finite(_phase(vals, theta)):
                status = self._failed(t, dt)  # a last step that was not recorded
            else:
                status = TerminalStatus("survived", t_end)
        self.vals, self.theta, self.power = vals, theta, power
        self.t, self.dt, self.step, self.status = t, dt, step, status
        if status is None:  # stopped at a record: one FieldState serves every check
            u = self.state()
            s = self._sample(u)
            if s.grad_sq >= cfg.grad_threshold**2:
                self.status = TerminalStatus("blownup", t)
            elif spectral_tail_fraction(u) > cfg.tail_fraction_max:
                self.status = TerminalStatus("blownup", t, "spectral tail")
            elif cfg.adapt is not None and s.grad_sq > cfg.adapt.growth_factor * self.grad_ref:
                if dt > cfg.adapt.dt_min:
                    self.dt = max(dt / 2.0, cfg.adapt.dt_min)
                self.grad_ref = s.grad_sq
        return self.status is None

    def record(self) -> TrajectoryRecord:
        """The finished path."""
        return TrajectoryRecord(samples=self.samples, status=self.status, hit_times=self.hits,
                                seed=self.seed, dt_final=self.dt)


def run_trajectory(config: SimConfig, u0: FieldState, spec: CovarianceSpec | None,
                   seed, sampler: NoiseSampler | None = None) -> TrajectoryRecord:
    """Integrate one path to T_end, blow-up, or failure (see Trajectory)."""
    path = Trajectory(config, u0, spec, seed, sampler)
    while path.advance():
        pass
    return path.record()
