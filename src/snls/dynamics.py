"""Time integration of a batch of trajectories, one path per row.

A Trajectory advances B paths together as one (B, *grid) array: advance()
steps every live row to the next record, state(i) is row i's field at its
time t and record(i) its path; run_trajectory is a batch of one.  All live
rows step in lock-step by step count, so each phase, power and FFT pair of a
step is taken once over the batch, on the grid axes only.

A path's state is its row, one object per path in Trajectory.rows, together
with its row of Trajectory's block of drawn normals.  No path reads another's
state, so a row's record is bitwise the one it gets alone, in any batch and
on any number of workers.  A row holds:

  * its own Philox noise stream, keyed by its seed.  Its position in the
    stream is its Philox state plus its normals drawn but not yet used: each
    live row draws the normals of a block of steps from its stream with one
    call, into its row of a (live rows, steps, parts, n_basis) array, and
    may draw past the step where it ends; those normals are never read.  A
    step reads its slice and NoiseSampler.synthesize turns it into the
    increments of all rows at once: the passes of an inverse real FFT, each
    over only the lines of the half spectrum that can be nonzero.  A
    stream's normals drawn k at a time are its k single draws, so the blocks
    do not move a record.
    The block holds at most _NORMALS_BYTES and is compacted with the field
    arrays;
  * its own t, dt and step decisions: the linear propagator is looked up per
    dt and stacked when rows differ (adaptive halving, a clipped last step);
  * its own hitting times, samples and status.  A row's samples are tuples of
    floats in observables.SAMPLE_KEYS order, and record(i) returns them as
    one (records, keys) float64 array.

Trajectory.live lists the rows that go on, in the order of the stacked field
arrays.  A row that is not finite, blows up, shows a spectral tail or
reaches the end stops alone, and live and the arrays are filtered to the
rows that go on.  Reductions run row by row: a.reshape(B, -1).sum(axis=1)
sums each row exactly as the row alone, and the boundary and tail fractions
gather their points with np.take, whose C-ordered (B, k) result keeps that
property (a boolean gather a[:, mask] is F-ordered, and its row sums differ
from a[i][mask].sum()).  Nothing reduces through BLAS.

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
unchanged and therefore commute: a row carries the post-linear field w and
fuses the trailing half step, the noise phase and the next leading half step
into one  w exp(-i (dt/2 P + dW + dt'/2 P)),  P = |w|^2s, pending until the
next step or record.  A step is then one FFT pair, one evaluation of P and
one complex exponential; P takes repeated products of |w|^2 for an integer
sigma (grid.abs2_power).  The FFT pair runs in place in the step's phased
temporary, which becomes its spectrum and then the post-linear field.  The
additive substep is not a phase, so there the trailing half step is applied
before it on every step.  step_deterministic is the same Strang step on a
FieldState, built from the same phase and propagator helpers.

Every live row carries the same pending state, since the rows share one
step count: after a step off the record stride the phase stays pending in
every row (an additive step syncs every row), and on the stride every row is
synced and recorded.  A row ends on the step that takes its t to
T_end - 1e-12 max(1, T_end) or beyond, and that step records it, so a
surviving path's last sample is its only one in that band; off the stride
the ending row records a synced temporary and the other rows stay pending.
A record observes its rows as one batch state (observables.observe_rows):
one |u|^2, one FFT and one |uhat|^2 shared by the gradient norm and the tail
check, and one inverse FFT per axis for the momentum; the grid sums of a
small record are one stacked reduction.  The next leading half
step uses the dt chosen after the adaptive check.  Overflow is not an error
inside the loop: it makes the row's field non-finite, and a state that is
not finite fails its row at its time t.  A state is checked when it is
synced, or before the next step while it is pending.

Snapshot caveat: a row's position in its noise stream is its Philox state
together with its normals drawn but not yet used, so a copy of a row's state
that keeps only the generator would not continue its path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import (FieldState, GridSpec, abs2_power, fft_field, ifft_field, mass,
                   tail_fraction_rows)
from .ground_state import GroundState, classify_regime
from .noise_model import CovarianceSpec, NoiseSampler, make_rng
from .observables import SAMPLE_KEYS, ObservableSample, observe_rows

__all__ = [
    "AdaptSpec",
    "StoppingThresholds",
    "SimConfig",
    "TerminalStatus",
    "TrajectoryRecord",
    "step_deterministic",
    "step_multiplicative",
    "step_additive",
    "Trajectory",
    "run_trajectory",
    "tracker_rows",
    "STOPPING_TIME_NAMES",
]

_T, _GRAD_SQ = SAMPLE_KEYS.index("t"), SAMPLE_KEYS.index("grad_sq")
_NORMALS_BYTES = 2**18  # one block of normals, all live rows together

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
    gs_refs: GroundState | None = None  # the trackers' references M(Q), H(Q), alpha, x*
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
        # admissible: 0 <= s_c < 1, with |s_c| < 1e-12 counted as critical
        if not self.allow_conditional_regime and \
                classify_regime(self.n, self.sigma) not in ("critical", "intercritical"):
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
    """One path; values holds its samples as float64 rows in SAMPLE_KEYS column order."""

    values: np.ndarray
    status: TerminalStatus
    hit_times: dict
    seed: object
    dt_final: float
    config_hash: str | None = None

    @property
    def samples(self) -> list:
        """The rows of values as ObservableSamples, built on each access.

        Only readers that want named fields use it: the tests and the
        benchmark's mass check on mult-3d-32 (perfbench/workloads.py).
        """
        return [ObservableSample(*row) for row in self.values.tolist()]

    def sample_arrays(self):
        """Column arrays keyed by observable name, for aggregation."""
        return dict(zip(SAMPLE_KEYS, self.values.T.copy()))

    def to_summary_dict(self):
        return {
            "status": self.status.to_dict(),
            "hit_times": dict(self.hit_times),
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
            "dt_final": self.dt_final,
            "n_samples": len(self.values),
            "config_hash": self.config_hash,
        }


def _power(values: np.ndarray, sigma: float) -> np.ndarray:
    """|u|^(2 sigma) of the field values."""
    abs2 = np.square(values.real)
    abs2 += np.square(values.imag)
    return abs2_power(abs2, sigma)


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


def _linear(values: np.ndarray, grid: GridSpec, prop: np.ndarray) -> np.ndarray:
    """The linear full step over the grid axes, in place: values, a temporary
    of the caller's, becomes its spectrum and then the result."""
    spec = fft_field(values, grid.dim, out=values)
    spec *= prop
    return ifft_field(spec, grid.dim, out=spec)


def step_deterministic(u: FieldState, dt: float, sigma: float) -> FieldState:
    """One Strang step of the deterministic flow (see module docstring)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = u.grid
    vals = _phase(u.values, (dt / 2.0) * _power(u.values, sigma))
    vals = _linear(vals, g, _propagator(g, dt, g.dealias_fraction < 1.0))
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


def _finite_rows(values: np.ndarray) -> np.ndarray:
    """Whether each row of a (B, *grid) batch is finite."""
    return np.isfinite(values.view(np.float64)).reshape(len(values), -1).all(axis=1)


def _square(x):
    return None if x is None else x**2


def tracker_rows(cfg: SimConfig) -> list:
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


class _Row:
    """One path: its seed, noise stream (None without noise), frozen initial mass m0,
    t, dt, adaptive reference grad_ref, hitting times, samples and status.

    The row's normals are drawn ahead, a block of steps at a time, into its
    row of Trajectory's normals block; so the position of its noise stream is
    its Philox state together with its normals not yet used, and a copy of
    the row alone would not continue its path.
    """

    __slots__ = ("seed", "rng", "m0", "t", "dt", "grad_ref", "hits", "samples", "status")

    def __init__(self, seed, m0: float, dt: float):
        self.seed, self.rng, self.m0, self.t, self.dt = seed, None, m0, 0.0, dt
        self.grad_ref, self.status = None, None  # status is set when the row stops
        self.hits, self.samples = dict.fromkeys(STOPPING_TIME_NAMES), []


class Trajectory:
    """B paths of the fused integrator, one per row, advanced in lock-step.

    Row i starts from u0s[i] and draws its noise from the stream keyed by
    seeds[i], so each path is deterministic given (config, u0, spec, seed)
    and does not depend on the other rows.  sampler, if given, is a
    NoiseSampler of (spec, grid); it holds no per-path state.

    rows lists every row's _Row in index order, and live the rows that go on,
    in the order of the field arrays; a row's t, dt and grad_ref are Python
    floats, so its time arithmetic is that of a path alone.  Every live row
    carries the same pending state: the rows' states are vals * exp(-i theta)
    while a phase is pending and vals otherwise, and power = |vals|^(2 sigma)
    is unchanged by the pending phase.
    """

    def __init__(self, config: SimConfig, u0s, spec: CovarianceSpec | None, seeds,
                 sampler: NoiseSampler | None = None):
        if len(u0s) != len(seeds) or not u0s:
            raise ValueError("need one seed per initial state, and at least one")
        self.config = config
        self.grid = g = u0s[0].grid
        self.rows = [_Row(s if isinstance(s, tuple) else int(s), mass(u), config.dt0)
                     for u, s in zip(u0s, seeds)]
        if config.noise_type != "none":
            if spec is None:
                raise ValueError("noise_type set but no covariance spec given")
            if sampler is None:
                sampler = NoiseSampler(spec, g)
            for row in self.rows:
                row.rng = (make_rng(*row.seed) if isinstance(row.seed, tuple)
                           else make_rng(row.seed))
        self._sampler = sampler
        # the block of drawn normals, (live rows, steps, parts, n_basis); it starts empty
        parts = 2 if config.noise_type == "additive" else 1
        self._normals = (None if config.noise_type == "none"
                         else np.empty((len(self.rows), 0, parts, sampler.n_basis)))
        self._used = 0  # steps of the normals block already read
        self._trackers = [(name, SAMPLE_KEYS.index(key), cmp, limit)
                          for name, key, cmp, limit in tracker_rows(config)]
        self.step = 0
        self.live = list(self.rows)
        vals = np.stack([u.values for u in u0s])
        grad0 = [v[_GRAD_SQ] for v in self._sample(FieldState(g, vals), self.live)]
        if any(x >= config.grad_threshold**2 for x in grad0):
            raise ValueError("grad_threshold must exceed the initial gradient norm")
        for row, x in zip(self.rows, grad0):
            row.grad_ref = max(x, 1e-300)
        self._vals, self._theta = vals, np.zeros(vals.shape)
        self._pending = False  # whether every live row's state is vals * exp(-i theta)
        self._power = _power(vals, config.sigma)

    def _sample(self, u: FieldState, rows: list) -> list:
        """Observe u, the states of `rows` at their times, and update their trackers."""
        samples = observe_rows(u, [row.t for row in rows], [row.m0 for row in rows],
                               self.config.alpha_or_zero, self.config.sigma)
        for row, v in zip(rows, samples):
            row.samples.append(v)
            for name, col, cmp, limit in self._trackers:
                if row.hits[name] is None and cmp(v[col], limit):
                    row.hits[name] = v[_T]
        return samples

    def _record(self, u: FieldState, rows: list):
        """Sample `rows` (u holds their states) and run the checks made at a record:
        blow-up, spectral tail and the adaptive dt."""
        cfg = self.config
        for row, v, tail in zip(rows, self._sample(u, rows), tail_fraction_rows(u)):
            t, grad_sq = v[_T], v[_GRAD_SQ]
            if grad_sq >= cfg.grad_threshold**2:
                row.status = TerminalStatus("blownup", t)
            elif tail > cfg.tail_fraction_max:
                row.status = TerminalStatus("blownup", t, "spectral tail")
            elif cfg.adapt is not None and grad_sq > cfg.adapt.growth_factor * row.grad_ref:
                if row.dt > cfg.adapt.dt_min:
                    row.dt = max(row.dt / 2.0, cfg.adapt.dt_min)
                row.grad_ref = grad_sq

    def _fail(self, row: _Row):
        """End a row as failed at its current t."""
        adapt = self.config.adapt
        reason = "unresolved" if (adapt and row.dt <= adapt.dt_min) else "overflow"
        row.status = TerminalStatus("failed", row.t, reason)

    def _compact(self):
        """Drop the rows whose status is set from the live arrays."""
        keep = [row.status is None for row in self.live]
        if all(keep):
            return
        self.live = [row for row in self.live if row.status is None]
        self._vals, self._theta, self._power = (
            self._vals[keep], self._theta[keep], self._power[keep])
        if self._normals is not None:
            self._normals = self._normals[keep]

    def _next_normals(self) -> np.ndarray:
        """This step's normals, one (parts, n_basis) row per live row.

        They are read from the block of normals; when it is used up, each live
        row draws its next block from its own stream, with one call, so its
        normals are those of drawing them step by step.  A block holds at most
        _NORMALS_BYTES and no more steps than the longest row has left at its dt.
        """
        block = self._normals
        if self._used == block.shape[1]:
            t_end, live = self.config.T_end, self.live
            left = max(int((t_end - row.t) / row.dt) for row in live) + 1
            per_step = block.itemsize * block.shape[2] * block.shape[3] * len(live)
            block = np.empty((len(live), min(left, max(1, _NORMALS_BYTES // per_step)))
                             + block.shape[2:])
            for row, normals in zip(live, block):
                row.rng.standard_normal(out=normals)
            self._normals, self._used = block, 0
        self._used += 1
        return block[:, self._used - 1]

    def state(self, i: int) -> FieldState:
        """The field of live row i at its time t, with the pending phase applied."""
        pos = self.live.index(self.rows[i])
        vals = self._vals[pos]
        if self._pending:
            vals = _phase(vals, self._theta[pos])
        return FieldState(self.grid, vals)

    def advance(self) -> bool:
        """Step every live row until some row records or every row has ended.

        Returns whether any row goes on; once every status is set it stays False.
        """
        cfg, g = self.config, self.grid
        sigma, t_end, stride = cfg.sigma, cfg.T_end, cfg.record_stride
        end = t_end - 1e-12 * max(1.0, t_end)  # a row ends and records on the step reaching it
        masked = g.dealias_fraction < 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows fails alone
            while self.live:
                live = self.live
                steps = [min(row.dt, t_end - row.t) for row in live]
                if steps.count(steps[0]) == len(live):  # a Python float keeps numpy's fast loops
                    half, prop = steps[0] / 2.0, _propagator(g, steps[0], masked)
                else:  # rows on different dt: adaptive halving or a clipped last step
                    half = np.array([d / 2.0 for d in steps]).reshape((-1,) + (1,) * g.dim)
                    prop = np.stack([_propagator(g, d, masked) for d in steps])
                lead = half * self._power  # the leading half step joins the pending phase
                if self._pending:  # the states at t were not yet checked
                    vals = _phase(self._vals, np.add(self._theta, lead, out=self._theta))
                    going = _finite_rows(vals).tolist()
                else:
                    vals = _phase(self._vals, lead)
                    going = [True] * len(live)
                vals = _linear(vals, g, prop)
                power = _power(vals, sigma)
                theta = half * power
                if cfg.noise_type == "multiplicative":  # Stratonovich phase: commutes
                    theta += self._sampler.synthesize(self._next_normals(), steps)
                elif cfg.noise_type == "additive":  # not a phase: the trailing half step first
                    vals = _phase(vals, theta) - 1j * self._sampler.synthesize(
                        self._next_normals(), steps, complex_valued=True)
                    power = _power(vals, sigma)
                self.step += 1
                on_stride = self.step % stride == 0
                self._pending = cfg.noise_type != "additive" and not on_stride
                record = []
                for row, step, finite in zip(live, steps, going):
                    if finite:
                        row.t += step
                    else:  # its state at t is not finite
                        self._fail(row)
                    record.append(finite and (on_stride or row.t >= end))
                states = vals  # the states at t
                if cfg.noise_type != "additive" and (not self._pending or any(record)):
                    states = _phase(vals, theta)  # a temporary while the rows stay pending
                self._vals, self._theta, self._power = (
                    vals if self._pending else states), theta, power
                checked = record if self._pending else going  # the states at t at hand
                if any(checked):  # a state at t that is not finite ends its row
                    for pos, finite in enumerate(_finite_rows(states).tolist()):
                        if checked[pos] and not finite:
                            self._fail(live[pos])
                            record[pos] = False
                rows = [row for row, rec in zip(live, record) if rec]
                if rows:
                    self._record(FieldState(g, states if all(record) else states[record]), rows)
                for row in rows:  # a row that reaches the end ends on its record
                    if row.status is None and row.t >= end:
                        row.status = TerminalStatus("survived", t_end)
                self._compact()
                if rows:
                    break
        return bool(self.live)

    def record(self, i: int) -> TrajectoryRecord:
        """Row i's path so far, its samples as one array; its status is None while it goes on."""
        row = self.rows[i]
        return TrajectoryRecord(values=np.array(row.samples), status=row.status,
                                hit_times=dict(row.hits), seed=row.seed, dt_final=row.dt)

    def records(self) -> list:
        """Every row's path, in row order."""
        return [self.record(i) for i in range(len(self.rows))]


def run_trajectory(config: SimConfig, u0: FieldState, spec: CovarianceSpec | None,
                   seed, sampler: NoiseSampler | None = None) -> TrajectoryRecord:
    """Integrate one path to T_end, blow-up, or failure: a Trajectory of one row."""
    path = Trajectory(config, [u0], spec, [seed], sampler)
    while path.advance():
        pass
    return path.record(0)
