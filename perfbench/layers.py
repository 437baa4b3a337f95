"""Per-layer metrics: which library functions are wrapped, and what the spans give.

Layers are the modules of ``src/snls``.  ``TARGETS`` names the functions that
get a span; ``METRICS`` defines every per-layer metric from the spans of one
traced round.  A metric whose spans are all missing (the function was renamed
or removed) reads 0 and is listed by :func:`absent_metrics`.

Times per call are means over the calls of one round, and read 0 when the
round made no such call (``apply_dealias`` with ``dealias_fraction`` 1.0, for
example).  Counts are per round.  Per-step figures count only calls made
inside a trajectory after its first step, so the two ``observe`` calls before
the loop do not blur them.  Bytes are computed from array sizes, not measured.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TARGETS", "METRICS", "UNITS", "install", "round_metrics", "absent_metrics"]

FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
CONFIG_SPAN = "config_build"


def _fft_bytes(args, result):
    # one read of the input and one write of the output, both result-sized
    return 2 * result.nbytes


def _held_bytes(args, result):
    return sum(v.nbytes for v in getattr(args[0], "__dict__", {}).values()
               if isinstance(v, np.ndarray))


def _traj_index(args, kwargs):
    seed = kwargs["seed"] if "seed" in kwargs else args[3]
    return int(seed[1]) if isinstance(seed, tuple) else int(seed)


# (span name, module, attribute, measure, trajectory-index getter)
TARGETS = (
    *[("fft", mod, f, _fft_bytes, None) for mod in ("numpy.fft", "scipy.fft")
      for f in FFT_FUNCS],
    ("run_trajectory", "snls.dynamics", "run_trajectory", None, _traj_index),
    ("step_deterministic", "snls.dynamics", "step_deterministic", None, None),
    ("noise_apply", "snls.dynamics", "step_multiplicative", None, None),
    ("noise_apply", "snls.dynamics", "step_additive", None, None),
    ("dealias", "snls.grid", "apply_dealias", None, None),
    ("tail_check", "snls.grid", "spectral_tail_fraction", None, None),
    ("observe", "snls.observables", "observe", None, None),
    ("momentum", "snls.observables", "momentum", None, None),
    ("noise_draw", "snls.noise_model", "NoiseSampler.sample_real", None, None),
    ("sampler_init", "snls.noise_model", "NoiseSampler.__init__", _held_bytes, None),
    ("noise_constants", "snls.noise_model", "noise_constants", None, None),
    ("solve_ground_state", "snls.ground_state", "solve_ground_state", None, None),
    (CONFIG_SPAN, "snls.config", "ExperimentConfig.build_grid", None, None),
    (CONFIG_SPAN, "snls.config", "ExperimentConfig.build_sim_config", None, None),
    (CONFIG_SPAN, "snls.config", "ExperimentConfig.build_covariance", None, None),
    (CONFIG_SPAN, "snls.config", "ExperimentConfig.build_initial_data", None, None),
    (CONFIG_SPAN, "snls.config", "config_hash", None, None),
    ("initial_data", "snls.initial_data", "build_initial_data", None, None),
    ("run_ensemble", "snls.ensemble", "run_ensemble", None, None),
    ("persist", "snls.ensemble", "persist_records", None, None),
    ("theory_report", "snls.report", "build_theory_report", None, None),
)


def install(tracer):
    """Wrap every target, and its aliases in the snls modules, in ``tracer``."""
    tracer.calibrate()
    for span, module, attr, measure, traj_of in TARGETS:
        tracer.patch(span, module, attr, alias_scope=("snls",),
                     measure=measure, traj_of=traj_of)


class _Round:
    """The spans of one traced round, with the helpers the metrics use."""

    def __init__(self, cols, names, lo, hi, rnd, base, pool_efficiency):
        self.c = {k: v[lo:hi] for k, v in cols.items()}
        self.lo = lo
        self.ids = {n: i for i, n in enumerate(names)}
        self.rnd, self.base, self.pool_efficiency = rnd, base, pool_efficiency
        self.steps = self.count("step_deterministic")
        traj = self.c["traj"]
        is_step = self.of("step_deterministic")
        first = np.full(int(traj.max(initial=0)) + 1, np.iinfo(np.int64).max)
        np.minimum.at(first, traj[is_step], self.c["start"][is_step])
        self.in_loop = (traj >= 0) & (self.c["start"] >= first[np.maximum(traj, 0)])

    def of(self, span):
        return self.c["name_id"] == self.ids.get(span, -1)

    def count(self, span):
        return int(np.count_nonzero(self.of(span)))

    def mean_us(self, span):
        d = self.c["duration"][self.of(span)]
        return float(d.mean()) / 1e3 if d.size else 0.0

    def total_s(self, span):
        return float(self.c["duration"][self.of(span)].sum()) / 1e9

    def self_s(self, span):
        return float(self.c["self"][self.of(span)].sum()) / 1e9

    def per_step(self, span, column=None):
        sel = self.of(span) & self.in_loop
        n = self.c[column][sel].sum() if column else np.count_nonzero(sel)
        return float(n) / self.steps if self.steps else 0.0

    def traj_s(self, q):
        d = self.c["duration"][self.of("run_trajectory")]
        return float(np.percentile(d, q)) / 1e9 if d.size else 0.0

    def config_s(self):
        """Config building time; build_covariance may call build_grid inside."""
        sel = self.of(CONFIG_SPAN)
        nested = np.isin(self.c["parent"][sel], np.flatnonzero(sel) + self.lo)
        return float(self.c["duration"][sel][~nested].sum()) / 1e9

    def max_extra(self, span):
        e = self.c["extra"][self.of(span)]
        return float(e.max()) if e.size else 0.0


# name -> (unit, spans it needs, value from one _Round)
METRICS = {
    "grid.ffts_per_step": ("count", ("fft", "step_deterministic"),
                           lambda r: r.per_step("fft")),
    "grid.fft_bytes_per_step": ("B", ("fft", "step_deterministic"),
                                lambda r: r.per_step("fft", "extra")),
    "grid.fft_us": ("us", ("fft",), lambda r: r.mean_us("fft")),
    "grid.dealias_us": ("us", ("dealias",), lambda r: r.mean_us("dealias")),
    "grid.tail_check_us": ("us", ("tail_check",), lambda r: r.mean_us("tail_check")),
    "dynamics.step_us": ("us", ("step_deterministic",),
                         lambda r: r.mean_us("step_deterministic")),
    "dynamics.noise_apply_us": ("us", ("noise_apply",), lambda r: r.mean_us("noise_apply")),
    "dynamics.steps": ("count", ("step_deterministic",), lambda r: float(r.steps)),
    "dynamics.loop_self_us_per_step": (
        "us", ("run_trajectory", "step_deterministic"),
        lambda r: r.self_s("run_trajectory") * 1e6 / r.steps if r.steps else 0.0),
    "dynamics.traj_s_p50": ("s", ("run_trajectory",), lambda r: r.traj_s(50)),
    "dynamics.traj_s_p90": ("s", ("run_trajectory",), lambda r: r.traj_s(90)),
    "observables.observe_us": ("us", ("observe",), lambda r: r.mean_us("observe")),
    "observables.momentum_us": ("us", ("momentum",), lambda r: r.mean_us("momentum")),
    "observables.observe_per_step": ("count", ("observe", "step_deterministic"),
                                     lambda r: r.per_step("observe")),
    "noise_model.draw_us": ("us", ("noise_draw",), lambda r: r.mean_us("noise_draw")),
    "noise_model.draws_per_step": ("count", ("noise_draw", "step_deterministic"),
                                   lambda r: r.per_step("noise_draw")),
    "noise_model.sampler_init_s": ("s", ("sampler_init",),
                                   lambda r: r.mean_us("sampler_init") / 1e6),
    "noise_model.sampler_inits": ("count", ("sampler_init",),
                                  lambda r: float(r.count("sampler_init"))),
    "noise_model.basis_mb": ("MB", ("sampler_init",),
                             lambda r: r.max_extra("sampler_init") / 1e6),
    "noise_model.constants_s": ("s", ("noise_constants",),
                                lambda r: r.total_s("noise_constants")),
    "ground_state.solve_s": ("s", ("solve_ground_state",),
                             lambda r: r.total_s("solve_ground_state")),
    "ground_state.solve_calls": ("count", ("solve_ground_state",),
                                 lambda r: float(r.count("solve_ground_state"))),
    "config.build_s": ("s", (CONFIG_SPAN,), lambda r: r.config_s()),
    "initial_data.build_us": ("us", ("initial_data",), lambda r: r.mean_us("initial_data")),
    "ensemble.aggregate_s": ("s", ("run_ensemble",), lambda r: r.self_s("run_ensemble")),
    "ensemble.persist_s": ("s", ("persist",), lambda r: r.total_s("persist")),
    "ensemble.persist_mb": ("MB", (), lambda r: r.rnd.persisted_bytes / 1e6),
    "ensemble.pool_efficiency": ("ratio", (), lambda r: r.pool_efficiency),
    "report.theory_report_s": ("s", ("theory_report",), lambda r: r.total_s("theory_report")),
    "trace.overhead_ratio": (
        "ratio", (),
        lambda r: (r.rnd.n_traj / r.rnd.times()[1]) / (r.base.n_traj / r.base.times()[1])),
}
UNITS = {name: unit for name, (unit, _, _) in METRICS.items()}


def round_metrics(tracer, marks, rounds, base, pool_efficiency) -> list:
    """One {metric: value} dict per traced round; ``marks`` are span index ranges."""
    cols = tracer.columns()
    out = []
    for (lo, hi), rnd in zip(marks, rounds):
        r = _Round(cols, tracer.names, lo, hi, rnd, base, pool_efficiency)
        out.append({name: fn(r) for name, (_, _, fn) in METRICS.items()})
    return out


def absent_metrics(tracer) -> list:
    """Metrics that need a span whose function no longer exists."""
    missing = {t[0] for t in TARGETS} - set(tracer.names)
    return [name for name, (_, spans, _) in METRICS.items() if missing & set(spans)]
