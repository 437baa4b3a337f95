"""Benchmark of the snls-lab ensemble pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from ./src.

--trace 0 repeats one round of the `snls ensemble --compare` path (see
workloads.py) with ``master_seed = seed`` until S seconds have passed, checks
every round's outputs and prints the end-to-end metrics.  --trace 1 runs one
untraced round at workers=1 (and one at the workload's worker count, for the
pool efficiency), then traced rounds at workers=1 until S seconds have passed
(at least two, so that the count metrics can be compared), and prints the
per-layer metrics.  The spans are written to .perfbench_out/trace-NAME.npz.

Every line but the last is for people; the last line is one JSON object with
the keys correct, attempted (trajectories), failed (trajectories that ended
``failed``) and metrics.  The exit code is 1 when an output check fails and 2
when the library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# numpy links a threaded OpenBLAS and NoiseSampler.sample_real is a BLAS
# tensordot; pinned to one thread, workers=2 uses the 2 cores it asks for.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("drift-add-1d", "blowup-mult-1d", "mult-3d-32")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "traj_per_s": "1/s",
    "sim_time_per_s": "1/s",
    "compare_s": "s",
    "peak_rss_mb": "MB",
}

# Counts that must repeat exactly from one traced round to the next.
REPEATED_COUNTS = ("grid.ffts_per_step", "noise_model.sampler_inits",
                   "ground_state.solve_calls", "observables.observe_per_step",
                   "dynamics.steps")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "snls" / "__init__.py").is_file():
        print(f"error: no snls package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads  # imports numpy, so only after the thread variables are set

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**63  # master_seed keys a Philox stream as a uint64
    print("machine " + json.dumps(machine_info()))
    print(f"workload {wl.name}: n_traj={wl.n_traj} workers={wl.workers} seed={seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        rounds, metrics, units, extra_checks = traced_run(wl, seed, args.seconds)
    else:
        rounds, metrics, units, extra_checks = untraced_run(wl, seed, args.seconds)

    checks = {}
    for i, r in enumerate(rounds):
        for name, result in r.checks.items():
            checks[f"round{i}.{name}"] = result
    same = len({r.summary_json for r in rounds}) == 1
    checks["rounds_bitwise_identical"] = (same, f"{len(rounds)} rounds, same seed")
    checks.update(extra_checks)
    failed_checks = [f"{k}: {d}" for k, (ok, d) in checks.items() if not ok]
    for name in metrics:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"checks: {len(checks)} run, {len(failed_checks)} failed")
    for line in failed_checks:
        print(f"  FAILED {line}")
    result = {
        "correct": not failed_checks,
        "attempted": sum(r.n_traj for r in rounds),
        "failed": sum(r.failed_traj for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed_checks else 1


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as feats
        simd = [k for k in ("AVX2", "FMA3", "AVX512F") if feats.get(k)]
    except ImportError:
        simd = []
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "simd": simd,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _rounds_for(seconds, run_one, minimum=1):
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < minimum or time.perf_counter() - t0 < seconds:
        rounds.append(run_one())
    return rounds


def untraced_run(wl, seed, seconds):
    """End-to-end metrics: medians over the run of times at the reference speed.

    All rounds of a run do identical work; speed.py says why and how every
    time is scaled to the reference CPU speed.
    """
    import speed
    import workloads

    with speed.SpeedSampler(rotate=wl.workers > 1) as sampler:
        sampler.sample()
        rounds = _rounds_for(seconds, lambda: workloads.run_round(
            wl, seed, str(OUT_DIR), after=sampler.sample))
    times = [r.times(sampler.scaled) for r in rounds]
    setup = [s for t in times for s in t[0]]
    compare = [c for t in times for c in t[2]]
    ensemble_s = statistics.median(t[1] for t in times)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(t[3] for t in times),
        "traj_per_s": wl.n_traj / ensemble_s,
        "sim_time_per_s": statistics.median(r.sim_time for r in rounds) / ensemble_s,
        "compare_s": statistics.median(compare),
        "peak_rss_mb": _peak_rss_mb(),
    }
    raw = [r.times() for r in rounds]
    cpu = sorted(sampler.cpu)
    print(f"{len(setup)} setups, {len(rounds)} rounds of {wl.n_traj} trajectories, "
          f"{len(compare)} compares; {len(cpu)} speed probes, CPU s min {cpu[0]:.3g} "
          f"median {statistics.median(cpu):.3g} max {cpu[-1]:.3g} (reference "
          f"{speed.REFERENCE_S}); unscaled medians: wall_s "
          f"{statistics.median(t[3] for t in raw):.6g}, traj_per_s "
          f"{wl.n_traj / statistics.median(t[1] for t in raw):.6g}")
    return rounds, metrics, END_TO_END, {}


def traced_run(wl, seed, seconds):
    """Per-layer metrics from traced rounds; times here are not speed-scaled."""
    import layers
    import workloads
    from spans import Tracer

    scratch = str(OUT_DIR)

    def tps(r):
        return r.n_traj / r.times()[1]

    base = workloads.run_round(wl, seed, scratch, workers=1, reps=1)
    rounds = [base]
    pool_efficiency = 1.0
    if wl.workers > 1:
        par = workloads.run_round(wl, seed, scratch, reps=1)
        rounds.append(par)
        pool_efficiency = tps(par) / (wl.workers * tps(base))

    tracer = Tracer()
    layers.install(tracer)
    marks = []

    def traced_round():
        first = len(tracer)
        r = workloads.run_round(wl, seed, scratch, workers=1, reps=1)
        marks.append((first, len(tracer)))
        return r

    try:
        traced = _rounds_for(seconds, traced_round, minimum=2)
    finally:
        tracer.restore()
    rounds += traced

    per_round = layers.round_metrics(tracer, marks, traced, base, pool_efficiency)
    metrics = {name: statistics.median(m[name] for m in per_round) for name in layers.UNITS}
    checks = {}
    for name in REPEATED_COUNTS:
        values = [m[name] for m in per_round]
        checks[f"count_repeats.{name}"] = (len(set(values)) == 1, f"values {values}")
    absent = layers.absent_metrics(tracer)
    print(f"{len(traced)} traced rounds, {len(tracer)} spans, "
          f"{tracer.child_cost_ns:.0f} ns per child span taken out of self times; "
          f"absent layer functions: "
          f"{tracer.absent or 'none'}; metrics reported as 0 for that reason: "
          f"{absent or 'none'}")
    tracer.save(str(OUT_DIR / f"trace-{wl.name}.npz"),
                meta={"workload": wl.name, "seed": seed, "rounds": len(traced)})
    return rounds, metrics, layers.UNITS, checks


if __name__ == "__main__":
    sys.exit(main())
