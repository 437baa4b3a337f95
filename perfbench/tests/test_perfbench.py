"""Tests of the benchmark's tracer and per-layer metrics.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


@pytest.fixture
def fake_lib():
    """A package 'fakelib' with a layer module and a module importing from it."""
    core = types.ModuleType("fakelib.core")

    def leaf(x):
        return x + 1

    def outer(x):
        return core.leaf(x) + core.leaf(x)

    core.leaf, core.outer = leaf, outer
    user = types.ModuleType("fakelib.user")
    user.leaf = leaf  # what `from .core import leaf` leaves behind
    mods = {"fakelib": types.ModuleType("fakelib"), "fakelib.core": core,
            "fakelib.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        sys.modules.pop(name, None)


def test_missing_function_is_absent_not_an_error(fake_lib):
    tracer = Tracer()
    assert not tracer.patch("gone", "fakelib.core", "removed_function")
    assert not tracer.patch("gone", "fakelib.no_such_module", "leaf")
    assert not tracer.patch("gone", "fakelib.core", "Missing.method")
    assert tracer.absent == ["fakelib.core.removed_function", "fakelib.no_such_module.leaf",
                             "fakelib.core.Missing.method"]
    assert len(tracer) == 0


def test_spans_nest_and_self_time_excludes_children(fake_lib):
    core, _ = fake_lib
    tracer = Tracer()
    assert tracer.patch("outer", "fakelib.core", "outer")
    assert tracer.patch("leaf", "fakelib.core", "leaf")
    assert core.outer(1) == 4
    cols = tracer.columns()
    names = [tracer.names[i] for i in cols["name_id"]]
    assert names == ["outer", "leaf", "leaf"]
    assert list(cols["parent"]) == [-1, 0, 0]
    dur = cols["duration"]
    assert cols["self"][0] == dur[0] - dur[1] - dur[2]
    assert list(cols["self"][1:]) == list(dur[1:])


def test_self_times_subtract_child_cost():
    duration = np.array([1000, 100, 200, 50])
    parent = np.array([-1, 0, 0, 1])
    assert list(self_times(duration, parent, child_cost_ns=10.0)) == [680, 40, 200, 50]


def test_aliases_are_wrapped_and_restored(fake_lib):
    core, user = fake_lib
    original = core.leaf
    tracer = Tracer()
    tracer.patch("leaf", "fakelib.core", "leaf", alias_scope=("fakelib",))
    assert user.leaf is core.leaf is not original
    user.leaf(1)
    assert len(tracer) == 1
    tracer.restore()
    assert user.leaf is core.leaf is original


def _fake_snls(tracer):
    """Wrap stand-ins for the layer functions and run two 3-step trajectories."""
    fft = tracer.wrap("fft", lambda a: np.zeros(8, complex), measure=layers._fft_bytes)
    step = tracer.wrap("step_deterministic", lambda: (fft(None), fft(None)))
    observe = tracer.wrap("observe", lambda: fft(None))

    def trajectory(config, u0, spec, seed):
        observe()
        for _ in range(3):
            step()
            observe()

    traj = tracer.wrap("run_trajectory", trajectory, traj_of=layers._traj_index)
    for i in range(2):
        traj(None, None, None, seed=(7, i))


def test_layer_metrics_from_spans_with_removed_layers():
    tracer = Tracer()
    _fake_snls(tracer)
    rnd = types.SimpleNamespace(n_traj=2, persisted_bytes=0, times=lambda: ([], 1.0, [], 1.0))
    (m,) = layers.round_metrics(tracer, [(0, len(tracer))], [rnd], rnd, 1.0)
    assert m["dynamics.steps"] == 6
    assert m["grid.ffts_per_step"] == 3.0  # the observe before the loop is left out
    assert m["grid.fft_bytes_per_step"] == 3 * 2 * 128
    assert m["observables.observe_per_step"] == 1.0
    assert m["noise_model.draw_us"] == 0.0
    assert m["noise_model.draws_per_step"] == 0.0
    absent = layers.absent_metrics(tracer)
    assert "noise_model.draw_us" in absent and "grid.ffts_per_step" not in absent
    assert set(m) == set(layers.UNITS)


def test_layer_metrics_without_trajectory_spans():
    tracer = Tracer()
    tracer.wrap("step_deterministic", lambda: None)()
    rnd = types.SimpleNamespace(n_traj=1, persisted_bytes=0, times=lambda: ([], 1.0, [], 1.0))
    (m,) = layers.round_metrics(tracer, [(0, len(tracer))], [rnd], rnd, 1.0)
    assert m["dynamics.steps"] == 1
    assert m["grid.ffts_per_step"] == 0.0
    assert "dynamics.traj_s_p50" in layers.absent_metrics(tracer)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert set(run.REPEATED_COUNTS) <= set(layers.UNITS)
