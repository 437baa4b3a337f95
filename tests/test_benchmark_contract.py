"""One round of each benchmark workload passes the benchmark's own output checks.

perfbench/run.py exits 1 when a check of a round fails, so a change to what
the workloads read (records' samples, mean paths, materialize) shows here.
The module is loaded from its path; the speed sampler is not involved.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["drift-add-1d", "blowup-mult-1d", "mult-3d-32"])
def test_benchmark_round_passes_its_checks(workloads, name, tmp_path):
    rnd = workloads.run_round(workloads.WORKLOADS[name], 1, str(tmp_path), reps=1)
    failed = {check: detail for check, (ok, detail) in rnd.checks.items() if not ok}
    assert rnd.checks and not failed
