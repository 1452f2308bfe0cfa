"""The benchmark still binds to the package: every workload runs clean.

``benchmarks/run.py`` drives the package through its public names
(``RunConfig`` fields, ``synthesize``'s return value, ``with_reference``,
``experiment._trace_header``, ...).  A change that breaks one of them shows
only when the benchmark runs, so this test loads ``run.py`` from its file,
unchanged, and executes every workload of ``BENCHMARK.json`` once at toy
size, untraced and traced, as ``benchmarks/smoke.py`` does.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELPERS = ("calibration", "tracing", "workloads")  # imported by name inside run.py


@pytest.fixture(scope="module")
def bench():
    saved_path, saved_env = list(sys.path), dict(os.environ)
    sys.path.insert(0, str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        module.bootstrap()  # checks the package comes from src/, pins BLAS threads
        yield module
    finally:
        del sys.modules[spec.name]
        for name in HELPERS:
            sys.modules.pop(name, None)
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean(bench, tmp_path, name, trace):
    result, details = bench.execute(name, 0, 0.0, trace, toy=True, workdir=tmp_path / name)
    assert result["failed"] == 0, details["failures"]
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
