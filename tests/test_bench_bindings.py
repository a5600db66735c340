"""The benchmark's tracer patches mvsc attributes by name, and its workloads
check the CLI's outputs against their own copy of the output contract, so a
rename or a contract change in the package must fail here and not only in a
benchmark run."""

import importlib
import importlib.util
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mvsc.solver
from mvsc.cli import main
from mvsc.metrics import MetricReport

from test_cli import MANIFEST_KEYS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_program_bindings_resolve(tracer):
    missing = [(module, attr) for module, attr, _ in tracer.PROGRAM_BINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_iteration_blocks_are_solver_functions(tracer):
    missing = [name for name in tracer.ITER_BLOCKS
               if not callable(getattr(mvsc.solver, name.removeprefix("solver."), None))]
    assert missing == []


def test_manifest_contract_matches_the_benchmark(workloads):
    assert workloads.MANIFEST_KEYS == MANIFEST_KEYS
    assert workloads.METRIC_KEYS == {f.name for f in fields(MetricReport)}


def test_cluster_config_echo_carries_the_stop_rule(tmp_path):
    # the benchmark's stop check reads these two settings from the manifest
    data, out = tmp_path / "data", tmp_path / "run.json"
    assert main(["synth", "--clusters", "2", "--per-cluster", "4", "--dims", "3",
                 "-o", str(data)]) == 0
    assert main(["cluster", str(data), "--clusters", "2", "--max-iter", "2", "--tol", "1e-4",
                 "-o", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["max_iter"], config["tol"]) == (2, 1e-4)
