"""The benchmark's tracer patches mvsc attributes by name, and its workloads
check the CLI's outputs against their own copy of the output contract, so a
rename or a contract change in the package must fail here and not only in a
benchmark run."""

import functools
import importlib
import importlib.util
import json
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest

import mvsc.solver
from mvsc.cli import main
from mvsc.data import SynthSpec, generate_synthetic, normalize
from mvsc.metrics import MetricReport
from mvsc.prox_ops import SymmetricEigh
from mvsc.solver import SolverConfig

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


@pytest.fixture
def calling_threads(tracer, monkeypatch):
    """Wraps every binding the tracer wraps, the numpy kernels it times and the
    eigensolver's entry point to record the name and the thread of each call."""
    calls = []

    def recorded(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    kernels = [("numpy.linalg", "svd"), ("numpy.linalg", "norm")]
    for module, attr in [(m, a) for m, a, _ in tracer.PROGRAM_BINDINGS] + kernels:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr, recorded(f"{module}.{attr}", getattr(owner, attr)))
    monkeypatch.setattr(SymmetricEigh, "__call__",
                        recorded("SymmetricEigh", SymmetricEigh.__call__))
    return calls


def _small_problem():
    spec = SynthSpec(clusters=3, samples_per_cluster=20, view_dims=(4, 5, 3), seed=4)
    return normalize(generate_synthetic(spec), "unit_l2_per_sample"), SolverConfig(n_clusters=3,
                                                                                   max_iter=6)


def test_solver_stays_on_the_calling_thread(calling_threads, monkeypatch):
    # the tracer keeps one span stack, so a traced name called from the U-step's
    # worker would nest its span under whatever block the caller is in
    before = set(threading.enumerate())
    during = []
    real_update_a = mvsc.solver.update_a

    def watched(*args):
        during.append(set(threading.enumerate()) - before)
        return real_update_a(*args)

    monkeypatch.setattr(mvsc.solver, "update_a", watched)
    dataset, config = _small_problem()
    assert mvsc.solver.solve(dataset, config).iterations == 6
    assert len(calling_threads) > 6 * 5 * 3
    assert {thread for _, thread in calling_threads} == {threading.get_ident()}
    # the eigensolver answers every U-step and every Q-step on the calling thread
    names = [name for name, _ in calling_threads]
    assert names.count("mvsc.solver.update_u") == 6 * 3
    assert names.count("SymmetricEigh") >= 6 * 3 + names.count("mvsc.solver.smallest_eigvecs")
    # the worker ran beside the A-steps and is gone once solve returns
    assert all(len(extra) == 1 for extra in during)
    assert set(threading.enumerate()) == before


def test_worker_is_joined_when_a_block_raises(monkeypatch):
    before = set(threading.enumerate())
    during = []

    def failing(*_):
        during.append(set(threading.enumerate()) - before)
        raise RuntimeError("update_a failed")

    monkeypatch.setattr(mvsc.solver, "update_a", failing)
    with pytest.raises(RuntimeError, match="update_a failed"):
        mvsc.solver.solve(*_small_problem())
    assert len(during) == 1 and len(during[0]) == 1
    assert set(threading.enumerate()) == before
