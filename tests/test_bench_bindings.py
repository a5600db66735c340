"""The benchmark's tracer patches mvsc attributes by name, so a rename in the
package must fail here and not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import mvsc.solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_program_bindings_resolve(tracer):
    missing = [(module, attr) for module, attr, _ in tracer.PROGRAM_BINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_iteration_blocks_are_solver_functions(tracer):
    missing = [name for name in tracer.ITER_BLOCKS
               if not callable(getattr(mvsc.solver, name.removeprefix("solver."), None))]
    assert missing == []
