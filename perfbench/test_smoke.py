"""Quick smoke test of the benchmark at tiny n.

Runs every workload at a few samples per cluster, untraced and traced, and
asserts that each metric ``BENCHMARK.json`` names is emitted with its unit
and that the output checks ran and passed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys

import pytest

import bootstrap

sys.path.insert(0, str(bootstrap.SRC))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "ablation_n90": lambda: workloads.AblationWorkload(per_cluster=8, datasets=2),
    "cluster_n300": lambda: workloads.ClusterWorkload(per_cluster=8),
    "capped_n600": lambda: workloads.CappedWorkload(per_cluster=8, max_iter=3),
}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


def test_metric_lists_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, trace, capsys):
    result = run.run_one(TINY[name](), seed=3, seconds=0.2, trace=trace)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]


def test_a_failing_check_counts_as_a_failed_operation(capsys):
    ops = run.Operations()
    ops.record("passes", [])
    ops.record("fails", ["first problem", "second problem"])
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "fails: second problem" in capsys.readouterr().err


def test_tracer_restores_every_binding_and_records_only_inside_roots():
    import mvsc.solver
    import numpy as np
    from tracer import Tracer

    original = mvsc.solver.update_u, np.linalg.svd, np.linalg.norm
    tracer = Tracer()
    with tracer.installed():
        assert mvsc.solver.update_u is not original[0]
        np.linalg.norm(np.eye(3), 2)  # outside any root: not recorded
        with tracer.root("bench.solve"):
            np.linalg.norm(np.eye(3), 2)
            np.linalg.norm(np.ones(3))  # not a spectral norm: not recorded
            np.linalg.svd(np.eye(4), full_matrices=False)
    assert (mvsc.solver.update_u, np.linalg.svd, np.linalg.norm) == original
    assert [s.name for s in tracer.spans] == ["bench.solve", "kernel.spectral_norm", "kernel.svd"]
    stats = tracer.aggregate(tracer.roots(lambda attrs: True))
    assert stats["kernel.svd"]["calls"] == 1
    assert stats["kernel.svd"]["flops"] == 14 * 4 ** 3 + 8 * 4 ** 3
