#!/usr/bin/env python3
"""The mvsc benchmark: time to solution, iteration throughput and memory of
the ADMM solver on three workloads, with per-block timings from a traced run.

    python3 perfbench/run.py --workload ablation_n90 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics untraced, repeating the
workload's unit until ``--seconds`` have passed, and reports medians over
units. ``--trace 1`` runs one fixed pass over the workload's inputs twice,
untraced and traced, and reports the per-layer metrics of the traced pass.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs every workload in its own process, prints one table and writes
it, with the environment block, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("ablation_n90", "cluster_n300", "capped_n600")
SETUP_PROBES = 3
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iterations": "count",
    "acc_mean": "ratio",
    "nmi_mean": "ratio",
    "peak_rss_mb": "MB",
}
# solver blocks whose time, with the final k-means, should account for a solve
COVERED = frozenset({
    "solver.initialize", "solver.update_z", "solver.update_a", "solver.update_u",
    "solver.update_e", "solver.update_w", "solver.update_multipliers",
    "solver.update_q", "solver.evaluate_objective", "spectral.kmeans",
})
PER_ITER = ("kernel.svd", "kernel.spectral_norm", "graph_ops.laplacian")
PER_MODE_TIMES = ("solver.update_u", "solver.update_w", "solver.evaluate_objective")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracer import KERNELS, SPAN_NAMES
    from workloads import MODES

    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    units.update({f"{k}.flops_computed": "flop" for k in KERNELS})
    units["solver.ms_per_iter"] = "ms"
    units.update({f"{k}.calls_per_iter": "count/iter" for k in PER_ITER})
    for mode in MODES:
        units[f"mode.{mode}.solve_s"] = "s"
        units[f"mode.{mode}.iterations"] = "count"
        units.update({f"mode.{mode}.{b}.s": "s" for b in PER_MODE_TIMES})
        units.update({f"mode.{mode}.{k}.calls_per_iter": "count/iter" for k in PER_ITER})
    units.update({"bench.solve_s": "s", "bench.untraced_solve_s": "s",
                  "bench.trace_overhead_s": "s", "bench.block_coverage": "ratio"})
    return units


class Operations:
    """Operations attempted and failed; one failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {name}: {problem}", file=sys.stderr)

    def record_unit(self, unit) -> None:
        for name, problems in unit.checks:
            self.record(name, problems)


def probe_setup(workload, seed: int, workdir: Path) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter: (import seconds, set-up seconds)."""
    workdir.mkdir()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload.name,
         json.dumps(workload.params), str(seed), str(workdir)],
        capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["import_s"], sample["setup_s"]


def measure_untraced(workload, seed: int, seconds: float, workdir: Path,
                     ops: Operations) -> tuple[dict, dict]:
    samples = [probe_setup(workload, seed, workdir / f"probe{k}") for k in range(SETUP_PROBES)]
    inputs = workload.setup()

    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        unit = workload.unit(inputs, len(units))
        ops.record_unit(unit)
        if len(units) >= workload.period:
            same_input = units[len(units) - workload.period]
            ops.record(f"unit {len(units)} repeats unit {len(units) - workload.period}",
                       [] if unit.fingerprint == same_input.fingerprint
                       else ["same input, different output"])
        units.append(unit)

    solves = [s for u in units for s in u.solves]
    metrics = {
        "setup_s": statistics.median(i + s for i, s in samples),
        "solve_s": statistics.median(u.solve_s for u in units),
        "iterations": statistics.median(u.iterations for u in units),
        "acc_mean": statistics.fmean(s.acc for s in solves),
        "nmi_mean": statistics.fmean(s.nmi for s in solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "units": len(units),
        "solves": len(solves),
        "converged_frac": sum(s.converged for s in solves) / len(solves),
        "setup_import_s": statistics.median(i for i, _ in samples),
        "unit_solve_s": [u.solve_s for u in units],
    }
    return metrics, details


def measure_traced(workload, seed: int, ops: Operations) -> tuple[dict, dict]:
    from tracer import KERNELS, SPAN_NAMES, Tracer
    from workloads import MODES

    tracer = Tracer()
    tracer.context = {"group": "setup"}
    with tracer.installed():
        inputs = workload.setup(tracer)

    plain, traced = [], []
    for index in range(workload.period):
        plain.append(workload.unit(inputs, index))
        tracer.context = {"group": "pass", "unit": index}
        with tracer.installed():
            traced.append(workload.unit(inputs, index, tracer))
        ops.record_unit(plain[-1])
        ops.record_unit(traced[-1])
        ops.record(f"unit {index}: traced output equals untraced",
                   [] if plain[-1].fingerprint == traced[-1].fingerprint
                   else ["labels, iterations or trace differ under tracing"])

    tracer.context = {"group": "repeat"}
    with tracer.installed():
        again = workload.unit(inputs, 0, tracer)
    ops.record_unit(again)
    first = tracer.counts(tracer.roots(lambda a: a.get("group") == "pass" and a["unit"] == 0))
    second = tracer.counts(tracer.roots(lambda a: a.get("group") == "repeat"))
    ops.record("unit 0 traced twice: same output, same call and kernel counts",
               ([] if again.fingerprint == traced[0].fingerprint else ["outputs differ"])
               + ([] if first == second else [f"counts differ: {first} != {second}"]))

    spans = tracer.spans
    measured = tracer.roots(lambda a: a.get("group") in ("setup", "pass"))
    solve_roots = {i for i in measured if spans[i].name == "bench.solve"}
    stats = tracer.aggregate(measured)
    empty = dict.fromkeys(("s", "self_s", "calls", "flops", "iter_calls"), 0.0)
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        entry = stats.get(name, empty)
        metrics[f"{name}.s"] = entry["s"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.calls"] = entry["calls"]
    for name in KERNELS:
        metrics[f"{name}.flops_computed"] = stats.get(name, empty)["flops"]

    solve_s = tracer.root_seconds(solve_roots)
    iterations = sum(u.iterations for u in traced)
    metrics["solver.ms_per_iter"] = 1000.0 * solve_s / iterations
    for name in PER_ITER:
        metrics[f"{name}.calls_per_iter"] = stats.get(name, empty)["iter_calls"] / iterations
    for mode in MODES:
        roots = {i for i in solve_roots if spans[i].attrs.get("mode") == mode}
        mode_stats = tracer.aggregate(roots)
        mode_iterations = sum(s.iterations for u in traced for s in u.solves if s.mode == mode)
        metrics[f"mode.{mode}.solve_s"] = tracer.root_seconds(roots)
        metrics[f"mode.{mode}.iterations"] = mode_iterations
        for name in PER_MODE_TIMES:
            metrics[f"mode.{mode}.{name}.s"] = mode_stats.get(name, empty)["s"]
        for name in PER_ITER:
            metrics[f"mode.{mode}.{name}.calls_per_iter"] = (
                mode_stats.get(name, empty)["iter_calls"] / mode_iterations
                if mode_iterations else 0.0)

    untraced_s = sum(u.solve_s for u in plain)
    metrics["bench.solve_s"] = solve_s
    metrics["bench.untraced_solve_s"] = untraced_s
    metrics["bench.trace_overhead_s"] = solve_s - untraced_s
    metrics["bench.block_coverage"] = tracer.covered_s(solve_roots, COVERED) / solve_s

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,root,name,start,end,flops_computed,group,unit,mode\n")
        for i, s in enumerate(spans):
            attrs = spans[s.root].attrs
            fh.write(f"{i},{s.parent},{s.root},{s.name},{s.start:.9f},{s.end:.9f},"
                     f"{s.flops:.17g},{attrs.get('group', '')},{attrs.get('unit', '')},"
                     f"{attrs.get('mode', '')}\n")
    details = {"units": len(traced), "spans": len(spans), "spans_csv": str(spans_path)}
    return metrics, details


def run_one(workload, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report, and return the result object."""
    ops = Operations()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        workload.prepare(seed, workdir)
        if trace:
            metrics, details = measure_traced(workload, seed, ops)
            units = per_layer_units()
        else:
            metrics, details = measure_untraced(workload, seed, seconds, workdir, ops)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details["environment"] = bootstrap.environment()
    print(f"workload {workload.name}  seed {seed}  trace {trace}  units {details['units']}")
    for name, unit in units.items():
        print(f"  {name:55s} {metrics[name]:>16.6f} {unit}")
    if "converged_frac" in details:
        print(f"  {'converged_frac (not gated: 0 by design on capped runs)':55s} "
              f"{details['converged_frac']:>16.6f} ratio")
    print(f"  operations: {ops.attempted} attempted, {ops.failed} failed")
    print("details: " + json.dumps(details, sort_keys=True))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return result


def run_all(args) -> int:
    """Every workload in its own process; one table; results to perfbench/out/."""
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}")
            ok = False
            continue
        details = next(json.loads(line[len("details: "):]) for line in lines
                       if line.startswith("details: "))
        results[name] = {"result": json.loads(lines[-1]), "details": details}
        ok = ok and results[name]["result"]["correct"]

    names = list(results)
    units = per_layer_units() if args.trace else END_TO_END
    print(f"{'metric':55s} {'unit':10s} " + " ".join(f"{n:>14s}" for n in names))
    for metric, unit in units.items():
        values = " ".join(f"{results[n]['result']['metrics'][metric]['value']:>14.6g}"
                          for n in names)
        print(f"{metric:55s} {unit:10s} {values}")
    if not args.trace:
        values = " ".join(f"{results[n]['details']['converged_frac']:>14.6g}" for n in names)
        print(f"{'converged_frac':55s} {'ratio':10s} {values}")
    for key in ("attempted", "failed"):
        values = " ".join(f"{results[n]['result'][key]:>14d}" for n in names)
        print(f"{key:55s} {'count':10s} {values}")

    environment = next(iter(results.values()))["details"]["environment"] if results else {}
    OUT.mkdir(exist_ok=True)
    path = OUT / ("results-traced.json" if args.trace else "results.json")
    path.write_text(json.dumps({
        "environment": environment,
        "arguments": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "workloads": results,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if ok and len(results) == len(WORKLOAD_NAMES) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap.pin_process()
    if args.workload == "all":
        return run_all(args)
    bootstrap.import_mvsc()
    from workloads import WORKLOADS

    run_one(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
