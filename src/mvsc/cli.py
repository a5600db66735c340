"""Command-line front end: synth, cluster, baseline, sweep, eval.

Every option can also be supplied through an environment variable named
MVSC_<DEST> (e.g. MVSC_LAMBDA1=0.01) or, for cluster/sweep, a key-value
config file passed with --config. Precedence: explicit flag > environment
> config file > built-in default.

Manifests are JSON with the fixed key set {config, dataset, labels,
weights, metrics?, converged, iterations, timing}; metrics render in
percent with 4 decimals. Traces and sweeps are CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .data import (
    DatasetFormatError,
    MultiViewDataset,
    NormalizationScheme,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    normalize,
    parse_labels_csv,
    save_dataset,
    write_csv,
)
from .graph_ops import laplacian
from .metrics import MetricReport, compute_metrics
from .solver import ABLATION_MODES, SolverConfig, solve
from .spectral import ncut_baseline

ENV_PREFIX = "MVSC_"

# spec'd CLI tokens for two of the ablation modes
_ABLATION_ALIASES = {"eq7": "uniform_weights", "eq6": "no_spectral_norm"}

# the regularization weights, which `sweep` takes as comma-separated grids
_GRID_FIELDS = tuple(f.name for f in fields(SolverConfig) if f.name.startswith("lambda"))


def _dest(field_name: str) -> str:
    """Flag, environment and config-file name of a SolverConfig field."""
    return "clusters" if field_name == "n_clusters" else field_name


_SOLVER_KEYS = frozenset(_dest(f.name) for f in fields(SolverConfig)) | {"normalize"}


def _read_config_file(path: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SOLVER_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _apply_overrides(parser: argparse.ArgumentParser, file_values: dict[str, str]) -> None:
    """Layer config-file values then environment variables over parser defaults.

    String defaults pass back through each option's type converter inside
    argparse, so overrides are validated exactly like flag values. A
    required option becomes optional once an override supplies it.
    """
    for action in parser._actions:
        if not action.option_strings:
            continue
        value = os.environ.get(ENV_PREFIX + action.dest.upper(), file_values.get(action.dest))
        if value is not None:
            action.default, action.required = value, False


def _comma_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _bool_flag(text) -> bool:
    if isinstance(text, bool):
        return text
    word = str(text).strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


def _dataset_fingerprint(dataset: MultiViewDataset) -> dict:
    digest = hashlib.sha256()
    for view in dataset.views:
        digest.update(np.ascontiguousarray(view.values).tobytes())
    if dataset.labels is not None:
        digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return {
        "n": dataset.n_samples,
        "view_dims": dataset.dims,
        "sha256": digest.hexdigest(),
    }


def _percent(report: MetricReport) -> dict[str, float]:
    return {name: round(100.0 * value, 4) for name, value in asdict(report).items()}


def _write_json(path: str | None, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted JSON to ``path``, or to stdout without one."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path: str, config: dict, dataset: MultiViewDataset, labels: np.ndarray,
                    weights: list[np.ndarray] | None, converged: bool, iterations: int,
                    timing: float) -> None:
    """Write a run manifest; ``metrics`` is present when the dataset has labels."""
    manifest = {
        "config": config,
        "dataset": _dataset_fingerprint(dataset),
        "labels": [int(x) for x in labels],
        "weights": None if weights is None else [[float(x) for x in w] for w in weights],
        "converged": converged,
        "iterations": iterations,
        "timing": timing,
    }
    if dataset.labels is not None:
        manifest["metrics"] = _percent(compute_metrics(dataset.labels, labels))
    _write_json(path, manifest)


def _check_out_dirs(*targets: tuple[str, str | None]) -> None:
    """ValueError naming the option of the first ``(option, path)`` target whose
    directory is missing or is not a directory; run before loading, so that a
    mistyped path fails before the solve and not after it."""
    for option, path in targets:
        if path is None:
            continue
        parent = Path(path).parent
        if not parent.is_dir():
            problem = "is not a directory" if parent.exists() else "does not exist"
            raise ValueError(f"{option} {path}: {parent} {problem}")


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        clusters=args.clusters,
        samples_per_cluster=args.per_cluster,
        view_dims=args.dims,
        within_cluster_std=args.within_std,
        between_cluster_separation=args.separation,
        noise_feature_counts=args.noise or (),
        seed=args.seed,
    )
    dataset = generate_synthetic(spec)
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n_views} views, n={dataset.n_samples}, to {args.out}")
    return 0


def _solver_config_from_args(args: argparse.Namespace, **overrides) -> SolverConfig:
    values = {f.name: getattr(args, _dest(f.name)) for f in fields(SolverConfig)}
    values["ablation"] = _ABLATION_ALIASES.get(values["ablation"], values["ablation"])
    values.update(overrides)
    return SolverConfig(**values)


def _config_echo(config: SolverConfig, args: argparse.Namespace) -> dict:
    return {**asdict(config), "lambda2": config.effective_lambda2, "normalize": args.normalize}


def cmd_cluster(args: argparse.Namespace) -> int:
    _check_out_dirs(("-o", args.out), ("--trace", args.trace),
                    ("--similarity-out", args.similarity_out),
                    ("--laplacian-out", args.laplacian_out))
    dataset = load_dataset(args.data_dir)
    dataset = normalize(dataset, args.normalize)
    config = _solver_config_from_args(args)

    start = time.perf_counter()
    result = solve(dataset, config)
    elapsed = time.perf_counter() - start

    trace_path = args.trace or str(Path(args.out).with_suffix(".trace.csv"))
    result.trace.write_csv(trace_path)
    if args.similarity_out:
        write_csv(args.similarity_out, result.fused_similarity)
    if args.laplacian_out:
        write_csv(args.laplacian_out, laplacian(result.fused_similarity))
    _write_manifest(args.out, _config_echo(config, args), dataset, result.labels, result.weights,
                    result.converged, result.iterations, elapsed)
    print(f"wrote {args.out} (converged={result.converged}, iterations={result.iterations})")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    if args.seed < 0 or args.clusters < 2:
        raise ValueError("--seed must be >= 0" if args.seed < 0 else "--clusters must be >= 2")
    _check_out_dirs(("-o", args.out))
    dataset = load_dataset(args.data_dir)
    if args.clusters > dataset.n_samples:
        raise ValueError(f"--clusters must be <= {dataset.n_samples}, the number of samples")
    start = time.perf_counter()
    ratio_cut = _bool_flag(args.ratio_cut)
    labels = ncut_baseline(dataset, args.clusters, seed=args.seed, ratio_cut=ratio_cut)
    elapsed = time.perf_counter() - start

    config = {"n_clusters": args.clusters, "seed": args.seed, "ratio_cut": ratio_cut}
    _write_manifest(args.out, config, dataset, labels, None, True, 0, elapsed)
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_out_dirs(("-o", args.out))
    dataset = load_dataset(args.data_dir)
    if dataset.labels is None:
        raise DatasetFormatError(f"{args.data_dir}: sweep requires labels.csv")
    dataset = normalize(dataset, args.normalize)

    # every grid point's config is checked before the first solve
    grid = list(itertools.product(*(getattr(args, name) for name in _GRID_FIELDS)))
    configs = [_solver_config_from_args(args, **dict(zip(_GRID_FIELDS, point))) for point in grid]
    rows = []
    for point, config in zip(grid, configs):
        result = solve(dataset, config)
        report = _percent(compute_metrics(dataset.labels, result.labels))
        rows.append([*point, *report.values(), result.iterations])

    metric_names = [f.name for f in fields(MetricReport)]
    write_csv(args.out, rows,
              fmt=["%.17g"] * len(_GRID_FIELDS) + ["%.4f"] * len(metric_names) + ["%d"],
              header=",".join([*_GRID_FIELDS, *metric_names, "iterations"]))
    print(f"wrote {args.out} ({len(rows)} grid points)")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    truth = parse_labels_csv(args.truth)
    pred = parse_labels_csv(args.pred)
    report = compute_metrics(truth, pred)
    _write_json(args.out, {"n": int(truth.size), "metrics": _percent(report)})
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _add_solver_flags(p: argparse.ArgumentParser, grid: bool = False) -> None:
    """One flag per SolverConfig field; with ``grid`` the lambdas take comma lists."""
    for f in fields(SolverConfig):
        flag = "--" + _dest(f.name).replace("_", "-")
        if f.name == "n_clusters":
            p.add_argument(flag, type=int, required=True, help="number of clusters")
        elif f.name == "ablation":
            p.add_argument(flag, choices=sorted((*ABLATION_MODES, *_ABLATION_ALIASES)),
                           default=f.default)
        elif grid and f.name in _GRID_FIELDS:
            p.add_argument(flag, type=_comma_floats, default=(f.default,),
                           help="comma-separated grid values")
        else:
            p.add_argument(flag, type=type(f.default), default=f.default)
    p.add_argument("--normalize", choices=NormalizationScheme, default="none")
    p.add_argument("--config", default=None, help="key=value file with solver settings")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="mvsc",
                                     description="multi-view subspace clustering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = commands["synth"] = sub.add_parser(
        "synth", help="generate a synthetic multi-view dataset directory")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--per-cluster", type=int, required=True)
    p.add_argument("--dims", type=_comma_ints, required=True,
                   help="comma-separated feature counts per view, e.g. 10,10,10")
    p.add_argument("--within-std", type=float, default=1.0)
    p.add_argument("--separation", type=float, default=5.0)
    p.add_argument("--noise", type=_comma_ints, default=None,
                   help="comma-separated noise feature counts per view")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = commands["cluster"] = sub.add_parser(
        "cluster", help="run the solver on a dataset directory")
    p.add_argument("data_dir")
    _add_solver_flags(p)
    p.add_argument("-o", "--out", required=True, help="manifest JSON path")
    p.add_argument("--trace", default=None, help="trace CSV path (default: <out>.trace.csv)")
    p.add_argument("--similarity-out", default=None, help="fused similarity CSV path")
    p.add_argument("--laplacian-out", default=None, help="fused-similarity Laplacian CSV path")
    p.set_defaults(func=cmd_cluster)

    p = commands["baseline"] = sub.add_parser(
        "baseline", help="concatenated-views spectral clustering baseline")
    p.add_argument("data_dir")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio-cut", action="store_true", default=False,
                   help="unnormalized Laplacian instead of the normalized-cut pipeline")
    p.add_argument("-o", "--out", required=True, help="manifest JSON path")
    p.set_defaults(func=cmd_baseline)

    p = commands["sweep"] = sub.add_parser("sweep", help="grid sweep over lambda values")
    p.add_argument("data_dir")
    _add_solver_flags(p, grid=True)
    p.add_argument("-o", "--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = commands["eval"] = sub.add_parser("eval", help="metrics between two label files")
    p.add_argument("truth")
    p.add_argument("pred")
    p.add_argument("-o", "--out", default=None, help="metrics JSON path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    return parser, commands


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()

    # route --config and environment overrides through each subcommand's defaults;
    # MVSC_CONFIG stands in for --config on the subcommands that take it
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    config_path = known.config
    if config_path is None and argv[:1] in (["cluster"], ["sweep"]):
        config_path = os.environ.get(ENV_PREFIX + "CONFIG")
    file_values = {}
    if config_path:
        try:
            file_values = _read_config_file(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for command in commands.values():
        _apply_overrides(command, file_values)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
