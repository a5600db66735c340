"""The benchmark workloads: inputs, set-up, timed units and output checks.

Inputs come from the benchmark's own Gaussian-blob generator, following the
acceptance-suite recipe (3 clusters, 3 views of 10 features, 20 noise
features on view 2, ``unit_l2_per_sample``). A change to mvsc's own
generator therefore never changes what the benchmark measures. The program
receives only the generated arrays or CSV files, through its public entry
points: ``mvsc.solve``, ``mvsc.solver.initialize`` and ``mvsc.cli.main``.

A workload is measured in units. One unit is a fixed piece of work (one
dataset under every ablation mode, one ``mvsc cluster`` call with its
baseline and eval, one capped solve); a run repeats units for its time
budget and reports medians.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLUSTERS = 3
VIEW_DIMS = (10, 10, 10)
NOISE_FEATURES = (0, 20, 0)
SCHEME = "unit_l2_per_sample"
MODES = ("full", "uniform_weights", "no_spectral_norm")
MANIFEST_KEYS = {"config", "dataset", "labels", "weights", "metrics",
                 "converged", "iterations", "timing"}
METRIC_KEYS = {"acc", "nmi", "ari", "precision", "fscore"}


# -- inputs ----------------------------------------------------------------

def blobs(rng: np.random.Generator, per_cluster: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Views (d_v x n, samples as columns) and labels of one blob dataset.

    Centroids are rescaled so the closest pair sits 5 within-cluster
    standard deviations apart; noise features have standard deviation 2.5,
    so they rival the informative spread.
    """
    labels = np.repeat(np.arange(CLUSTERS), per_cluster)
    n = labels.size
    views = []
    for d, noise in zip(VIEW_DIMS, NOISE_FEATURES):
        centroids = rng.standard_normal((d, CLUSTERS))
        gap = min(np.linalg.norm(centroids[:, i] - centroids[:, j])
                  for i, j in itertools.combinations(range(CLUSTERS), 2))
        centroids *= 5.0 / gap
        X = centroids[:, labels] + rng.standard_normal((d, n))
        if noise:
            X = np.vstack([X, 2.5 * rng.standard_normal((noise, n))])
        views.append(X)
    return views, labels


def to_dataset(views: list[np.ndarray], labels: np.ndarray):
    import mvsc

    return mvsc.MultiViewDataset(
        views=tuple(mvsc.ViewMatrix(values=X, view_index=v) for v, X in enumerate(views)),
        labels=labels)


# -- reference metrics, independent of mvsc.metrics --------------------------

def accuracy(truth: np.ndarray, pred: np.ndarray) -> float:
    """Best one-to-one matching accuracy, by enumerating label permutations."""
    t_vals, t_idx = np.unique(truth, return_inverse=True)
    p_vals, p_idx = np.unique(pred, return_inverse=True)
    size = max(t_vals.size, p_vals.size)
    table = np.zeros((size, size), dtype=np.int64)
    np.add.at(table, (t_idx, p_idx), 1)
    best = max(sum(table[i, perm[i]] for i in range(size))
               for perm in itertools.permutations(range(size)))
    return best / truth.size


def nmi(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mutual information over the geometric mean of the two entropies."""
    n = truth.size
    _, t_idx = np.unique(truth, return_inverse=True)
    _, p_idx = np.unique(pred, return_inverse=True)
    table = np.zeros((t_idx.max() + 1, p_idx.max() + 1))
    np.add.at(table, (t_idx, p_idx), 1)
    pij = table / n
    pi, pj = pij.sum(axis=1), pij.sum(axis=0)
    nz = pij > 0
    mi = float((pij[nz] * np.log(pij[nz] / np.outer(pi, pj)[nz])).sum())
    h_t = float(-(pi * np.log(pi)).sum())
    h_p = float(-(pj * np.log(pj)).sum())
    if h_t == 0.0 or h_p == 0.0:
        return float(h_t == h_p)
    return max(mi, 0.0) / np.sqrt(h_t * h_p)


# -- output checks ------------------------------------------------------------

def check_labels(labels, n: int) -> list[str]:
    labels = np.asarray(labels)
    problems = []
    if labels.shape != (n,):
        problems.append(f"labels have shape {labels.shape}, expected ({n},)")
    if np.unique(labels).size != CLUSTERS:
        problems.append(f"labels take {np.unique(labels).size} values, expected {CLUSTERS}")
    return problems


def check_weights(weights) -> list[str]:
    problems = []
    for v, w in enumerate(weights):
        w = np.asarray(w, dtype=float)
        if not (np.all(np.isfinite(w)) and np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
            problems.append(f"view {v} weights are off the simplex (sum {w.sum()!r})")
    return problems


def check_stop(gaps: np.ndarray, converged: bool, iterations: int, max_iter: int,
               tol: float) -> list[str]:
    """``gaps`` is iterations x 3 (r_recon, r_u, r_a), one row per iteration."""
    problems = []
    if gaps.shape[0] != iterations:
        problems.append(f"trace has {gaps.shape[0]} rows for {iterations} iterations")
    if not np.all(np.isfinite(gaps)):
        problems.append("trace holds non-finite values")
    if converged and not (iterations and np.all(gaps[-1] < tol)):
        problems.append("reported converged, but the final gaps are not all < tol")
    if not converged and iterations != max_iter:
        problems.append(f"not converged after {iterations} of {max_iter} iterations")
    return problems


def check_result(result, dataset, config) -> list[str]:
    """Output checks on one ``ClusteringResult``."""
    trace = result.trace
    arrays = (trace.objective, trace.r_recon, trace.r_u, trace.r_a, trace.mu)
    problems = check_labels(result.labels, dataset.n_samples)
    problems += check_weights(result.weights)
    if not np.all(np.isfinite(result.Q)):
        problems.append("Q holds non-finite values")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append("convergence trace holds non-finite values")
    gaps = np.column_stack([trace.r_recon, trace.r_u, trace.r_a])
    problems += check_stop(gaps, result.converged, result.iterations,
                           config.max_iter, config.tol)
    return problems


def fingerprint(result) -> tuple:
    """Everything the traced run must reproduce bit for bit."""
    trace = result.trace
    return (result.labels.tobytes(), result.iterations,
            *(a.tobytes() for a in (trace.objective, trace.r_recon, trace.r_u,
                                    trace.r_a, trace.mu)))


# -- units --------------------------------------------------------------------

@dataclass
class Solve:
    mode: str
    converged: bool
    iterations: int
    acc: float
    nmi: float


@dataclass
class Unit:
    """What one unit of a workload produced."""

    solve_s: float = 0.0
    solves: list[Solve] = field(default_factory=list)
    fingerprint: tuple = ()
    checks: list[tuple[str, list[str]]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return sum(s.iterations for s in self.solves)


def _root(tracer, name: str, **attrs):
    return tracer.root(name, **attrs) if tracer is not None else contextlib.nullcontext()


def _timed(tracer, name: str, fn, *args, **attrs):
    with _root(tracer, name, **attrs):
        start = time.perf_counter()
        value = fn(*args)
        return value, time.perf_counter() - start


def _solve_unit(datasets, configs, tracer) -> Unit:
    """Solve each (dataset, config) pair through ``mvsc.solve``."""
    import mvsc

    unit = Unit()
    prints = []
    for dataset, config in zip(datasets, configs):
        result, seconds = _timed(tracer, "bench.solve", mvsc.solve, dataset, config,
                                 mode=config.ablation)
        unit.solve_s += seconds
        unit.solves.append(Solve(config.ablation, result.converged, result.iterations,
                                 accuracy(dataset.labels, result.labels),
                                 nmi(dataset.labels, result.labels)))
        unit.checks.append((f"solve[{config.ablation}]", check_result(result, dataset, config)))
        prints.append(fingerprint(result))
    unit.fingerprint = tuple(prints)
    return unit


class AblationWorkload:
    """Several small datasets, each solved to the stop rule in every ablation mode."""

    name = "ablation_n90"

    def __init__(self, per_cluster: int = 30, datasets: int = 6) -> None:
        self.params = {"per_cluster": per_cluster, "datasets": datasets}
        self.per_cluster = per_cluster
        self.period = datasets  # distinct inputs; unit i solves dataset i mod period
        self.raw: list = []

    def prepare(self, seed: int, workdir: Path) -> None:
        self.raw = [blobs(np.random.default_rng([seed, j]), self.per_cluster)
                    for j in range(self.period)]

    def setup(self, tracer=None):
        """Load and normalize every dataset and build each starting state."""
        import mvsc
        import mvsc.solver

        datasets = []
        for views, labels in self.raw:
            with _root(tracer, "bench.setup"):
                dataset = mvsc.normalize(to_dataset(views, labels), SCHEME)
                mvsc.solver.initialize(dataset, mvsc.SolverConfig(n_clusters=CLUSTERS))
            datasets.append(dataset)
        return datasets

    def unit(self, datasets, index: int, tracer=None) -> Unit:
        import mvsc

        dataset = datasets[index % len(datasets)]
        configs = [mvsc.SolverConfig(n_clusters=CLUSTERS, ablation=m) for m in MODES]
        return _solve_unit([dataset] * len(MODES), configs, tracer)


class CappedWorkload:
    """One larger dataset solved with a fixed iteration budget."""

    name = "capped_n600"

    def __init__(self, per_cluster: int = 200, max_iter: int = 10) -> None:
        self.params = {"per_cluster": per_cluster, "max_iter": max_iter}
        self.per_cluster = per_cluster
        self.period = 1
        self.max_iter = max_iter
        self.raw = None

    def prepare(self, seed: int, workdir: Path) -> None:
        self.raw = blobs(np.random.default_rng(seed), self.per_cluster)

    def config(self):
        import mvsc

        return mvsc.SolverConfig(n_clusters=CLUSTERS, max_iter=self.max_iter)

    def setup(self, tracer=None):
        import mvsc
        import mvsc.solver

        with _root(tracer, "bench.setup"):
            dataset = mvsc.normalize(to_dataset(*self.raw), SCHEME)
            mvsc.solver.initialize(dataset, self.config())
        return dataset

    def unit(self, dataset, index: int, tracer=None) -> Unit:
        return _solve_unit([dataset], [self.config()], tracer)


class ClusterWorkload:
    """The quick-start path through ``mvsc.cli.main``: cluster, baseline, eval.

    The dataset is blob seed 1, on which the default stop rule never fires
    and ``cluster`` runs to ``max_iter``. The run seed permutes the sample
    order of the CSV files. The solver treats samples symmetrically, so
    every seed poses the same problem in a different order.
    """

    name = "cluster_n300"
    data_seed = 1

    def __init__(self, per_cluster: int = 100) -> None:
        self.params = {"per_cluster": per_cluster}
        self.per_cluster = per_cluster
        self.period = 1
        self.workdir: Path | None = None
        self.truth = None
        self._calls = itertools.count()

    @property
    def data_dir(self) -> Path:
        return self.workdir / "data"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        views, labels = blobs(np.random.default_rng(self.data_seed), self.per_cluster)
        order = np.random.default_rng(seed).permutation(labels.size)
        self.truth = labels[order]
        self.data_dir.mkdir(parents=True, exist_ok=True)
        for v, X in enumerate(views, start=1):
            np.savetxt(self.data_dir / f"view_{v}.csv", X[:, order].T,
                       fmt="%.17g", delimiter=",")
        np.savetxt(self.data_dir / "labels.csv", self.truth, fmt="%d")

    def setup(self, tracer=None):
        import mvsc
        import mvsc.solver

        with _root(tracer, "bench.setup"):
            dataset = mvsc.normalize(mvsc.load_dataset(self.data_dir), SCHEME)
            mvsc.solver.initialize(dataset, mvsc.SolverConfig(n_clusters=CLUSTERS))
        return dataset

    def _cli(self, tracer, root: str, argv: list[str], **attrs) -> float:
        import mvsc.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = _timed(tracer, root, mvsc.cli.main, argv, **attrs)
        if code != 0:
            raise RuntimeError(f"mvsc {' '.join(argv)} exited with {code}")
        return seconds

    def unit(self, dataset, index: int, tracer=None) -> Unit:
        out = self.workdir / f"call{next(self._calls)}"
        out.mkdir()
        data = str(self.data_dir)
        unit = Unit()
        unit.solve_s = self._cli(tracer, "bench.solve", [
            "cluster", data, "--clusters", str(CLUSTERS), "--normalize", SCHEME,
            "-o", str(out / "cluster.json")], mode="full")
        self._cli(tracer, "bench.other", [
            "baseline", data, "--clusters", str(CLUSTERS), "-o", str(out / "baseline.json")])

        manifest = json.loads((out / "cluster.json").read_text())
        trace = np.loadtxt(out / "cluster.trace.csv", delimiter=",", skiprows=1, ndmin=2)
        labels = np.asarray(manifest["labels"])
        np.savetxt(out / "pred.csv", labels, fmt="%d")
        self._cli(tracer, "bench.other", [
            "eval", str(self.data_dir / "labels.csv"), str(out / "pred.csv"),
            "-o", str(out / "eval.json")])
        baseline = json.loads((out / "baseline.json").read_text())
        evaluation = json.loads((out / "eval.json").read_text())

        acc = accuracy(self.truth, labels)
        unit.solves.append(Solve("full", bool(manifest["converged"]), int(manifest["iterations"]),
                                 acc, nmi(self.truth, labels)))
        config = manifest["config"]

        problems = [] if set(manifest) == MANIFEST_KEYS else [f"manifest keys {sorted(manifest)}"]
        problems += check_labels(labels, self.truth.size)
        problems += check_weights(manifest["weights"])
        if not np.all(np.isfinite(trace)):
            problems.append("trace CSV holds non-finite values")
        problems += check_stop(trace[:, 2:5], manifest["converged"], manifest["iterations"],
                               config["max_iter"], config["tol"])
        if abs(manifest["metrics"]["acc"] - 100.0 * acc) > 1e-3:
            problems.append(f"manifest acc {manifest['metrics']['acc']} != {100.0 * acc:.4f}")
        unit.checks.append(("cli.cluster", problems))

        problems = [] if set(baseline) == MANIFEST_KEYS else [f"baseline keys {sorted(baseline)}"]
        problems += check_labels(baseline["labels"], self.truth.size)
        unit.checks.append(("cli.baseline", problems))

        problems = []
        if set(evaluation) != {"n", "metrics"} or set(evaluation["metrics"]) != METRIC_KEYS:
            problems.append(f"eval payload keys {sorted(evaluation)}")
        elif evaluation["metrics"] != manifest["metrics"] or evaluation["n"] != labels.size:
            problems.append("eval metrics disagree with the cluster manifest")
        unit.checks.append(("cli.eval", problems))

        manifest.pop("timing")
        baseline.pop("timing")
        unit.fingerprint = (manifest, (out / "cluster.trace.csv").read_bytes(),
                            baseline, evaluation)
        return unit


WORKLOADS = {w.name: w for w in (AblationWorkload, ClusterWorkload, CappedWorkload)}
