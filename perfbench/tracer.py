"""Span tracing of mvsc from outside the package.

The tracer replaces, for as long as it is installed, the module attributes
that mvsc looks up at call time with wrappers that record one span per
call: name, start, end, parent span and root span. Nothing under ``src/``
changes, and an uninstalled tracer leaves every attribute as it found it.

Root spans are opened by the benchmark around each of its own calls into
the program (``bench.setup``, ``bench.solve``, ``bench.other``). Spans
are only recorded inside a root, so the benchmark's own use of numpy is
never counted. Spans are kept in memory and aggregated when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

# Blocks that run once per outer iteration; a kernel call under one of them
# counts towards the `calls_per_iter` figures.
ITER_BLOCKS = frozenset(
    f"solver.{name}" for name in (
        "update_z", "update_a", "update_u", "update_e", "update_w",
        "update_multipliers", "update_q", "evaluate_objective",
    )
)

# (module, attribute, span name). Each binding is wrapped separately, so a
# function imported into several modules is traced wherever it is called.
PROGRAM_BINDINGS = (
    ("mvsc.solver", "initialize", "solver.initialize"),
    ("mvsc.solver", "update_z", "solver.update_z"),
    ("mvsc.solver", "update_a", "solver.update_a"),
    ("mvsc.solver", "update_u", "solver.update_u"),
    ("mvsc.solver", "update_e", "solver.update_e"),
    ("mvsc.solver", "update_w", "solver.update_w"),
    ("mvsc.solver", "update_multipliers", "solver.update_multipliers"),
    ("mvsc.solver", "update_q", "solver.update_q"),
    ("mvsc.solver", "evaluate_objective", "solver.evaluate_objective"),
    ("mvsc.solver", "prox_spectral_norm", "prox_ops.prox_spectral_norm"),
    ("mvsc.solver", "soft_threshold", "prox_ops.soft_threshold"),
    ("mvsc.solver", "_project_rows_simplex_zero_diag", "prox_ops.project_rows"),
    ("mvsc.solver", "weighted_sq_distances", "graph_ops.weighted_sq_distances"),
    ("mvsc.solver", "pairwise_sq_distances", "graph_ops.pairwise_sq_distances"),
    ("mvsc.solver", "laplacian", "graph_ops.laplacian"),
    ("mvsc.solver", "knn_affinity", "graph_ops.knn_affinity"),
    ("mvsc.solver", "smallest_eigvecs", "spectral.smallest_eigvecs"),
    ("mvsc.solver", "kmeans", "spectral.kmeans"),
    ("mvsc.spectral", "smallest_eigvecs", "spectral.smallest_eigvecs"),
    ("mvsc.spectral", "kmeans", "spectral.kmeans"),
    ("mvsc.spectral", "laplacian", "graph_ops.laplacian"),
    ("mvsc.cli", "cmd_cluster", "cli.cluster"),
    ("mvsc.cli", "cmd_baseline", "cli.baseline"),
    ("mvsc.cli", "cmd_eval", "cli.eval"),
    ("mvsc.cli", "load_dataset", "data.load_dataset"),
    ("mvsc.cli", "normalize", "data.normalize"),
    ("mvsc.cli", "compute_metrics", "metrics.compute_metrics"),
    ("mvsc.cli", "ncut_baseline", "spectral.ncut_baseline"),
    ("mvsc.cli", "laplacian", "graph_ops.laplacian"),
    # the benchmark's own set-up calls go through the package namespace
    ("mvsc", "load_dataset", "data.load_dataset"),
    ("mvsc", "normalize", "data.normalize"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PROGRAM_BINDINGS)) + (
    "kernel.svd", "kernel.spectral_norm", "kernel.eigh",
)
KERNELS = ("kernel.svd", "kernel.spectral_norm", "kernel.eigh")


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def svd_flops(args, kwargs) -> float:
    """Golub-Reinsch SVD operation count for an m x n input (m >= n).

    Golub & Van Loan, Matrix Computations, 3rd ed., Fig. 5.4.1.
    """
    shape = args[0].shape
    m, n = max(shape[-2:]), min(shape[-2:])
    if not _arg(args, kwargs, 2, "compute_uv", True):
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    if _arg(args, kwargs, 1, "full_matrices", True):
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    return 14.0 * m * n * n + 8.0 * n ** 3


def spectral_norm_flops(args, kwargs) -> float:
    """Singular values only: the count numpy's ord=2 norm pays."""
    shape = args[0].shape
    m, n = max(shape), min(shape)
    return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0


def eigh_flops(args, kwargs) -> float:
    """Symmetric eigensolver: tridiagonal reduction plus back-transformation
    of the requested eigenvectors (Golub & Van Loan, §8.3)."""
    n = args[0].shape[0]
    if kwargs.get("eigvals_only", False):
        return 4.0 * n ** 3 / 3.0
    subset = kwargs.get("subset_by_index")
    if subset is None:
        return 9.0 * n ** 3
    k = int(subset[1]) - int(subset[0]) + 1
    return 4.0 * n ** 3 / 3.0 + 2.0 * n * n * k


def _is_spectral_norm(args, kwargs) -> bool:
    x = args[0]
    return (_arg(args, kwargs, 1, "ord", None) == 2
            and _arg(args, kwargs, 2, "axis", None) is None
            and getattr(x, "ndim", 0) == 2)


@dataclass
class Span:
    name: str
    parent: int
    root: int
    in_iter: bool
    start: float
    end: float = 0.0
    flops: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.context: dict = {}  # attributes stamped on every new root span
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, attrs: dict | None = None) -> int:
        index = len(self.spans)
        if self._stack:
            parent = self.spans[self._stack[-1]]
            span = Span(name, self._stack[-1], parent.root,
                        parent.in_iter or parent.name in ITER_BLOCKS, 0.0)
        else:
            span = Span(name, -1, index, False, 0.0, attrs={**self.context, **(attrs or {})})
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, **attrs):
        """A root span around one of the benchmark's calls into the program."""
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, flops=None, when=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            index = self._open(name)
            if flops is not None:
                self.spans[index].flops = flops(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        import numpy.linalg
        import scipy.linalg

        try:
            for module, attr, name in PROGRAM_BINDINGS:
                owner = importlib.import_module(module)
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
            self._patch(numpy.linalg, "svd",
                        self._wrap("kernel.svd", numpy.linalg.svd, svd_flops))
            self._patch(numpy.linalg, "norm",
                        self._wrap("kernel.spectral_norm", numpy.linalg.norm,
                                   spectral_norm_flops, _is_spectral_norm))
            self._patch(scipy.linalg, "eigh",
                        self._wrap("kernel.eigh", scipy.linalg.eigh, eigh_flops))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def roots(self, select) -> set[int]:
        """Indices of root spans whose attributes satisfy ``select``."""
        return {i for i, s in enumerate(self.spans) if s.parent < 0 and select(s.attrs)}

    def aggregate(self, roots: set[int]) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds, calls, computed
        flops, and calls made inside per-iteration solver blocks."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        stats: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            if span.parent < 0 or span.root not in roots:
                continue
            entry = stats.setdefault(span.name, dict.fromkeys(
                ("s", "self_s", "calls", "flops", "iter_calls"), 0.0))
            duration = span.end - span.start
            entry["s"] += duration
            entry["self_s"] += duration - child_time[i]
            entry["calls"] += 1
            entry["flops"] += span.flops
            entry["iter_calls"] += span.in_iter
        return stats

    def counts(self, roots: set[int]) -> dict[str, tuple[int, int, float]]:
        """The deterministic part of ``aggregate``: calls, per-iteration
        calls and computed flops per span name."""
        return {name: (int(e["calls"]), int(e["iter_calls"]), e["flops"])
                for name, e in self.aggregate(roots).items()}

    def covered_s(self, roots: set[int], names) -> float:
        """Inclusive time of spans named in ``names`` that have no such
        ancestor themselves, under the given roots."""
        total = 0.0
        for span in self.spans:
            if span.parent < 0 or span.root not in roots or span.name not in names:
                continue
            ancestor = self.spans[span.parent]
            while ancestor.parent >= 0 and ancestor.name not in names:
                ancestor = self.spans[ancestor.parent]
            if ancestor.name not in names:
                total += span.end - span.start
        return total

    def root_seconds(self, roots: set[int]) -> float:
        return sum(self.spans[i].end - self.spans[i].start for i in roots)
