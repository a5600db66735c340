"""Alternating-direction augmented-Lagrangian solver for the joint model.

The model couples, per view, a nonnegative row-stochastic local graph A
learned from featurewise-weighted distances, a self-representation matrix
Z with sparse error E (X = XZ + E), a spectral-norm-bounded auxiliary U,
and a feature weight vector w on the probability simplex; all views share
one spectral embedding Q. The solver alternates exact block minimizers of
the augmented Lagrangian with dual ascent on the three constraint gaps
(X - XZ - E, Z - U, Z - A) under a growing penalty, which the reconstruction
gap carries times a per-view weight and the Z = A gap times a fixed one.
``solve`` states the schedule and the lifetime rule of the state.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .data import MultiViewDataset, write_csv
from .graph_ops import fuse_similarity, knn_affinity, laplacian, weighted_sq_distances
from .graph_ops import pairwise_sq_distances  # noqa: F401  (perfbench/tracer.py binds it here)
from .prox_ops import SymmetricEigh, _project_rows_simplex_zero_diag, gram_eigh
from .prox_ops import one_blas_thread, prox_spectral_norm, soft_threshold
from .spectral import kmeans, smallest_eigvecs

ABLATION_MODES = ("full", "uniform_weights", "no_spectral_norm")

# alpha in each view's reconstruction weight kappa = alpha n / ||X||_F^2; the sweep
# behind 1/2 is under README "Measurements"
RECON_WEIGHT_ALPHA = 0.5
# beta, the Z = A constraint's penalty weight, and tau, the sine of the embedding's
# largest principal angle between iterations below which the penalty may take rho^2
# steps (``step_mu``); the sweep behind both is under README "Measurements"
GRAPH_WEIGHT_BETA = 1.5
SETTLED_SIN_TAU = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weights, penalty schedule, and run controls.

    lambda1 weighs the shared-embedding consistency term, lambda2 the
    spectral norm of U, lambda3 the sparse reconstruction error. The
    penalty grows once per outer iteration, by rho or rho^2 (``step_mu``),
    and saturates at mu_max.
    """

    n_clusters: int
    lambda1: float = 1e-3
    lambda2: float = 0.1
    lambda3: float = 0.1
    mu0: float = 0.3
    rho: float = 1.2
    mu_max: float = 1e8
    max_iter: int = 200
    tol: float = 1e-6
    k_init: int = 5
    ablation: str = "full"
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            number = (isinstance(value, (int, float, np.integer, np.floating))
                      and not isinstance(value, (bool, np.bool_)))  # bool is an int subclass
            if f.type == "float" and not (number and np.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "int" and not (number and isinstance(value, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.n_clusters < 2:
            raise ValueError("n_clusters must be >= 2")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.mu0 <= 0 or self.mu_max <= 0 or self.mu0 > self.mu_max:
            raise ValueError("need 0 < mu0 <= mu_max")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")
        if self.max_iter < 0 or self.tol <= 0 or self.k_init < 1:
            raise ValueError("max_iter >= 0, tol > 0, k_init >= 1 required")
        if self.ablation not in ABLATION_MODES:
            raise ValueError(f"ablation must be one of {ABLATION_MODES}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def effective_lambda2(self) -> float:
        """lambda2 actually applied; the no-spectral-norm ablation zeroes it."""
        return 0.0 if self.ablation == "no_spectral_norm" else self.lambda2

    @property
    def learn_weights(self) -> bool:
        """Feature weights are only adapted in the full model."""
        return self.ablation == "full"


@dataclass
class SolverState:
    """All per-view blocks, the shared embedding, and the penalty.

    Lists are indexed by view; an entry of Z, A or U is None where ``solve``'s
    lifetime rule has dropped it. ``kappa`` holds each view's reconstruction
    weight (``reconstruction_weights``): the constraint X = XZ + E of view v
    carries the penalty kappa_v mu and its multiplier steps by kappa_v mu; likewise
    Z = A carries ``beta`` mu, and Z = U carries mu. ``z_factor`` holds each
    view's Z-step factor (``z_step_factors``) at that kappa and beta, which
    depends only on the data.
    ``clipped`` maps a view to how many singular values its last U-step prox
    clipped, the next prox's hint; a view has no entry before its first.
    """

    Z: list[np.ndarray]
    A: list[np.ndarray]
    U: list[np.ndarray]
    E: list[np.ndarray]
    Lam1: list[np.ndarray]
    Lam2: list[np.ndarray]
    Lam3: list[np.ndarray]
    w: list[np.ndarray]
    Q: np.ndarray
    mu: float
    kappa: list[float]
    beta: float
    z_factor: list[np.ndarray] = field(repr=False)
    clipped: dict[int, int] = field(default_factory=dict)

    @property
    def n_views(self) -> int:
        return len(self.Z)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration objective value, constraint gaps (max-abs entry, in data
    units whatever the constraints' penalty weights), penalty, and ``q_sin``: the
    sine of the largest principal angle between the embeddings of the iteration
    and of the one before (``initialize``'s for the first), which ``step_mu``
    reads."""

    objective: np.ndarray
    r_recon: np.ndarray
    r_u: np.ndarray
    r_a: np.ndarray
    mu: np.ndarray
    q_sin: np.ndarray

    def __len__(self) -> int:
        return self.objective.size

    def write_csv(self, path) -> None:
        names = [f.name for f in fields(self)]
        columns = [np.arange(len(self)), *(getattr(self, name) for name in names)]
        write_csv(path, np.column_stack(columns), fmt=["%d"] + ["%.17g"] * len(names),
                  header=",".join(["iteration", *names]))


@dataclass(frozen=True)
class ClusteringResult:
    """What ``solve`` returns, for n samples, c = ``n_clusters`` and V views.

    - ``labels``: one cluster index in [0, c) per sample, from k-means on Q
      seeded by ``config.seed``.
    - ``Q``: the n x c shared embedding of the last iteration, each column's
      largest-magnitude entry positive.
    - ``fused_similarity``: the n x n graph (1/V) sum_v (A_v + A_v^T)/2 with a
      zero diagonal, from the last iteration's A_v; its Laplacian's bottom
      eigenvectors span Q.
    - ``weights``: one feature weight vector per view, on the simplex.
    - ``trace``: one row per iteration run (``ConvergenceTrace``).
    - ``converged``: every constraint gap of the last iteration is below
      ``config.tol``; False when the run stopped at ``config.max_iter``.
    """

    labels: np.ndarray
    Q: np.ndarray
    fused_similarity: np.ndarray
    weights: list[np.ndarray]
    trace: ConvergenceTrace
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.trace)


def reconstruction_weights(dataset: MultiViewDataset) -> list[float]:
    """Each view's reconstruction weight kappa = alpha n / ||X||_F^2, alpha =
    ``RECON_WEIGHT_ALPHA``, which puts the constraint X = XZ + E on the scale of
    Z = U and Z = A in the Z-step, whatever the data's units. A view whose
    features are all zero, where kappa moves no block, gets kappa = 1."""
    weights = []
    for view in dataset.views:
        sq = float(np.vdot(view.values, view.values))
        weights.append(RECON_WEIGHT_ALPHA * dataset.n_samples / sq if sq > 0 else 1.0)
    return weights


def z_step_factors(dataset: MultiViewDataset, kappa: list[float], beta: float) -> list[np.ndarray]:
    """The Z-step factor W = V diag(sqrt(k) s / sqrt(k s^2 + 1 + beta)) per view,
    n x min(d, n), at the view's reconstruction weight k in ``kappa`` and the
    Z = A weight ``beta``.

    From the thin SVD X = P diag(s) V^T, k X^T X + (1 + beta) I has eigenvalue
    k s^2 + 1 + beta on V's columns and 1 + beta on their complement, so its
    inverse is (I - W W^T) / (1 + beta). One code path serves d < n and d >= n,
    and a rank-deficient X only adds zero columns to W.
    """
    factors = []
    for view, k in zip(dataset.views, kappa):
        _, s, Vt = np.linalg.svd(view.values, full_matrices=False)
        factors.append(Vt.T * (np.sqrt(k) * s / np.sqrt(k * s * s + (1.0 + beta))))
    return factors


_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _memory_limit_files() -> set[str]:
    """The memory-limit files of the process's own cgroup and of each of its
    ancestors up to the root: ``memory.max`` under the root for cgroup v2 (the
    ``0::path`` line of /proc/self/cgroup) and ``memory.limit_in_bytes`` under
    ``memory/`` for v1 (the line that lists the memory controller). The roots'
    files are always included; any file may be missing."""
    hierarchies = [("", "/"), ("memory", "/")]  # (mount under the root, cgroup path)
    try:
        with open(_PROC_CGROUP, encoding="ascii") as fh:
            for line in fh:
                _, controllers, path = line.rstrip("\n").split(":", 2)
                if not controllers:
                    hierarchies.append(("", path))
                elif "memory" in controllers.split(","):
                    hierarchies.append(("memory", path))
    except (OSError, ValueError):
        pass
    files = set()
    for mount, path in hierarchies:
        parts = [part for part in path.split("/") if part]
        if ".." in parts:  # a cgroup outside this namespace's view of the tree
            continue
        name = "memory.limit_in_bytes" if mount else "memory.max"
        files.update(os.path.join(_CGROUP_ROOT, mount, *parts[:depth], name)
                     for depth in range(len(parts) + 1))
    return files


def _memory_budget() -> int | None:
    """Bytes the process may still allocate: MemAvailable from /proc/meminfo,
    or the smallest cgroup memory limit on the process's path
    (``_memory_limit_files``) when that is lower; None when none is readable."""
    budgets = []
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    budgets.append(int(line.split()[1]) * 1024)
                    break
    except (OSError, ValueError):
        pass
    for path in _memory_limit_files():
        try:
            with open(path, encoding="ascii") as fh:
                budgets.append(int(fh.read()))  # "max" (no limit) fails int()
        except (OSError, ValueError):
            pass
    return min(budgets) if budgets else None


def _dense_bytes(dataset: MultiViewDataset) -> int:
    """An upper bound on the bytes a solve holds at its peak, which initialize
    checks against the memory budget. Per view: five n x n float64 matrices
    (Z, A, U, Lam2, Lam3) and the n x min(d, n) Z-step factor, that is
    8 n (5 n + min(d, n)) bytes, and the d x n blocks E and Lam1. Beside them:
    one view's per-iteration scratch, 6 n^2 + 5 n max(d) values, whose largest
    part is the U-step's (two views' decompositions, n x n eigenvectors when
    the prox takes the full spectrum), and 128 KiB for the allocations that do
    not grow with n or d. A solve holds fewer n x n matrices than this counts
    (the lifetime rule in ``solve``).
    """
    n = dataset.n_samples
    dims = [view.n_features for view in dataset.views]
    state = 8 * n * sum(5 * n + min(d, n) for d in dims)
    return state + 8 * n * (2 * sum(dims) + 6 * n + 5 * max(dims)) + 128 * 1024


def initialize(dataset: MultiViewDataset, config: SolverConfig) -> SolverState:
    """Starting point: the kNN graphs as A and as U (the same arrays), no Z, zero
    E and multipliers, uniform feature weights, Q from the Laplacian of the
    summed graphs, each view's reconstruction weight, the Z = A weight
    ``GRAPH_WEIGHT_BETA``, and the Z-step factors at them.
    Raises ValueError, before allocating any n x n matrix, when ``n_clusters``
    exceeds the number of distinct samples (columns of the stacked views) or
    ``_dense_bytes`` exceeds ``_memory_budget()``.
    """
    n = dataset.n_samples
    if not 1 <= config.k_init <= n - 1:
        raise ValueError(f"k_init must be in [1, {n - 1}], got {config.k_init}")
    # + 0.0 turns -0.0 into 0.0, so equal samples have equal bytes
    samples = (np.vstack([view.values for view in dataset.views]) + 0.0).T
    distinct = len({sample.tobytes() for sample in samples})
    if config.n_clusters > distinct:
        raise ValueError(f"n_clusters {config.n_clusters} exceeds the number of distinct "
                         f"samples, {distinct} of {n}")
    needed, budget = _dense_bytes(dataset), _memory_budget()
    if budget is not None and needed > budget:
        raise ValueError(f"n = {n} samples need {needed} bytes of dense solver state and "
                         f"per-iteration scratch, more than the {budget} bytes of memory "
                         "available")

    # Q first, while the graphs are the only n x n arrays
    A = [knn_affinity(view.values, config.k_init) for view in dataset.views]
    Q, _ = update_q(submit_q(A, config.n_clusters))
    views = dataset.views
    kappa = reconstruction_weights(dataset)
    return SolverState(Z=[None] * len(A), A=A, U=list(A),
                       E=[np.zeros(view.values.shape) for view in views],
                       Lam1=[np.zeros(view.values.shape) for view in views],
                       Lam2=[np.zeros((n, n)) for _ in views],
                       Lam3=[np.zeros((n, n)) for _ in views],
                       w=[np.full(view.n_features, 1.0 / view.n_features) for view in views],
                       Q=Q, mu=config.mu0, kappa=kappa, beta=GRAPH_WEIGHT_BETA,
                       z_factor=z_step_factors(dataset, kappa, GRAPH_WEIGHT_BETA))


def update_z(state: SolverState, dataset: MultiViewDataset, view: int) -> np.ndarray:
    """Closed-form ridge system (k X^T X + (1 + b) I) Z = R with
    R = X^T V1 + V2 + V3, k the view's reconstruction weight and b the Z = A
    weight (``SolverState.kappa`` and ``beta``).

    V1 = k (X - E) + Lam1/mu, V2 = U - Lam2/mu, V3 = b A - Lam3/mu; R is summed
    in place. The solution (R - W (W^T R)) / (1 + b) uses the view's cached
    factor W (``z_step_factors`` at k and b): two thin products, O(min(d, n) n^2).
    """
    X = dataset.views[view].values
    W = state.z_factor[view]
    mu, beta = state.mu, state.beta
    rhs = X.T @ (state.kappa[view] * (X - state.E[view]) + state.Lam1[view] / mu)
    rhs += state.U[view]
    rhs += beta * state.A[view]
    rhs -= (state.Lam2[view] + state.Lam3[view]) / mu
    rhs -= W @ (W.T @ rhs)
    rhs /= 1.0 + beta
    return rhs


def update_a(state: SolverState, dataset: MultiViewDataset, config: SolverConfig,
             view: int) -> np.ndarray:
    """Row-wise simplex projection, a_ii pinned to 0, of Z + (Lam3 - D)/(b mu), b the
    Z = A weight, where the edge cost D_ij = sum_k w_k^2 (x_ki - x_kj)^2
    + lambda1 ||q_i - q_j||^2 is what sum(D * A), the distance plus embedding
    term, charges for A. The projection's input is built in D's own buffer, with
    no second n x n array."""
    X, Q = dataset.views[view].values, state.Q
    # one weighted distance matrix over X stacked on Q^T, whose rows take weight sqrt(lambda1)
    weights = np.concatenate([state.w[view], np.full(Q.shape[1], np.sqrt(config.lambda1))])
    D = weighted_sq_distances(np.vstack([X, Q.T]), weights)
    np.subtract(state.Lam3[view], D, out=D)
    D /= state.beta * state.mu
    D += state.Z[view]
    return _project_rows_simplex_zero_diag(D)


def submit_q(graphs: list[np.ndarray], c: int) -> SymmetricEigh:
    """The Q-step's decomposition, ready to run: the c bottom eigenpairs of the
    Laplacian of the summed graphs (L is linear in the graph, so it is the sum
    of their Laplacians), formed here, as smallest_eigvecs returns it."""
    return smallest_eigvecs(laplacian(sum(graphs)), c)


def _fix_signs(Q: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    argmax takes the first maximal index, so magnitude ties resolve to the
    lowest sample index; this pins down the sign ambiguity of eigenvectors.
    """
    idx = np.argmax(np.abs(Q), axis=0)
    signs = np.sign(Q[idx, np.arange(Q.shape[1])])
    signs[signs == 0] = 1.0
    return Q * signs


def subspace_sin(P: np.ndarray, Q: np.ndarray) -> float:
    """The sine of the largest principal angle between the column spans of the
    orthonormal n x c matrices P and Q, sqrt(1 - s^2) with s the smallest
    singular value of P^T Q, that angle's cosine: one c x c SVD."""
    s = min(float(np.linalg.svd(P.T @ Q, compute_uv=False)[-1]), 1.0)
    return float(np.sqrt((1.0 - s) * (1.0 + s)))


def update_q(decomposition: SymmetricEigh) -> tuple[np.ndarray, float]:
    """Shared embedding: the c bottom eigenvectors of the summed graph Laplacians,
    each column's largest-magnitude entry positive, and the sum of their c
    eigenvalues, sum_v tr(Q^T L(A_v) Q) at the returned Q, from submit_q's
    ``decomposition``, which runs or waits for its LAPACK call here."""
    values, Q = decomposition()
    return _fix_signs(Q), float(values.sum())


def u_input(state: SolverState, view: int) -> np.ndarray:
    """The U-step's input M = Z + Lam2/mu of the view, summed in place (the same
    bits, as addition commutes), so it allocates one n x n array."""
    M = state.Lam2[view] / state.mu
    M += state.Z[view]
    return M


def submit_u(state: SolverState, config: SolverConfig, view: int) -> SymmetricEigh | None:
    """The U-step's decomposition, ready to run: gram_eigh(M, hint) of
    M = u_input(...), hinted with the view's last clipped count. It owns M^T M
    and its buffers, not M. None at weight lambda2/mu = 0, where there is no prox."""
    if config.effective_lambda2 / state.mu == 0:
        return None
    return gram_eigh(u_input(state, view), state.clipped.get(view))


def update_u(state: SolverState, config: SolverConfig, view: int,
             started: SymmetricEigh | None) -> tuple[np.ndarray, float]:
    """Spectral-norm prox of M = u_input(...) at weight lambda2/mu, through
    ``started``, submit_u's decomposition: U and the objective's U term
    lambda2 * ||U||_2. The clipped count becomes the view's next hint. At weight
    0 it is the identity, with no prox."""
    M = u_input(state, view)
    if started is None:
        return M, 0.0
    U, norm, state.clipped[view] = prox_spectral_norm(M, config.effective_lambda2 / state.mu,
                                                      first=started)
    return U, config.effective_lambda2 * norm


def update_e(state: SolverState, dataset: MultiViewDataset, config: SolverConfig,
             view: int) -> tuple[np.ndarray, np.ndarray]:
    """Shrinkage of the residual R + Lam1/(k mu) at lambda3/(k mu), R = X - XZ,
    k the view's reconstruction weight: E and the reconstruction gap R - E at
    it, in data units, which update_multipliers takes."""
    X = dataset.views[view].values
    R = X - X @ state.Z[view]
    kmu = state.kappa[view] * state.mu
    E = soft_threshold(R + state.Lam1[view] / kmu, config.lambda3 / kmu)
    return E, R - E


def update_w(state: SolverState, dataset: MultiViewDataset, config: SolverConfig,
             view: int) -> tuple[np.ndarray, float]:
    """Feature weights inversely proportional to each feature's graph energy, and
    the objective's distance term sum_ij A_ij sum_k w_k^2 (x_ki - x_kj)^2 at them.

    y_k = [X L_A X^T]_kk measures how much feature k varies across the
    learned graph's edges; minimizing sum_k w_k^2 y_k on the simplex gives
    w_k proportional to 1/y_k; a constant feature gets weight 0, and a view
    of constant features only keeps its weights. The distance term is
    2 sum_k w_k^2 y_k, so the ablation modes, which freeze w, still compute y.
    L_A is not formed: y = (Y o Y) deg - rowsum((Y A) o Y), deg the mean of A's
    column and row sums, Y the feature rows centered, which as L_A 1 = 0 leaves
    y unchanged and keeps a large offset from cancelling digits.
    """
    X, A = dataset.views[view].values, state.A[view]
    Y = X - X.mean(axis=1, keepdims=True)
    deg = 0.5 * (A.sum(axis=0) + A.sum(axis=1))
    y = (Y * Y) @ deg - ((Y @ A) * Y).sum(axis=1)
    w = state.w[view]
    varies = np.ptp(X, axis=1) > 0
    if config.learn_weights and varies.any():
        inv = np.where(varies, 1.0 / np.maximum(y, 1e-12), 0.0)
        w = inv / inv.sum()
    return w, 2.0 * float((w * w) @ y)


def _max_abs(M: np.ndarray) -> float:
    """max |m| over M, from its max and min, without an |M| array."""
    return float(max(abs(M.max()), abs(M.min())))


def update_multipliers(state: SolverState, view: int,
                       recon_gap: np.ndarray) -> tuple[float, float, float]:
    """Dual ascent on the view's three constraint gaps: ``recon_gap`` (update_e's
    X - XZ - E, scaled in place) at step size k mu, k the view's reconstruction
    weight, Z - U at mu and Z - A at b mu, b the Z = A weight. Each multiplier in
    ``state`` steps in place, with the bits of lam + step * gap. Returns the gaps'
    max-abs entries (r_recon, r_u, r_a), in data units."""
    Z, mu = state.Z[view], state.mu

    def step(lam: np.ndarray, gap: np.ndarray, size: float) -> float:
        norm = _max_abs(gap)
        gap *= size
        lam += gap
        return norm

    return (step(state.Lam1[view], recon_gap, state.kappa[view] * mu),
            step(state.Lam2[view], Z - state.U[view], mu),
            step(state.Lam3[view], Z - state.A[view], state.beta * mu))


def step_mu(mu: float, config: SolverConfig, q_sin: float, gaps) -> float:
    """The penalty after ``mu``: min(rho^2 mu, mu_max) once the embedding has
    settled, ``q_sin`` (``subspace_sin`` of the last two embeddings) below
    ``SETTLED_SIN_TAU``, while the reconstruction gap is the largest of ``gaps``
    (r_recon, r_u, r_a); min(rho mu, mu_max) otherwise."""
    rho = config.rho
    if q_sin < SETTLED_SIN_TAU and gaps[0] >= max(gaps[1], gaps[2]):
        rho *= config.rho
    return min(rho * mu, config.mu_max)


def evaluate_objective(state: SolverState, config: SolverConfig, view_terms: list[float],
                       eigenvalue_sum: float) -> float:
    """Model objective in O(d n) from the terms the blocks returned: ``view_terms[v]``
    is view v's distance term (update_w) plus its U term lambda2 ||U_v||_2 (update_u);
    the embedding term sum_v lambda1 sum_ij A_v,ij ||q_i - q_j||^2 is 2 lambda1 times
    update_q's ``eigenvalue_sum``; the sparse-error term is read off E."""
    return (sum(view_terms) + 2.0 * config.lambda1 * eigenvalue_sum
            + config.lambda3 * sum(float(np.abs(E).sum()) for E in state.E))


@one_blas_thread()
def solve(dataset: MultiViewDataset, config: SolverConfig) -> ClusteringResult:
    """Run the full alternating scheme and label the samples by k-means on Q.

    Per outer iteration each view updates Z, A, U, E, w and its multipliers,
    then the shared Q is refreshed and the penalty grows (``step_mu``, from the
    iteration's gaps and the last two embeddings that have landed, so the rule
    never waits for the Q-step in flight). Stops when every
    constraint gap falls below ``config.tol`` or after ``config.max_iter``
    iterations. Deterministic for a fixed config and data. The fused
    similarity's Laplacian is (1/V) sum_v L(A_v): its bottom eigenvectors span Q.

    Schedule: two lanes, with the bits of running the steps in that order. The
    calling thread runs every numpy step and makes every allocation; one worker
    thread, alive for the call, runs only the dsyevr calls that solve starts
    (``on_worker``), in the order started. A block moves only past blocks that
    neither read nor write what it reads or writes:
    - view v's U-step decomposition (submit_u, after Z_v) runs beside A_v, E_v,
      w_v and Z_{v+1}, and view v + 1's is started before update_u waits for
      view v's; update_u forms M again, as no block in between writes Z_v,
      Lam2_v or mu;
    - the Q-step's decomposition (submit_q, after the last A-step) runs beside
      the last view's E-, w-, U- and multiplier steps and the next iteration's
      first Z-step, as the next A-step is the first block that reads Q; the
      iteration's trace row is made after that Z-step, from its own E and terms.

    Lifetime rule: each per-view n x n matrix of the state is dropped (set to
    None) at its last read, never kept to its next write: the old U_v after
    Z_v, the old A_v before update_a, Z_v after view v's multiplier step. Only
    the multiplier step writes into an array of the state. So between blocks
    the loop holds per view A, U, Lam2 and Lam3, at most two Z's and two U-step
    decompositions (M^T M and its buffers each); after the loop only A, Q and
    w are kept, for k-means and the fused graph.

    numpy's OpenBLAS runs at 1 thread for the call unless the user set a count
    (``one_blas_thread``): beside the worker, more threads oversubscribe the cores.
    """
    state = initialize(dataset, config)
    last = state.n_views - 1
    rows: list[tuple[float, ...]] = []
    converged = False
    view_terms, gaps = [0.0] * state.n_views, [None] * state.n_views
    q_step, row_tail = None, ()  # the Q-step in flight and its iteration's gaps and mu
    q_sin = np.inf  # subspace_sin of the last two embeddings that have landed

    def on_worker(decomposition: SymmetricEigh | None) -> SymmetricEigh | None:
        if decomposition is not None:  # submit_u's None at weight 0 has no LAPACK call
            decomposition.start(pool)
        return decomposition

    def start_view(v: int) -> SymmetricEigh | None:
        state.Z[v] = update_z(state, dataset, v)
        state.U[v] = None
        return on_worker(submit_u(state, config, v))

    def close_iteration() -> None:
        nonlocal q_sin
        Q, eig_sum = update_q(q_step)
        q_sin = subspace_sin(state.Q, Q)
        state.Q = Q
        rows.append((evaluate_objective(state, config, view_terms, eig_sum), *row_tail, q_sin))

    with ThreadPoolExecutor(max_workers=1) as pool:
        for _ in range(config.max_iter):
            started = start_view(0)
            if q_step is not None:
                close_iteration()
            for v in range(state.n_views):
                state.A[v] = None
                state.A[v] = update_a(state, dataset, config, v)
                if v == last:
                    q_step = on_worker(submit_q(state.A, config.n_clusters))
                state.E[v], recon_gap = update_e(state, dataset, config, v)
                state.w[v], view_terms[v] = update_w(state, dataset, config, v)
                upcoming = start_view(v + 1) if v < last else None
                state.U[v], u_term = update_u(state, config, v, started)
                started = upcoming  # frees view v's eigenvectors before the multipliers
                view_terms[v] += u_term
                gaps[v] = update_multipliers(state, v, recon_gap)
                state.Z[v] = None
            worst = np.max(gaps, axis=0)  # r_recon, r_u, r_a: each gap's maximum over the views
            row_tail = (*worst, state.mu)
            if worst.max() < config.tol:
                converged = True
                break
            state.mu = step_mu(state.mu, config, q_sin, worst)
        if q_step is not None:
            close_iteration()

    A, Q, weights = state.A, state.Q, state.w
    del state  # the rest of the state goes before k-means and the fused graph
    width = len(fields(ConvergenceTrace))
    trace = ConvergenceTrace(*np.array(rows, dtype=float).reshape(-1, width).T)
    labels = kmeans(Q, config.n_clusters, seed=config.seed)
    return ClusteringResult(labels=labels, Q=Q, fused_similarity=fuse_similarity(A),
                            weights=weights, trace=trace, converged=converged)
