"""Alternating-direction augmented-Lagrangian solver for the joint model.

The model couples, per view, a nonnegative row-stochastic local graph A
learned from featurewise-weighted distances, a self-representation matrix
Z with sparse error E (X = XZ + E), a spectral-norm-bounded auxiliary U,
and a feature weight vector w on the probability simplex; all views share
one spectral embedding Q. The solver alternates exact block minimizers of
the augmented Lagrangian with dual ascent on the three constraint gaps
(X - XZ - E, Z - U, Z - A) under a geometrically growing penalty; the
E-step hands over the reconstruction gap, so XZ is formed once per view and
iteration. The U-steps' and the Q-step's LAPACK calls run on one worker
thread, in the order they were started, while the calling thread runs the
blocks that do not wait for them (see ``solve``).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weights, penalty schedule, and run controls.

    lambda1 weighs the shared-embedding consistency term, lambda2 the
    spectral norm of U, lambda3 the sparse reconstruction error. The
    penalty grows as mu <- min(rho * mu, mu_max) once per outer iteration.
    """

    n_clusters: int
    lambda1: float = 1e-3
    lambda2: float = 0.1
    lambda3: float = 0.1
    mu0: float = 1e-2
    rho: float = 1.2
    mu_max: float = 1e6
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

    Lists are indexed by view. ``z_factor`` holds per view the n x r factor
    W = V diag(s / sqrt(s^2 + 2)), r = min(d, n), of the thin SVD
    X = P diag(s) V^T, so that (X^T X + 2I)^-1 = (I - W W^T) / 2; it depends
    only on the data, never on iterates, and no n x n inverse is stored.
    ``clipped`` maps a view to how many singular values its last U-step
    prox clipped, the next prox's hint; a view has no entry before its first.
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
    z_factor: list[np.ndarray] = field(default_factory=list, repr=False)
    clipped: dict[int, int] = field(default_factory=dict)

    @property
    def n_views(self) -> int:
        return len(self.Z)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration objective value, constraint gaps (max-abs entry), and penalty."""

    objective: np.ndarray
    r_recon: np.ndarray
    r_u: np.ndarray
    r_a: np.ndarray
    mu: np.ndarray

    def __len__(self) -> int:
        return self.objective.size

    def write_csv(self, path) -> None:
        names = [f.name for f in fields(self)]
        columns = [np.arange(len(self)), *(getattr(self, name) for name in names)]
        write_csv(path, np.column_stack(columns), fmt=["%d"] + ["%.17g"] * len(names),
                  header=",".join(["iteration", *names]))


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray
    Q: np.ndarray
    fused_similarity: np.ndarray
    weights: list[np.ndarray]
    trace: ConvergenceTrace
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.trace)


def z_step_factors(dataset: MultiViewDataset) -> list[np.ndarray]:
    """The Z-step factor W = V diag(s / sqrt(s^2 + 2)) per view, n x min(d, n).

    From the thin SVD X = P diag(s) V^T, X^T X + 2I has eigenvalue s^2 + 2 on
    V's columns and 2 on their complement, so its inverse is
    (I - W W^T) / 2. One code path serves d < n and d >= n, and a
    rank-deficient X only adds zero columns to W.
    """
    factors = []
    for view in dataset.views:
        _, s, Vt = np.linalg.svd(view.values, full_matrices=False)
        factors.append(Vt.T * (s / np.sqrt(s * s + 2.0)))
    return factors


_MEMORY_LIMIT_FILES = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _memory_budget() -> int | None:
    """Bytes the process may still allocate: MemAvailable from /proc/meminfo,
    or the cgroup memory limit when that is lower; None when neither is readable."""
    budgets = []
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    budgets.append(int(line.split()[1]) * 1024)
                    break
    except (OSError, ValueError):
        pass
    for path in _MEMORY_LIMIT_FILES:
        try:
            with open(path, encoding="ascii") as fh:
                budgets.append(int(fh.read()))  # "max" (no limit) fails int()
        except (OSError, ValueError):
            pass
    return min(budgets) if budgets else None


def _dense_bytes(dataset: MultiViewDataset) -> int:
    """Bytes a solve holds at its peak: the dense state, E and Lam1, and scratch.

    The state holds, per view, five n x n float64 matrices (Z, A, U, Lam2,
    Lam3) and the n x min(d, n) Z-step factor: 8 n (5 n + min(d, n)) bytes.
    Beside it a solve holds, per view, the d x n blocks E and Lam1, and one
    view's per-iteration scratch at a time: 6 n^2 + 5 n max(d) values. The
    scratch figure bounds the peak of a whole solve as tracemalloc measured
    it, less the state, E and Lam1, over all three ablation modes and 15
    iterations: 9.2 n^2 at n = 90, 8.1 n^2 at n = 120, 6.4 n^2 at n = 180,
    4.2 n^2 at n = 300 and 3.8 n^2 at n = 600 for views of d <= 30, and
    6 n^2 plus up to 5.0 n d for views of d = 200 and 600 at n = 60. Its
    largest part is the U-step's: while update_u thresholds view v, view
    v + 1's M^T M and eigenvectors are alive beside view v's M, eigenvectors
    and result. The eigenvectors are the top partial_k(n), and n x n only when
    the prox takes the full spectrum, after a miss or a hint past
    partial_k(n); that happened in the first iterations at n = 90 to 180,
    where it set the 6 n^2, while at n >= 300 every call was partial. A fixed
    128 KiB covers the allocations that do not grow with n or d, which
    dominate at small n: 15 iterations in a fresh interpreter, on views of
    d = 4 and 5, peaked up to 84, 101 and 116 KB above the rest of the figure
    at n = 30, 45 and 60, and 67 KB at n = 6.
    """
    n = dataset.n_samples
    dims = [view.n_features for view in dataset.views]
    state = 8 * n * sum(5 * n + min(d, n) for d in dims)
    return state + 8 * n * (2 * sum(dims) + 6 * n + 5 * max(dims)) + 128 * 1024


def initialize(dataset: MultiViewDataset, config: SolverConfig) -> SolverState:
    """Starting point: kNN graphs for Z = A = U, zero E and multipliers,
    uniform feature weights, and Q from the Laplacian of the summed initial graphs.

    When what a solve holds at its peak (``_dense_bytes``) exceeds
    ``_memory_budget()``, this raises ValueError before allocating any n x n matrix.
    """
    n = dataset.n_samples
    if not 1 <= config.k_init <= n - 1:
        raise ValueError(f"k_init must be in [1, {n - 1}], got {config.k_init}")
    if config.n_clusters > n:
        raise ValueError(f"n_clusters {config.n_clusters} exceeds sample count {n}")
    needed, budget = _dense_bytes(dataset), _memory_budget()
    if budget is not None and needed > budget:
        raise ValueError(f"n = {n} samples need {needed} bytes of dense solver state and "
                         f"per-iteration scratch, more than the {budget} bytes of memory "
                         "available")

    Z, A, U, E, Lam1, Lam2, Lam3, w = [], [], [], [], [], [], [], []
    for view in dataset.views:
        graph = knn_affinity(view.values, config.k_init)
        Z.append(graph.copy())
        A.append(graph.copy())
        U.append(graph.copy())
        E.append(np.zeros_like(view.values))
        Lam1.append(np.zeros_like(view.values))
        Lam2.append(np.zeros((n, n)))
        Lam3.append(np.zeros((n, n)))
        w.append(np.full(view.n_features, 1.0 / view.n_features))
    Q, _ = update_q(submit_q(A, config.n_clusters))

    return SolverState(Z=Z, A=A, U=U, E=E, Lam1=Lam1, Lam2=Lam2, Lam3=Lam3,
                       w=w, Q=Q, mu=config.mu0, z_factor=z_step_factors(dataset))


def update_z(state: SolverState, dataset: MultiViewDataset, view: int) -> np.ndarray:
    """Closed-form ridge system (X^T X + 2I) Z = R with R = X^T V1 + V2 + V3.

    V1 = X - E + Lam1/mu, V2 = U - Lam2/mu, V3 = A - Lam3/mu; R is summed in
    place. The solution (R - W (W^T R)) / 2 uses the view's cached factor W
    (``z_step_factors``): two thin products, O(min(d, n) n^2).
    """
    X = dataset.views[view].values
    W = state.z_factor[view]
    mu = state.mu
    rhs = X.T @ (X - state.E[view] + state.Lam1[view] / mu)
    rhs += state.U[view]
    rhs += state.A[view]
    rhs -= (state.Lam2[view] + state.Lam3[view]) / mu
    rhs -= W @ (W.T @ rhs)
    rhs *= 0.5
    return rhs


def update_a(state: SolverState, dataset: MultiViewDataset, config: SolverConfig,
             view: int) -> np.ndarray:
    """Row-wise simplex projection, a_ii pinned to 0, of Z + (Lam3 - D)/mu, where the
    edge cost D_ij = sum_k w_k^2 (x_ki - x_kj)^2 + lambda1 ||q_i - q_j||^2 is what
    sum(D * A), the distance plus embedding term, charges for A. The projection's
    input is built in D's own buffer, with no second n x n array."""
    X, Q = dataset.views[view].values, state.Q
    # one weighted distance matrix over X stacked on Q^T, whose rows take weight sqrt(lambda1)
    weights = np.concatenate([state.w[view], np.full(Q.shape[1], np.sqrt(config.lambda1))])
    D = weighted_sq_distances(np.vstack([X, Q.T]), weights)
    np.subtract(state.Lam3[view], D, out=D)
    D /= state.mu
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
    """The U-step's first decomposition, ready to run: gram_eigh(M, hint) of
    M = u_input(...), with the view's last clipped count as the hint (none before
    the view's first prox, so it takes the top partial_k(n)). M is dropped on
    return: the decomposition holds only M^T M and its buffers. At weight
    lambda2/mu = 0 there is no prox, and the decomposition is None."""
    if config.effective_lambda2 / state.mu == 0:
        return None
    return gram_eigh(u_input(state, view), state.clipped.get(view))


def update_u(state: SolverState, config: SolverConfig, view: int,
             started: SymmetricEigh | None) -> tuple[np.ndarray, float]:
    """Spectral-norm proximal step on M = Z + Lam2/mu at weight lambda2/mu: U and the
    objective's U term lambda2 * ||U||_2. At weight 0 it is the identity, with no prox.
    ``started`` is submit_u's first decomposition; M is formed again here by
    u_input, with the same bits, as Z, Lam2 and mu do not change in between. The
    prox's clipped count becomes the view's next hint."""
    M = u_input(state, view)
    if started is None:
        return M, 0.0
    U, norm, state.clipped[view] = prox_spectral_norm(M, config.effective_lambda2 / state.mu,
                                                      first=started)
    return U, config.effective_lambda2 * norm


def update_e(state: SolverState, dataset: MultiViewDataset, config: SolverConfig,
             view: int) -> tuple[np.ndarray, np.ndarray]:
    """Shrinkage of the residual R + Lam1/mu at lambda3/mu, R = X - XZ: E and the
    reconstruction gap R - E at it, which update_multipliers takes."""
    X = dataset.views[view].values
    R = X - X @ state.Z[view]
    E = soft_threshold(R + state.Lam1[view] / state.mu, config.lambda3 / state.mu)
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
                       recon_gap: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[float, ...]]:
    """Dual ascent at step size mu on the three constraint gaps: ``recon_gap``,
    X - XZ - E as update_e returned it, and Z - U and Z - A formed here. Returns
    the new (Lam1, Lam2, Lam3) and the gaps' max-abs entries (r_recon, r_u, r_a).
    Each n x n gap becomes its new multiplier in place."""
    Z, mu = state.Z[view], state.mu
    lams, norms = [state.Lam1[view] + mu * recon_gap], [_max_abs(recon_gap)]
    for block, lam in ((state.U[view], state.Lam2[view]), (state.A[view], state.Lam3[view])):
        gap = Z - block
        norms.append(_max_abs(gap))
        gap *= mu
        gap += lam
        lams.append(gap)
    return tuple(lams), tuple(norms)


def step_mu(state: SolverState, config: SolverConfig) -> float:
    """Geometric penalty growth, saturating at mu_max."""
    return min(config.rho * state.mu, config.mu_max)


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

    Per outer iteration, each view updates Z, A, U, E, w and its
    multipliers; then the shared Q is refreshed and the penalty grows.
    Stops when all constraint gaps fall below ``config.tol`` or the
    iteration budget runs out. Deterministic for a fixed config and data.
    The fused similarity's Laplacian is (1/V) sum_v L(A_v): its bottom eigenvectors span Q.

    The work runs in two lanes, with the same bits as that order. The calling
    thread runs every numpy step and makes every allocation; one worker thread
    runs only LAPACK calls, in the order they were started. submit_u and
    submit_q return their decompositions ready to run, and only solve starts
    each one's dsyevr call on the worker (``on_worker``). Each block is
    moved only past blocks that neither read nor write what it reads or
    writes:
    - the U-step's decomposition of view v (submit_u, after Z_v) runs beside
      A_v, E_v, w_v and Z_{v+1}, whose decomposition is started before
      update_u waits for view v's, so the worker goes on to it at once. A
      decomposition in flight holds only M^T M and its buffers: update_u
      forms M again from Z_v, Lam2_v and mu, which no block in between
      writes, so at most one view's M is alive;
    - the Q-step's decomposition (submit_q, after the last A-step, as the A's
      are its only input) runs beside the last view's E-, w-, U- and
      multiplier steps and the next iteration's first Z-step, as the next
      A-step is the first block that reads Q. Only then is the iteration's
      trace row made: E and the objective terms are still its own.
    The worker lives for the call. So does a thread count of 1 for numpy's
    OpenBLAS, unless the user set one (``one_blas_thread``): beside the worker,
    more threads only oversubscribe the cores, and 1 was faster on 2 cores at
    every size measured, n = 300 to 1200.
    """
    state = initialize(dataset, config)
    last = state.n_views - 1
    rows: list[tuple[float, ...]] = []
    converged = False
    view_terms, gaps = [0.0] * state.n_views, [None] * state.n_views
    q_step, row_tail = None, ()  # the Q-step in flight and its iteration's gaps and mu

    def on_worker(decomposition: SymmetricEigh | None) -> SymmetricEigh | None:
        if decomposition is not None:  # submit_u's None at weight 0 has no LAPACK call
            decomposition.start(pool)
        return decomposition

    def close_iteration() -> None:
        state.Q, eig_sum = update_q(q_step)
        rows.append((evaluate_objective(state, config, view_terms, eig_sum), *row_tail))

    with ThreadPoolExecutor(max_workers=1) as pool:
        for _ in range(config.max_iter):
            state.Z[0] = update_z(state, dataset, 0)
            started = on_worker(submit_u(state, config, 0))
            if q_step is not None:
                close_iteration()
            for v in range(state.n_views):
                state.A[v] = update_a(state, dataset, config, v)
                if v == last:
                    q_step = on_worker(submit_q(state.A, config.n_clusters))
                state.E[v], recon_gap = update_e(state, dataset, config, v)
                state.w[v], view_terms[v] = update_w(state, dataset, config, v)
                upcoming = None
                if v < last:
                    state.Z[v + 1] = update_z(state, dataset, v + 1)
                    upcoming = on_worker(submit_u(state, config, v + 1))
                state.U[v], u_term = update_u(state, config, v, started)
                started = upcoming  # frees view v's eigenvectors before the multipliers
                view_terms[v] += u_term
                lams, gaps[v] = update_multipliers(state, v, recon_gap)
                state.Lam1[v], state.Lam2[v], state.Lam3[v] = lams
            worst = np.max(gaps, axis=0)  # r_recon, r_u, r_a: each gap's maximum over the views
            row_tail = (*worst, state.mu)
            if worst.max() < config.tol:
                converged = True
                break
            state.mu = step_mu(state, config)
        if q_step is not None:
            close_iteration()

    width = len(fields(ConvergenceTrace))
    trace = ConvergenceTrace(*np.array(rows, dtype=float).reshape(-1, width).T)
    labels = kmeans(state.Q, config.n_clusters, seed=config.seed)
    return ClusteringResult(labels=labels, Q=state.Q, fused_similarity=fuse_similarity(state.A),
                            weights=[w.copy() for w in state.w], trace=trace,
                            converged=converged)
