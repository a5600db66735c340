"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive (enumeration, double loops, generic
optimizers) and shares no code path with the implementations under test.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np


def simplex_qp_enumerate(v: np.ndarray, excluded: int) -> np.ndarray:
    """Global minimizer of ||a - v||^2 on the simplex with a[excluded] = 0,
    by enumerating every support set and solving the equality-constrained
    least squares on it, keeping the feasible minimum."""
    v = np.asarray(v, dtype=float)
    n = v.size
    free = [j for j in range(n) if j != excluded]
    best, best_val = None, np.inf
    for r in range(1, len(free) + 1):
        for support in itertools.combinations(free, r):
            s = list(support)
            eta = (1.0 - v[s].sum()) / r
            a = np.zeros(n)
            a[s] = v[s] + eta
            if np.all(a[s] >= -1e-12):
                val = float(((a - v) ** 2).sum())
                if val < best_val:
                    best_val, best = val, np.maximum(a, 0.0)
    return best


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {x : ||x||_1 <= radius},
    by water-filling: theta is the last (sum of the j largest - radius) / j
    that stays below the j-th largest entry. The spectral-norm prox shrinks
    singular values s to s - project_l1_ball(s, t)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float).ravel()
    if v.sum() <= radius:
        return v.copy()
    if radius == 0:
        return np.zeros_like(v)
    top = sorted(v.tolist(), reverse=True)
    theta = 0.0
    for j in range(1, len(top) + 1):
        level = (sum(top[:j]) - radius) / j
        if top[j - 1] > level:
            theta = level
    return np.maximum(v - theta, 0.0)


def augmented_lagrangian(state, dataset, config) -> float:
    """The augmented Lagrangian at ``state``, from its definition: per view,
    sum_ij A_ij (sum_k w_k^2 (x_ki - x_kj)^2 + lambda1 ||q_i - q_j||^2)
    + lambda2 ||U||_2 + lambda3 ||E||_1 (lambda2 as the ablation applies it),
    plus <Lam, gap> + (p/2) ||gap||_F^2
    for the gaps X - XZ - E at p = kappa_v mu, Z - U at p = mu and Z - A at
    p = beta mu, with kappa_v the state's reconstruction weight of view v and
    beta its Z = A weight. Distances are formed from explicit pairwise
    differences. Every block update must not increase it."""
    Q = state.Q
    embed = ((Q[:, None, :] - Q[None, :, :]) ** 2).sum(axis=2)
    total = 0.0
    for v, view in enumerate(dataset.views):
        X, Z = view.values, state.Z[v]
        diff = (X[:, :, None] - X[:, None, :]) * state.w[v][:, None, None]
        feature = (diff ** 2).sum(axis=0)
        total += float((state.A[v] * (feature + config.lambda1 * embed)).sum())
        total += config.effective_lambda2 * float(np.linalg.norm(state.U[v], 2))
        total += config.lambda3 * float(np.abs(state.E[v]).sum())
        for lam, gap, weight in ((state.Lam1[v], X - X @ Z - state.E[v], state.kappa[v]),
                                 (state.Lam2[v], Z - state.U[v], 1.0),
                                 (state.Lam3[v], Z - state.A[v], state.beta)):
            total += (float((lam * gap).sum())
                      + 0.5 * weight * state.mu * float((gap * gap).sum()))
    return total


def z_step_system(state, dataset, view) -> tuple[np.ndarray, np.ndarray]:
    """The Z-step's normal equation at ``state``'s penalty weights, as the matrix
    kappa X^T X + (1 + beta) I and the right-hand side
    X^T (kappa (X - E) + Lam1/mu) + U - Lam2/mu + beta A - Lam3/mu, each term
    written out, with kappa the view's reconstruction weight and beta the
    Z = A weight: setting the augmented Lagrangian's gradient in Z to zero."""
    X, mu = dataset.views[view].values, state.mu
    kappa, beta = state.kappa[view], state.beta
    rhs = (X.T @ (kappa * (X - state.E[view]) + state.Lam1[view] / mu)
           + state.U[view] - state.Lam2[view] / mu
           + beta * state.A[view] - state.Lam3[view] / mu)
    return kappa * X.T @ X + (1.0 + beta) * np.eye(X.shape[1]), rhs


def pair_counts_loop(truth, pred) -> tuple[int, int, int]:
    """(TP, FP, FN) by looping over all unordered sample pairs."""
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    tp = fp = fn = 0
    n = truth.size
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            if same_t and same_p:
                tp += 1
            elif same_p:
                fp += 1
            elif same_t:
                fn += 1
    return tp, fp, fn


def ari_from_pairs(truth, pred) -> float:
    """Adjusted Rand index computed from the raw pair loop."""
    truth = np.asarray(truth).ravel()
    n = truth.size
    tp, fp, fn = pair_counts_loop(truth, pred)
    total = n * (n - 1) // 2
    same_t = tp + fn
    same_p = tp + fp
    expected = same_t * same_p / total
    denom = 0.5 * (same_t + same_p) - expected
    if denom == 0:
        return 1.0
    return (tp - expected) / denom


def accuracy_exhaustive(truth, pred) -> float:
    """Best-match accuracy by trying every assignment of pred clusters to
    truth clusters (padded to a square problem)."""
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    t_vals = sorted(set(truth.tolist()))
    p_vals = sorted(set(pred.tolist()))
    k = max(len(t_vals), len(p_vals))
    counts = np.zeros((k, k), dtype=int)
    for t, p in zip(truth, pred):
        counts[t_vals.index(t), p_vals.index(p)] += 1
    best = 0
    for perm in itertools.permutations(range(k)):
        best = max(best, sum(counts[perm[j], j] for j in range(k)))
    return best / truth.size


def knn_by_stable_sort(D: np.ndarray, k: int) -> np.ndarray:
    """Row-stochastic kNN graph from a distance matrix: row i puts 1/k on the
    first k other samples of a stable argsort of its distances, so ties go
    to the lower index."""
    D = np.array(D, dtype=float)
    n = D.shape[0]
    np.fill_diagonal(D, np.inf)
    A = np.zeros((n, n))
    for i in range(n):
        A[i, np.argsort(D[i], kind="stable")[:k]] = 1.0 / k
    return A


def nmi_direct(truth, pred) -> float:
    """NMI (geometric normalization) via Counter-based entropies."""
    truth = [int(x) for x in np.asarray(truth).ravel()]
    pred = [int(x) for x in np.asarray(pred).ravel()]
    n = len(truth)
    ct = Counter(truth)
    cp = Counter(pred)
    cj = Counter(zip(truth, pred))

    def entropy(counter):
        return -sum((c / n) * math.log(c / n) for c in counter.values())

    h_t, h_p = entropy(ct), entropy(cp)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = sum(
        (c / n) * math.log(n * c / (ct[t] * cp[p]))
        for (t, p), c in cj.items()
    )
    return max(mi, 0.0) / math.sqrt(h_t * h_p)


def spectral_norm_via_gram(M: np.ndarray) -> float:
    """Largest singular value through the Gram matrix eigenvalues."""
    M = np.asarray(M, dtype=float)
    return float(np.sqrt(max(np.linalg.eigvalsh(M.T @ M).max(), 0.0)))


def random_orthonormal(n: int, c: int, rng: np.random.Generator) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((n, c)))
    return Q


def random_row_stochastic_zero_diag(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(A, 0.0)
    return A / A.sum(axis=1, keepdims=True)
