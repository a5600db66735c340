"""Spectral embedding, deterministic k-means, and the concatenated-view baseline."""

from __future__ import annotations

import numpy as np

from .data import MultiViewDataset
from .graph_ops import gaussian_affinity, laplacian
from .prox_ops import SymmetricEigh

KMEANS_RESTARTS = 10
LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-9  # stop once inertia falls by at most this fraction


def smallest_eigvecs(L: np.ndarray, c: int) -> SymmetricEigh:
    """The decomposition, ready to run, for the c smallest eigenvalues of L,
    ascending, and their orthonormal eigenvectors: calling it returns
    ``(values, Q)``. Its one dsyevr call works on an F-ordered copy of L's lower
    triangle, made here with the checks, so the caller's L is left intact. The
    columns carry LAPACK's signs; the solver's Q-step fixes them (``update_q``).
    """
    L = np.array(L, dtype=float, order="F")
    n = L.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"c must be in [1, {n}], got {c}")
    return SymmetricEigh(L, 0, c - 1)


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centers[i] = points[idx]
        closest = np.minimum(closest, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations from given centers; returns (labels, centers, inertia history).

    An empty cluster is reseeded at the point farthest from its current
    center, which strictly decreases inertia, so the history stays monotone.
    """
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    history: list[float] = []
    labels = np.zeros(n, dtype=int)
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=k)
        assign_d = d2[np.arange(n), labels].copy()
        for j in np.flatnonzero(counts == 0):
            # donor must keep at least one member so the repair cannot cascade
            cand = np.where(counts[labels] > 1, assign_d, -1.0)
            farthest = int(np.argmax(cand))
            counts[labels[farthest]] -= 1
            counts[j] += 1
            labels[farthest] = j
            centers[j] = points[farthest]
            assign_d[farthest] = 0.0
        history.append(float(assign_d.sum()))
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
        if len(history) >= 2 and history[-2] - history[-1] <= LLOYD_TOL * max(history[-2], 1e-300):
            break
    return labels, centers, history


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means with distance-weighted seeding and best-of-restarts selection.

    Deterministic for a fixed seed; restart ties keep the earlier restart.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    best_labels = None
    best_inertia = np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _plusplus_init(points, k, rng)
        labels, _, history = lloyd(points, centers)
        if history[-1] < best_inertia:
            best_inertia = history[-1]
            best_labels = labels
    return best_labels


def ncut_baseline(dataset: MultiViewDataset, c: int, seed: int,
                  ratio_cut: bool = False) -> np.ndarray:
    """Single-graph spectral clustering of the feature-wise concatenated views.

    Affinity is the unit-bandwidth Gaussian kernel. The default pipeline is
    the normalized-cut one: symmetric normalized Laplacian, c smallest
    eigenvectors, unit-length rows, k-means. ``ratio_cut`` switches to the
    unnormalized Laplacian without row normalization.
    """
    X = np.vstack([v.values for v in dataset.views])
    S = gaussian_affinity(X, sigma=1.0)
    if ratio_cut:
        L = laplacian(S)
        _, Q = smallest_eigvecs(L, c)()
    else:
        deg = S.sum(axis=1)
        inv_sqrt = np.zeros_like(deg)
        nz = deg > 0
        inv_sqrt[nz] = deg[nz] ** -0.5
        # zero-degree samples keep an identity row in L
        L = np.eye(S.shape[0]) - (inv_sqrt[:, None] * S) * inv_sqrt[None, :]
        L = 0.5 * (L + L.T)
        _, Q = smallest_eigvecs(L, c)()
        norms = np.linalg.norm(Q, axis=1, keepdims=True)
        Q = np.divide(Q, norms, out=Q.copy(), where=norms > 0)
    return kmeans(Q, c, seed=seed)
