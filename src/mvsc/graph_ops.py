"""Graph-side primitives: affinities, Laplacians, and similarity fusion.

Dense matrices throughout; sample counts stay in the low thousands, so
sparse storage buys nothing here. Every distance matrix comes from
``pairwise_sq_distances``.
"""

from __future__ import annotations

import numpy as np


def laplacian(graph: np.ndarray) -> np.ndarray:
    """Unnormalized graph Laplacian D - (G + G^T)/2 of a (possibly asymmetric) graph.

    D is the degree matrix of the symmetrized graph, so the output is
    symmetric with zero row sums and is positive semidefinite whenever the
    symmetrized weights are nonnegative.
    """
    G = np.asarray(graph, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"graph must be square, got shape {G.shape}")
    # built in place as -sym plus the degrees on the diagonal: the same
    # bits as diag(deg) - sym, without a second n x n matrix
    L = G + G.T
    L *= -0.5
    L.flat[:: L.shape[0] + 1] -= L.sum(axis=1)
    return L


def pairwise_sq_distances(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of X (d x n).

    One Gram product, O(d n^2) in BLAS: g_i + g_j - 2 y_i^T y_j, where Y is
    X with each feature row centered, so that a large common offset cancels
    no digits. D is exactly symmetric (numpy forms Y^T Y as a symmetric
    product), with a zero diagonal. Entries at or below the rounding bound
    4 (d + 2) eps max(g) carry no significant digit and are set to 0, which
    clamps D at 0 and puts exact duplicates exactly 0 apart.
    """
    X = np.asarray(X, dtype=float)
    Y = X - X.mean(axis=1, keepdims=True)
    Y *= np.sqrt(2.0)
    G = Y.T @ Y
    g = 0.5 * np.diag(G)
    D = g[:, None] + g[None, :]
    D -= G
    D[D <= 4 * (X.shape[0] + 2) * np.finfo(float).eps * g.max(initial=0.0)] = 0.0
    np.fill_diagonal(D, 0.0)
    return D


def weighted_sq_distances(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Featurewise-weighted squared distances between columns of X.

    Entry (i, j) is sum_k w_k^2 (x_ki - x_kj)^2, i.e. the squared distance
    after scaling feature k by w_k.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float).ravel()
    if w.size != X.shape[0]:
        raise ValueError(f"weight length {w.size} does not match feature count {X.shape[0]}")
    if np.any(w < 0):
        raise ValueError("feature weights must be nonnegative")
    return pairwise_sq_distances(w[:, None] * X)


def fuse_similarity(Zs: list[np.ndarray]) -> np.ndarray:
    """Average the symmetrized absolute values of per-view coefficient matrices.

    Returns (1/n_v) sum_v (|Z_v| + |Z_v^T|)/2 with the diagonal forced to
    zero; self-similarity carries no information for spectral clustering.
    """
    if not Zs:
        raise ValueError("need at least one matrix to fuse")
    shape = np.asarray(Zs[0]).shape
    S = np.zeros(shape)
    for Z in Zs:
        Z = np.asarray(Z, dtype=float)
        if Z.shape != shape:
            raise ValueError(f"shape mismatch: {Z.shape} vs {shape}")
        A = np.abs(Z)
        S += 0.5 * (A + A.T)
    S /= len(Zs)
    np.fill_diagonal(S, 0.0)
    return S


def knn_affinity(X: np.ndarray, k: int) -> np.ndarray:
    """Row-stochastic k-nearest-neighbor affinity over the columns of X.

    Row i puts weight 1/k on the k nearest other samples by Euclidean
    distance and 0 elsewhere; distance ties break toward the lower sample
    index, so the k are those a stable sort of the row puts first, found by
    ``np.partition`` instead of a sort. Uniform weights keep every row
    summing to exactly 1.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    D = pairwise_sq_distances(X)
    np.fill_diagonal(D, np.inf)
    kth = np.partition(D, k - 1, axis=1)[:, k - 1 : k]
    closer = D < kth
    at_kth = D == kth
    places = k - closer.sum(axis=1, keepdims=True)
    chosen = closer | (at_kth & (np.cumsum(at_kth, axis=1) <= places))
    return chosen * (1.0 / k)


def gaussian_affinity(X: np.ndarray, sigma: float) -> np.ndarray:
    """Heat-kernel affinity exp(-||x_i - x_j||^2 / (2 sigma^2)) with zero diagonal."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    D = pairwise_sq_distances(np.asarray(X, dtype=float))
    A = np.exp(-D / (2.0 * sigma * sigma))
    np.fill_diagonal(A, 0.0)
    return A
