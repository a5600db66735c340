"""Projections and proximal operators used by the solver subproblems.

One sort-and-threshold rule (Duchi et al. 2008, projections onto the l1
ball) serves both projections: the row-batched simplex projection that pins
each row's own coordinate (the self-affinity) to zero, and the l1-ball
projection, through which the spectral-norm prox shrinks singular values.
Elementwise soft-thresholding is the prox of the l1 norm.

The spectral-norm prox changes only the singular values above its
threshold, so given a hint of how many that is it works from the top-k
eigenpairs of M^T M alone (the partial-SVD form of singular value
thresholding, Cai, Candes & Shen 2010). The threshold from the top k is
exact once the k-th value is at or below it; otherwise k doubles. Without a
hint, or once k passes n/4, where a partial decomposition stops paying, it
takes the full SVD.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def _sort_threshold(u: np.ndarray, total: float) -> np.ndarray:
    """Per row of the descending-sorted 2-D ``u``, the theta with
    sum(max(u - theta, 0)) = total; requires total > 0."""
    csum = np.cumsum(u, axis=1)
    j = np.arange(1, u.shape[1] + 1)
    active = u - (csum - total) / j > 0
    # last active position per row; the first is always active as total > 0
    last = u.shape[1] - 1 - np.argmax(active[:, ::-1], axis=1)
    return (csum[np.arange(u.shape[0]), last] - total) / (last + 1)


def _project_rows_simplex_zero_diag(V: np.ndarray) -> np.ndarray:
    """Project each row i of V onto the probability simplex with coordinate i
    pinned to 0: min_a ||a - v_i||^2 s.t. a >= 0, sum a = 1, a_i = 0, whose
    solution is a_j = max(v_ij - theta_i, 0) off the diagonal."""
    n = V.shape[0]
    Vf = V.copy()
    np.fill_diagonal(Vf, -np.inf)
    u = -np.sort(-Vf, axis=1)[:, : n - 1]
    A = np.maximum(V - _sort_threshold(u, 1.0)[:, None], 0.0)
    np.fill_diagonal(A, 0.0)
    return A


def soft_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise shrinkage sign(m) * max(|m| - tau, 0); prox of tau*||.||_1."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    M = np.asarray(M, dtype=float)
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {x : ||x||_1 <= radius}.

    Callers pass singular values, so no sign handling is needed.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float).ravel()
    if v.sum() <= radius:
        return v.copy()
    if radius == 0:
        return np.zeros_like(v)
    theta = _sort_threshold(np.sort(v)[None, ::-1], radius)[0]
    return np.maximum(v - theta, 0.0)


def prox_spectral_norm(M: np.ndarray, t: float,
                       k_hint: int | None = None) -> tuple[np.ndarray, float, int]:
    """Proximal map U of t*||.||_2 (largest singular value) at M, ||U||_2, and
    how many singular values it clipped.

    By Moreau decomposition against the nuclear-norm ball, the singular
    values shrink by their projection onto the l1 ball of radius t:
    M = P diag(s) Q^T maps to P diag(min(s, theta)) Q^T, where theta solves
    sum(max(s - theta, 0)) = t. The clipped values are those above theta, and
    ||U||_2 = theta when any is clipped. At weight 0 the prox is the
    identity, which callers handle without an SVD.

    ``k_hint`` (typically the previous call's clipped count) selects the
    top-k path: the k = k_hint + 2 largest eigenpairs of M^T M give s and Q,
    theta is computed from those k values, and the result is exact once the
    smallest of them is <= theta, since the rest then lie below theta too;
    otherwise k doubles. Then U = M - (M Q_a) diag(1 - theta/s_a) Q_a^T over
    the clipped set a. With no hint, once k passes n/4 (n = M's column
    count), or when the k values sum to at most t, it takes the full SVD.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    k = n if k_hint is None else k_hint + 2  # no hint: straight to the full SVD
    G = M.T @ M if 4 * k <= n else None
    while 4 * k <= n:
        lam, V = scipy.linalg.eigh(G, subset_by_index=(n - k, n - 1), driver="evr")
        s = np.sqrt(np.maximum(lam[::-1], 0.0))
        if s.sum() <= t:
            break
        theta = _sort_threshold(s[None, :], t)[0]
        if s[-1] <= theta:
            a = s > theta
            Va = V[:, ::-1][:, a]
            return M - ((M @ Va) * (1.0 - theta / s[a])) @ Va.T, float(theta), int(a.sum())
        k *= 2
    P, s, Qt = np.linalg.svd(M, full_matrices=False)
    shrink = project_l1_ball(s, t)
    s_new = s - shrink
    return (P * s_new) @ Qt, float(s_new[0]), int(np.count_nonzero(shrink))
