"""Projections and proximal operators used by the solver subproblems.

One sort-and-threshold rule (Duchi et al. 2008, projections onto the l1
ball) serves the row-batched simplex projection that pins each row's own
coordinate (the self-affinity) to zero, and the spectral-norm prox, which
thresholds singular values (Cai, Candes & Shen 2010) taken from one
eigendecomposition of M^T M: its top k eigenpairs, with the full spectrum
as k = n. Elementwise soft-thresholding is the prox of the l1 norm.
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


def prox_spectral_norm(M: np.ndarray, t: float,
                       k_hint: int | None = None) -> tuple[np.ndarray, float, int]:
    """Proximal map U of t*||.||_2 (largest singular value) at M, ||U||_2, and
    how many singular values it clipped.

    By Moreau decomposition against the nuclear-norm ball, the singular
    values shrink by their projection onto the l1 ball of radius t:
    M = P diag(s) Q^T maps to P diag(min(s, theta)) Q^T, where theta solves
    sum(max(s - theta, 0)) = t. The clipped values are those above theta, and
    ||U||_2 = theta when any is clipped. At weight 0 the prox is the
    identity, which callers handle without the prox.

    s and Q come from the k largest eigenpairs of G = M^T M: k = k_hint + 2
    (``k_hint`` is typically the previous call's clipped count), or k = n
    (M's column count) with no hint or once k passes n/4, where a partial
    decomposition stops paying. theta from the top k is exact once the k-th
    value is <= theta, since the rest then lie below theta too; otherwise k
    doubles, or becomes n when the k values sum to at most t. Then
    U = M - (M Q_a) diag(1 - theta/s_a) Q_a^T over the clipped set a. Values
    taken as sqrt of G's eigenvalues are exact only to the rounding bound
    sqrt(n * eps) * s_1, so when theta is at or below it everything clips:
    U = 0, ||U||_2 = 0, and the clipped count is the number of values above
    the bound.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    G = M.T @ M
    k = n if k_hint is None or 4 * (k_hint + 2) > n else k_hint + 2
    while True:
        lam, V = scipy.linalg.eigh(G, subset_by_index=(n - k, n - 1), driver="evr")
        s = np.sqrt(np.maximum(lam[::-1], 0.0))
        theta = _sort_threshold(s[None, :], t)[0]  # <= 0 iff the k values sum to <= t
        if k == n or s[-1] <= theta:
            break
        k = 2 * k if theta > 0 and 8 * k <= n else n
    bound = np.sqrt(n * np.finfo(float).eps) * s[0]
    if theta <= bound:
        return np.zeros_like(M), 0.0, int(np.count_nonzero(s > bound))
    a = s > theta
    Va = V[:, ::-1][:, a]
    return M - ((M @ Va) * (1.0 - theta / s[a])) @ Va.T, float(theta), int(a.sum())
