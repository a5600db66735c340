"""Projections and proximal operators used by the solver subproblems.

One sort-and-threshold rule (Duchi et al. 2008, projections onto the l1
ball) serves both projections: the row-batched simplex projection that pins
each row's own coordinate (the self-affinity) to zero, and the l1-ball
projection, through which the spectral-norm prox shrinks singular values.
Elementwise soft-thresholding is the prox of the l1 norm.
"""

from __future__ import annotations

import numpy as np


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


def prox_spectral_norm(M: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """Proximal map U of t*||.||_2 (largest singular value) at M, and ||U||_2.

    By Moreau decomposition against the nuclear-norm ball, the singular
    values shrink by their projection onto the l1 ball of radius t:
    M = P diag(s) Q^T maps to P diag(s - proj_l1ball(s, t)) Q^T. The shrunk
    values min(s, theta) stay sorted, so the first is ||U||_2. At weight 0
    the prox is the identity, which callers handle without an SVD.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    P, s, Qt = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=False)
    s_new = s - project_l1_ball(s, t)
    return (P * s_new) @ Qt, float(s_new[0])
