"""Projections and proximal operators used by the solver subproblems.

Simplex projection with one coordinate pinned to zero (the self-affinity),
scalar and row-batched; elementwise soft-thresholding; l1-ball projection;
and the spectral-norm prox, which also returns the norm of its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimplexProjectionResult:
    """Projection onto {a >= 0, sum a = 1, a[excluded] = 0}.

    ``multiplier`` is the KKT threshold eta such that the active
    coordinates satisfy a_j = v_j + eta.
    """

    point: np.ndarray
    multiplier: float


def project_simplex_excluding(v: np.ndarray, excluded: int) -> SimplexProjectionResult:
    """Project v onto the probability simplex with coordinate ``excluded`` forced to 0.

    Solves min_a ||a - v||^2 s.t. a >= 0, a.1 = 1, a[excluded] = 0 by the
    sort-based threshold scheme: among the free coordinates, the solution is
    a_j = max(v_j + eta, 0) with eta the unique value making the positive
    entries sum to one.
    """
    v = np.asarray(v, dtype=float).ravel()
    n = v.size
    if n < 2:
        raise ValueError("need at least 2 coordinates to exclude one")
    if not 0 <= excluded < n:
        raise ValueError(f"excluded index {excluded} out of range for length {n}")

    free = np.delete(v, excluded)
    u = np.sort(free)[::-1]
    csum = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    # largest active-set size with a strictly positive smallest entry
    active = u + (1.0 - csum) / j > 0
    rho = int(np.nonzero(active)[0][-1]) + 1
    eta = (1.0 - csum[rho - 1]) / rho

    point = np.maximum(v + eta, 0.0)
    point[excluded] = 0.0
    return SimplexProjectionResult(point=point, multiplier=float(eta))


def _project_rows_simplex_zero_diag(V: np.ndarray) -> np.ndarray:
    """Row-batched project_simplex_excluding with row i excluding coordinate i.

    Same sort-threshold arithmetic as the scalar operator, vectorized so the
    solver's graph update avoids a per-row Python loop.
    """
    n = V.shape[0]
    Vf = V.copy()
    np.fill_diagonal(Vf, -np.inf)
    u = -np.sort(-Vf, axis=1)[:, : n - 1]
    csum = np.cumsum(u, axis=1)
    j = np.arange(1, n)
    active = u + (1.0 - csum) / j > 0
    # last active index per row; the first column is always active
    rho = active.shape[1] - 1 - np.argmax(active[:, ::-1], axis=1)
    eta = (1.0 - csum[np.arange(n), rho]) / (rho + 1)
    A = np.maximum(V + eta[:, None], 0.0)
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

    Same sort-based thresholding as the simplex projection; callers pass
    singular values, so no sign handling is needed.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float).ravel()
    if v.sum() <= radius:
        return v.copy()
    u = np.sort(v)[::-1]
    csum = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    active = u - (csum - radius) / j > 0
    rho = int(np.nonzero(active)[0][-1]) + 1
    theta = (csum[rho - 1] - radius) / rho
    return np.maximum(v - theta, 0.0)


def prox_spectral_norm(M: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """Proximal map U of t*||.||_2 (largest singular value) at M, and ||U||_2.

    By Moreau decomposition against the nuclear-norm ball, the singular
    values shrink by their projection onto the l1 ball of radius t:
    M = P diag(s) Q^T maps to P diag(s - proj_l1ball(s, t)) Q^T. The shrunk
    values min(s, theta) stay sorted, so the first is ||U||_2.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    M = np.asarray(M, dtype=float)
    if t == 0:
        return M.copy(), float(np.linalg.norm(M, 2))
    P, s, Qt = np.linalg.svd(M, full_matrices=False)
    s_new = s - project_l1_ball(s, t)
    return (P * s_new) @ Qt, float(s_new[0])
