"""Projections and proximal operators used by the solver subproblems.

One sort-and-threshold rule (Duchi et al. 2008, projections onto the l1
ball) serves the row-batched simplex projection that pins each row's own
coordinate (the self-affinity) to zero, and the spectral-norm prox, which
thresholds singular values (Cai, Candes & Shen 2010) taken from the top k
eigenpairs of M^T M, with the full spectrum as k = n and as the one fallback
when the top k fall short. Elementwise soft-thresholding is the prox of the
l1 norm.

Every symmetric eigenproblem in the package goes through ``SymmetricEigh``:
LAPACK's dsyevr (MRRR; Dhillon, Parlett & Voemel 2006) from the OpenBLAS that
numpy's wheels bundle, which exports it as ``scipy_dsyevr_64_`` (the Fortran
interface with 64-bit integers). It is found through numpy's own linalg
extension, which links that library, and called with ctypes, which releases
the GIL for the call. So a decomposition can run on a second thread while the
first keeps computing, and the package needs no LAPACK beyond numpy's. The
same library's thread-count getter and setter serve ``one_blas_thread``.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

import numpy as np
from numpy.linalg import _umath_linalg

DSYEVR = "scipy_dsyevr_64_"


def _bundled(symbol: str, argtypes: list, restype):
    """``symbol`` of numpy's bundled OpenBLAS as a ctypes function with the given
    argument and result types. ImportError when numpy's linalg extension does
    not reach it, as with numpy builds that link another LAPACK."""
    library = _umath_linalg.__file__
    try:
        function = getattr(ctypes.CDLL(library), symbol)
    except AttributeError:
        raise ImportError(f"{library} does not export {symbol}: mvsc calls the OpenBLAS "
                          "bundled with numpy; a numpy wheel from PyPI provides it") from None
    function.argtypes, function.restype = argtypes, restype
    return function


# dsyevr's three character arguments as bytes, the other 18 by address, then the
# three lengths of the character arguments that Fortran passes hidden at the end
_dsyevr = _bundled(DSYEVR, [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18
                   + [ctypes.c_size_t] * 3, None)
_blas_threads = _bundled("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
_set_blas_threads = _bundled("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)

# set by a user who chose a thread count; OpenBLAS reads them when it loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the count is process-wide: the first block in sets it, the last one out restores it
_pin_lock = threading.Lock()
_pinned_blocks = 0
_count_before = 0


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at 1 thread, and restore its previous
    count afterwards. When one of ``BLAS_THREAD_VARIABLES`` is set (non-empty),
    the user's choice stands and the count is left alone. Blocks may overlap,
    in one thread or several: the count is restored when the last one ends."""
    global _pinned_blocks, _count_before
    if any(os.environ.get(name) for name in BLAS_THREAD_VARIABLES):
        yield
        return
    with _pin_lock:
        if _pinned_blocks == 0:
            _count_before = _blas_threads()
            _set_blas_threads(1)
        _pinned_blocks += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pinned_blocks -= 1
            if _pinned_blocks == 0:
                _set_blas_threads(_count_before)


class SymmetricEigh:
    """One dsyevr call: eigenvalues lo..hi (0-based, ascending) of the symmetric
    n x n ``a`` and their orthonormal eigenvectors, from a's lower triangle.

    The arguments are those scipy.linalg.eigh(a, subset_by_index=(lo, hi))
    passes to dsyevr, its default for this problem, workspace size included,
    so the bits are the same.
    ``a`` must be an F-contiguous float64 array: the call uses it as LAPACK's
    work matrix and destroys its lower triangle and diagonal. The constructor
    checks that ``a`` is finite (ValueError otherwise, as eigh's check_finite),
    saves its diagonal, allocates every buffer and sizes the workspace by
    LAPACK's query. Calling the object runs LAPACK, with the GIL released, and
    returns ``(values, vectors)``; after ``start(pool)`` LAPACK runs on the
    pool's thread instead, and calling the object waits for it. Once the call
    has returned, the object lets go of ``a``; it runs LAPACK once, so a
    second call or ``start`` raises RuntimeError.

    When dsyevr fails on a partial range (info > 0, which it does on some
    degenerate small inputs), the call rebuilds ``a`` from its intact upper
    triangle and the saved diagonal and reruns over the full range, on the
    calling thread, returning columns lo..hi; LinAlgError only if that fails too.
    """

    def __init__(self, a: np.ndarray, lo: int, hi: int) -> None:
        if (a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]
                or not a.flags.f_contiguous or not a.flags.writeable):
            raise ValueError("a must be a square, writeable, F-contiguous float64 array")
        n = a.shape[0]
        if not 0 <= lo <= hi < n:
            raise ValueError(f"need 0 <= lo <= hi < {n}, got lo={lo}, hi={hi}")
        # min and max propagate NaN and allocate nothing
        if not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValueError("array must not contain infs or NaNs")
        k = hi - lo + 1
        self.a, self.diagonal = a, a.diagonal().copy()
        # the ILP64 integers n, lda, il, iu, m (out), ldz, lwork, liwork, info (out)
        self.ints = np.array([n, n, lo + 1, hi + 1, 0, n, -1, -1, 0], dtype=np.int64)
        self.reals = np.zeros(3)  # vl, vu (unused with range "I") and abstol = 0
        self.w = np.empty(n)
        self.z = np.empty((n, k), order="F")
        self.isuppz = np.empty(2 * k, dtype=np.int64)
        self.work, self.iwork = np.empty(1), np.empty(1, dtype=np.int64)
        _dsyevr(*self._pointers())  # workspace query: the sizes land in work[0] and iwork[0]
        self.ints[6:8] = int(self.work[0]), self.iwork[0]
        self.work, self.iwork = np.empty(self.ints[6]), np.empty(self.ints[7], dtype=np.int64)
        self._args = self._pointers()  # valid while self holds the arrays
        self._future = None

    def _pointers(self) -> tuple:
        ints, reals = self.ints.ctypes.data, self.reals.ctypes.data
        i, d = self.ints.itemsize, self.reals.itemsize
        return (b"V", b"I", b"L", ints, self.a.ctypes.data, ints + i, reals, reals + d,
                ints + 2 * i, ints + 3 * i, reals + 2 * d, ints + 4 * i, self.w.ctypes.data,
                self.z.ctypes.data, ints + 5 * i, self.isuppz.ctypes.data,
                self.work.ctypes.data, ints + 6 * i, self.iwork.ctypes.data, ints + 7 * i,
                ints + 8 * i, 1, 1, 1)

    def _lapack(self) -> None:
        _dsyevr(*self._args)

    def start(self, pool) -> None:
        """Submit the LAPACK call, and nothing else, to ``pool``; the submitted
        bound method keeps every buffer alive until the call returns."""
        if self._args is None or self._future is not None:
            raise RuntimeError("dsyevr has already been started on this matrix")
        self._future = pool.submit(self._lapack)

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        if self._args is None:
            raise RuntimeError("dsyevr has already run on this matrix")
        if self._future is None:
            self._lapack()
        else:
            self._future.result()
        # _args points into a: both go together, and only after LAPACK returned
        a, self.a, self._args = self.a, None, None
        info = int(self.ints[8])
        if info < 0:
            raise ValueError(f"dsyevr: argument {-info} had an illegal value")
        if info > 0:
            return self._rerun_full_range(a)
        m = int(self.ints[4])
        return self.w[:m], self.z[:, :m]

    def _rerun_full_range(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """After a failed call: columns lo..hi of the full range of ``a``, rebuilt
        from its upper triangle, which the call leaves intact, and the saved
        diagonal. LinAlgError when the failed call already took the full range."""
        n, lo, hi = a.shape[0], int(self.ints[2]) - 1, int(self.ints[3]) - 1
        if hi - lo + 1 < n:
            for j in range(n - 1):
                a[j + 1:, j] = a[j, j + 1:]
            np.fill_diagonal(a, self.diagonal)
            try:
                values, vectors = SymmetricEigh(a, 0, n - 1)()
                return values[lo:hi + 1], vectors[:, lo:hi + 1]
            except np.linalg.LinAlgError:
                pass
        raise np.linalg.LinAlgError(f"dsyevr failed on eigenpairs {lo}..{hi} of an n = {n} "
                                    "matrix and on its full range")


def _sort_threshold(u: np.ndarray, total: float) -> np.ndarray:
    """Per row of the descending-sorted 2-D ``u``, the theta with
    sum(max(u - theta, 0)) = total; requires total > 0."""
    csum = np.cumsum(u, axis=1)
    j = np.arange(1, u.shape[1] + 1)
    # u - (csum - total) / j, built in one scratch array
    gap = csum - total
    gap /= j
    np.subtract(u, gap, out=gap)
    active = gap > 0
    del gap
    # last active position per row; the first is always active as total > 0
    last = u.shape[1] - 1 - np.argmax(active[:, ::-1], axis=1)
    return (csum[np.arange(u.shape[0]), last] - total) / (last + 1)


_PROJECTION_ROWS = 128  # rows sorted at a time, which bounds the sort's scratch at 128 x n


def _project_rows_simplex_zero_diag(V: np.ndarray) -> np.ndarray:
    """Project each row i of V onto the probability simplex with coordinate i
    pinned to 0: min_a ||a - v_i||^2 s.t. a >= 0, sum a = 1, a_i = 0, whose
    solution is a_j = max(v_ij - theta_i, 0) off the diagonal. The thresholds
    come from blocks of ``_PROJECTION_ROWS`` rows, so the sort's scratch stays
    a few such blocks beside V."""
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    theta = np.empty(n)
    for start in range(0, n, _PROJECTION_ROWS):
        u = V[start:start + _PROJECTION_ROWS].copy()
        m = u.shape[0]
        # each row's own entry sorts first at -inf; read reversed, the rest descend
        u[np.arange(m), np.arange(start, start + m)] = -np.inf
        u.sort(axis=1)
        theta[start:start + m] = _sort_threshold(u[:, :0:-1], 1.0)
    A = V - theta[:, None]
    np.maximum(A, 0.0, out=A)
    np.fill_diagonal(A, 0.0)
    return A


def soft_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise shrinkage sign(m) * max(|m| - tau, 0); prox of tau*||.||_1."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    M = np.asarray(M, dtype=float)
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


def partial_k(n: int) -> int:
    """The most eigenpairs of an n x n Gram matrix that a partial decomposition
    takes: floor(n/5), at least 1. Past it the full spectrum costs no more and
    holds n x n eigenvectors instead of n x k: on a first U-step's M^T M at
    n = 600 (1 BLAS thread, 2-core Xeon, medians of 7), a call took 35 ms at
    k = 60, 46 ms at k = 120, 61 ms at k = 150 and 47 ms for the full spectrum.
    """
    return max(n // 5, 1)


def gram_eigh(M: np.ndarray, k_hint: int | None = None) -> SymmetricEigh:
    """The prox's decomposition of M, ready to run: G = M^T M, formed here
    in an F-ordered buffer, with the dsyevr call for its top k eigenpairs, where
    k = partial_k(n) (n is M's column count) with no hint, k = k_hint + 2 with
    one, and k = n once that passes partial_k(n): the hint says how many values
    may clip, so ``gram_eigh(M, n)`` takes the full spectrum. The solver starts
    the call on a worker thread while the view's A-, E- and w-steps run.
    """
    n = M.shape[1]
    limit = partial_k(n)
    k = limit if k_hint is None else k_hint + 2
    if k > limit:
        k = n
    G = np.empty((n, n), order="F")
    np.matmul(M.T, M, out=G)
    return SymmetricEigh(G, n - k, n - 1)


def prox_spectral_norm(M: np.ndarray, t: float,
                       first: SymmetricEigh | None = None) -> tuple[np.ndarray, float, int]:
    """Proximal map U of t*||.||_2 (largest singular value) at M, ||U||_2, and
    how many singular values it clipped.

    By Moreau decomposition against the nuclear-norm ball, the singular
    values shrink by their projection onto the l1 ball of radius t:
    M = P diag(s) Q^T maps to P diag(min(s, theta)) Q^T, where theta solves
    sum(max(s - theta, 0)) = t. The clipped values are those above theta, and
    ||U||_2 = theta when any is clipped. At weight 0 the prox is the
    identity, which callers handle without the prox.

    s and Q come from the k largest eigenpairs of G = M^T M, taken by
    ``first``, a ``gram_eigh(M, hint)`` possibly started on a worker thread
    (the hint is typically the previous call's clipped count), or by
    ``gram_eigh(M)``, the top partial_k(n), without it. theta from the top k
    is exact once the k-th value is <= theta, since the rest then lie below
    theta too; otherwise the full spectrum is taken, as ``gram_eigh(M, n)``,
    so a prox makes at most two decompositions. Then
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
    decomposition = gram_eigh(M) if first is None else first
    while True:
        lam, V = decomposition()
        s = np.sqrt(np.maximum(lam[::-1], 0.0))
        theta = _sort_threshold(s[None, :], t)[0]  # <= 0 iff the k values sum to <= t
        if s.size == n or s[-1] <= theta:
            break
        decomposition = gram_eigh(M, n)
    bound = np.sqrt(n * np.finfo(float).eps) * s[0]
    if theta <= bound:
        return np.zeros_like(M), 0.0, int(np.count_nonzero(s > bound))
    a = s > theta
    Va = V[:, ::-1][:, a]
    # M - P written over P, the same bits as M - P with one n x n array fewer
    P = ((M @ Va) * (1.0 - theta / s[a])) @ Va.T
    np.subtract(M, P, out=P)
    return P, float(theta), int(a.sum())
