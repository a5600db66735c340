import ast
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mvsc

from mvsc import prox_ops
from mvsc.prox_ops import (
    DSYEVR,
    SymmetricEigh,
    _bundled,
    _project_rows_simplex_zero_diag,
    gram_eigh,
    partial_k,
    prox_spectral_norm,
    soft_threshold,
)

from oracles import project_l1_ball, simplex_qp_enumerate, spectral_norm_via_gram


def project_excluding_each(v):
    """Row e is v projected onto the simplex with coordinate e pinned to 0."""
    v = np.asarray(v, dtype=float)
    return _project_rows_simplex_zero_diag(np.tile(v, (v.size, 1)))


class TestSimplexProjection:
    def test_fixed_point(self):
        v = np.array([0.2, 0.0, 0.5, 0.3])
        point = project_excluding_each(v)[1]
        assert np.allclose(point, v, atol=1e-12)
        eta = point[2] - v[2]
        assert eta == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_input_gives_uniform(self):
        point = project_excluding_each([0.5, 0.5, 0.9, 0.5])[2]
        expected = np.array([1 / 3, 1 / 3, 0.0, 1 / 3])
        assert np.allclose(point, expected, atol=1e-12)

    def test_all_negative_concentrates_on_largest(self):
        point = project_excluding_each([-5.0, -1.0, -3.0])[2]
        assert np.allclose(point, [0.0, 1.0, 0.0], atol=1e-12)

    def test_excluded_always_zero_and_sums_to_one(self, rng):
        for _ in range(100):
            n = rng.integers(2, 9)
            v = rng.standard_normal(n) * rng.uniform(0.1, 10)
            points = project_excluding_each(v)
            assert np.all(np.diag(points) == 0.0)
            assert points.min() >= 0.0
            assert np.abs(points.sum(axis=1) - 1.0).max() <= 1e-10

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            v = rng.standard_normal(n) * rng.uniform(0.1, 5)
            points = project_excluding_each(v)
            for excl in range(n):
                want = simplex_qp_enumerate(v, excl)
                assert np.abs(points[excl] - want).max() <= 1e-7

    @given(arrays(np.float64, st.integers(2, 8),
                  elements=st.floats(-50, 50, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_kkt_conditions(self, v):
        points = project_excluding_each(v)
        for excl, point in enumerate(points):
            # the largest entry is active, so it recovers the threshold eta
            top = int(np.argmax(point))
            eta = point[top] - v[top]
            active = point > 0
            active[excl] = False
            # active coordinates sit exactly at v + eta, inactive ones at or below zero
            assert np.allclose(point[active], v[active] + eta, atol=1e-9)
            inactive = ~active
            inactive[excl] = False
            assert np.all(v[inactive] + eta <= 1e-10)

    def test_rows_of_general_matrix_match_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            V = rng.standard_normal((n, n)) * rng.uniform(0.1, 10)
            batched = _project_rows_simplex_zero_diag(V)
            for i in range(n):
                assert np.abs(batched[i] - simplex_qp_enumerate(V[i], i)).max() <= 1e-13


class TestSoftThreshold:
    def test_analytic_values(self):
        assert soft_threshold(np.array([3.0]), 1.0) == pytest.approx(2.0)
        assert soft_threshold(np.array([-0.5]), 1.0) == pytest.approx(0.0)
        assert np.allclose(soft_threshold(np.array([-2.5, 0.3]), 1.0), [-1.5, 0.0])

    def test_zero_tau_is_identity(self, rng):
        M = rng.standard_normal((4, 5))
        assert np.array_equal(soft_threshold(M, 0.0), M)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones((2, 2)), -0.1)

    @given(
        arrays(np.float64, (3, 3), elements=st.floats(-100, 100, allow_nan=False)),
        arrays(np.float64, (3, 3), elements=st.floats(-100, 100, allow_nan=False)),
        st.floats(0, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonexpansive(self, M1, M2, tau):
        lhs = np.linalg.norm(soft_threshold(M1, tau) - soft_threshold(M2, tau))
        rhs = np.linalg.norm(M1 - M2)
        assert lhs <= rhs + 1e-9


class TestSpectralNormProx:
    def test_large_t_gives_zero(self, rng):
        M = rng.standard_normal((4, 4))
        t = np.linalg.svd(M, compute_uv=False).sum()
        assert np.allclose(prox_spectral_norm(M, t)[0], 0.0, atol=1e-10)
        assert np.allclose(prox_spectral_norm(M, t + 5.0)[0], 0.0, atol=1e-10)

    def test_rank_one_shrinks_singular_value(self):
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[0.0, 1.0]])
        M = 3.0 * (u @ v)
        # scalar subproblem min_s t|s| + 0.5 (s - 3)^2 has minimizer s = 2 at t = 1
        out, _, _ = prox_spectral_norm(M, 1.0)
        assert np.allclose(out, 2.0 * (u @ v), atol=1e-12)

    def test_diag_example_and_objective(self, rng):
        M = np.diag([5.0, 1.0])
        out, _, _ = prox_spectral_norm(M, 2.0)
        assert np.allclose(out, np.diag([3.0, 1.0]), atol=1e-10)

        def objective(U):
            return 2.0 * np.linalg.norm(U, 2) + 0.5 * np.linalg.norm(U - M) ** 2

        base = objective(out)
        assert base == pytest.approx(8.0, abs=1e-10)
        for _ in range(100):
            delta = rng.standard_normal((2, 2))
            delta /= np.linalg.norm(delta)
            assert base <= objective(out + 1e-3 * delta) + 1e-12

    def test_moreau_identity(self, rng):
        for _ in range(50):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            M = rng.standard_normal(shape) * rng.uniform(0.2, 5)
            t = float(rng.uniform(0, 1.5 * np.linalg.svd(M, compute_uv=False).sum()))
            prox, _, _ = prox_spectral_norm(M, t)
            P, s, Qt = np.linalg.svd(M, full_matrices=False)
            nuclear_ball = (P * project_l1_ball(s, t)) @ Qt
            assert np.abs(prox + nuclear_ball - M).max() <= 1e-8

    def test_singular_values_shrink_but_stay_nonneg(self, rng):
        M = rng.standard_normal((5, 3))
        s_before = np.linalg.svd(M, compute_uv=False)
        s_after = np.linalg.svd(prox_spectral_norm(M, 0.7)[0], compute_uv=False)
        assert np.all(s_after <= s_before + 1e-12)
        assert np.all(s_after >= -1e-12)

    def test_returned_norm_is_spectral_norm_of_result(self, rng):
        for _ in range(100):
            shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            M = rng.standard_normal(shape) * rng.uniform(0.2, 5)
            nuclear = np.linalg.svd(M, compute_uv=False).sum()
            U, norm, _ = prox_spectral_norm(M, float(rng.uniform(0, nuclear)))
            assert norm == pytest.approx(spectral_norm_via_gram(U), rel=1e-10)
            for t in (1.01 * nuclear, nuclear + 5.0):
                assert prox_spectral_norm(M, t)[1] == 0.0

    def test_nonpositive_t_rejected(self, rng):
        # weight 0 is the identity, which update_u applies without the prox
        M = rng.standard_normal((3, 3))
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="t must be positive"):
                prox_spectral_norm(M, t)


def low_rank_plus_noise(rng, shape, rank=3, noise=0.05):
    return (rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
            + noise * rng.standard_normal(shape))


def full_svd_prox(M, t):
    """The prox, its norm and its clipped count, straight from the full spectrum."""
    P, s, Qt = np.linalg.svd(M, full_matrices=False)
    shrink = project_l1_ball(s, t)
    return (P * (s - shrink)) @ Qt, float((s - shrink)[0]), int(np.count_nonzero(shrink))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the full SVDs and the eigh calls the prox makes."""
    import numpy.linalg

    calls = {"svd": 0, "eigh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(numpy.linalg, "svd", counted("svd", numpy.linalg.svd))
    monkeypatch.setattr(SymmetricEigh, "__call__", counted("eigh", SymmetricEigh.__call__))
    return calls


def hinted_prox(M, t, hint):
    """The prox as the solver calls it, with ``gram_eigh(M, hint)`` as its first decomposition."""
    return prox_spectral_norm(M, t, first=gram_eigh(M, hint))


class TestSpectralNormProxTopK:
    """The hinted path, on matrices large enough for it to run (hint + 2 <= partial_k(n))."""

    def assert_matches(self, got, want):
        (U, norm, clipped), (U_ref, norm_ref, clipped_ref) = got, want
        assert np.linalg.norm(U - U_ref) <= 1e-12 * np.linalg.norm(U_ref)
        assert norm == pytest.approx(norm_ref, rel=1e-12)
        assert clipped == clipped_ref

    def test_matches_full_svd_when_few_values_clip(self, rng, kernel_calls):
        for _ in range(20):
            M = low_rank_plus_noise(rng, (120, 120))
            s = np.linalg.svd(M, compute_uv=False)
            t = float(rng.uniform(0.05, 1.0) * s[0])
            want = full_svd_prox(M, t)
            assert 1 <= want[2] <= 3
            kernel_calls["svd"] = 0
            self.assert_matches(hinted_prox(M, t, want[2]), want)
            assert kernel_calls["svd"] == 0

    def test_too_small_hint_falls_back_to_full_spectrum(self, rng, kernel_calls, monkeypatch):
        s = np.concatenate([[40.0, 30.0, 10.4, 10.3, 10.2, 10.1], rng.uniform(0, 1, 114)])
        P, _ = np.linalg.qr(rng.standard_normal((120, 120)))
        Q, _ = np.linalg.qr(rng.standard_normal((120, 120)))
        M = (P * s) @ Q.T
        t = float((s[:6] - 9.0).sum())  # theta = 9 clips six values
        want = full_svd_prox(M, t)
        assert want[1] == pytest.approx(9.0, rel=1e-12) and want[2] == 6
        kernel_calls["svd"] = 0
        gram_products, real_matmul = [], np.matmul

        def counted(*args, **kwargs):
            gram_products.append(args[0].shape)
            return real_matmul(*args, **kwargs)

        # the top 2 sum above t but reach no value at or below their theta,
        # so the one decomposition widens to the full spectrum, on the Gram
        # matrix it already holds
        with monkeypatch.context() as patch:
            patch.setattr(prox_ops.np, "matmul", counted)
            got = hinted_prox(M, t, 0)
        self.assert_matches(got, want)
        assert kernel_calls == {"svd": 0, "eigh": 2}
        assert gram_products == [(120, 120)]
        # and the widened call returns the bits of a fresh full-spectrum prox
        full = hinted_prox(M, t, 120)
        assert np.array_equal(got[0], full[0]) and got[1:] == full[1:]

    def test_hint_past_partial_k_takes_full_spectrum(self, rng, kernel_calls, monkeypatch):
        ranges, real_init = [], SymmetricEigh.__init__

        def recorded(self, a, lo, hi):
            ranges.append((lo, hi))
            real_init(self, a, lo, hi)

        monkeypatch.setattr(SymmetricEigh, "__init__", recorded)
        M = low_rank_plus_noise(rng, (120, 120))
        t = float(np.linalg.svd(M, compute_uv=False)[0])
        want = full_svd_prox(M, t)
        assert want[2] + 2 <= partial_k(120)
        kernel_calls["svd"] = 0
        got = hinted_prox(M, t, 29)  # k = 31 > partial_k(120)
        assert kernel_calls == {"svd": 0, "eigh": 1} and ranges == [(0, 119)]
        self.assert_matches(got, want)
        # a hint of n takes the same full-range call
        full = hinted_prox(M, t, 120)
        assert np.array_equal(got[0], full[0]) and got[1:] == full[1:]
        # without ``first``, the prox takes the top partial_k(n) as the solver does
        ranges.clear()
        self.assert_matches(prox_spectral_norm(M, t), want)
        assert ranges == [(120 - partial_k(120), 119)]

    def test_t_at_least_nuclear_norm_gives_zero(self, rng):
        M = low_rank_plus_noise(rng, (120, 120))
        s = np.linalg.svd(M, compute_uv=False)
        # the top k = 5 values sum to at most t, so the full spectrum decides
        for t in (s.sum(), s.sum() + 5.0):
            U, norm, clipped = hinted_prox(M, t, 3)
            assert np.all(U == 0.0) and norm == 0.0
            assert clipped == 120
        # likewise for a t between the top-5 sum and the nuclear norm
        t = 1.01 * s[:5].sum()
        self.assert_matches(hinted_prox(M, t, 3), full_svd_prox(M, t))

    @pytest.mark.parametrize("shape, rank", [((90, 130), 90), ((120, 120), 7), ((130, 90), 90)])
    def test_everything_clips_at_the_rounding_bound(self, shape, rank):
        # sqrt of M^T M's eigenvalues sums slightly above the SVD's nuclear
        # norm, and a rank-deficient M has eigenvalues at rounding level
        rng = np.random.default_rng(7)
        M = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        nuclear = np.linalg.svd(M, compute_uv=False).sum()
        for t in (nuclear, nuclear + 5.0):
            for U, norm, clipped in (prox_spectral_norm(M, t), hinted_prox(M, t, 3)):
                assert np.all(U == 0.0) and norm == 0.0
                assert clipped == rank

    @pytest.mark.parametrize("shape", [(150, 120), (90, 130)])
    def test_rectangular(self, shape, rng, kernel_calls):
        M = low_rank_plus_noise(rng, shape)
        t = float(0.5 * np.linalg.svd(M, compute_uv=False)[0])
        want = full_svd_prox(M, t)
        kernel_calls["svd"] = 0
        self.assert_matches(hinted_prox(M, t, want[2]), want)
        assert kernel_calls["svd"] == 0

    def test_repeated_calls_are_byte_identical(self, rng):
        M = low_rank_plus_noise(rng, (120, 120))
        t = float(0.5 * np.linalg.svd(M, compute_uv=False)[0])
        (U1, n1, c1), (U2, n2, c2) = (hinted_prox(M, t, 1) for _ in range(2))
        assert U1.tobytes() == U2.tobytes() and (n1, c1) == (n2, c2)


class TestL1BallProjection:
    def test_inside_ball_unchanged(self):
        v = np.array([0.3, 0.2])
        assert np.array_equal(project_l1_ball(v, 1.0), v)

    def test_water_filling(self):
        assert np.allclose(project_l1_ball(np.array([5.0, 1.0]), 2.0), [2.0, 0.0])
        assert np.allclose(project_l1_ball(np.array([3.0, 3.0]), 2.0), [1.0, 1.0])

    def test_result_norm_at_radius(self, rng):
        for _ in range(50):
            v = np.abs(rng.standard_normal(6)) * 3
            r = float(rng.uniform(0.1, v.sum()))
            out = project_l1_ball(v, r)
            assert out.sum() == pytest.approx(r, abs=1e-9)
            assert np.all(out >= 0)

    def test_zero_radius_gives_zero(self):
        for v in ([1.0, 2.0], [0.0, 0.0], [0.0, 3.0, 0.5]):
            out = project_l1_ball(np.array(v), 0.0)
            assert np.array_equal(out, np.zeros(len(v)))


def symmetric_inputs(n, rng):
    """Random symmetric, zero, and rank-deficient Gram matrices of order n."""
    B = rng.standard_normal((n, n))
    M = rng.standard_normal((n, max(1, n // 3))) @ rng.standard_normal((max(1, n // 3), n))
    return {"random": B + B.T, "zero": np.zeros((n, n)), "rank_deficient": M.T @ M}


def subset_eigh(a, lo, hi):
    """Eigenpairs lo..hi of the symmetric ``a`` through SymmetricEigh, on an
    F-ordered copy, so ``a`` is left as it was."""
    return SymmetricEigh(np.array(a, dtype=float, order="F"), lo, hi)()


class TestSymmetricEigh:
    """The one eigensolver: the dsyevr of numpy's bundled OpenBLAS, called with
    the GIL released, which must return scipy.linalg.eigh's bits."""

    @pytest.mark.parametrize("n", [1, 2, 90, 300])
    def test_bits_match_scipy_eigh(self, n, rng):
        ranges = {"top": (max(0, n - 3), n - 1), "bottom": (0, min(2, n - 1)), "full": (0, n - 1)}
        for a in symmetric_inputs(n, rng).values():
            for lo, hi in ranges.values():
                want = scipy.linalg.eigh(a, subset_by_index=(lo, hi))
                got = subset_eigh(a, lo, hi)
                assert all(x.tobytes() == y.tobytes() and x.shape == y.shape
                           for x, y in zip(got, want))

    @pytest.mark.parametrize("n", [1, 2, 90, 300])
    def test_gram_path_matches_scipy_eigh(self, n, rng):
        M = rng.standard_normal((n + 5, n))
        # no hint gives k = partial_k(n); hint 0 gives k = 2 and hint 1 gives
        # k = 3 where that is at most partial_k(n), else k = n, as hint n always does
        limit = partial_k(n)
        for hint in (None, 0, 1, n):
            k = limit if hint is None else hint + 2 if hint + 2 <= limit else n
            want = scipy.linalg.eigh(M.T @ M, subset_by_index=(n - k, n - 1))
            got = gram_eigh(M, hint)()
            assert got[0].size == k
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))

    def test_started_call_matches_inline_call(self, rng):
        M = rng.standard_normal((150, 120))
        want = gram_eigh(M, 2)()  # k = 4
        started = gram_eigh(M, 2)
        with ThreadPoolExecutor(max_workers=1) as pool:
            started.start(pool)
            got = started()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))

    @pytest.mark.parametrize("started", [False, True])
    def test_work_matrix_released_and_call_made_once(self, started, rng):
        # the call's pointers lead into the work matrix, so once it is released
        # no second call may run LAPACK on it
        decomposition = SymmetricEigh(np.asfortranarray(symmetric_inputs(30, rng)["random"]), 0, 2)
        work = weakref.ref(decomposition.a)
        with ThreadPoolExecutor(max_workers=1) as pool:
            if started:
                decomposition.start(pool)
                with pytest.raises(RuntimeError, match="already been started"):
                    decomposition.start(pool)
            values, _ = decomposition()
            assert values.size == 3
            assert decomposition.a is None and work() is None
            with pytest.raises(RuntimeError, match="already run"):
                decomposition()
            with pytest.raises(RuntimeError, match="already been started"):
                decomposition.start(pool)

    @pytest.mark.parametrize("started, accept", [
        pytest.param(False, None, id="False"),
        pytest.param(True, None, id="True"),
        pytest.param(True, lambda values: False, id="rejected")])
    def test_failed_partial_call_reruns_over_full_range(self, started, accept, rng, monkeypatch):
        # a failed dsyevr call (info > 0) leaves only a's upper triangle intact:
        # here every partial call fails, or the caller's test rejects its values,
        # and the full range runs on the rebuilt matrix, on the calling thread
        real_lapack, threads = SymmetricEigh._lapack, []

        def failing(self):
            real_lapack(self)
            n = self.a.shape[0]
            threads.append(threading.get_ident())
            if self.z.shape[1] < n:
                self.ints[8] = int(accept is None)  # 0 leaves the values to the test
                self.a[np.tril_indices(n)] = np.nan

        monkeypatch.setattr(SymmetricEigh, "_lapack", failing)
        a = symmetric_inputs(30, rng)["random"]
        decomposition = SymmetricEigh(np.array(a, order="F"), 27, 29)
        with ThreadPoolExecutor(max_workers=1) as pool:
            if started:
                decomposition.start(pool)
            got = decomposition(accept)
        want = scipy.linalg.eigh(a)
        # a failed call returns columns 27..29; a rejected one the full range
        k = 3 if accept is None else 30
        assert np.allclose(got[0], want[0][30 - k:]) and got[1].shape == (30, k)
        assert np.allclose(a @ got[1], got[1] * got[0])
        assert np.allclose(got[1].T @ got[1], np.eye(k))
        assert threads[1] == threading.get_ident() and len(threads) == 2
        assert (threads[0] != threads[1]) == started
        if accept is not None:
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, subset_eigh(a, 0, 29)))

    def test_failed_full_range_raises(self, rng, monkeypatch):
        def failing(self):
            self.ints[8] = 1

        monkeypatch.setattr(SymmetricEigh, "_lapack", failing)
        a = np.asfortranarray(symmetric_inputs(20, rng)["random"])
        with pytest.raises(np.linalg.LinAlgError, match=r"eigenpairs 0\.\.2 of an n = 20 matrix"):
            SymmetricEigh(a, 0, 2)()

    def test_illegal_argument_raises(self, rng, monkeypatch):
        def illegal(self):
            self.ints[8] = -3

        monkeypatch.setattr(SymmetricEigh, "_lapack", illegal)
        a = np.asfortranarray(symmetric_inputs(20, rng)["random"])
        with pytest.raises(ValueError, match="argument 3 had an illegal value"):
            SymmetricEigh(a, 0, 2)()

    def test_repeated_calls_are_identical(self, rng):
        # every argument buffer must outlive the foreign call
        a = symmetric_inputs(120, rng)["random"]
        first, second = subset_eigh(a, 100, 119), subset_eigh(a, 100, 119)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(first, second))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad, rng):
        a = symmetric_inputs(20, rng)["random"]
        a[3, 5] = a[5, 3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            SymmetricEigh(np.asfortranarray(a), 0, 2)
        with pytest.raises(ValueError, match="infs or NaNs"):
            gram_eigh(a, 0)()

    def test_bad_ranges_and_layouts_rejected(self):
        for lo, hi in ((-1, 2), (3, 2), (0, 5)):
            with pytest.raises(ValueError, match="lo <= hi"):
                SymmetricEigh(np.eye(5, order="F"), lo, hi)
        with pytest.raises(ValueError, match="F-contiguous"):
            SymmetricEigh(np.eye(5)[:, :4], 0, 1)

    def test_missing_symbol_fails_with_a_clear_import_error(self, monkeypatch):
        # a numpy that links another LAPACK: its linalg extension reaches no such symbol
        monkeypatch.setattr(prox_ops.ctypes, "CDLL", lambda path: object())
        with pytest.raises(ImportError, match=f"does not export {DSYEVR}: .* numpy wheel from PyPI"):
            _bundled(DSYEVR, [], None)


def _called(node) -> str | None:
    """The last name of a call's callee, None for anything but a call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _functions() -> list[tuple[str, ast.FunctionDef]]:
    """Every function in src/mvsc as (``module.function``, its node)."""
    return [(f"{path.stem}.{node.name}", node)
            for path in Path(mvsc.__file__).parent.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)]


def _callers() -> dict[str, set[str]]:
    """The last name of every callee in src/mvsc (``eigh`` for
    ``scipy.linalg.eigh(...)``) mapped to the ``module.function`` names that call it."""
    found: dict[str, set[str]] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                found.setdefault(_called(child), set()).add(scope)
            visit(child, scope)

    for path in Path(mvsc.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


class TestSingleOwner:
    def test_only_solve_starts_a_worker(self):
        assert _callers()["ThreadPoolExecutor"] == {"solver.solve"}

    def test_only_solve_starts_a_decomposition(self):
        # submit_u, submit_q and smallest_eigvecs return decompositions ready to
        # run; solve alone decides which LAPACK calls go to its worker
        scopes = _callers()["start"]
        assert scopes and all(scope == "solver.solve" or scope.startswith("solver.solve.")
                              for scope in scopes)

    def test_only_start_view_starts_a_view(self):
        # view 0 and the look-ahead view take one path: the Z-step, the drop of
        # the old U, and the U-step's decomposition
        callers = _callers()
        for name in ("update_z", "submit_u"):
            assert {s for s in callers[name] if s.startswith("solver.")} == {"solver.solve.start_view"}

    def test_only_gram_eigh_and_smallest_eigvecs_build_a_decomposition(self):
        # and the full-range rerun after a failed dsyevr call
        assert _callers()["SymmetricEigh"] == {"prox_ops.gram_eigh", "spectral.smallest_eigvecs",
                                               "prox_ops.SymmetricEigh._rerun_full_range"}

    def test_only_symmetric_eigh_calls_lapack(self):
        callers = _callers()["_dsyevr"]
        assert callers and not {s for s in callers if not s.startswith("prox_ops.SymmetricEigh.")}

    def test_no_other_eigensolver(self):
        callers = _callers()
        assert [name for name in ("eigh", "eigvalsh") if name in callers] == []

    def test_one_function_forms_the_q_steps_input(self):
        # the Laplacian of the summed graphs, decomposed for its bottom c eigenpairs
        sums = {scope for scope, node in _functions() if any(
            _called(call) == "laplacian" and call.args and _called(call.args[0]) == "sum"
            for call in ast.walk(node) if isinstance(call, ast.Call))}
        callers = _callers()["smallest_eigvecs"]
        assert sums & callers == {"solver.submit_q"}

    def test_only_the_q_step_forms_a_laplacian_in_the_solver(self):
        # the w-step reads each feature's graph energy off A itself
        assert {s for s in _callers()["laplacian"] if s.startswith("solver.")} == {"solver.submit_q"}

    def test_smallest_eigvecs_has_one_return(self):
        node = dict(_functions())["spectral.smallest_eigvecs"]
        assert sum(isinstance(child, ast.Return) for child in ast.walk(node)) == 1
