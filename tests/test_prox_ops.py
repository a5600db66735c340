import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvsc.prox_ops import (
    _project_rows_simplex_zero_diag,
    project_l1_ball,
    prox_spectral_norm,
    soft_threshold,
)

from oracles import simplex_qp_enumerate, spectral_norm_via_gram


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
        out, _ = prox_spectral_norm(M, 1.0)
        assert np.allclose(out, 2.0 * (u @ v), atol=1e-12)

    def test_diag_example_and_objective(self, rng):
        M = np.diag([5.0, 1.0])
        out, _ = prox_spectral_norm(M, 2.0)
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
            prox, _ = prox_spectral_norm(M, t)
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
            U, norm = prox_spectral_norm(M, float(rng.uniform(0, nuclear)))
            assert norm == pytest.approx(spectral_norm_via_gram(U), rel=1e-10)
            for t in (1.01 * nuclear, nuclear + 5.0):
                assert prox_spectral_norm(M, t)[1] == 0.0

    def test_nonpositive_t_rejected(self, rng):
        # weight 0 is the identity, which update_u applies without the prox
        M = rng.standard_normal((3, 3))
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="t must be positive"):
                prox_spectral_norm(M, t)


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
