import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from mvsc.graph_ops import (
    fuse_similarity,
    gaussian_affinity,
    knn_affinity,
    laplacian,
    pairwise_sq_distances,
    weighted_sq_distances,
)

from oracles import knn_by_stable_sort


class TestLaplacian:
    def test_two_node_path(self):
        L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(sorted(np.linalg.eigvalsh(L)), [0.0, 2.0], atol=1e-12)

    def test_zero_graph(self):
        assert np.allclose(laplacian(np.zeros((3, 3))), 0.0)

    def test_row_sums_and_psd_random(self, rng):
        G = rng.uniform(0, 1, size=(6, 6))
        L = laplacian(G)
        assert np.allclose(L, L.T, atol=1e-12)
        assert np.abs(L.sum(axis=1)).max() <= 1e-10
        assert np.linalg.eigvalsh(L).min() >= -1e-10

    def test_quadratic_form_identity(self, rng):
        G = rng.uniform(0, 2, size=(7, 7))
        L = laplacian(G)
        sym = 0.5 * (G + G.T)
        for _ in range(100):
            x = rng.standard_normal(7)
            direct = float(x @ L @ x)
            pairwise = 0.5 * sum(
                sym[i, j] * (x[i] - x[j]) ** 2
                for i in range(7)
                for j in range(7)
            )
            assert direct == pytest.approx(pairwise, rel=1e-8, abs=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            laplacian(np.zeros((2, 3)))

    def test_bit_identical_to_degree_minus_sym(self, rng):
        for n in (1, 2, 7, 40):
            G = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 6, size=(n, n))
            sym = 0.5 * (G + G.T)
            assert np.array_equal(laplacian(G), np.diag(sym.sum(axis=1)) - sym)


class TestPairwiseSqDistances:
    @pytest.mark.parametrize("shape", [(4, 30), (30, 30), (60, 33)])
    @pytest.mark.parametrize("case", ["random", "offset", "duplicate", "near_duplicate"])
    def test_matches_cdist(self, case, shape, rng):
        X = rng.standard_normal(shape)
        half = shape[1] // 2
        if case == "offset":
            X += 1e6
        elif case == "duplicate":
            X[:, half:2 * half] = X[:, :half]  # pairs spread over the BLAS blocks
        elif case == "near_duplicate":
            X[:, -1] = X[:, 0] + 1e-7 * rng.standard_normal(shape[0])
        D = pairwise_sq_distances(X)
        want = cdist(X.T, X.T, metric="sqeuclidean")
        assert np.abs(D - want).max() <= 1e-12 * want.max()
        assert D.min() >= 0.0
        assert np.all(np.diag(D) == 0.0)
        assert np.array_equal(D, D.T)
        if case == "duplicate":
            assert np.all(D[np.arange(half), np.arange(half, 2 * half)] == 0.0)


class TestWeightedSqDistances:
    def test_identical_columns_zero(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert np.allclose(weighted_sq_distances(X, np.array([0.3, 0.7])), 0.0)

    def test_one_dimensional_analytic(self):
        D = weighted_sq_distances(np.array([[0.0, 3.0]]), np.array([1.0]))
        assert np.allclose(D, [[0.0, 9.0], [9.0, 0.0]], atol=1e-12)

    def test_matches_double_loop(self, rng):
        X = rng.standard_normal((5, 8))
        w = rng.uniform(0, 1, size=5)
        w /= w.sum()
        D = weighted_sq_distances(X, w)
        for i in range(8):
            for j in range(8):
                want = sum(w[k] ** 2 * (X[k, i] - X[k, j]) ** 2 for k in range(5))
                assert D[i, j] == pytest.approx(want, abs=1e-12)

    def test_uniform_weights_scale(self, rng):
        X = rng.standard_normal((4, 6))
        D_uniform = weighted_sq_distances(X, np.full(4, 0.25))
        D_ones = weighted_sq_distances(X, np.ones(4))
        assert np.allclose(D_uniform, D_ones / 16.0, rtol=1e-12, atol=1e-14)

    def test_rejects_mismatch_and_negative(self, rng):
        X = rng.standard_normal((3, 4))
        with pytest.raises(ValueError):
            weighted_sq_distances(X, np.ones(2))
        with pytest.raises(ValueError):
            weighted_sq_distances(X, np.array([1.0, -1.0, 1.0]))


class TestFuseSimilarity:
    def test_single_symmetric_nonneg_is_fixed_point(self, rng):
        Z = rng.uniform(0, 1, size=(4, 4))
        Z = 0.5 * (Z + Z.T)
        np.fill_diagonal(Z, 0.0)
        assert np.allclose(fuse_similarity([Z]), Z, atol=1e-14)

    def test_sign_killed_by_absolute_value(self, rng):
        Z = rng.standard_normal((4, 4))
        S = fuse_similarity([Z, -Z])
        want = 0.5 * (np.abs(Z) + np.abs(Z).T)
        np.fill_diagonal(want, 0.0)
        assert np.allclose(S, want, atol=1e-14)

    def test_matches_scalar_formula(self, rng):
        Zs = [rng.standard_normal((4, 4)) for _ in range(2)]
        S = fuse_similarity(Zs)
        for i in range(4):
            for j in range(4):
                want = 0.0 if i == j else np.mean(
                    [0.5 * (abs(Z[i, j]) + abs(Z[j, i])) for Z in Zs]
                )
                assert S[i, j] == pytest.approx(want, abs=1e-12)

    @given(st.lists(
        arrays(np.float64, (5, 5), elements=st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_invariants_for_arbitrary_inputs(self, Zs):
        S = fuse_similarity(Zs)
        assert np.allclose(S, S.T)
        assert S.min() >= 0.0
        assert np.all(np.diag(S) == 0.0)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            fuse_similarity([])
        with pytest.raises(ValueError):
            fuse_similarity([np.zeros((2, 2)), np.zeros((3, 3))])


class TestKnnAffinity:
    def test_three_points_on_a_line(self):
        X = np.array([[0.0, 1.0, 10.0]])
        A = knn_affinity(X, k=1)
        want = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert np.allclose(A, want)

    def test_complete_graph(self, rng):
        X = rng.standard_normal((3, 5))
        A = knn_affinity(X, k=4)
        want = np.full((5, 5), 0.25)
        np.fill_diagonal(want, 0.0)
        assert np.allclose(A, want)

    def test_matches_exhaustive_sort(self, rng):
        X = rng.standard_normal((4, 20))
        A = knn_affinity(X, k=5)
        for i in range(20):
            d = [(np.sum((X[:, i] - X[:, j]) ** 2), j) for j in range(20) if j != i]
            nearest = {j for _, j in sorted(d)[:5]}
            row_nz = set(np.flatnonzero(A[i]).tolist())
            assert row_nz == nearest
            assert A[i].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diag(A) == 0.0)

    def test_distance_ties_take_lower_index(self):
        # samples 1 and 2 are both at distance 1 from sample 0
        X = np.array([[0.0, 1.0, -1.0, 5.0]])
        A = knn_affinity(X, k=1)
        assert A[0, 1] == 1.0 and A[0, 2] == 0.0

    def test_matches_stable_sort_on_ties(self, rng):
        # integer-grid features with the second half of the samples copied from
        # the first: most rows have several samples at their k-th distance, so
        # the tie fill decides which of them the graph takes
        graphs = tied = 0
        for _ in range(40):
            n = int(rng.integers(2, 41))
            X = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), n)).astype(float)
            X[:, n // 2:] = X[:, rng.integers(0, n // 2 + 1, size=n - n // 2)]
            D = pairwise_sq_distances(X)
            ordered = np.sort(D + np.diag(np.full(n, np.inf)), axis=1)
            for k in range(1, n):
                assert np.array_equal(knn_affinity(X, k), knn_by_stable_sort(D, k))
                graphs += 1
                tied += bool(k < n - 1 and np.any(ordered[:, k - 1] == ordered[:, k]))
        assert tied >= graphs // 2

    def test_k_out_of_range(self, rng):
        X = rng.standard_normal((2, 4))
        for k in (0, 4):
            with pytest.raises(ValueError):
                knn_affinity(X, k)


class TestGaussianAffinity:
    def test_coincident_points_give_one(self):
        X = np.array([[1.0, 1.0, 3.0]])
        A = gaussian_affinity(X, sigma=1.0)
        assert A[0, 1] == pytest.approx(1.0)
        assert A[0, 0] == 0.0

    def test_analytic_value(self):
        X = np.array([[0.0, np.sqrt(2.0)]])
        A = gaussian_affinity(X, sigma=1.0)
        assert A[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_monotone_in_distance_on_lattice(self):
        X = np.arange(6.0)[None, :]
        A = gaussian_affinity(X, sigma=1.5)
        row = A[0, 1:]
        assert np.all(np.diff(row) < 0)
        # bit-symmetric on generic data too, so ncut_baseline need not symmetrize
        B = gaussian_affinity(np.random.default_rng(3).standard_normal((6, 40)) + 100.0, sigma=1.5)
        assert np.array_equal(B, B.T)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian_affinity(np.zeros((2, 3)), 0.0)
