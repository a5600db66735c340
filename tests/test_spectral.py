import numpy as np
import pytest
import scipy.linalg

from mvsc.data import MultiViewDataset, SynthSpec, ViewMatrix, generate_synthetic, normalize
from mvsc.graph_ops import gaussian_affinity, laplacian
from mvsc.metrics import ari
from mvsc.prox_ops import SymmetricEigh
from mvsc.solver import SolverConfig, solve, update_q
from mvsc.spectral import _plusplus_init, kmeans, lloyd, ncut_baseline, smallest_eigvecs


def block_diagonal_graph(sizes, rng):
    n = sum(sizes)
    G = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = rng.uniform(0.5, 1.0, size=(size, size))
        G[start:start + size, start:start + size] = block
        start += size
    np.fill_diagonal(G, 0.0)
    return G


class TestSmallestEigvecs:
    def test_component_indicators_have_zero_energy(self, rng):
        L = laplacian(block_diagonal_graph([4, 3, 5], rng))
        _, Q = smallest_eigvecs(L, 3)()
        assert abs(np.trace(Q.T @ L @ Q)) <= 1e-8

    def test_full_basis_recovers_total_trace(self, rng):
        L = laplacian(rng.uniform(0, 1, size=(6, 6)))
        _, Q = smallest_eigvecs(L, 6)()
        assert np.trace(Q.T @ L @ Q) == pytest.approx(np.trace(L), abs=1e-8)

    def test_orthonormal_columns(self, rng):
        L = laplacian(rng.uniform(0, 1, size=(9, 9)))
        _, Q = smallest_eigvecs(L, 4)()
        assert np.linalg.norm(Q.T @ Q - np.eye(4)) <= 1e-9

    def test_eigenvalue_sum_matches_full_decomposition(self, rng):
        M = rng.standard_normal((8, 8))
        L = M @ M.T  # random PSD
        _, Q = smallest_eigvecs(L, 3)()
        want = np.sort(np.linalg.eigvalsh(L))[:3].sum()
        assert np.trace(Q.T @ L @ Q) == pytest.approx(want, abs=1e-8)

    def test_deterministic_sign_convention(self, rng):
        # smallest_eigvecs returns LAPACK's signs, the same on every call; the
        # solver's Q-step, initialize's included, makes each column's
        # largest-magnitude entry positive
        def signs_fixed(Q):
            return np.all(Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])] > 0)

        L = laplacian(rng.uniform(0, 1, size=(7, 7)))
        _, Q1 = smallest_eigvecs(L, 3)()
        _, Q2 = smallest_eigvecs(L.copy(), 3)()
        assert np.array_equal(Q1, Q2)
        Q, _ = update_q(smallest_eigvecs(L, 3))
        assert signs_fixed(Q) and np.array_equal(np.abs(Q), np.abs(Q1))
        spec = SynthSpec(clusters=3, samples_per_cluster=8, view_dims=(4, 5), seed=3)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        for max_iter in (0, 3):
            assert signs_fixed(solve(ds, SolverConfig(n_clusters=3, max_iter=max_iter)).Q)

    def test_input_left_intact(self, rng):
        B = rng.standard_normal((30, 30))
        L = B + B.T
        before = L.copy()
        smallest_eigvecs(L, 30)()
        assert np.array_equal(L, before)

    def test_dsyevr_runs_when_the_result_is_called(self, rng, monkeypatch):
        calls = []
        real_lapack = SymmetricEigh._lapack

        def recorded(self):
            calls.append(self)
            real_lapack(self)

        monkeypatch.setattr(SymmetricEigh, "_lapack", recorded)
        started = smallest_eigvecs(laplacian(rng.uniform(0, 1, size=(6, 6))), 2)
        assert calls == []
        values, Q = started()
        assert len(calls) == 1 and values.shape == (2,) and Q.shape == (6, 2)

    def test_c_out_of_range(self, rng):
        L = laplacian(rng.uniform(0, 1, size=(4, 4)))
        with pytest.raises(ValueError):
            smallest_eigvecs(L, 5)


class TestKmeans:
    def test_k_equals_n_gives_singletons(self, rng):
        points = rng.standard_normal((6, 2)) * 5
        labels = kmeans(points, 6, seed=0)
        assert len(set(labels.tolist())) == 6

    def test_separated_blobs_recovered(self, rng):
        a = rng.standard_normal((20, 3)) * 0.1
        b = rng.standard_normal((20, 3)) * 0.1 + 10.0
        points = np.vstack([a, b])
        labels = kmeans(points, 2, seed=1)
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[20]

    def test_deterministic_for_fixed_seed(self, rng):
        points = rng.standard_normal((30, 4))
        assert np.array_equal(kmeans(points, 3, seed=7), kmeans(points, 3, seed=7))

    def test_inertia_monotone_within_lloyd(self, rng):
        points = rng.standard_normal((40, 3))
        centers = _plusplus_init(points, 4, np.random.default_rng(0))
        _, _, history = lloyd(points, centers)
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    def test_empty_cluster_repair(self):
        # both initial centers coincide, so one cluster starts empty
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels, centers, history = lloyd(points, np.array([[0.05], [0.05]]))
        assert len(set(labels.tolist())) == 2
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    def test_k_out_of_range(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.standard_normal((3, 2)), 4, seed=0)

    def test_identical_points_fill_every_cluster(self):
        # every k-means++ distance is 0, so the later centers are drawn uniformly
        labels = kmeans(np.zeros((6, 2)), 3, seed=0)
        assert sorted(set(labels.tolist())) == [0, 1, 2]


def two_group_dataset(rng, n_per=10, gap=25.0):
    base = rng.standard_normal((4, 2 * n_per)) * 0.2
    base[:, n_per:] += gap
    labels = np.repeat([0, 1], n_per)
    second = rng.standard_normal((3, 2 * n_per)) * 0.2
    second[:, n_per:] -= gap
    views = (ViewMatrix(base, 0), ViewMatrix(second, 1))
    return MultiViewDataset(views=views, labels=labels)


class TestNcutBaseline:
    def test_recovers_far_separated_groups(self, rng):
        ds = two_group_dataset(rng)
        labels = ncut_baseline(ds, 2, seed=0)
        assert ari(ds.labels, labels) == pytest.approx(1.0)

    def test_single_view_equals_manual_pipeline(self, rng):
        X = np.hstack([rng.standard_normal((3, 8)), rng.standard_normal((3, 8)) + 8.0])
        ds = MultiViewDataset(views=(ViewMatrix(X, 0),))
        got = ncut_baseline(ds, 2, seed=3)

        S = gaussian_affinity(X, sigma=1.0)
        deg = S.sum(axis=1)
        inv_sqrt = np.where(deg > 0, deg ** -0.5, 0.0)
        L = np.eye(16) - (inv_sqrt[:, None] * S) * inv_sqrt[None, :]
        vals, vecs = scipy.linalg.eigh(0.5 * (L + L.T))
        Q = vecs[:, :2]
        idx = np.argmax(np.abs(Q), axis=0)
        Q = Q * np.sign(Q[idx, np.arange(2)])
        norms = np.linalg.norm(Q, axis=1, keepdims=True)
        Q = np.where(norms > 0, Q / norms, Q)
        want = kmeans(Q, 2, seed=3)
        assert ari(got, want) == pytest.approx(1.0)

    def test_deterministic(self, rng):
        ds = two_group_dataset(rng)
        a = ncut_baseline(ds, 2, seed=5)
        b = ncut_baseline(ds, 2, seed=5)
        assert np.array_equal(a, b)

    def test_ratio_cut_flag_also_recovers(self, rng):
        ds = two_group_dataset(rng)
        labels = ncut_baseline(ds, 2, seed=0, ratio_cut=True)
        assert ari(ds.labels, labels) == pytest.approx(1.0)

    def test_isolated_sample_gets_identity_row(self, rng):
        # the last sample is so far away its kernel row underflows to zero
        X = np.hstack([rng.standard_normal((2, 6)) * 0.1, [[500.0], [500.0]]])
        ds = MultiViewDataset(views=(ViewMatrix(X, 0),))
        labels = ncut_baseline(ds, 2, seed=0)
        assert labels.shape == (7,)
        assert len(set(labels.tolist())) == 2

    def test_sample_permutation_invariance(self, rng):
        ds = two_group_dataset(rng, n_per=12)
        perm = rng.permutation(ds.n_samples)
        permuted = MultiViewDataset(
            views=tuple(ViewMatrix(v.values[:, perm], v.view_index) for v in ds.views),
            labels=ds.labels[perm],
        )
        base = ncut_baseline(ds, 2, seed=0)
        shuffled = ncut_baseline(permuted, 2, seed=0)
        assert ari(base[perm], shuffled) >= 0.99
