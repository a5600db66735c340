import copy
import dataclasses
import re
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import mvsc.solver
from mvsc import prox_ops
from mvsc.data import MultiViewDataset, SynthSpec, ViewMatrix, generate_synthetic, normalize
from mvsc.graph_ops import knn_affinity, laplacian
from mvsc.metrics import compute_metrics
from mvsc.prox_ops import BLAS_THREAD_VARIABLES, SymmetricEigh, partial_k
from mvsc.solver import (
    RECON_WEIGHT_ALPHA,
    ClusteringResult,
    SolverConfig,
    SolverState,
    evaluate_objective,
    initialize,
    reconstruction_weights,
    solve,
    step_mu,
    submit_q,
    submit_u,
    update_a,
    update_e,
    update_multipliers,
    update_q,
    update_u,
    update_w,
    update_z,
    z_step_factors,
)
from mvsc.spectral import kmeans, smallest_eigvecs

from conftest import make_random_dataset, make_random_state
from oracles import (
    augmented_lagrangian,
    project_l1_ball,
    simplex_qp_enumerate,
    spectral_norm_via_gram,
)


@pytest.fixture
def small_problem(rng):
    dataset = make_random_dataset(8, (4, 6), rng)
    config = SolverConfig(n_clusters=2, lambda1=0.3, lambda2=0.4, lambda3=0.6, seed=0, k_init=3)
    state = make_random_state(dataset, config, rng)
    return dataset, config, state


# the data of the benchmark's n = 300 workload: 3 clusters of 100, views of 10,
# 30 (20 noise) and 10 features
N300_SPEC = SynthSpec(clusters=3, samples_per_cluster=100, view_dims=(10, 10, 10),
                      noise_feature_counts=(0, 20, 0), seed=1)


def with_weights(state: SolverState, dataset: MultiViewDataset, kappa) -> SolverState:
    """``state`` switched to the reconstruction weights ``kappa``, one per view,
    with the Z-step factors at them."""
    state.kappa = [float(k) for k in kappa]
    state.z_factor = z_step_factors(dataset, state.kappa)
    return state


def scaled(dataset: MultiViewDataset, factor: float) -> MultiViewDataset:
    """``dataset`` with every view multiplied by ``factor``."""
    views = tuple(ViewMatrix(view.values * factor, view.view_index) for view in dataset.views)
    return MultiViewDataset(views=views, labels=dataset.labels)


def traced_peak(dataset: MultiViewDataset, config: SolverConfig) -> int:
    """Peak bytes tracemalloc traced over one solve, which runs config.max_iter iterations."""
    tracemalloc.start()
    try:
        assert solve(dataset, config).iterations == config.max_iter
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig(n_clusters=3)
        assert cfg.rho > 1 and cfg.mu0 <= cfg.mu_max

    @pytest.mark.parametrize("kwargs", [
        {"n_clusters": 1},
        {"n_clusters": 3, "lambda1": -0.1},
        {"n_clusters": 3, "rho": 1.0},
        {"n_clusters": 3, "mu0": 10.0, "mu_max": 1.0},
        {"n_clusters": 3, "tol": 0.0},
        {"n_clusters": 3, "ablation": "bogus"},
        {"n_clusters": 3, "seed": -1},
        *({"n_clusters": 3, name: float("nan")}
          for name in ("lambda1", "lambda2", "lambda3", "mu0", "rho", "mu_max", "tol")),
        *({"n_clusters": 3, name: float("inf")} for name in ("rho", "mu_max", "tol")),
        {"n_clusters": 2.5},
        *({"n_clusters": 3, name: value}
          for name, value in (("seed", 1.5), ("max_iter", 3.5), ("k_init", 2.5), ("seed", "1"))),
        {"n_clusters": 3, "lambda1": "0.1"},
        {"n_clusters": 3, "tol": None},
        *({"n_clusters": 3, name: value} for name, value in (
            ("max_iter", True), ("lambda1", True), ("seed", False), ("k_init", np.True_),
            ("mu0", np.True_))),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [("lambda1", "0.1"), ("tol", None)])
    def test_non_numeric_float_field_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value!r}$"):
            SolverConfig(n_clusters=3, **{name: value})

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(n_clusters=np.int64(3), max_iter=np.int32(5), seed=np.uint8(2))
        assert (cfg.n_clusters, cfg.max_iter, cfg.seed) == (3, 5, 2)

    def test_readme_states_every_default(self):
        # README's "Solver settings and defaults" paragraph names each numeric
        # field with its default, in the form `name` value
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Solver settings and defaults:", 1)[1].split("\n\n", 1)[0]
        stated = dict(re.findall(r"`(\w+)` (\d[\d.]*(?:e[-+]?\d+)?)\b", paragraph))
        defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)
                    if f.default is not dataclasses.MISSING and f.type in ("int", "float")}
        assert stated.keys() == defaults.keys()
        assert {name: type(defaults[name])(value) for name, value in stated.items()} == defaults

    def test_ablation_effects(self):
        full = SolverConfig(n_clusters=2, lambda2=0.5)
        eq7 = SolverConfig(n_clusters=2, lambda2=0.5, ablation="uniform_weights")
        eq6 = SolverConfig(n_clusters=2, lambda2=0.5, ablation="no_spectral_norm")
        assert full.effective_lambda2 == 0.5 and full.learn_weights
        assert eq7.effective_lambda2 == 0.5 and not eq7.learn_weights
        assert eq6.effective_lambda2 == 0.0 and not eq6.learn_weights


class TestInitialize:
    def test_multipliers_and_error_start_at_zero(self, rng):
        ds = make_random_dataset(10, (3, 5), rng)
        state = initialize(ds, SolverConfig(n_clusters=2, k_init=3))
        for v in range(2):
            assert np.all(state.E[v] == 0.0)
            assert np.all(state.Lam1[v] == 0.0)
            assert np.all(state.Lam2[v] == 0.0)
            assert np.all(state.Lam3[v] == 0.0)
            assert state.Z[v] is None and state.U[v] is state.A[v]

    def test_initial_graph_is_knn(self, rng):
        ds = make_random_dataset(9, (4,), rng)
        state = initialize(ds, SolverConfig(n_clusters=2, k_init=4))
        assert np.array_equal(state.A[0], knn_affinity(ds.views[0].values, 4))
        assert np.allclose(state.A[0].sum(axis=1), 1.0)
        assert np.all(np.diag(state.A[0]) == 0.0)

    def test_q_orthonormal(self, rng):
        ds = make_random_dataset(12, (3, 4), rng)
        state = initialize(ds, SolverConfig(n_clusters=3, k_init=5))
        assert np.linalg.norm(state.Q.T @ state.Q - np.eye(3)) <= 1e-9

    def test_bad_k_init_and_clusters(self, rng):
        ds = make_random_dataset(5, (3,), rng)
        with pytest.raises(ValueError):
            initialize(ds, SolverConfig(n_clusters=2, k_init=5))
        with pytest.raises(ValueError):
            initialize(ds, SolverConfig(n_clusters=6, k_init=2))

    def test_dense_state_over_budget_fails_before_allocating(self, rng, monkeypatch):
        n = 10
        ds = make_random_dataset(n, (3, 14), rng)
        # state, E and Lam1, scratch of the widest view, fixed scratch
        needed = (8 * n * ((5 * n + 3) + (5 * n + 10)) + 8 * n * (2 * (3 + 14) + 6 * n + 5 * 14)
                  + 128 * 1024)

        def no_graph(*_):
            raise AssertionError("an n x n matrix was built before the memory check")

        monkeypatch.setattr("mvsc.solver._memory_budget", lambda: needed - 1)
        monkeypatch.setattr("mvsc.solver.knn_affinity", no_graph)
        with pytest.raises(ValueError) as exc:
            initialize(ds, SolverConfig(n_clusters=2, k_init=3))
        message = str(exc.value)
        assert f"n = {n}" in message and str(needed) in message and str(needed - 1) in message

    @pytest.mark.parametrize("budget", ["exact", None])
    def test_dense_state_within_budget_or_unknown_runs(self, budget, rng, monkeypatch):
        ds = make_random_dataset(10, (3, 14), rng)
        needed = (8 * 10 * ((5 * 10 + 3) + (5 * 10 + 10))
                  + 8 * 10 * (2 * (3 + 14) + 6 * 10 + 5 * 14) + 128 * 1024)
        monkeypatch.setattr("mvsc.solver._memory_budget",
                            lambda: needed if budget == "exact" else None)
        assert initialize(ds, SolverConfig(n_clusters=2, k_init=3)).Q.shape == (10, 2)

    def test_solve_reads_the_budget_once(self, rng, monkeypatch):
        reads = []
        monkeypatch.setattr("mvsc.solver._memory_budget", lambda: reads.append(None))
        ds = make_random_dataset(10, (3, 4), rng)
        assert solve(ds, SolverConfig(n_clusters=2, k_init=3, max_iter=2)).iterations == 2
        assert len(reads) == 1

    @pytest.mark.parametrize("mode, spec", [
        pytest.param(mode, spec, id=mode + suffix)
        for suffix, spec in (
            ("", SynthSpec(clusters=3, samples_per_cluster=40, view_dims=(10, 10, 10),
                           noise_feature_counts=(0, 20, 0), seed=1)),
            # n = 30: fixed costs outweigh the n^2 terms
            ("-n30", SynthSpec(clusters=3, samples_per_cluster=10, view_dims=(4, 5), seed=1)))
        for mode in ("full", "uniform_weights", "no_spectral_norm")])
    def test_solve_peak_within_the_memory_check(self, mode, spec, monkeypatch):
        # the figure solve checks against available memory bounds what it then allocates
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        cfg = SolverConfig(n_clusters=3, max_iter=15, ablation=mode)
        monkeypatch.setattr("mvsc.solver._memory_budget", lambda: 0)
        need = rf"^n = {ds.n_samples} samples need \d+ bytes"
        with pytest.raises(ValueError, match=need) as exc:
            solve(ds, cfg)
        figure = int(re.search(r"need (\d+) bytes", str(exc.value)).group(1))
        monkeypatch.setattr("mvsc.solver._memory_budget", lambda: None)
        assert traced_peak(ds, cfg) <= figure

    def test_solve_peak_above_dense_state_at_n300(self):
        # every U-step decomposition here is the top partial_k(n), one in flight
        # holds no M, and solve drops each view's Z, old A and old U at its last
        # read and steps the multipliers in place: a peak 2.0 n^2 values above
        # the dense state
        ds = normalize(generate_synthetic(N300_SPEC), "unit_l2_per_sample")
        n = ds.n_samples
        state = 8 * n * sum(5 * n + min(view.n_features, n) for view in ds.views)
        peak = traced_peak(ds, SolverConfig(n_clusters=3, max_iter=5))
        assert peak - state <= 8 * 2.25 * n * n

    def test_initialize_peak_at_n300(self):
        # the kNN graphs serve as both A and U, and no Z is set: per view A, Lam2
        # and Lam3, 9.7 n^2 values in all with the Q-step's and the graphs' scratch
        ds = normalize(generate_synthetic(N300_SPEC), "unit_l2_per_sample")
        n = ds.n_samples
        tracemalloc.start()
        try:
            initialize(ds, SolverConfig(n_clusters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 12 * n * n


class TestMemoryBudget:
    # MemAvailable is read in KiB, so a budget from it is a multiple of 1024;
    # the limits below are not, and are far below any machine's MemAvailable
    @staticmethod
    def budget(monkeypatch, tmp_path, contents):
        paths = []
        for i, text in enumerate(contents):
            paths.append(tmp_path / f"limit_{i}")
            if text is not None:  # None: a path that does not exist
                paths[-1].write_text(text, encoding="ascii")
        monkeypatch.setattr(mvsc.solver, "_memory_limit_files", lambda: set(map(str, paths)))
        return mvsc.solver._memory_budget()

    def test_a_file_holding_max_is_skipped(self, monkeypatch, tmp_path):
        available = self.budget(monkeypatch, tmp_path, ["max\n"])
        assert available is not None and available > 0 and available % 1024 == 0
        assert self.budget(monkeypatch, tmp_path, ["max\n", "5000\n"]) == 5000

    def test_a_limit_below_mem_available_is_returned(self, monkeypatch, tmp_path):
        assert self.budget(monkeypatch, tmp_path, ["5000\n"]) == 5000

    def test_a_missing_path_is_skipped(self, monkeypatch, tmp_path):
        assert self.budget(monkeypatch, tmp_path, [None, "7000\n"]) == 7000

    def test_without_meminfo_only_the_limit_files_count(self, monkeypatch, tmp_path):
        def no_meminfo(path, *args, **kwargs):
            if path == "/proc/meminfo":
                raise OSError(f"{path} is not readable")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(mvsc.solver, "open", no_meminfo, raising=False)
        assert self.budget(monkeypatch, tmp_path, [None, "max\n"]) is None
        assert self.budget(monkeypatch, tmp_path, ["5000\n"]) == 5000

    @staticmethod
    def cgroup_budget(monkeypatch, tmp_path, proc_cgroup, limits):
        # a fake /proc/self/cgroup and cgroup tree; ``limits`` maps a file's path
        # under the root to its contents
        root = tmp_path / "cgroup"
        for name, text in limits.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, encoding="ascii")
        (tmp_path / "proc_cgroup").write_text(proc_cgroup, encoding="ascii")
        monkeypatch.setattr(mvsc.solver, "_PROC_CGROUP", str(tmp_path / "proc_cgroup"))
        monkeypatch.setattr(mvsc.solver, "_CGROUP_ROOT", str(root))
        return mvsc.solver._memory_budget()

    def test_v2_limit_of_the_own_cgroup_counts_without_a_root_limit(self, monkeypatch, tmp_path):
        # as under systemd-run -p MemoryMax=...: the root has no memory.max
        assert self.cgroup_budget(monkeypatch, tmp_path, "0::/system.slice/run-u7.service\n", {
            "system.slice/memory.max": "max\n",
            "system.slice/run-u7.service/memory.max": "6000\n"}) == 6000

    def test_v1_takes_the_smallest_limit_on_the_path(self, monkeypatch, tmp_path):
        proc_cgroup = "9:name=systemd:/\n4:memory:/jobs/job1\n1:cpu:/other\n0::/\n"
        assert self.cgroup_budget(monkeypatch, tmp_path, proc_cgroup, {
            "memory/memory.limit_in_bytes": "9223372036854771712\n",
            "memory/jobs/memory.limit_in_bytes": "5000\n",
            "memory/jobs/job1/memory.limit_in_bytes": "8000\n",
            "memory/other/memory.limit_in_bytes": "3000\n"}) == 5000

    def test_unreadable_proc_cgroup_leaves_the_root_limits(self, monkeypatch, tmp_path):
        monkeypatch.setattr(mvsc.solver, "_PROC_CGROUP", str(tmp_path / "missing"))
        monkeypatch.setattr(mvsc.solver, "_CGROUP_ROOT", str(tmp_path))
        (tmp_path / "memory.max").write_text("7000\n", encoding="ascii")
        assert mvsc.solver._memory_budget() == 7000


class TestUpdateZ:
    def test_zero_data_averages_pulls(self, rng):
        n = 6
        X = np.zeros((3, n))
        ds = MultiViewDataset(views=(ViewMatrix(X + 0.0, 0),))
        # zero matrix is a valid view for the algebra even if degenerate
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng, mu=2.0)
        V2 = state.U[0] - state.Lam2[0] / 2.0
        V3 = state.A[0] - state.Lam3[0] / 2.0
        Z = update_z(state, ds, 0)
        assert np.allclose(Z, (V2 + V3) / 2.0, atol=1e-12)

    def test_zero_rhs_gives_zero(self, rng):
        ds = make_random_dataset(6, (4,), rng)
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng, mu=1.0)
        state.E[0] = ds.views[0].values.copy()
        state.Lam1[0][:] = 0.0
        state.Lam2[0][:] = 0.0
        state.Lam3[0][:] = 0.0
        state.U[0][:] = 0.0
        state.A[0][:] = 0.0
        assert np.allclose(update_z(state, ds, 0), 0.0, atol=1e-14)

    def test_normal_equations_residual(self, rng):
        for _ in range(25):
            ds = make_random_dataset(6, (4,), rng)
            cfg = SolverConfig(n_clusters=2, k_init=2)
            state = make_random_state(ds, cfg, rng)
            X = ds.views[0].values
            mu = state.mu
            Z = update_z(state, ds, 0)
            rhs = (X.T @ (X - state.E[0] + state.Lam1[0] / mu)
                   + state.U[0] - state.Lam2[0] / mu
                   + state.A[0] - state.Lam3[0] / mu)
            residual = np.linalg.norm((X.T @ X + 2 * np.eye(6)) @ Z - rhs)
            assert residual <= 1e-10

    @pytest.mark.parametrize("case", ["d<n", "d=n", "d>n", "repeated_rows", "zero_view"])
    def test_residual_and_factor_shape(self, case, rng):
        n = 9
        d = {"d<n": 4, "d=n": 9, "d>n": 15, "repeated_rows": 8, "zero_view": 5}[case]
        ds = make_random_dataset(n, (d,), rng)
        X = ds.views[0].values
        if case == "repeated_rows":
            X[4:] = X[:4]  # rank 4: every feature row appears twice
        elif case == "zero_view":
            X[:] = 0.0
        state = make_random_state(ds, SolverConfig(n_clusters=2, k_init=2), rng)
        assert state.z_factor[0].shape == (n, min(d, n))
        mu = state.mu
        Z = update_z(state, ds, 0)
        rhs = (X.T @ (X - state.E[0] + state.Lam1[0] / mu)
               + state.U[0] - state.Lam2[0] / mu
               + state.A[0] - state.Lam3[0] / mu)
        assert np.linalg.norm((X.T @ X + 2 * np.eye(n)) @ Z - rhs) <= 1e-10

    def test_matches_explicit_inverse(self, rng):
        for dims in ((3, 12), (12,), (30,)):
            ds = make_random_dataset(12, dims, rng)
            state = make_random_state(ds, SolverConfig(n_clusters=2, k_init=2), rng)
            for v, view in enumerate(ds.views):
                X = view.values
                mu = state.mu
                rhs = (X.T @ (X - state.E[v] + state.Lam1[v] / mu)
                       + state.U[v] - state.Lam2[v] / mu
                       + state.A[v] - state.Lam3[v] / mu)
                want = np.linalg.inv(X.T @ X + 2 * np.eye(12)) @ rhs
                assert np.linalg.norm(update_z(state, ds, v) - want) <= 1e-12 * np.linalg.norm(want)


    @pytest.mark.parametrize("kappa", [0.05, 0.5, 7.0])
    def test_weighted_normal_equations(self, kappa, rng):
        # the reconstruction constraint at penalty kappa mu: (kappa X^T X + 2I) Z = R
        for d in (4, 9, 15):
            ds = make_random_dataset(9, (d,), rng)
            state = make_random_state(ds, SolverConfig(n_clusters=2, k_init=2), rng)
            with_weights(state, ds, [kappa])
            X, mu = ds.views[0].values, state.mu
            rhs = (X.T @ (kappa * (X - state.E[0]) + state.Lam1[0] / mu)
                   + state.U[0] - state.Lam2[0] / mu
                   + state.A[0] - state.Lam3[0] / mu)
            want = np.linalg.solve(kappa * X.T @ X + 2 * np.eye(9), rhs)
            assert np.linalg.norm(update_z(state, ds, 0) - want) <= 1e-12 * np.linalg.norm(want)


class TestUpdateA:
    def test_dominant_penalty_projects_h(self, rng):
        ds = make_random_dataset(6, (4,), rng)
        cfg = SolverConfig(n_clusters=2, lambda1=0.0, k_init=2)
        state = make_random_state(ds, cfg, rng, mu=1e9)
        H = np.abs(rng.uniform(0.1, 1.0, size=(6, 6)))
        np.fill_diagonal(H, 0.0)
        H /= H.sum(axis=1, keepdims=True)
        state.Z[0] = H.copy()
        state.Lam3[0][:] = 0.0
        A = update_a(state, ds, cfg, 0)
        assert np.abs(A - H).max() <= 1e-6

    def test_identical_samples_get_symmetric_rows(self, rng):
        X = rng.standard_normal((4, 5))
        X[:, 1] = X[:, 0]  # samples 0 and 1 coincide
        ds = MultiViewDataset(views=(ViewMatrix(X, 0),))
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng, mu=1.5)
        state.Q[1] = state.Q[0]
        state.Z[0][:] = 1.0 / 5
        state.Lam3[0][:] = 0.0
        A = update_a(state, ds, cfg, 0)
        assert A[0, 1] == pytest.approx(A[1, 0], abs=1e-12)
        for j in range(2, 5):
            assert A[0, j] == pytest.approx(A[1, j], abs=1e-12)

    def test_rows_match_qp_oracle(self, rng):
        ds = make_random_dataset(6, (3,), rng)
        cfg = SolverConfig(n_clusters=2, lambda1=0.7, k_init=2)
        state = make_random_state(ds, cfg, rng)
        A = update_a(state, ds, cfg, 0)
        from mvsc.graph_ops import pairwise_sq_distances, weighted_sq_distances
        D = weighted_sq_distances(ds.views[0].values, state.w[0])
        D += cfg.lambda1 * pairwise_sq_distances(state.Q.T)
        D -= state.mu * (state.Z[0] + state.Lam3[0] / state.mu)
        for i in range(6):
            want = simplex_qp_enumerate(-D[i] / state.mu, i)
            assert np.abs(A[i] - want).max() <= 1e-7

    def test_invariants_hold(self, small_problem):
        ds, cfg, state = small_problem
        A = update_a(state, ds, cfg, 0)
        assert A.min() >= 0.0
        assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.all(np.diag(A) == 0.0)


class TestUpdateQ:
    def test_block_diagonal_components_zero_trace(self, rng):
        ds = make_random_dataset(9, (3, 4), rng)
        cfg = SolverConfig(n_clusters=3, k_init=2)
        state = make_random_state(ds, cfg, rng)
        comp = np.repeat([0, 1, 2], 3)
        A = np.zeros((9, 9))
        for c in range(3):
            idx = np.flatnonzero(comp == c)
            for i in idx:
                others = [j for j in idx if j != i]
                A[i, others] = 1.0 / len(others)
        state.A = [A.copy(), A.copy()]
        Q, _ = update_q(submit_q(state.A, state.Q.shape[1]))
        M = sum(laplacian(a) for a in state.A)
        assert abs(np.trace(Q.T @ M @ Q)) <= 1e-8

    def test_trace_matches_full_spectrum(self, small_problem):
        ds, cfg, state = small_problem
        Q, eigenvalue_sum = update_q(submit_q(state.A, state.Q.shape[1]))
        M = sum(laplacian(a) for a in state.A)
        want = np.sort(np.linalg.eigvalsh(M))[: cfg.n_clusters].sum()
        assert np.trace(Q.T @ M @ Q) == pytest.approx(want, abs=1e-8)
        assert eigenvalue_sum == pytest.approx(np.trace(Q.T @ M @ Q), abs=1e-8)
        assert eigenvalue_sum == pytest.approx(want, abs=1e-8)
        assert np.linalg.norm(Q.T @ Q - np.eye(cfg.n_clusters)) <= 1e-9


class TestUpdateU:
    def test_zero_lambda2_is_exact_passthrough(self, rng, monkeypatch):
        def no_prox(*_):
            raise AssertionError("prox called at weight 0")

        monkeypatch.setattr("mvsc.solver.prox_spectral_norm", no_prox)
        ds = make_random_dataset(5, (3,), rng)
        for cfg in (SolverConfig(n_clusters=2, lambda2=0.0, k_init=2),
                    SolverConfig(n_clusters=2, lambda2=0.5, k_init=2, ablation="no_spectral_norm")):
            state = make_random_state(ds, cfg, rng, mu=2.0)
            U, term = update_u(state, cfg, 0, submit_u(state, cfg, 0))
            assert np.array_equal(U, state.Z[0] + state.Lam2[0] / 2.0)
            assert term == 0.0

    def test_huge_lambda2_zeroes_u(self, rng):
        ds = make_random_dataset(5, (3,), rng)
        state = make_random_state(ds, SolverConfig(n_clusters=2, k_init=2), rng, mu=1.0)
        M = state.Z[0] + state.Lam2[0]
        nuclear = np.linalg.svd(M, compute_uv=False).sum()
        cfg = SolverConfig(n_clusters=2, lambda2=nuclear + 1.0, k_init=2)
        assert np.allclose(update_u(state, cfg, 0, submit_u(state, cfg, 0))[0], 0.0, atol=1e-10)

    def test_beats_random_perturbations(self, small_problem, rng):
        ds, cfg, state = small_problem
        U, term = update_u(state, cfg, 0, submit_u(state, cfg, 0))
        assert term == pytest.approx(cfg.lambda2 * spectral_norm_via_gram(U), rel=1e-10)
        M = state.Z[0] + state.Lam2[0] / state.mu

        def block_objective(candidate):
            return (cfg.lambda2 * np.linalg.norm(candidate, 2)
                    + 0.5 * state.mu * np.linalg.norm(candidate - M) ** 2)

        base = block_objective(U)
        for _ in range(100):
            delta = rng.standard_normal(U.shape)
            delta /= np.linalg.norm(delta)
            assert base <= block_objective(U + 1e-3 * delta) + 1e-10

    def test_without_hint_takes_top_partial_k(self, rng, monkeypatch):
        # a view's first U-step takes the top partial_k(n) eigenpairs, and the
        # full spectrum only when the k-th value lies above the threshold
        n = 40
        k = partial_k(n)
        real_svd, real_eigh = np.linalg.svd, SymmetricEigh.__init__
        calls = []

        def counted_svd(*args, **kwargs):
            calls.append(("svd", args[0].shape))
            return real_svd(*args, **kwargs)

        def counted_eigh(self, a, lo, hi):
            calls.append(("eigh", a.shape, (lo, hi)))
            return real_eigh(self, a, lo, hi)

        monkeypatch.setattr("numpy.linalg.svd", counted_svd)
        monkeypatch.setattr(SymmetricEigh, "__init__", counted_eigh)
        for lambda2, misses in ((0.4, False), (10.0, True)):
            ds = make_random_dataset(n, (3,), rng)
            cfg = SolverConfig(n_clusters=2, lambda2=lambda2, k_init=3)
            state = make_random_state(ds, cfg, rng, mu=0.5)
            assert state.clipped == {}
            M = state.Z[0] + state.Lam2[0] / state.mu
            P, s, Qt = real_svd(M, full_matrices=False)
            shrink = project_l1_ball(s, cfg.lambda2 / state.mu)
            U_full = (P * (s - shrink)) @ Qt
            # a miss: the k-th value clips, so it lies above the threshold
            assert (np.count_nonzero(shrink) >= k) == misses

            calls.clear()
            U, term = update_u(state, cfg, 0, submit_u(state, cfg, 0))
            full = [("eigh", (n, n), (0, n - 1))]
            assert calls == [("eigh", (n, n), (n - k, n - 1))] + misses * full
            assert np.abs(U - U_full).max() <= 1e-12 * np.abs(U_full).max()
            assert term == pytest.approx(cfg.lambda2 * (s - shrink)[0], rel=1e-12)
            assert state.clipped == {0: np.count_nonzero(shrink)}

    def test_solver_counts_match_full_spectrum(self, monkeypatch):
        # n = 120: the first counts pass partial_k(n), later ones take the top-k path
        spec = SynthSpec(clusters=3, samples_per_cluster=40, view_dims=(4, 5), seed=2)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        n = ds.n_samples
        hinted = []

        def checked(state, config, view, started):
            M = state.Z[view] + state.Lam2[view] / state.mu
            P, s, Qt = np.linalg.svd(M, full_matrices=False)
            shrink = project_l1_ball(s, config.effective_lambda2 / state.mu)
            hint = state.clipped.get(view)
            U, term = update_u(state, config, view, started)
            assert state.clipped[view] == np.count_nonzero(shrink)
            U_full = (P * (s - shrink)) @ Qt
            assert np.linalg.norm(U - U_full) <= 1e-9 * np.linalg.norm(U_full)
            hinted.append(hint is not None and hint + 2 <= partial_k(n))
            return U, term

        monkeypatch.setattr("mvsc.solver.update_u", checked)
        result = solve(ds, SolverConfig(n_clusters=3, max_iter=12))
        assert result.iterations == 12 and len(hinted) == 24
        assert sum(hinted) >= 12


class TestUpdateE:
    def test_zero_lambda3_absorbs_residual(self, rng):
        ds = make_random_dataset(5, (3,), rng)
        cfg = SolverConfig(n_clusters=2, lambda3=0.0, k_init=2)
        state = make_random_state(ds, cfg, rng, mu=1.5)
        X = ds.views[0].values
        E, gap = update_e(state, ds, cfg, 0)
        assert np.allclose(E, X - X @ state.Z[0] + state.Lam1[0] / 1.5, atol=1e-14)
        assert np.array_equal(gap, X - X @ state.Z[0] - E)

    def test_full_shrinkage_gives_zero(self, rng):
        ds = make_random_dataset(5, (3,), rng)
        state = make_random_state(ds, SolverConfig(n_clusters=2, k_init=2), rng, mu=1.0)
        X = ds.views[0].values
        M = X - X @ state.Z[0] + state.Lam1[0]
        cfg = SolverConfig(n_clusters=2, lambda3=np.abs(M).max() + 1.0, k_init=2)
        E, gap = update_e(state, ds, cfg, 0)
        assert np.all(E == 0.0)
        assert np.array_equal(gap, X - X @ state.Z[0] - E)

    def test_elementwise_shrinkage_law(self, small_problem):
        ds, cfg, state = small_problem
        X = ds.views[0].values
        M = X - X @ state.Z[0] + state.Lam1[0] / state.mu
        E, gap = update_e(state, ds, cfg, 0)
        tau = cfg.lambda3 / state.mu
        want = np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)
        assert np.array_equal(E, want)
        assert np.array_equal(gap, X - X @ state.Z[0] - E)


    def test_weighted_shrinkage_law(self, small_problem):
        # at penalty kappa mu the residual is shifted by Lam1/(kappa mu) and
        # shrunk at lambda3/(kappa mu); the gap stays in data units
        ds, cfg, state = small_problem
        with_weights(state, ds, [0.3, 4.0])
        for v, view in enumerate(ds.views):
            X, kmu = view.values, state.kappa[v] * state.mu
            M = X - X @ state.Z[v] + state.Lam1[v] / kmu
            E, gap = update_e(state, ds, cfg, v)
            tau = cfg.lambda3 / kmu
            want = np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)
            assert np.array_equal(E, want)
            assert np.array_equal(gap, X - X @ state.Z[v] - E)


class TestUpdateW:
    def test_equal_energies_give_uniform(self, rng):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])  # both features see the same gap
        ds = MultiViewDataset(views=(ViewMatrix(X, 0),))
        cfg = SolverConfig(n_clusters=2, k_init=1)
        state = make_random_state(ds, cfg, rng)
        state.A[0] = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, _ = update_w(state, ds, cfg, 0)
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_analytic_inverse_energies(self, rng):
        # graph energies y = (1, 2) must give weights (2/3, 1/3)
        X = np.array([[0.0, 1.0], [0.0, np.sqrt(2.0)]])
        ds = MultiViewDataset(views=(ViewMatrix(X, 0),))
        cfg = SolverConfig(n_clusters=2, k_init=1)
        state = make_random_state(ds, cfg, rng)
        state.A[0] = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, _ = update_w(state, ds, cfg, 0)
        assert np.allclose(w, [2 / 3, 1 / 3], atol=1e-12)

    def test_matches_constrained_optimizer(self, small_problem):
        ds, cfg, state = small_problem
        w, _ = update_w(state, ds, cfg, 0)
        X = ds.views[0].values
        L = laplacian(state.A[0])
        y = np.maximum(np.einsum("ij,jk,ik->i", X, L, X), 1e-12)
        d = y.size
        res = scipy.optimize.minimize(
            lambda v: float(v @ (y * v)),
            np.full(d, 1.0 / d),
            jac=lambda v: 2.0 * y * v,
            bounds=[(0.0, 1.0)] * d,
            constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 300},
        )
        assert np.abs(w - res.x).max() <= 1e-6

    def test_feature_offsets_leave_weights_unchanged(self, rng):
        # y_k = [X L(A) X^T]_kk does not change when feature k is shifted, as
        # L(A) 1 = 0, so a large offset on raw data must cost no digits
        ds = make_random_dataset(90, (30,), rng)
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng)
        X = ds.views[0].values
        offsets = 1e6 * rng.uniform(0.5, 2.0, size=(30, 1))
        shifted = MultiViewDataset(views=(ViewMatrix(X + offsets, 0),))
        want, got = update_w(state, ds, cfg, 0)[0], update_w(state, shifted, cfg, 0)[0]
        assert np.abs(got / want - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("value", [0.0, 0.7])
    def test_constant_feature_gets_zero_weight(self, small_problem, value):
        ds, cfg, state = small_problem
        X = ds.views[0].values
        padded = MultiViewDataset(views=(ViewMatrix(np.vstack([X, np.full(X.shape[1], value)]), 0),))
        want = np.append(update_w(state, ds, cfg, 0)[0], 0.0)
        assert np.abs(update_w(state, padded, cfg, 0)[0] - want).max() <= 1e-12

    def test_all_constant_view_keeps_weights(self, rng):
        ds = MultiViewDataset(views=(ViewMatrix(np.full((3, 6), 0.5), 0),))
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng)
        assert np.array_equal(update_w(state, ds, cfg, 0)[0], state.w[0])

    def test_frozen_in_ablation_modes(self, rng):
        ds = make_random_dataset(6, (4,), rng)
        for mode in ("uniform_weights", "no_spectral_norm"):
            cfg = SolverConfig(n_clusters=2, k_init=2, ablation=mode)
            state = make_random_state(ds, cfg, rng)
            state.w[0] = np.full(4, 0.25)
            assert np.array_equal(update_w(state, ds, cfg, 0)[0], state.w[0])


class TestMultipliersAndMu:
    def test_feasible_state_leaves_multipliers_fixed(self, rng):
        ds = make_random_dataset(6, (3,), rng)
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng)
        X = ds.views[0].values
        state.U[0] = state.Z[0].copy()
        state.A[0] = state.Z[0].copy()
        state.E[0] = X - X @ state.Z[0]
        before = [lam[0].copy() for lam in (state.Lam1, state.Lam2, state.Lam3)]
        update_multipliers(state, 0, X - X @ state.Z[0] - state.E[0])
        for old, lam in zip(before, (state.Lam1, state.Lam2, state.Lam3)):
            assert np.allclose(lam[0], old, atol=1e-12)

    def test_analytic_ascent_step(self, rng):
        ds = make_random_dataset(4, (2,), rng)
        cfg = SolverConfig(n_clusters=2, k_init=1)
        state = make_random_state(ds, cfg, rng, mu=2.0)
        X = ds.views[0].values
        state.E[0], recon_gap = update_e(state, ds, cfg, 0)
        gaps = update_multipliers(state, 0, recon_gap)
        assert gaps == (np.abs(X - X @ state.Z[0] - state.E[0]).max(),
                        np.abs(state.Z[0] - state.U[0]).max(),
                        np.abs(state.Z[0] - state.A[0]).max())
        state.Lam1[0][:] = 0.0
        state.Lam2[0][:] = 0.0
        state.Lam3[0][:] = 0.0
        state.U[0] = state.Z[0] - 1.0  # Z - U = all-ones
        state.A[0] = state.Z[0].copy()
        state.E[0] = X - X @ state.Z[0]
        gaps = update_multipliers(state, 0, X - X @ state.Z[0] - state.E[0])
        assert np.allclose(state.Lam2[0], 2.0, atol=1e-12)
        assert gaps == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_steps_the_views_multipliers_in_place(self, rng):
        ds = make_random_dataset(7, (3, 4), rng)
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng)
        X, mu = ds.views[1].values, state.mu
        recon_gap = X - X @ state.Z[1] - state.E[1]
        lams = [state.Lam1, state.Lam2, state.Lam3]
        want = [lams[0][1].copy() + mu * recon_gap,
                lams[1][1].copy() + mu * (state.Z[1].copy() - state.U[1].copy()),
                lams[2][1].copy() + mu * (state.Z[1].copy() - state.A[1].copy())]
        others = [lam[0] for lam in lams]
        others_before = [lam.copy() for lam in others]
        lam2, lam3 = state.Lam2[1], state.Lam3[1]
        update_multipliers(state, 1, recon_gap)
        assert state.Lam2[1] is lam2 and state.Lam3[1] is lam3
        for lam, expected in zip(lams, want):
            assert np.array_equal(lam[1], expected)
        for lam, other, before in zip(lams, others, others_before):
            assert lam[0] is other and np.array_equal(other, before)

    def test_weighted_reconstruction_step(self, rng):
        # Lam1 steps by kappa mu times the gap, Lam2 and Lam3 by mu; the
        # returned gaps are the unscaled max-abs entries
        ds = make_random_dataset(7, (3, 4), rng)
        state = make_random_state(ds, SolverConfig(n_clusters=2, k_init=2), rng)
        with_weights(state, ds, [0.2, 3.0])
        X, mu, kappa = ds.views[1].values, state.mu, state.kappa[1]
        Z, U, A = state.Z[1], state.U[1], state.A[1]
        recon_gap = X - X @ Z - state.E[1]
        want = [state.Lam1[1] + (kappa * mu) * recon_gap,
                state.Lam2[1] + mu * (Z - U), state.Lam3[1] + mu * (Z - A)]
        norms = (np.abs(recon_gap).max(), np.abs(Z - U).max(), np.abs(Z - A).max())
        assert update_multipliers(state, 1, recon_gap.copy()) == norms
        for lam, expected in zip((state.Lam1, state.Lam2, state.Lam3), want):
            assert np.array_equal(lam[1], expected)

    def test_mu_schedule(self):
        cfg = SolverConfig(n_clusters=2, mu0=1e-3, rho=1.1, mu_max=1e6)
        state = SolverState(Z=[], A=[], U=[], E=[], Lam1=[], Lam2=[], Lam3=[],
                            w=[], Q=np.zeros((2, 2)), mu=1e-3)
        assert step_mu(state, cfg) == pytest.approx(1.1e-3)
        state.mu = 1e6
        assert step_mu(state, cfg) == 1e6
        state.mu = cfg.mu0
        for k in range(1, 60):
            state.mu = step_mu(state, cfg)
            assert state.mu == pytest.approx(1e-3 * 1.1 ** k, rel=1e-14)


def brute_force_objective(state, dataset, config):
    """The model objective at ``state`` by loops over sample pairs and
    features, with ||U||_2 from the Gram matrix's eigenvalues."""
    want = 0.0
    for v, view in enumerate(dataset.views):
        X = view.values
        w = state.w[v]
        n = X.shape[1]
        dist_term = sum(
            state.A[v][i, j] * sum(
                (w[k] * (X[k, i] - X[k, j])) ** 2 for k in range(X.shape[0])
            )
            for i in range(n)
            for j in range(n)
        )
        embed_term = config.lambda1 * sum(
            state.A[v][i, j] * np.sum((state.Q[i] - state.Q[j]) ** 2)
            for i in range(n)
            for j in range(n)
        )
        want += dist_term + embed_term
        want += config.effective_lambda2 * spectral_norm_via_gram(state.U[v])
        want += config.lambda3 * np.abs(state.E[v]).sum()
    return want


def objective_from_blocks(state, dataset, config):
    """evaluate_objective fed as solve feeds it: w and Q replaced by their
    blocks' results, with the terms those blocks return."""
    view_terms = []
    for v in range(state.n_views):
        state.w[v], dist_term = update_w(state, dataset, config, v)
        view_terms.append(dist_term + config.effective_lambda2 * spectral_norm_via_gram(state.U[v]))
    state.Q, eigenvalue_sum = update_q(submit_q(state.A, state.Q.shape[1]))
    return evaluate_objective(state, config, view_terms, eigenvalue_sum)


class TestObjective:
    def test_degenerate_zero_state(self, rng):
        ds = make_random_dataset(5, (3,), rng)
        cfg = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(ds, cfg, rng)
        for v in range(1):
            state.A[v][:] = 0.0
            state.E[v][:] = 0.0
            state.U[v][:] = 0.0
        obj = objective_from_blocks(state, ds, cfg)
        assert obj == pytest.approx(0.0, abs=1e-14)

    def test_termwise_recomputation(self, small_problem):
        ds, cfg, state = small_problem
        obj = objective_from_blocks(state, ds, cfg)
        assert obj == pytest.approx(brute_force_objective(state, ds, cfg), rel=1e-10)


BLOCKS = ["z", "a", "q", "u", "e", "w"]


def apply_block(block, state, dataset, config):
    if block == "z":
        for v in range(state.n_views):
            state.Z[v] = update_z(state, dataset, v)
    elif block == "a":
        for v in range(state.n_views):
            state.A[v] = update_a(state, dataset, config, v)
    elif block == "q":
        state.Q, _ = update_q(submit_q(state.A, state.Q.shape[1]))
    elif block == "u":
        for v in range(state.n_views):
            state.U[v], _ = update_u(state, config, v, submit_u(state, config, v))
    elif block == "e":
        for v in range(state.n_views):
            state.E[v], _ = update_e(state, dataset, config, v)
    elif block == "w":
        for v in range(state.n_views):
            state.w[v], _ = update_w(state, dataset, config, v)


class TestBlockMonotonicity:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_isolated_update_never_increases_lagrangian(self, block, rng):
        for trial in range(10):
            dataset = make_random_dataset(10, (4, 5), rng)
            config = SolverConfig(
                n_clusters=2,
                lambda1=float(rng.uniform(0, 1)),
                lambda2=float(rng.uniform(0, 1)),
                lambda3=float(rng.uniform(0, 1)),
                k_init=3,
            )
            state = make_random_state(dataset, config, rng)
            before = augmented_lagrangian(state, dataset, config)
            mutated = copy.deepcopy(state)
            apply_block(block, mutated, dataset, config)
            after = augmented_lagrangian(mutated, dataset, config)
            assert after <= before + 1e-8 * max(1.0, abs(before))

    @pytest.mark.parametrize("block", BLOCKS)
    def test_isolated_update_never_increases_weighted_lagrangian(self, block, rng):
        # the same check with each view's reconstruction constraint at penalty
        # kappa mu, kappa log-uniform in [0.05, 20]
        for trial in range(10):
            dataset = make_random_dataset(10, (4, 5), rng)
            config = SolverConfig(
                n_clusters=2,
                lambda1=float(rng.uniform(0, 1)),
                lambda2=float(rng.uniform(0, 1)),
                lambda3=float(rng.uniform(0, 1)),
                k_init=3,
            )
            state = make_random_state(dataset, config, rng)
            with_weights(state, dataset, np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=2)))
            before = augmented_lagrangian(state, dataset, config)
            mutated = copy.deepcopy(state)
            apply_block(block, mutated, dataset, config)
            after = augmented_lagrangian(mutated, dataset, config)
            assert after <= before + 1e-8 * max(1.0, abs(before))


class TestReconstructionWeight:
    def test_weight_follows_the_data_scale(self, rng):
        ds = make_random_dataset(12, (3, 20), rng)
        kappa = reconstruction_weights(ds)
        for k, view in zip(kappa, ds.views):
            assert k * np.sum(view.values ** 2) == pytest.approx(RECON_WEIGHT_ALPHA * 12, rel=1e-13)
        assert reconstruction_weights(scaled(ds, 10.0)) == pytest.approx(
            [k / 100.0 for k in kappa], rel=1e-13)

    def test_initialize_weights_the_z_step(self, rng):
        ds = make_random_dataset(10, (4, 12), rng)
        state = initialize(ds, SolverConfig(n_clusters=2, k_init=3))
        assert state.kappa == reconstruction_weights(ds)
        for got, want in zip(state.z_factor, z_step_factors(ds, state.kappa)):
            assert np.array_equal(got, want)

    def test_a_state_without_weights_is_unweighted(self, rng):
        ds = make_random_dataset(6, (4, 7), rng)
        state = make_random_state(ds, SolverConfig(n_clusters=2, k_init=2), rng)
        assert state.kappa == [1.0, 1.0]
        for got, want in zip(z_step_factors(ds), z_step_factors(ds, [1.0, 1.0])):
            assert np.array_equal(got, want)

    def test_zero_view_gets_a_fixed_positive_weight(self, rng):
        # no division by zero; with X = 0 kappa moves no block
        n = 8
        views = (ViewMatrix(np.zeros((3, n)), 0), ViewMatrix(rng.standard_normal((4, n)), 1))
        ds = MultiViewDataset(views=views)
        state = initialize(ds, SolverConfig(n_clusters=2, k_init=2))
        assert state.kappa[0] == 1.0 and 0.0 < state.kappa[1] < np.inf
        assert not state.z_factor[0].any()

    def test_n300_set_converges_within_90_iterations(self):
        # the benchmark's n = 300 data: 80 iterations, against 113 with every
        # view's reconstruction constraint at penalty mu
        ds = normalize(generate_synthetic(N300_SPEC), "unit_l2_per_sample")
        result = solve(ds, SolverConfig(n_clusters=3, max_iter=100))
        assert result.converged and result.iterations <= 90
        assert compute_metrics(ds.labels, result.labels).acc == 1.0

    @pytest.mark.parametrize("scale", ["x10", "raw"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noisy_set_stops_on_tol_at_any_scale(self, seed, scale):
        # the acceptance noisy set, scaled by 10 after unit_l2_per_sample, and
        # raw: 96-99 iterations; unweighted it ran all 200, unconverged
        spec = SynthSpec(clusters=3, samples_per_cluster=30, view_dims=(10, 10, 10),
                         noise_feature_counts=(0, 20, 0), seed=seed)
        raw = generate_synthetic(spec)
        ds = raw if scale == "raw" else scaled(normalize(raw, "unit_l2_per_sample"), 10.0)
        result = solve(ds, SolverConfig(n_clusters=3))
        assert result.converged
        assert compute_metrics(ds.labels, result.labels).acc == 1.0


class TestSolve:
    def test_zero_budget_returns_init_labels(self, rng):
        ds = make_random_dataset(12, (3, 4), rng)
        cfg = SolverConfig(n_clusters=3, max_iter=0, k_init=3)
        result = solve(ds, cfg)
        assert isinstance(result, ClusteringResult)
        assert len(result.trace) == 0
        assert not result.converged
        assert result.iterations == 0
        assert result.labels.shape == (12,)

    def test_deterministic_runs(self, rng):
        spec = SynthSpec(clusters=2, samples_per_cluster=10, view_dims=(4, 5), seed=9)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        cfg = SolverConfig(n_clusters=2, max_iter=40, seed=3)
        r1, r2 = solve(ds, cfg), solve(ds, cfg)
        assert np.array_equal(r1.labels, r2.labels)
        assert np.array_equal(r1.trace.objective, r2.trace.objective)
        assert np.array_equal(r1.trace.r_a, r2.trace.r_a)
        assert np.array_equal(r1.trace.mu, r2.trace.mu)

    def test_degenerate_tiny_set_converges(self):
        # two samples per cluster: the run must still stop with every label
        # right. Its two full-range dsyevr reruns are U-step top-1 calls that
        # the clip test rejected; from a penalty start of mu0 = 0.45 on, the run
        # loses one label here
        spec = SynthSpec(clusters=3, samples_per_cluster=2, view_dims=(4, 5), seed=3)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        result = solve(ds, SolverConfig(n_clusters=3))
        assert result.converged and compute_metrics(ds.labels, result.labels).acc == 1.0

    def test_trace_csv_round_trips(self, tmp_path):
        spec = SynthSpec(clusters=2, samples_per_cluster=6, view_dims=(3, 4), seed=4)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        result = solve(ds, SolverConfig(n_clusters=2, max_iter=6))
        path = tmp_path / "trace.csv"
        result.trace.write_csv(path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline() == "iteration,objective,r_recon,r_u,r_a,mu\n"
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape[0] == result.iterations
        assert np.array_equal(table[:, 0], np.arange(result.iterations))
        tr = result.trace
        for column, values in zip(table[:, 1:].T, (tr.objective, tr.r_recon, tr.r_u, tr.r_a, tr.mu)):
            assert np.array_equal(column, values)

    def test_zero_lambdas_drive_feasibility(self, rng):
        spec = SynthSpec(clusters=2, samples_per_cluster=12, view_dims=(4, 6), seed=2)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        cfg = SolverConfig(n_clusters=2, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        result = solve(ds, cfg)
        assert result.converged
        tr = result.trace
        assert max(tr.r_recon[-1], tr.r_u[-1], tr.r_a[-1]) < cfg.tol

    def test_state_invariants_along_the_run(self, rng):
        spec = SynthSpec(clusters=2, samples_per_cluster=8, view_dims=(4,), seed=5)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        cfg = SolverConfig(n_clusters=2, max_iter=15)
        state = initialize(ds, cfg)
        for _ in range(15):
            for v in range(state.n_views):
                state.Z[v] = update_z(state, ds, v)
                state.A[v] = update_a(state, ds, cfg, v)
                state.U[v], _ = update_u(state, cfg, v, submit_u(state, cfg, v))
                state.E[v], recon_gap = update_e(state, ds, cfg, v)
                state.w[v], _ = update_w(state, ds, cfg, v)
                update_multipliers(state, v, recon_gap)
                assert state.A[v].min() >= 0.0
                assert np.abs(state.A[v].sum(axis=1) - 1.0).max() <= 1e-9
                assert np.all(np.diag(state.A[v]) == 0.0)
                assert state.w[v].min() >= 0.0
                assert abs(state.w[v].sum() - 1.0) <= 1e-12
            state.Q, _ = update_q(submit_q(state.A, state.Q.shape[1]))
            assert np.linalg.norm(state.Q.T @ state.Q - np.eye(2)) <= 1e-9
            state.mu = step_mu(state, cfg)

    @pytest.mark.parametrize("mode", ["full", "uniform_weights", "no_spectral_norm"])
    def test_objective_matches_oracle_every_iteration(self, mode, monkeypatch):
        spec = SynthSpec(clusters=2, samples_per_cluster=8, view_dims=(3, 5), seed=6)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        seen, last_u = [], {}

        def recorded(state, config, view, started):
            U, u_term = update_u(state, config, view, started)
            last_u[view] = U
            return U, u_term

        def checked(state, config, view_terms, eigenvalue_sum):
            # solve drops each U at its last reader, the next Z-step; the oracle
            # reads each view's U as update_u returned it
            seen.append(evaluate_objective(state, config, view_terms, eigenvalue_sum))
            with_u = dataclasses.replace(state, U=[last_u[v] for v in range(state.n_views)])
            assert seen[-1] == pytest.approx(brute_force_objective(with_u, ds, config), rel=1e-10)
            return seen[-1]

        monkeypatch.setattr("mvsc.solver.update_u", recorded)
        monkeypatch.setattr("mvsc.solver.evaluate_objective", checked)
        result = solve(ds, SolverConfig(n_clusters=2, max_iter=8, ablation=mode))
        assert len(seen) == result.iterations == 8
        assert np.array_equal(result.trace.objective, seen)

    @pytest.mark.parametrize("mode", ["full", "uniform_weights", "no_spectral_norm"])
    def test_multipliers_take_the_e_step_gap(self, mode, monkeypatch):
        spec = SynthSpec(clusters=2, samples_per_cluster=8, view_dims=(3, 5), seed=6)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        views = []

        def checked(state, view, recon_gap):
            X = ds.views[view].values
            assert np.array_equal(recon_gap, X - X @ state.Z[view] - state.E[view])
            views.append(view)
            return update_multipliers(state, view, recon_gap)

        monkeypatch.setattr("mvsc.solver.update_multipliers", checked)
        result = solve(ds, SolverConfig(n_clusters=2, max_iter=8, ablation=mode))
        assert result.iterations == 8 and views == [0, 1] * 8

    def test_edge_costs_and_gaps_built_once_per_view(self, monkeypatch):
        spec = SynthSpec(clusters=3, samples_per_cluster=20, view_dims=(3, 5, 4), seed=6)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        n, iterations = ds.n_samples, 5
        graph_callers, matmul_callers = [], []

        def counted(*args, _real=mvsc.solver.weighted_sq_distances):
            graph_callers.append(sys._getframe(1).f_code.co_name)
            return _real(*args)

        monkeypatch.setattr(mvsc.solver, "weighted_sq_distances", counted)

        class CountedView(np.ndarray):
            # records the caller of every matmul whose left operand is a view
            # matrix itself (not X^T) or one with its feature rows centered
            # (X minus a d x 1 column), and computes on plain arrays
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and any(inputs[0] is x for x in features):
                    matmul_callers.append(sys._getframe(1).f_code.co_name)
                is_view = any(inputs[0] is view.values for view in ds.views)
                inputs = [x.view(np.ndarray) if isinstance(x, CountedView) else x for x in inputs]
                out = getattr(ufunc, method)(*inputs, **kwargs)
                if (ufunc is np.subtract and method == "__call__" and is_view
                        and np.shape(inputs[1]) == (inputs[0].shape[0], 1)):
                    out = out.view(CountedView)
                    features.append(out)
                return out

        for view in ds.views:
            object.__setattr__(view, "values", view.values.view(CountedView))
        features = [view.values for view in ds.views]
        peaks = []

        def measured(*args):
            tracemalloc.start()
            try:
                return evaluate_objective(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(mvsc.solver, "evaluate_objective", measured)
        result = solve(ds, SolverConfig(n_clusters=3, max_iter=iterations))
        assert result.iterations == iterations
        assert graph_callers == ["update_a"] * (ds.n_views * iterations)
        # X Z in the E-step and Y A, Y the centered X, in the w-step; the multipliers
        # reuse the E-step's gap
        assert matmul_callers == ["update_e", "update_w"] * (ds.n_views * iterations)
        # the objective allocates no n x n array
        assert len(peaks) == iterations and max(peaks) < 8 * n * n

    @pytest.mark.parametrize("mode", ["full", "uniform_weights", "no_spectral_norm"])
    def test_fused_graph_relabels_q(self, mode):
        # L(fused) = (1/V) sum_v L(A_v), the matrix whose bottom eigenvectors Q is,
        # so spectral clustering of the fused graph would repeat k-means on Q
        spec = SynthSpec(clusters=3, samples_per_cluster=10, view_dims=(4, 5), seed=3)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        cfg = SolverConfig(n_clusters=3, max_iter=40, ablation=mode)
        result = solve(ds, cfg)
        _, Qg = smallest_eigvecs(laplacian(result.fused_similarity), cfg.n_clusters)()
        assert np.linalg.norm(result.Q @ result.Q.T - Qg @ Qg.T) <= 1e-10
        assert np.array_equal(kmeans(Qg, cfg.n_clusters, seed=cfg.seed), result.labels)

    def test_k_init_one_below_sample_count(self):
        spec = SynthSpec(clusters=3, samples_per_cluster=10, view_dims=(4, 5), seed=2)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        n = ds.n_samples
        cfg = SolverConfig(n_clusters=3, k_init=n - 1)
        off_diagonal = ~np.eye(n, dtype=bool)
        for A in initialize(ds, cfg).A:
            assert np.all(A[off_diagonal] == 1.0 / (n - 1))
            assert np.all(np.diag(A) == 0.0)
        result = solve(ds, cfg)
        from mvsc.metrics import accuracy
        assert accuracy(ds.labels, result.labels) == 1.0
        assert np.isfinite(result.Q).all() and np.isfinite(result.fused_similarity).all()
        # each A_v is row-stochastic, so the fused similarity carries total mass n
        assert result.fused_similarity.min() >= 0.0
        assert abs(result.fused_similarity.sum() - n) <= 1e-9
        for w in result.weights:
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_fused_similarity_well_formed(self, rng):
        spec = SynthSpec(clusters=2, samples_per_cluster=8, view_dims=(3, 5), seed=6)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        result = solve(ds, SolverConfig(n_clusters=2, max_iter=30))
        S = result.fused_similarity
        assert np.allclose(S, S.T)
        assert S.min() >= 0.0
        assert np.all(np.diag(S) == 0.0)


class InlineExecutor:
    """A stand-in for ThreadPoolExecutor whose submit runs the call at once."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def same_bits(got: ClusteringResult, want: ClusteringResult) -> bool:
    """Labels, iterations, converged, Q, fused similarity, weights and every
    trace column bit for bit."""
    pairs = [(got.labels, want.labels), (got.Q, want.Q),
             (got.fused_similarity, want.fused_similarity), *zip(got.weights, want.weights)]
    pairs += [(getattr(got.trace, f.name), getattr(want.trace, f.name))
              for f in dataclasses.fields(got.trace)]
    return (got.iterations == want.iterations and got.converged == want.converged
            and all(a.tobytes() == b.tobytes() for a, b in pairs))


class TestPenaltyStart:
    def test_criterion_5_set_stops_within_80_iterations(self):
        # the start mu0 sets how many growth steps the penalty needs before the
        # gaps close: this set takes 77 iterations from 0.3 and 94 from 1e-2
        spec = SynthSpec(3, 30, (10, 10, 10), seed=1)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        result = solve(ds, SolverConfig(n_clusters=3))
        assert result.converged and result.iterations <= 80
        assert compute_metrics(ds.labels, result.labels).acc == 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overlapping_clusters_keep_most_of_the_knn_start(self, seed):
        # five clusters 2 standard deviations apart, 40 noise features on view 2:
        # k-means on the kNN start reads ACC 0.813-0.840 here; from mu0 = 1e-2
        # the full model ends at 0.587-0.787, from the default at 0.807-0.860
        spec = SynthSpec(clusters=5, samples_per_cluster=30, view_dims=(10, 10, 10),
                         between_cluster_separation=2.0, noise_feature_counts=(0, 40, 0),
                         seed=seed)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        result = solve(ds, SolverConfig(n_clusters=5))
        assert compute_metrics(ds.labels, result.labels).acc >= 0.78


class TestPenaltyCap:
    def test_readme_names_the_first_iteration_past_the_old_cap(self):
        # README's "Penalty cap" paragraph gives the iteration in which the
        # default penalty first passes 1e6, derived here from the defaults
        defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
        mu, iteration = defaults["mu0"], 1
        while mu <= 1e6:
            mu, iteration = min(defaults["rho"] * mu, defaults["mu_max"]), iteration + 1
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        stated = re.search(r"penalty first passes 1e6 in iteration (\d+), so a run that stops "
                           r"within (\d+) iterations", " ".join(readme.split()))
        assert stated and stated.groups() == (str(iteration), str(iteration - 1))

    def test_n450_set_stops_sooner_than_at_the_old_cap(self):
        # the default cap lets mu grow past 1e6, where this set's Z = A gap
        # closes slowly: it stops in 93 iterations at 1e8 and 117 at 1e6 (the
        # n = 300 set of the same kind now stops before mu reaches 1e6)
        spec = SynthSpec(clusters=3, samples_per_cluster=150, view_dims=(10, 10, 10),
                         noise_feature_counts=(0, 20, 0), seed=1)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        result = solve(ds, SolverConfig(n_clusters=3, max_iter=110))
        assert result.converged and result.iterations <= 105
        assert compute_metrics(ds.labels, result.labels).acc == 1.0

    @pytest.mark.parametrize("mode", ["full", "uniform_weights", "no_spectral_norm"])
    def test_runs_that_stop_below_the_old_cap_keep_their_bits(self, mode):
        # the acceptance noisy set converges within 83 iterations, before mu
        # passes 1e6, so a cap of 1e6 and the default give the same run
        spec = SynthSpec(clusters=3, samples_per_cluster=30, view_dims=(10, 10, 10),
                         noise_feature_counts=(0, 20, 0), seed=1)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        default = solve(ds, SolverConfig(n_clusters=3, ablation=mode))
        assert default.converged and default.trace.mu.max() < 1e6
        assert same_bits(default, solve(ds, SolverConfig(n_clusters=3, ablation=mode, mu_max=1e6)))


class TestBlasThreads:
    def test_solve_runs_at_one_thread_and_restores_the_count(self, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        before, set_counts, seen = prox_ops._blas_threads(), [], []
        real_set, real_update_a = prox_ops._set_blas_threads, mvsc.solver.update_a

        def recorded(count):
            set_counts.append(count)
            real_set(count)

        def watched(*args):
            seen.append(prox_ops._blas_threads())
            return real_update_a(*args)

        monkeypatch.setattr(prox_ops, "_set_blas_threads", recorded)
        monkeypatch.setattr(mvsc.solver, "update_a", watched)
        spec = SynthSpec(clusters=2, samples_per_cluster=6, view_dims=(3, 4), seed=4)
        solve(normalize(generate_synthetic(spec), "unit_l2_per_sample"),
              SolverConfig(n_clusters=2, max_iter=3))
        assert set_counts == [1, before] and set(seen) == {1} and len(seen) == 6
        assert prox_ops._blas_threads() == before

    @pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
    def test_a_users_choice_is_left_alone(self, name, monkeypatch):
        def refused(count):
            raise AssertionError(f"set the BLAS thread count to {count}")

        for other in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(name, "2")
        monkeypatch.setattr(prox_ops, "_set_blas_threads", refused)
        spec = SynthSpec(clusters=2, samples_per_cluster=6, view_dims=(3, 4), seed=4)
        result = solve(normalize(generate_synthetic(spec), "unit_l2_per_sample"),
                       SolverConfig(n_clusters=2, max_iter=3))
        assert result.iterations == 3

    def test_overlapping_blocks_restore_the_count_once(self, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        before, inside = prox_ops._blas_threads(), []

        def enter_and_leave():
            for _ in range(200):
                with prox_ops.one_blas_thread():
                    inside.append(prox_ops._blas_threads())

        threads = [threading.Thread(target=enter_and_leave) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 800 and prox_ops._blas_threads() == before

    def test_unpinned_solve_equals_a_pinned_one(self, monkeypatch):
        # n = 180: on 2 cores, 5 iterations at OpenBLAS's default count change the last bits
        spec = SynthSpec(clusters=3, samples_per_cluster=60, view_dims=(10, 10, 10),
                         within_cluster_std=1.0, between_cluster_separation=5.0,
                         noise_feature_counts=(0, 20, 0), seed=1)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        cfg = SolverConfig(n_clusters=3, max_iter=5)
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        unpinned = solve(ds, cfg)
        # a user who pinned OpenBLAS to 1 thread before the solve
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        before = prox_ops._blas_threads()
        prox_ops._set_blas_threads(1)
        try:
            pinned = solve(ds, cfg)
        finally:
            prox_ops._set_blas_threads(before)
        assert same_bits(unpinned, pinned)


class TestSchedule:
    @pytest.mark.parametrize("mode", ["full", "uniform_weights", "no_spectral_norm"])
    def test_worker_changes_no_bits(self, mode, monkeypatch):
        # the acceptance suite's noisy set, seed 1
        spec = SynthSpec(clusters=3, samples_per_cluster=30, view_dims=(10, 10, 10),
                         within_cluster_std=1.0, between_cluster_separation=5.0,
                         noise_feature_counts=(0, 20, 0), seed=1)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        cfg = SolverConfig(n_clusters=3, seed=0, ablation=mode)
        lapack_calls = []
        real_lapack = SymmetricEigh._lapack

        def recorded(self):
            lapack_calls.append((int(self.ints[2]), int(self.ints[3]), threading.get_ident()))
            real_lapack(self)

        monkeypatch.setattr(SymmetricEigh, "_lapack", recorded)
        threaded = solve(ds, cfg)
        # dsyevr's 1-based il..iu: the Q-step asks for 1..c, a U-step always ends at n
        q_threads = [thread for il, iu, thread in lapack_calls if (il, iu) == (1, 3)]
        monkeypatch.setattr(mvsc.solver, "ThreadPoolExecutor", InlineExecutor)
        inline = solve(ds, cfg)

        # initialize's Q-step runs on the calling thread, every later one on the worker
        caller = threading.get_ident()
        assert len(q_threads) == 1 + threaded.iterations and q_threads[0] == caller
        assert caller not in q_threads[1:]
        assert threaded.iterations > 1 and same_bits(threaded, inline)

    @staticmethod
    def three_view_problem():
        spec = SynthSpec(clusters=3, samples_per_cluster=10, view_dims=(4, 5, 3), seed=4)
        ds = normalize(generate_synthetic(spec), "unit_l2_per_sample")
        return ds, SolverConfig(n_clusters=3, max_iter=4)

    def test_worker_runs_only_lapack_calls(self, monkeypatch):
        # the worker gets dsyevr alone; the rest of a decomposition stays on the
        # calling thread, where it was faster at n = 90
        submitted = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append((fn, args, kwargs))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(mvsc.solver, "ThreadPoolExecutor", Recording)
        ds, cfg = self.three_view_problem()
        result = solve(ds, cfg)
        # each iteration starts three U-steps and one Q-step
        assert len(submitted) == 4 * result.iterations == 16
        assert all(getattr(fn, "__func__", None) is SymmetricEigh._lapack
                   and isinstance(fn.__self__, SymmetricEigh) and args == () and kwargs == {}
                   for fn, args, kwargs in submitted)

    def test_next_view_starts_before_the_wait(self, monkeypatch):
        # view v + 1's decomposition is queued before update_u waits for view v's,
        # so the worker goes on to it at once
        events = []
        real_submit, real_update = mvsc.solver.submit_u, mvsc.solver.update_u

        def submitted(state, config, view):
            events.append(("submit_u", view))
            return real_submit(state, config, view)

        def updated(state, config, view, started):
            events.append(("update_u", view))
            return real_update(state, config, view, started)

        monkeypatch.setattr(mvsc.solver, "submit_u", submitted)
        monkeypatch.setattr(mvsc.solver, "update_u", updated)
        ds, cfg = self.three_view_problem()
        result = solve(ds, cfg)
        iteration = [("submit_u", 0), ("submit_u", 1), ("update_u", 0),
                     ("submit_u", 2), ("update_u", 1), ("update_u", 2)]
        assert result.iterations == 4 and events == iteration * 4
