"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end runs generate blob data at desk scale and normalize
samples to unit length (the package's opt-in scheme) before solving with
the default solver configuration.
"""

import copy
import json
import time

import numpy as np
import pytest

from mvsc.cli import main as cli_main
from mvsc.data import SynthSpec, generate_synthetic, normalize
from mvsc.metrics import accuracy, ari, nmi, pairwise_prf
from mvsc.prox_ops import _project_rows_simplex_zero_diag, prox_spectral_norm
from mvsc.solver import (
    SolverConfig,
    solve,
    update_z,
)
from conftest import make_random_dataset, make_random_state
from oracles import (
    accuracy_exhaustive,
    ari_from_pairs,
    augmented_lagrangian,
    nmi_direct,
    pair_counts_loop,
    project_l1_ball,
    simplex_qp_enumerate,
)
from test_solver import BLOCKS, apply_block


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _noisy_spec(seed: int) -> SynthSpec:
    return SynthSpec(clusters=3, samples_per_cluster=30, view_dims=(10, 10, 10),
                     within_cluster_std=1.0, between_cluster_separation=5.0,
                     noise_feature_counts=(0, 20, 0), seed=seed)


@pytest.fixture(scope="module")
def noisy_runs():
    """Full/uniform-weights/no-spectral-norm runs on 5 seeds of the noisy set."""
    runs = {}
    for seed in range(1, 6):
        dataset = normalize(generate_synthetic(_noisy_spec(seed)), "unit_l2_per_sample")
        for mode in ("full", "uniform_weights", "no_spectral_norm"):
            config = SolverConfig(n_clusters=3, seed=0, ablation=mode)
            result = solve(dataset, config)
            runs[seed, mode] = (dataset, result)
    return runs


def test_criterion_1_simplex_projection_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        v = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        excluded = int(rng.integers(n))
        got = _project_rows_simplex_zero_diag(np.tile(v, (n, 1)))[excluded]
        want = simplex_qp_enumerate(v, excluded)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-7 and elapsed < 5.0,
            f"max deviation {worst:.2e} over 500 vectors vs active-set QP oracle "
            f"in {elapsed:.2f}s")


def test_criterion_2_spectral_norm_prox():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_moreau = 0.0
    all_optimal = True
    for _ in range(200):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        M = rng.standard_normal(shape) * rng.uniform(0.2, 4.0)
        t = float(rng.uniform(0.0, 1.2 * np.linalg.svd(M, compute_uv=False).sum()))
        U, _, _ = prox_spectral_norm(M, t)

        P, s, Qt = np.linalg.svd(M, full_matrices=False)
        nuclear_proj = (P * project_l1_ball(s, t)) @ Qt
        worst_moreau = max(worst_moreau, float(np.abs(U + nuclear_proj - M).max()))

        def objective(cand):
            return t * np.linalg.norm(cand, 2) + 0.5 * np.linalg.norm(cand - M) ** 2

        base = objective(U)
        for _ in range(100):
            delta = rng.standard_normal(shape)
            delta /= np.linalg.norm(delta)
            if base > objective(U + 1e-3 * delta) + 1e-12:
                all_optimal = False
    elapsed = time.perf_counter() - start
    _report(2, worst_moreau <= 1e-8 and all_optimal and elapsed < 10.0,
            f"Moreau residual {worst_moreau:.2e}, perturbation-optimal on all 200 "
            f"matrices in {elapsed:.2f}s")


def test_criterion_3_block_monotonicity():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst_rel = -np.inf
    for _ in range(50):
        dataset = make_random_dataset(10, (4, 6), rng)
        config = SolverConfig(
            n_clusters=2,
            lambda1=float(rng.uniform(0, 1)),
            lambda2=float(rng.uniform(0, 1)),
            lambda3=float(rng.uniform(0, 1)),
            k_init=3,
        )
        state = make_random_state(dataset, config, rng)
        before = augmented_lagrangian(state, dataset, config)
        for block in BLOCKS:
            mutated = copy.deepcopy(state)
            apply_block(block, mutated, dataset, config)
            after = augmented_lagrangian(mutated, dataset, config)
            worst_rel = max(worst_rel, (after - before) / max(1.0, abs(before)))
    elapsed = time.perf_counter() - start
    _report(3, worst_rel <= 1e-8 and elapsed < 30.0,
            f"worst relative increase {worst_rel:.2e} over 50 states x "
            f"{len(BLOCKS)} blocks in {elapsed:.2f}s")


def test_criterion_4_z_step_residual():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 14))
        d = int(rng.integers(2, 10))
        dataset = make_random_dataset(n, (d,), rng)
        config = SolverConfig(n_clusters=2, k_init=2)
        state = make_random_state(dataset, config, rng)
        X = dataset.views[0].values
        mu = state.mu
        Z = update_z(state, dataset, 0)
        rhs = (X.T @ (X - state.E[0] + state.Lam1[0] / mu)
               + state.U[0] - state.Lam2[0] / mu
               + state.A[0] - state.Lam3[0] / mu)
        worst = max(worst, float(np.linalg.norm((X.T @ X + 2 * np.eye(n)) @ Z - rhs)))
    _report(4, worst <= 1e-10,
            f"max normal-equation residual {worst:.2e} over 100 instances")


def test_criterion_5_synthetic_recovery():
    spec = SynthSpec(clusters=3, samples_per_cluster=30, view_dims=(10, 10, 10),
                     within_cluster_std=1.0, between_cluster_separation=5.0, seed=1)
    dataset = normalize(generate_synthetic(spec), "unit_l2_per_sample")
    config = SolverConfig(n_clusters=3)  # defaults throughout
    start = time.perf_counter()
    result = solve(dataset, config)
    elapsed = time.perf_counter() - start
    acc = accuracy(dataset.labels, result.labels)
    nmi_val = nmi(dataset.labels, result.labels)
    trace = result.trace
    final_res = max(trace.r_recon[-1], trace.r_u[-1], trace.r_a[-1])
    ok = (acc >= 0.95 and nmi_val >= 0.90 and result.converged
          and result.iterations <= 200 and final_res < 1e-6 and elapsed < 60.0)
    _report(5, ok,
            f"acc={acc:.3f} nmi={nmi_val:.3f} residual={final_res:.2e} after "
            f"{result.iterations} iterations in {elapsed:.1f}s")


def test_criterion_6_noise_features_get_low_weights(noisy_runs):
    ratios = []
    for seed in range(1, 6):
        _, result = noisy_runs[seed, "full"]
        w = result.weights[1]
        ratios.append(w[:10].mean() / w[10:].mean())
    ok = all(r >= 2.0 for r in ratios)
    _report(6, ok,
            "informative/noise mean-weight ratios per seed: "
            + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_7_ablation_ordering(noisy_runs):
    acc = {mode: [] for mode in ("full", "uniform_weights", "no_spectral_norm")}
    for seed in range(1, 6):
        for mode in acc:
            dataset, result = noisy_runs[seed, mode]
            acc[mode].append(accuracy(dataset.labels, result.labels))
    med = {mode: float(np.median(vals)) for mode, vals in acc.items()}
    ok = (med["full"] >= med["uniform_weights"] - 0.02
          and med["uniform_weights"] >= med["no_spectral_norm"] - 0.02)
    _report(7, ok,
            f"median ACC full={med['full']:.3f} uniform_weights={med['uniform_weights']:.3f} "
            f"no_spectral_norm={med['no_spectral_norm']:.3f}")


def test_criterion_8_metrics_oracles():
    rng = np.random.default_rng(808)
    worst_pairs = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        truth = rng.integers(0, int(rng.integers(1, 6)), size=n)
        pred = rng.integers(0, int(rng.integers(1, 6)), size=n)
        worst_pairs = max(worst_pairs, abs(ari(truth, pred) - ari_from_pairs(truth, pred)))
        tp, fp, fn = pair_counts_loop(truth, pred)
        p, r, f = pairwise_prf(truth, pred)
        worst_pairs = max(worst_pairs, abs(p - (tp / (tp + fp) if tp + fp else 1.0)))
        worst_pairs = max(worst_pairs, abs(r - (tp / (tp + fn) if tp + fn else 1.0)))
        pr_sum = (p + r)
        want_f = 0.0 if pr_sum == 0 else 2 * p * r / pr_sum
        worst_pairs = max(worst_pairs, abs(f - want_f))

    acc_exact = True
    worst_nmi = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        truth = rng.integers(0, 5, size=n)
        pred = rng.integers(0, 5, size=n)
        if accuracy(truth, pred) != accuracy_exhaustive(truth, pred):
            acc_exact = False
        worst_nmi = max(worst_nmi, abs(nmi(truth, pred) - nmi_direct(truth, pred)))

    ok = worst_pairs <= 1e-10 and acc_exact and worst_nmi <= 1e-10
    _report(8, ok,
            f"pair-metric deviation {worst_pairs:.2e}, Hungarian exact on all "
            f"permutation checks, NMI deviation {worst_nmi:.2e}")


def test_criterion_9_cli_determinism(tmp_path):
    data_dir = tmp_path / "data"
    code = cli_main(["synth", "--clusters", "3", "--per-cluster", "15",
                     "--dims", "6,6,6", "--seed", "1", "-o", str(data_dir)])
    assert code == 0

    manifests, traces = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        code = cli_main(["cluster", str(data_dir), "--clusters", "3", "--seed", "4",
                         "--normalize", "unit_l2_per_sample", "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            manifest = json.load(fh)
        manifest.pop("timing")
        manifests.append(manifest)
        traces.append(out.with_suffix(".trace.csv").read_bytes())

    sweeps = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        code = cli_main(["sweep", str(data_dir), "--clusters", "3", "--max-iter", "15",
                         "--lambda1", "0.001,0.01", "--lambda2", "0.1",
                         "--lambda3", "0.1", "-o", str(out)])
        assert code == 0
        sweeps.append(out.read_bytes())

    ok = (manifests[0] == manifests[1]
          and manifests[0]["labels"] == manifests[1]["labels"]
          and traces[0] == traces[1]
          and sweeps[0] == sweeps[1])
    _report(9, ok, "repeated cluster runs agree (labels, manifest, bitwise trace) "
                   "and sweep CSVs are byte-identical")
