from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsc.metrics import accuracy, ari, compute_metrics, nmi, pairwise_prf

from oracles import accuracy_exhaustive, ari_from_pairs, nmi_direct, pair_counts_loop

labelings = st.lists(st.integers(0, 4), min_size=2, max_size=40)


def random_label_pair(rng, n_max=30, c_max=5):
    n = int(rng.integers(2, n_max + 1))
    c = int(rng.integers(1, c_max + 1))
    return rng.integers(0, c, size=n), rng.integers(0, c, size=n)


def structured_label_pair(rng):
    """1-7 clusters a side, built for rectangular tables with empty cells and
    tied optima: independent labels; one side a merge of the other, so every
    merged cluster meets one cluster of the other side and nothing else; or
    a table whose cells are all equal, where every full assignment ties."""
    a, b = (int(x) for x in rng.integers(1, 8, size=2))
    kind = int(rng.integers(3))
    if kind == 2:
        m = int(rng.integers(1, 4))
        truth = np.repeat(np.arange(a), b * m)
        pred = np.tile(np.repeat(np.arange(b), m), a)
    else:
        truth = rng.integers(0, a, size=int(rng.integers(1, 40)))
        if kind == 0:
            pred = rng.integers(0, b, size=truth.size)
        else:
            pred = rng.integers(0, b, size=a)[truth]
    if rng.random() < 0.5:
        truth, pred = pred, truth
    return 3 * truth + 5, 7 - 2 * pred


def test_import_skips_scipy_optimize(fresh_python):
    # ACC's assignment is solved in the package and dsyevr comes from numpy's own
    # OpenBLAS, so no run pays for importing scipy.optimize, or any scipy module
    code = ("import sys, mvsc, mvsc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestAccuracy:
    def test_identity(self):
        assert accuracy([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_relabeling_invariance(self):
        assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_half_right(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_unequal_cluster_counts_padded(self):
        assert accuracy([0, 1, 2, 2], [0, 0, 0, 0]) == pytest.approx(0.5)
        assert accuracy([0, 0, 0, 0], [0, 1, 2, 2]) == pytest.approx(0.5)

    def test_matches_exhaustive_permutations(self, rng):
        for _ in range(100):
            truth, pred = random_label_pair(rng, n_max=25, c_max=5)
            assert accuracy(truth, pred) == pytest.approx(
                accuracy_exhaustive(truth, pred), abs=0.0
            )

    def test_matches_exhaustive_on_rectangular_and_tied_tables(self, rng):
        for _ in range(1200):
            truth, pred = structured_label_pair(rng)
            assert accuracy(truth, pred) == accuracy_exhaustive(truth, pred)

    def test_matches_linear_sum_assignment_on_large_tables(self, rng):
        from scipy.optimize import linear_sum_assignment  # the oracle only

        for _ in range(100):
            shape = (int(rng.integers(1, 61)), int(rng.integers(1, 81)))
            table = rng.integers(0, int(rng.integers(1, 6)), size=shape)
            table[0, 0] += 1
            if rng.random() < 0.5:
                table = table.T
            i, j = np.nonzero(table)
            truth, pred = np.repeat(i, table[i, j]), np.repeat(j, table[i, j])
            rows, cols = linear_sum_assignment(table, maximize=True)
            assert accuracy(truth, pred) == float(table[rows, cols].sum()) / truth.size

    def test_errors(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestNmi:
    def test_identity(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_independent_two_by_two(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi([3, 3, 3], [7, 7, 7]) == 1.0

    def test_one_single_cluster(self):
        assert nmi([0, 1, 2], [5, 5, 5]) == 0.0
        assert nmi([5, 5, 5], [0, 1, 2]) == 0.0

    def test_near_zero_for_independent_labels(self):
        rng = np.random.default_rng(11)
        truth = rng.integers(0, 4, size=1000)
        pred = rng.integers(0, 4, size=1000)
        assert nmi(truth, pred) <= 0.05

    def test_relabelings_read_exactly_one(self, rng):
        # a relabeling of a partition is the same partition, whatever rounding
        # the entropies carry; moving one sample to a new cluster may not read
        # above 1 either
        for _ in range(300):
            truth = rng.integers(0, rng.integers(2, 9), size=rng.integers(2, 200))
            values = rng.permutation(50)[:truth.max() + 1] - 10
            assert nmi(truth, values[truth]) == 1.0
            moved = values[truth]
            moved[rng.integers(truth.size)] = 99
            assert 0.0 <= nmi(truth, moved) <= 1.0

    def test_matches_direct_computation(self, rng):
        for _ in range(100):
            truth, pred = random_label_pair(rng)
            assert nmi(truth, pred) == pytest.approx(nmi_direct(truth, pred), abs=1e-10)


class TestAri:
    def test_identity(self):
        assert ari([0, 1, 1, 2], [0, 1, 1, 2]) == pytest.approx(1.0)

    def test_single_cluster_pred(self):
        assert ari([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_pair_loop(self, rng):
        for _ in range(100):
            truth, pred = random_label_pair(rng)
            assert ari(truth, pred) == pytest.approx(ari_from_pairs(truth, pred), abs=1e-10)


class TestPairwisePrf:
    def test_identity(self):
        assert pairwise_prf([0, 0, 1], [0, 0, 1]) == (1.0, 1.0, 1.0)

    def test_all_singletons(self):
        p, r, f = pairwise_prf([0, 0, 1, 1], [0, 1, 2, 3])
        assert (p, r, f) == (1.0, 0.0, 0.0)

    def test_hand_enumerated_example(self):
        p, r, f = pairwise_prf([0, 0, 1, 1], [0, 0, 0, 1])
        assert p == pytest.approx(1 / 3)
        assert r == pytest.approx(1 / 2)
        assert f == pytest.approx(2 / 5)

    def test_matches_pair_loop(self, rng):
        for _ in range(100):
            truth, pred = random_label_pair(rng)
            tp, fp, fn = pair_counts_loop(truth, pred)
            p, r, f = pairwise_prf(truth, pred)
            assert p == pytest.approx(tp / (tp + fp) if tp + fp else 1.0, abs=1e-10)
            assert r == pytest.approx(tp / (tp + fn) if tp + fn else 1.0, abs=1e-10)


class TestInvariances:
    @given(labelings, st.permutations(range(5)))
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance(self, truth, mapping):
        pred = [(x * 7 + 1) % 5 for x in truth]  # some deterministic prediction
        relabeled = [mapping[x] for x in pred]
        for metric in (accuracy, nmi, ari):
            assert metric(truth, pred) == pytest.approx(metric(truth, relabeled), abs=1e-10)
        assert pairwise_prf(truth, pred) == pytest.approx(
            pairwise_prf(truth, relabeled), abs=1e-10
        )

    def test_sample_order_invariance(self, rng):
        truth, pred = random_label_pair(rng, n_max=25)
        perm = rng.permutation(truth.size)
        before = compute_metrics(truth, pred)
        after = compute_metrics(truth[perm], pred[perm])
        assert asdict(before) == pytest.approx(asdict(after), abs=1e-12)

    def test_accuracy_at_least_largest_agreement_cell(self, rng):
        # any single (truth, pred) pairing extends to a full assignment,
        # so the optimum is at least the largest contingency cell
        for _ in range(50):
            truth, pred = random_label_pair(rng)
            best_cell = max(
                np.sum((truth == t) & (pred == p))
                for t in np.unique(truth)
                for p in np.unique(pred)
            )
            assert accuracy(truth, pred) >= best_cell / truth.size - 1e-12

    def test_report_ranges(self, rng):
        truth, pred = random_label_pair(rng)
        m = compute_metrics(truth, pred)
        for value in (m.acc, m.nmi, m.precision, m.fscore):
            assert 0.0 <= value <= 1.0
        assert -1.0 <= m.ari <= 1.0
