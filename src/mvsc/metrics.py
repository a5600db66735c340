"""Clustering quality metrics: ACC, NMI, ARI, pairwise precision and F-score.

All five are invariant under relabeling of either argument; labels may be
arbitrary integers (no contiguity assumed). NMI uses the geometric-mean
normalization I / sqrt(H_t * H_p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricReport:
    acc: float
    nmi: float
    ari: float
    precision: float
    fscore: float


def _check_labels(truth, pred, min_n: int = 1) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth).ravel()
    pred = np.asarray(pred).ravel()
    if truth.size != pred.size:
        raise ValueError(f"label length mismatch: {truth.size} vs {pred.size}")
    if truth.size < min_n:
        raise ValueError(f"need at least {min_n} samples, got {truth.size}")
    return truth, pred


def contingency_table(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Count matrix over the distinct labels of each argument."""
    _, ti = np.unique(truth, return_inverse=True)
    _, pi = np.unique(pred, return_inverse=True)
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


def _max_assignment(table: np.ndarray) -> int:
    """Largest sum of entries of an integer matrix with at most one per row and column.

    The Hungarian method with potentials (Kuhn 1955; Jonker & Volgenant
    1987) on the costs max(table) - table, in O(r^2 c) for r <= c rows
    (the table is transposed otherwise): each row joins along a shortest
    augmenting path. Integer costs keep every step exact.
    """
    a = table.T if table.shape[0] > table.shape[1] else table
    r, c = a.shape
    big = np.iinfo(np.int64).max
    # rows and columns count from 1; column 0 is a virtual one holding the row being added
    cost = np.zeros((r + 1, c + 1), dtype=np.int64)
    cost[1:, 1:] = a.max() - a
    u, v = np.zeros(r + 1, dtype=np.int64), np.zeros(c + 1, dtype=np.int64)
    match = np.zeros(c + 1, dtype=np.int64)  # the row matched to each column, 0 if none
    for i in range(1, r + 1):
        match[0], j = i, 0
        minv, way = np.full(c + 1, big), np.zeros(c + 1, dtype=np.int64)
        used = np.zeros(c + 1, dtype=bool)
        while match[j]:  # grow the shortest-path tree until it reaches a free column
            used[j] = True
            reduced = cost[match[j]] - u[match[j]] - v
            better = ~used & (reduced < minv)
            minv[better], way[better] = reduced[better], j
            j = int(np.argmin(np.where(used, big, minv)))
            delta = minv[j]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j:  # augment along the path back to the virtual column
            match[j] = match[way[j]]
            j = way[j]
    cols = np.flatnonzero(match[1:])
    return int(a[match[cols + 1] - 1, cols].sum())


def accuracy(truth, pred) -> float:
    """Best-match accuracy: optimal one-to-one label assignment on the confusion matrix,
    found exactly by the Hungarian method on the integer counts.

    With different cluster counts on the two sides, the surplus clusters of
    the larger side stay unmatched.
    """
    truth, pred = _check_labels(truth, pred, min_n=1)
    return float(_max_assignment(contingency_table(truth, pred))) / truth.size


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(truth, pred) -> float:
    """Normalized mutual information between two labelings, in [0, 1].

    Exactly 1 when the partitions agree up to relabeling (one nonzero per
    row and per column of the contingency table), both single-cluster
    included, and 0 when exactly one of them is single-cluster (the
    normalizer vanishes there). Rounding cannot carry it above 1, as
    I <= min(H_t, H_p) <= sqrt(H_t * H_p).
    """
    truth, pred = _check_labels(truth, pred, min_n=1)
    n = truth.size
    table = contingency_table(truth, pred)
    nz = table > 0
    if np.count_nonzero(nz) == table.shape[0] == table.shape[1]:
        return 1.0
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    h_t = _entropy(a, n)
    h_p = _entropy(b, n)
    if h_t == 0.0 or h_p == 0.0:
        return 0.0

    nij = table[nz].astype(float)
    outer = np.outer(a, b)[nz].astype(float)
    mi = float((nij / n * (np.log(n * nij) - np.log(outer))).sum())
    return min(max(mi, 0.0) / math.sqrt(h_t * h_p), 1.0)


def _pair_counts(table: np.ndarray) -> tuple[float, float, float, float]:
    """(same-in-both, same-in-truth, same-in-pred, total) unordered pair counts."""

    def comb2(x: np.ndarray) -> float:
        x = x.astype(float)
        return float((x * (x - 1) / 2).sum())

    n = int(table.sum())
    tp = comb2(table)
    same_truth = comb2(table.sum(axis=1))
    same_pred = comb2(table.sum(axis=0))
    total = n * (n - 1) / 2
    return tp, same_truth, same_pred, total


def ari(truth, pred) -> float:
    """Adjusted Rand index from the pair-count contingency table."""
    truth, pred = _check_labels(truth, pred, min_n=2)
    tp, same_truth, same_pred, total = _pair_counts(contingency_table(truth, pred))
    expected = same_truth * same_pred / total
    denom = 0.5 * (same_truth + same_pred) - expected
    if denom == 0.0:
        # both partitions degenerate in the same way (all-singleton or single-cluster)
        return 1.0
    return (tp - expected) / denom


def pairwise_prf(truth, pred) -> tuple[float, float, float]:
    """Pair-counting precision, recall, and F-score.

    A pair counts as TP when co-clustered in both labelings, FP when
    co-clustered only in pred, FN only in truth. Empty denominators give
    precision/recall 1; F-score is 0 when both are 0.
    """
    truth, pred = _check_labels(truth, pred, min_n=2)
    tp, same_truth, same_pred, _ = _pair_counts(contingency_table(truth, pred))
    precision = tp / same_pred if same_pred > 0 else 1.0
    recall = tp / same_truth if same_truth > 0 else 1.0
    if precision + recall == 0.0:
        fscore = 0.0
    else:
        fscore = 2.0 * precision * recall / (precision + recall)
    return float(precision), float(recall), float(fscore)


def compute_metrics(truth, pred) -> MetricReport:
    """All five metrics in one report."""
    precision, _, fscore = pairwise_prf(truth, pred)
    return MetricReport(
        acc=accuracy(truth, pred),
        nmi=nmi(truth, pred),
        ari=ari(truth, pred),
        precision=precision,
        fscore=fscore,
    )
