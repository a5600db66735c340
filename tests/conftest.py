import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvsc
from mvsc.data import MultiViewDataset, ViewMatrix
from mvsc.solver import SolverConfig, SolverState, z_step_factors

from oracles import random_orthonormal, random_row_stochastic_zero_diag


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def fresh_python():
    """Run ``python *argv`` in a fresh interpreter that imports this mvsc."""
    src = str(Path(mvsc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *map(str, argv)], env=env,
                              capture_output=True, text=True)

    return run


def make_random_state(dataset: MultiViewDataset, config: SolverConfig,
                      rng: np.random.Generator, mu: float | None = None,
                      kappa=None, beta: float = 1.0) -> SolverState:
    """A generic (not solver-produced) state satisfying the structural
    invariants: A row-stochastic with zero diagonal, w on the simplex, Q
    orthonormal; everything else arbitrary. Its penalty weights are the
    reconstruction weights ``kappa``, one per view (1 each when None), and the
    Z = A weight ``beta``, with the Z-step factors at them."""
    n = dataset.n_samples
    Z, A, U, E, L1, L2, L3, w = [], [], [], [], [], [], [], []
    for view in dataset.views:
        d = view.n_features
        Z.append(rng.standard_normal((n, n)) * 0.5)
        A.append(random_row_stochastic_zero_diag(n, rng))
        U.append(rng.standard_normal((n, n)) * 0.5)
        E.append(rng.standard_normal((d, n)) * 0.5)
        L1.append(rng.standard_normal((d, n)) * 0.5)
        L2.append(rng.standard_normal((n, n)) * 0.5)
        L3.append(rng.standard_normal((n, n)) * 0.5)
        raw = rng.uniform(0.1, 1.0, size=d)
        w.append(raw / raw.sum())
    Q = random_orthonormal(n, config.n_clusters, rng)
    mu = float(rng.uniform(0.05, 5.0)) if mu is None else mu
    kappa = [1.0] * dataset.n_views if kappa is None else list(kappa)
    return SolverState(Z=Z, A=A, U=U, E=E, Lam1=L1, Lam2=L2, Lam3=L3, w=w, Q=Q, mu=mu,
                       kappa=kappa, beta=beta, z_factor=z_step_factors(dataset, kappa, beta))


def make_random_dataset(n: int, dims: tuple[int, ...], rng: np.random.Generator,
                        labels=None) -> MultiViewDataset:
    views = tuple(
        ViewMatrix(values=rng.standard_normal((d, n)), view_index=v)
        for v, d in enumerate(dims)
    )
    return MultiViewDataset(views=views, labels=labels)
