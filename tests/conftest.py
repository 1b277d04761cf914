from __future__ import annotations

import numpy as np
import pytest

from eulb.bounds import Observable
from eulb.sweep import figure_preset, run_sweep


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)


def random_density_matrix(
    rng: np.random.Generator, dim: int = 4, rank: int | None = None
) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_observable_pair(rng: np.random.Generator) -> tuple[Observable, Observable]:
    """Two qubit observables whose complementarity is uniform in [1/2, 1]."""
    c = rng.uniform(0.5, 1.0)
    a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
    s, t = np.sqrt(c), np.sqrt(1.0 - c)
    w = np.array(
        [[s * np.exp(1j * a), t * np.exp(1j * b)], [-t * np.exp(-1j * b), s * np.exp(-1j * a)]]
    )
    kets = random_unitary(rng, 2).T  # rows are kets
    return Observable("q", kets), Observable("r", w @ kets)  # <q_i|r_j> = w[j, i]


@pytest.fixture(scope="session")
def preset_sweeps():
    """All four preset sweeps, computed once for the whole session."""
    return {fig: run_sweep(figure_preset(fig)) for fig in (2, 3, 4, 5)}
