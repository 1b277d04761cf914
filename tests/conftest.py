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


# Reference constructors that tests compare the package against.  The
# package builds and reduces states with numpy directly; these are the
# independent routes.  Two-qubit operators are in the A-major basis, the
# ordering np.kron(a, b) gives.

PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduce a two-qubit operator, or a (..., 4, 4) stack, to qubit 'A' or 'B'."""
    r = np.asarray(rho).reshape(np.shape(rho)[:-2] + (2, 2, 2, 2))  # [..., a, b, a', b']
    return np.einsum({"A": "...ijkj->...ik", "B": "...ijik->...jk"}[keep], r)


def projectors(obs: Observable) -> list[np.ndarray]:
    """The eigenprojectors |k><k| of a qubit observable."""
    return [np.outer(k, k.conj()) for k in obs.kets]


def post_measurement_state(rho: np.ndarray, obs: Observable) -> np.ndarray:
    """rho dephased in obs's basis on A: sum_i (P_i x I) rho (P_i x I)."""
    lifted = [np.kron(p, np.eye(2)) for p in projectors(obs)]
    return sum(m @ rho @ m for m in lifted)


def bell_diagonal_from_r(r: tuple[float, float, float]) -> np.ndarray:
    """The Bell-diagonal state (I x I + sum_i r_i sigma_i x sigma_i) / 4."""
    return (np.eye(4) + sum(c * np.kron(s, s) for c, s in zip(r, PAULIS))) / 4


def evolved_max_entangled(c: float) -> np.ndarray:
    """The evolved maximally entangled state at amplitude c, written out entry by entry."""
    rho = np.zeros((4, 4))
    rho[0, 0], rho[1, 1], rho[3, 3] = 0.5 * c * c, 0.5 * (1.0 - c * c), 0.5
    rho[0, 3] = rho[3, 0] = 0.5 * c
    return rho


@pytest.fixture(scope="session")
def preset_sweeps():
    """All four preset sweeps, computed once for the whole session."""
    return {fig: run_sweep(figure_preset(fig)) for fig in (2, 3, 4, 5)}
