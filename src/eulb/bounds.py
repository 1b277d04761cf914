"""Memory-assisted entropic uncertainty: measured sum and its lower bounds.

For observables Q, R measured on qubit A of a two-qubit state rho_AB, with
qubit B kept as the memory, the quantities of interest are

    U_left        = S(Q|B) + S(R|B)                (post-measurement entropies)
    Berta bound   = log2(1/c) + S(A|B)             (c = max squared overlap)
    Adabi bound   = Berta + max(0, delta),
    delta         = I(A;B) - I(Q;B) - I(R;B)       (Holevo information gap)

Everything here is computed from eigendecomposition-based definitions;
the tabulated closed forms that audit.py checks are never used.

The ledger functions take one 4x4 state or a (..., 4, 4) stack, such as
one state per time point, through the same code; for a stack their
results carry the stack axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, partial_trace, tensor_product, von_neumann_entropy

ZERO_PROBABILITY_TOL = 1e-12


@dataclass(eq=False)
class Observable:
    """A qubit observable given by its orthonormal eigenbasis (kets[i] = i-th ket)."""

    name: str
    kets: np.ndarray

    def __post_init__(self) -> None:
        kets = np.asarray(self.kets, dtype=complex)
        if kets.shape != (2, 2):
            raise ValueError(f"kets must be a 2x2 array of row vectors, got {kets.shape}")
        gram = kets.conj() @ kets.T
        if np.max(np.abs(gram - np.eye(2))) > 1e-12:
            raise ValueError(f"eigenbasis of {self.name!r} is not orthonormal")
        self.kets = kets

    def projectors(self) -> list[np.ndarray]:
        return [np.outer(k, k.conj()) for k in self.kets]

    def full_projectors(self) -> list[np.ndarray]:
        """The projectors lifted to the A factor of the two-qubit space, cached."""
        cached = getattr(self, "_full_projectors", None)
        if cached is None:
            cached = [tensor_product(proj, IDENTITY_2) for proj in self.projectors()]
            self._full_projectors = cached
        return cached


def pauli_x() -> Observable:
    s = 1.0 / math.sqrt(2.0)
    return Observable("sigma_x", np.array([[s, s], [s, -s]]))


def pauli_z() -> Observable:
    return Observable("sigma_z", np.eye(2))


def complementarity(q: Observable, r: Observable) -> float:
    """max_{i,j} |<q_i|r_j>|^2; equals 1/2 for mutually unbiased qubit bases."""
    overlaps = q.kets.conj() @ r.kets.T
    return float(np.max(np.abs(overlaps) ** 2))


def post_measurement_state(rho: np.ndarray, obs: Observable) -> np.ndarray:
    """Dephase rho in the measurement basis of A: sum_i (P_i x I) rho (P_i x I)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for m in obs.full_projectors():
        out += m @ rho @ m
    return out


def _branches(rho: np.ndarray, obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Measure obs on A: outcome probabilities p_i = Tr sigma_i, shape (..., 2), and
    the unnormalised memory states sigma_i = <q_i|rho|q_i>, shape (..., 2, 2, 2)."""
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # [..., a, b, a', b']
    sigma = np.einsum("ia,...abcd,ic->...ibd", obs.kets.conj(), r, obs.kets)
    return np.einsum("...ibb->...i", sigma).real, sigma


def _holevo(s_b: np.ndarray, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """S(rho_B) - sum_i p_i S(sigma_i / p_i), from the branch probabilities p and
    the entropies h of the unnormalised branch spectra, using
    p S(sigma/p) = h + p log2 p.  Zero-probability outcomes contribute 0."""
    live = p > ZERO_PROBABILITY_TOL
    return s_b - np.sum(np.where(live, h + p * np.log2(np.where(live, p, 1.0)), 0.0), axis=-1)


@dataclass(frozen=True)
class BoundsRecord:
    """Full information ledger for one time point of a sweep (all values in bits).

    bounds_record on a (..., 4, 4) stack returns one record whose fields are
    arrays over the stack axes.
    """

    t: float
    amplitude: float
    u_left: float
    berta: float
    adabi: float
    delta: float
    holevo_q: float
    holevo_r: float
    mutual_info: float
    cond_entropy: float


def bounds_record(
    rho: np.ndarray,
    q: Observable,
    r: Observable,
    t: float = 0.0,
    amplitude: float = 1.0,
) -> BoundsRecord:
    """Compute every BoundsRecord field, sharing the spectral decompositions.

    rho is one 4x4 state or a (..., 4, 4) stack; t and amplitude broadcast
    against the stack axes.
    """
    rho = np.asarray(rho, dtype=complex)
    p_q, sigma_q = _branches(rho, q)
    p_r, sigma_r = _branches(rho, r)
    # One batched 2x2 solve gives S(A), S(B) and the branch entropies.  The
    # post-measurement state is block diagonal in the measured basis, so
    # its entropy is the sum of its branches' entropies.
    marginals = np.stack([partial_trace(rho, "A"), partial_trace(rho, "B")], axis=-3)
    s = von_neumann_entropy(np.concatenate([marginals, sigma_q, sigma_r], axis=-3))
    s_a, s_b, h_q, h_r = s[..., 0], s[..., 1], s[..., 2:4], s[..., 4:6]
    s_ab = von_neumann_entropy(rho)
    hol_q = _holevo(s_b, p_q, h_q)
    hol_r = _holevo(s_b, p_r, h_r)
    mi = s_a + s_b - s_ab
    ce = s_ab - s_b
    delta = mi - hol_q - hol_r
    berta = math.log2(1.0 / complementarity(q, r)) + ce
    u_left = (np.sum(h_q, axis=-1) - s_b) + (np.sum(h_r, axis=-1) - s_b)
    adabi = berta + np.maximum(0.0, delta)
    values = (t, amplitude, u_left, berta, adabi, delta, hol_q, hol_r, mi, ce)
    if rho.ndim == 2:
        return BoundsRecord(*(float(v) for v in values))
    # broadcast_to per field: broadcast_arrays of the ten values allocates
    # ~27.5 kB on every stacked call, broadcast_to ~1.8 kB (numpy 2.4)
    return BoundsRecord(*(np.broadcast_to(np.asarray(v, dtype=float), u_left.shape) for v in values))
