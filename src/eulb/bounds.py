"""Memory-assisted entropic uncertainty: measured sum and its lower bounds.

For observables Q, R measured on qubit A of a two-qubit state rho_AB, with
qubit B kept as the memory, the quantities of interest are

    U_left        = S(Q|B) + S(R|B)                (post-measurement entropies)
    Berta bound   = log2(1/c) + S(A|B)             (c = max squared overlap)
    Adabi bound   = Berta + max(0, delta),
    delta         = I(A;B) - I(Q;B) - I(R;B)       (Holevo information gap)

Everything here is computed from the definitions through spectra: the
4x4 spectrum of rho from LAPACK, the 2x2 spectra of its marginals and
measurement branches in closed form (linalg._eigvalsh_2x2).  A ledger
call makes one Hermiticity check, on rho, and one floor check over all
16 eigenvalues, whose error names the smallest of them.  The tabulated
closed forms that audit.py checks are never used.

The ledger functions take one 4x4 state or a (..., 4, 4) stack, such as
one state per time point, through the same code; for a stack their
results carry the stack axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _check_hermitian, _eigvalsh_2x2, _entropy, _inexact, _plogp
from .linalg import eigenvalues_hermitian  # noqa: F401  # re-exported: eulb.bounds.eigenvalues_hermitian

ZERO_PROBABILITY_TOL = 1e-12
_IDENTITY = np.eye(2)


@dataclass(eq=False)
class Observable:
    """A qubit observable given by its orthonormal eigenbasis (kets[i] = i-th ket)."""

    name: str
    kets: np.ndarray

    def __post_init__(self) -> None:
        kets = _inexact(self.kets, "kets")
        if kets.shape != (2, 2):
            raise ValueError(f"kets must be a 2x2 array of row vectors, got {kets.shape}")
        with np.errstate(invalid="ignore"):  # an inf ket gives a NaN gram, rejected below
            gram = kets.conj() @ kets.T
        if not np.max(np.abs(gram - np.eye(2))) <= 1e-12:  # NaN fails too
            raise ValueError(f"eigenbasis of {self.name!r} is not orthonormal")
        self.kets = kets


def pauli_x() -> Observable:
    s = 1.0 / math.sqrt(2.0)
    return Observable("sigma_x", np.array([[s, s], [s, -s]]))


def pauli_z() -> Observable:
    return Observable("sigma_z", np.eye(2))


def complementarity(q: Observable, r: Observable) -> float:
    """max_{i,j} |<q_i|r_j>|^2; equals 1/2 for mutually unbiased qubit bases."""
    overlaps = q.kets.conj() @ r.kets.T
    return float(np.abs(overlaps).max() ** 2)


def _reduced_spectra(rho: np.ndarray, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of rho_A, rho_B and the unnormalised memory branches <k|rho|k>
    for the four kets k, shape (..., 6, 2), and the outcome probabilities
    Tr <k|rho|k>, shape (..., 4), from one contraction and one closed-form
    2x2 solve over all six blocks.  rho and kets share one dtype."""
    stack = rho.shape[:-2]
    weights = np.empty((5, 2, 2), dtype=rho.dtype)
    weights[0] = _IDENTITY  # a constant: a per-call np.eye (~5 kB transient) set the peak
    np.multiply(kets.conj()[:, :, None], kets[:, None, :], out=weights[1:])
    reduced = np.empty(stack + (6, 4), dtype=rho.dtype)  # rho_A, rho_B, then the branches
    # rho_A: the b = d = 0, 1 entries, summed before the blocks copy below is alive
    reduced[..., 0, :] = (rho[..., ::2, ::2] + rho[..., 1::2, 1::2]).reshape(stack + (4,))
    # rho viewed as [..., (a, c), (b, d)], so that one weight row over (a, c)
    # contracts qubit A away: the identity gives rho_B, and conj(k_a) k_c
    # gives the branch <k|rho|k>.
    blocks = rho.reshape(stack + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(stack + (4, 4))
    np.einsum("jm,...mx->...jx", weights.reshape(5, 4), blocks, out=reduced[..., 1:, :])
    del blocks  # a copy of rho: freed before the solve's temporaries set the peak
    evals = _eigvalsh_2x2(reduced.reshape(stack + (6, 2, 2)))
    # all six traces: (..., 6) coalesces to one axis, so the ufunc needs no buffer
    return evals, (reduced.real[..., 0] + reduced.real[..., 3])[..., 2:]


def _holevo(s_b: np.ndarray, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """S(rho_B) - sum_i p_i S(sigma_i / p_i), from the branch probabilities p and
    the entropies h of the unnormalised branch spectra, using
    p S(sigma/p) = h + p log2 p.  Zero-probability outcomes contribute 0."""
    live = p > ZERO_PROBABILITY_TOL
    chi = s_b - np.where(live, h + p * np.log2(np.where(live, p, 1.0)), 0.0).sum(axis=-1)
    return np.maximum(chi, 0.0, out=chi)  # roundoff guard: a zero chi can come out -1e-16


@dataclass(frozen=True)
class BoundsRecord:
    """Full information ledger of one state (all values in bits).

    bounds_record on a (..., 4, 4) stack returns one record whose fields are
    arrays over the stack axes.  A sweep keeps its times and C(t) beside it.
    """

    u_left: float
    berta: float
    adabi: float
    delta: float
    holevo_q: float
    holevo_r: float
    mutual_info: float
    cond_entropy: float


def bounds_record(rho: np.ndarray, q: Observable, r: Observable) -> BoundsRecord:
    """Compute every BoundsRecord field, sharing the spectral decompositions.

    rho is one 4x4 state or a (..., 4, 4) stack.  The dtypes alone set the
    arithmetic: complex when rho or a ket of q or r has a complex dtype,
    else real, whatever the values.  So every member of a stack runs as its
    own call would in that dtype, and a complex-dtype state with zero
    imaginary part takes the complex route.  A NaN or inf entry raises
    ValueError.
    """
    return _ledger(rho, q, r)[0]


def _ledger(rho: np.ndarray, q: Observable, r: Observable) -> tuple[BoundsRecord, np.ndarray]:
    """bounds_record's record, and the post-measurement entropies S(rho_QB)
    and S(rho_RB) over the stack axes, shape (..., 2)."""
    rho = _inexact(rho, "rho")
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"bounds_record expects a 4x4 state or a stack of them, got {rho.shape}")
    kets = np.concatenate([q.kets, r.kets])  # the kets of q, then of r
    if rho.dtype != kets.dtype:  # float64 or complex128 each: one is complex
        rho, kets = rho.astype(complex, copy=False), kets.astype(complex, copy=False)
    # The call's one Hermiticity check: the six 2x2 blocks that _reduced_spectra
    # solves are partial traces and compressions of rho, Hermitian with it.
    _check_hermitian(rho)
    evals, p = _reduced_spectra(rho, kets)  # the block solve sets the call's memory peak
    # rho's 4 eigenvalues, from LAPACK after that solve, then the blocks' 12
    terms = np.concatenate([np.linalg.eigvalsh(rho)[..., ::-1], evals.reshape(*p.shape[:-1], 12)], -1)
    del evals
    _plogp(terms)
    s_ab = _entropy(terms[..., :4])
    s = _entropy(terms[..., 4:].reshape(p.shape[:-1] + (6, 2)))
    del terms  # freed before _holevo's temporaries
    s_a, s_b = s[..., 0], s[..., 1]
    h = s[..., 2:].reshape(s.shape[:-1] + (2, 2))  # [..., observable q or r, outcome]
    post = h.sum(axis=-1)  # the post-measurement state is block diagonal: a sum of branches
    hol = _holevo(s_b[..., None], p.reshape(h.shape), h)
    mi = s_a + s_b - s_ab
    ce = s_ab - s_b
    delta = mi - hol[..., 0] - hol[..., 1]
    berta = math.log2(1.0 / complementarity(q, r)) + ce
    u_left = (post[..., 0] - s_b) + (post[..., 1] - s_b)
    adabi = berta + np.maximum(0.0, delta)
    values = (u_left, berta, adabi, delta, hol[..., 0], hol[..., 1], mi, ce)
    if rho.ndim == 2:
        # a list: star-unpacking a map left argument tuples on the free list
        return BoundsRecord(*[float(v) for v in values]), post
    return BoundsRecord(*values), post
