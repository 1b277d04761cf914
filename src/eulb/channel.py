"""One-sided amplitude decay on the memory qubit, and the reference initial states.

The channel acts on the B factor of a two-qubit state: the population of
the decaying level |0> scales by c^2, coherences between the two levels
scale by c, and the lost population lands on the absorbing level |1>.
The amplitude c is signed; in the strong-coupling regime it genuinely
crosses zero.  With |0> decaying the channel reproduces the evolved
maximally entangled matrix literally (tests/conftest.py writes that matrix
out as a reference).  apply_memory_decay takes one state or a (..., 4, 4)
stack, and one amplitude or an array of them, such as a whole time series
of C(t).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _inexact, _is_real, _real_array

_AMPLITUDE_SLACK = 1e-9  # |c| may exceed 1 by roundoff from the dynamics


def apply_memory_decay(rho: np.ndarray, c) -> np.ndarray:
    """Apply the decay channel with amplitude c to the B side of a 4x4 state.

    Kraus elements (on B): K0 = c |0><0| + |1><1|, K1 = sqrt(1-c^2) |1><0|,
    which preserve the trace identically.  c = 1 is the identity map and
    c = -1 a phase flip on level 0.  No choice of decaying level is offered:
    decay from level 1 is X_B AD(X_B rho X_B) X_B, this channel conjugated
    by a local unitary, and both reference states are invariant under
    X x X.  rho may be a (..., 4, 4) stack and c an array of amplitudes;
    the two broadcast, so one state and a series of amplitudes give one
    evolved state per amplitude.  Every amplitude must be finite.  The map
    has real coefficients, so a real state comes out float64 and a complex
    one complex128.
    """
    rho = _inexact(rho, "rho")
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 state, got shape {rho.shape}")
    return _decay(rho, _real_array(c, "channel amplitude"))


def _decay(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    # apply_memory_decay's core: the one site of the amplitude checks and clamp
    if not np.all(np.isfinite(c)):
        raise ValueError("channel amplitude must be finite")
    if np.any(np.abs(c) > 1.0 + _AMPLITUDE_SLACK):
        raise ValueError(f"channel amplitude |{np.max(np.abs(c))}| > 1 would break positivity")
    c = np.clip(c, -1.0, 1.0)
    # The Kraus pair acts elementwise on the B indices of r[..., a, b, a', b']:
    # each B index 0 scales an entry by c, and the lost population (1 - c^2)
    # of every |0><0| block moves to the |1><1| block.
    level = np.ones(c.shape + (2,))
    level[..., 0] = c
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    out = r * (level[..., None, :, None, None] * level[..., None, None, None, :])
    out[..., :, 1, :, 1] += (1.0 - c * c)[..., None, None] * r[..., :, 0, :, 0]
    return out.reshape(out.shape[:-4] + (4, 4))


def max_entangled_initial() -> np.ndarray:
    """The maximally entangled pure state (|00> + |11>)/sqrt(2) as a real 4x4 matrix."""
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return rho


def bell_diagonal_initial(p: float) -> np.ndarray:
    """Bell mixture p |psi-><psi-| + (1-p)/2 (|psi+><psi+| + |phi+><phi+|).

    Built directly from the Bell projectors; it equals the Pauli-basis form
    (I x I + sum_i r_i sigma_i x sigma_i) / 4 with r = (1-2p, -p, -p).
    Marginals are maximally mixed for every p; the spectrum is
    {p, (1-p)/2, (1-p)/2, 0}.  The matrix is real (float64).
    """
    if not (_is_real(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    p = float(p)
    s = 1.0 / math.sqrt(2.0)
    psi_minus, psi_plus, phi_plus = np.array([[0, s, -s, 0], [0, s, s, 0], [s, 0, 0, s]])
    rho = p * np.outer(psi_minus, psi_minus)
    for ket in (psi_plus, phi_plus):
        rho = rho + 0.5 * (1.0 - p) * np.outer(ket, ket)
    return rho
