"""Dense linear algebra for 2x2 and 4x4 Hermitian matrices.

States are plain ``numpy`` arrays.  Two-qubit matrices use the A-major
basis ordering |00>, |01>, |10>, |11> (flat index = 2a + b) throughout
the package.  All entropies are in bits (base-2 logarithms).

Every function accepts one matrix or a stack of shape (..., n, n), such
as one state per time point, and works on the whole stack through the
same code: checks run once over the stack, and results gain the leading
stack axes.  The Hermiticity check and the spectra keep a real input real
(LAPACK's real symmetric solver) and solve a complex one in complex
arithmetic.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _inexact(m) -> np.ndarray:
    """m as a float64 array, or complex128 when its dtype is complex."""
    m = np.asarray(m)
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m, or of any member of a stack, from its adjoint."""
    m = _inexact(m)
    return float(np.abs(m - m.swapaxes(-1, -2).conj()).max())


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace, positivity and finiteness; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"{name} must be 2x2 or 4x4, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    defect = hermiticity_defect(rho)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    trace_error = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0))
    if trace_error > TRACE_TOL:
        raise ValueError(f"{name} trace deviates from 1 by {trace_error:.3e}")
    smallest = np.min(eigenvalues_hermitian(rho)[..., -1])
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {smallest:.3e}")
    return rho


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 operators (A factor first, giving the A-major basis).

    Inputs need not be density matrices; projectors and other Hermitian
    operators are accepted unchecked.  Stacks of factors broadcast.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        raise ValueError(f"tensor_product expects 2x2 factors, got {a.shape} and {b.shape}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]  # [a, b, a', b']
    return out.reshape(out.shape[:-4] + (4, 4))


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduce a 4x4 two-qubit operator to the kept subsystem ('A' or 'B')."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got shape {rho.shape}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # indices [..., a, b, a', b']
    if keep == "A":
        return np.einsum("...ijkj->...ik", r)
    if keep == "B":
        return np.einsum("...ijik->...jk", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def eigenvalues_hermitian(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 or 4x4 Hermitian matrix, sorted descending (LAPACK eigvalsh)."""
    m = _inexact(m)
    if m.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigvalsh(m)[..., ::-1]


def entropy_from_eigenvalues(evals: np.ndarray) -> float | np.ndarray:
    """-sum p log2 p over the last axis, with 0 log 0 = 0.

    Eigenvalues in [-1e-10, 0) are clamped to 0.  The spectrum need not be
    normalised: for a branch of probability p, p S(sigma/p) equals this
    entropy of sigma's spectrum plus p log2 p.
    """
    evals = np.asarray(evals, dtype=float)
    # one reduction; fmin skips NaN, and the initial value covers an empty stack
    smallest = np.fmin.reduce(evals, axis=None, initial=np.inf)
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {smallest:.3e} below positivity floor {EIGENVALUE_FLOOR}")
    p = np.where(evals > 0.0, evals, 1.0)  # 1 log 1 = 0 stands in for 0 log 0
    s = -(p * np.log2(p)).sum(axis=-1)
    return np.maximum(s, 0.0)  # roundoff guard when an eigenvalue exceeds 1 by ~1 ulp


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits of a 2x2 or 4x4 density matrix, or of each member of a stack."""
    return entropy_from_eigenvalues(eigenvalues_hermitian(rho))


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """Binary entropy -x log2 x - (1-x) log2 (1-x) in bits, for x in [0, 1], elementwise."""
    x = np.asarray(x, dtype=float)
    if np.any((x < -1e-12) | (x > 1.0 + 1e-12)):
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    return entropy_from_eigenvalues(np.stack([x, 1.0 - x], axis=-1))
