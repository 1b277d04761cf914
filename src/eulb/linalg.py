"""Spectra and entropies of 2x2 and 4x4 Hermitian matrices.

States are plain ``numpy`` arrays, built and reduced with numpy directly.
Two-qubit matrices use the A-major basis ordering |00>, |01>, |10>, |11>
(flat index = 2a + b), the ordering np.kron(a, b) gives.  All entropies
are in bits (base-2 logarithms).

Every matrix function accepts one matrix or a stack of shape (..., n, n),
such as one state per time point, and works on the whole stack through
the same code: checks run once over the stack, and results gain the
leading stack axes.  The Hermiticity check and the spectra keep a real
input real and solve a complex one in complex arithmetic.  2x2 spectra
come in closed form from elementwise ufuncs; 4x4 spectra come from
LAPACK (numpy's eigvalsh, its real symmetric solver for a real input).
Entropies take the floor check and p log2 p from one kernel: a ledger
call runs it once over its 16 eigenvalues; the error names the smallest.

This base module also owns the package's one rule for numeric input
(_inexact): integer, float or complex dtypes, never bools or strings.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _is_int(value) -> bool:
    # floats such as 2.0 pass == checks but break array sizes, np.linspace and
    # the CSV; bool subclasses int but is no count or label (np.bool_ is no
    # np.integer)
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # a Python or numpy real number; bool and np.bool_ are flags, and strings
    # or None must fail as input errors before any arithmetic sees them
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_positive_finite(value) -> bool:
    try:  # math.isfinite of an int beyond the float range raises OverflowError
        return _is_real(value) and math.isfinite(value) and value > 0
    except OverflowError:
        return False


def _inexact(value, name: str, real: bool = False) -> np.ndarray:
    """value as float64, or as complex128 when its dtype is complex and real is False.

    The package's one rule for numeric input.  np.asarray(value, dtype=float)
    parses a string and reads a bool as 0 or 1, so a dtype other than
    integer, float or (unless real) complex raises ValueError naming the
    argument, and so does a bool inside a list or tuple, which numpy promotes.
    """
    arr = np.asarray(value)
    kind, what = arr.dtype.kind, ("a real number" if real else "a real or complex number")
    if kind not in ("iuf" if real else "iufc"):
        raise ValueError(f"{name} must be {what} or an array of them, got {arr.dtype.name}")
    if isinstance(value, (list, tuple)):  # arrays and scalars skip this search
        for item in np.asarray(value, dtype=object).flat:
            # a Python bool, an np.bool_ or a 0-d bool array
            if isinstance(item, bool) or getattr(item, "dtype", None) == bool:
                raise ValueError(f"{name} must be {what} or an array of them, got {item!r} in a list")
    return arr.astype(complex if kind == "c" else float, copy=False)


def _real_array(value, name: str) -> np.ndarray:
    return _inexact(value, name, real=True)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m, or of any member of a stack, from its adjoint.

    A NaN or inf entry gives NaN or inf, without a RuntimeWarning.
    """
    return _defect(_inexact(m, "m"))


def _defect(m: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which callers reject
        return float(np.abs(m - m.swapaxes(-1, -2).conj()).max(initial=0.0))


def _check_hermitian(m: np.ndarray) -> None:
    # a NaN or inf entry makes the defect NaN or inf, so this also rejects it
    if not (defect := _defect(m)) <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian or has non-finite entries (defect {defect:.3e})")


def _eigvalsh_2x2(m: np.ndarray) -> np.ndarray:
    """Ascending float64 eigenvalues of a (..., 2, 2) Hermitian stack, real or complex.

    (a + d)/2 -+ hypot((a - d)/2, |m[..., 1, 0]|) from elementwise ufuncs
    only, so a stack member gets the bits its own call gets.  It makes no
    check of its own and reads the lower triangle, as LAPACK's 'L' does.  The error is a few
    ulps of max |entry|; hypot keeps tiny and huge entries from underflow
    and overflow.
    """
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    # in place in the result and one radius buffer (np.abs of one matrix's entry
    # is a scalar: no out), as the ledger's block solve sets the sweep's memory peak
    evals = np.empty(m.shape[:-2] + (2,))
    low, high = evals[..., 0], evals[..., 1]  # views, 0-d arrays for one matrix
    np.add(a, d, out=high)
    high *= 0.5
    np.subtract(a, d, out=low)
    low *= 0.5
    radius = np.abs(m[..., 1, 0], out=np.empty(m.shape[:-2]))
    np.hypot(low, radius, out=radius)
    np.subtract(high, radius, out=low)
    high += radius
    return evals


def eigenvalues_hermitian(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 or 4x4 Hermitian matrix, sorted descending.

    2x2 in closed form (_eigvalsh_2x2), 4x4 by LAPACK (np.linalg.eigvalsh).
    """
    return _eigenvalues(_inexact(m, "m"))


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    if m.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    _check_hermitian(m)
    solve = _eigvalsh_2x2 if m.shape[-1] == 2 else np.linalg.eigvalsh
    return solve(m)[..., ::-1]


def _plogp(evals: np.ndarray) -> np.ndarray:
    """The float64 array evals, overwritten with p log2 p: 0 for NaN and p in [-1e-10, 0]."""
    # one reduction; fmin skips NaN, and the initial value covers an empty stack
    smallest = np.fmin.reduce(evals, axis=None, initial=np.inf)
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {smallest:.3e} below positivity floor {EIGENVALUE_FLOOR}")
    np.copyto(evals, 1.0, where=~(evals > 0.0))  # 1 log 1 = 0 stands in for 0 log 0
    return np.multiply(evals, np.log2(evals), out=evals)


def _entropy(terms: np.ndarray) -> float | np.ndarray:
    """-sum of _plogp's terms over the last axis, clamped at 0 against ~1 ulp of roundoff."""
    return np.maximum(-terms.sum(axis=-1), 0.0)


def entropy_from_eigenvalues(evals: np.ndarray) -> float | np.ndarray:
    """-sum p log2 p over the last axis, with 0 log 0 = 0.

    Eigenvalues in [-1e-10, 0) are clamped to 0.  The spectrum need not be
    normalised: for a branch of probability p, p S(sigma/p) equals this
    entropy of sigma's spectrum plus p log2 p.
    """
    return _entropy(_plogp(_real_array(evals, "evals").copy(order="K")))  # _plogp overwrites


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits of a 2x2 or 4x4 density matrix, or of each member of a stack."""
    # one input conversion; _plogp overwrites the fresh spectrum, which this call owns
    return _entropy(_plogp(_eigenvalues(_inexact(rho, "rho"))))


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """Binary entropy -x log2 x - (1-x) log2 (1-x) in bits, for x in [0, 1], elementwise."""
    x = _real_array(x, "x")
    if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):  # NaN fails both comparisons
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    return _entropy(_plogp(np.stack([x, 1.0 - x], axis=-1)))  # a fresh float64 spectrum
