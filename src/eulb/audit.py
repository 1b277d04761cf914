"""Closed-form audit: tabulated shortcut formulas against the definitions.

The pipeline computes every quantity from eigendecomposition-based
definitions.  The closed-form expressions for the two reference state
families (evolved maximally entangled and evolved Bell-diagonal at p=1/2),
among them the tightened bound of Adabi, Salimi & Haseli (PRA 93, 062123
(2016)) written out for each family, are audit targets only: several of
them are internally inconsistent, and closed_form_report quantifies the
mismatch instead of using them.  The same holds for the tabulated evolved
Bell-diagonal matrix below.

The closed forms are numpy array functions of the amplitude c, evaluated
exactly as written; closed_form_report takes one amplitude or an array of
them, and discrepancy_report evaluates them once over its whole amplitude
grid.  The definition route evolves both families in one channel call and
reads every definition-based value from one ledger call on that two-family
stack, the post-measurement entropies S(rho_XB) and S(rho_ZB) included:
the post-measurement state is block diagonal in the measured basis, so its
entropy is the sum of the ledger's branch entropies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import _ledger, pauli_x, pauli_z
from .channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from .linalg import _is_real, _real_array, binary_entropy

CONSISTENCY_TOL = 1e-9

# The definition route and the tabulated-matrix gap run in blocks of this
# many amplitudes, each block one channel call and one ledger call on the
# (2, block) stack of both families, which stays real; a block's peak grows
# by ~1.2 kB per amplitude.  The closed forms run once over the whole grid.
# The 101-point audit peaks (tracemalloc) at ~0.034 MB with 16 amplitudes a
# block, ~0.024 MB with 8 and ~0.046 MB with 26; ten audits take ~22, ~33 and
# ~17 ms (2-vCPU VM, numpy 2.4).  16 stays well below the ~0.053 MB peak of
# the bench's single_state workload, which its 100 held records set.
_AUDIT_BLOCK = 16


def evolved_bell_diagonal_closed_form(p: float, c) -> np.ndarray:
    """Closed-form snapshot of the evolved Bell-diagonal state.  Known inconsistent.

    This tabulated matrix does not reduce to bell_diagonal_initial(p) at
    c = 1 (its corner coherences are doubled and its diagonal follows a
    different basis ordering), and it is not positive semidefinite for all
    parameters.  It exists solely as an audit target for discrepancy_report;
    the sweep pipeline always evolves states through apply_memory_decay.
    c is one amplitude or an array of them; the result gains c's axes and,
    its entries all real, is float64.
    """
    if not (_is_real(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    p = float(p)
    c = _real_array(c, "c")
    if not np.all(np.abs(c) <= 1.0):  # written so that NaN fails too
        raise ValueError(f"amplitude {c} out of range [-1, 1]")
    c2 = c * c
    rho = np.zeros(c.shape + (4, 4))
    rho[..., 0, 0] = 0.25 * (1.0 + p) * c2
    rho[..., 1, 1] = 0.25 * (1.0 - p) + 0.25 * (1.0 + p) * (1.0 - c2)
    rho[..., 2, 2] = 0.25 * (1.0 - p) * c2
    rho[..., 3, 3] = 0.25 * (1.0 + p) + 0.25 * (1.0 - p) * (1.0 - c2)
    rho[..., 0, 3] = rho[..., 3, 0] = 0.5 * (1.0 - p) * np.abs(c)
    rho[..., 1, 2] = rho[..., 2, 1] = 0.5 * (1.0 - 3.0 * p) * c
    return rho


# ---------------------------------------------------------------------------
# The ten closed forms, each an array function of the amplitude c.  In them
# eta = sqrt(1 - c^2 + c^4), alpha_pm = (2 +/- c^2)/2 and theta = eta/4.
# ---------------------------------------------------------------------------


def _wlog2(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    # w * log2(x) with the w -> 0+ limit (0) applied for w <= 0
    live = w > 0.0
    return np.where(live, w * np.log2(np.where(live, x, 1.0)), 0.0)


def _eta(c2: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 - c2 + c2 * c2)  # in [sqrt(3)/2, 1] for |c| <= 1


def closed_form_max_ent_entropy_x(c: np.ndarray) -> np.ndarray:
    eta = _eta(c * c)
    return -_wlog2(0.5 * (1.0 - eta), 0.25 * (1.0 - eta)) - _wlog2(
        0.5 * (1.0 + eta), 0.25 * (1.0 + eta)
    )


def closed_form_max_ent_entropy_z(c: np.ndarray) -> np.ndarray:
    c2 = c * c
    return 0.5 - _wlog2(0.5 * c2, 0.5 * c2) - _wlog2(0.5 * (1.0 - c2), 0.5 * (1.0 - c2))


def closed_form_max_ent_lhs(c: np.ndarray) -> np.ndarray:
    """Tabulated measured-uncertainty sum for the maximally entangled family.

    Subtracts the memory entropy once instead of twice, so it exceeds the
    definition-based sum by exactly S_bin(c^2/2); retained as an audit target.
    """
    c2 = c * c
    eta = _eta(c2)
    return (
        0.5
        - _wlog2(0.5 * (1.0 - eta), 0.25 * (1.0 - eta))
        - _wlog2(0.5 * (1.0 + eta), 0.25 * (1.0 + eta))
        - _wlog2(0.5 * c2, 0.5 * c2)
        - _wlog2(0.5 * (1.0 - c2), 0.5 * (1.0 - c2))
        - binary_entropy(0.5 * c2)
    )


def closed_form_max_ent_delta(c: np.ndarray) -> np.ndarray:
    c2 = c * c
    eta = _eta(c2)
    return (
        -0.5
        - _wlog2(0.5 * (1.0 - eta), 0.25 * (1.0 - eta))
        - _wlog2(0.5 * (1.0 + eta), 0.25 * (1.0 + eta))
        - _wlog2(0.5 * c2, 0.5 * c2)
        - _wlog2(0.5 * (1.0 - c2), 0.5 * (1.0 - c2))
        - binary_entropy(0.5 * (1.0 - c2))
        - binary_entropy(0.5 * c2)
    )


def closed_form_max_ent_bound(c: np.ndarray) -> np.ndarray:
    """Tabulated tightened bound, using the same family's closed-form delta."""
    c2 = c * c
    return (
        1.0
        + binary_entropy(0.5 * (1.0 - c2))
        - binary_entropy(0.5 * c2)
        + np.maximum(0.0, closed_form_max_ent_delta(c))
    )


def closed_form_bell_entropy_x(c: np.ndarray) -> np.ndarray:
    c2 = c * c
    return -_wlog2(0.5 * c2, 0.25 * c2) - _wlog2(0.5 * (2.0 - c2), 0.25 * (2.0 - c2))


def closed_form_bell_entropy_z(c: np.ndarray) -> np.ndarray:
    c2 = c * c
    return (
        -_wlog2(c2 / 8.0, c2 / 8.0)
        - _wlog2(3.0 * c2 / 8.0, 3.0 * c2 / 8.0)
        - _wlog2((4.0 - 3.0 * c2) / 8.0, (4.0 - 3.0 * c2) / 8.0)
        - _wlog2((4.0 - c2) / 8.0, (4.0 - c2) / 8.0)
    )


def closed_form_bell_lhs(c: np.ndarray) -> np.ndarray:
    """Tabulated measured-uncertainty sum for the Bell-diagonal (p=1/2) family.

    Omits the (4 - 3c^2)/8 spectral term that its own post-measurement
    entropy contains; retained as an audit target.
    """
    c2 = c * c
    return (
        closed_form_bell_entropy_x(c)
        - _wlog2(c2 / 8.0, c2 / 8.0)
        - _wlog2(3.0 * c2 / 8.0, 3.0 * c2 / 8.0)
        - _wlog2((4.0 - c2) / 8.0, (4.0 - c2) / 8.0)
        - 2.0 * binary_entropy(0.5 * c2)
    )


def _bell_alpha_theta_sum(c: np.ndarray) -> np.ndarray:
    c2 = c * c
    theta = 0.25 * _eta(c2)
    lo, hi = 0.5 * (2.0 - c2), 0.5 * (2.0 + c2)
    return (
        _wlog2(lo - theta, lo - theta)
        + _wlog2(lo + theta, lo + theta)
        + _wlog2(hi - theta, hi - theta)
        + _wlog2(hi + theta, hi + theta)
    )


def closed_form_bell_delta(c: np.ndarray) -> np.ndarray:
    """Tabulated information gap for the Bell-diagonal family.

    Its alpha +/- theta arguments exceed 1 at full amplitude, so they cannot
    be eigenvalue probabilities; retained as an audit target.
    """
    return (
        _bell_alpha_theta_sum(c)
        - binary_entropy(0.5 * c * c)
        + closed_form_bell_entropy_z(c)
        + closed_form_bell_entropy_x(c)
    )


def closed_form_bell_bound(c: np.ndarray) -> np.ndarray:
    """Tabulated tightened bound, using the same family's closed-form delta."""
    return (
        1.0
        - _bell_alpha_theta_sum(c)
        + np.maximum(0.0, closed_form_bell_delta(c))
        - binary_entropy(0.5 * c * c)
    )


_CLOSED_FORMS = {
    "max_ent_entropy_x": closed_form_max_ent_entropy_x,
    "max_ent_entropy_z": closed_form_max_ent_entropy_z,
    "max_ent_lhs": closed_form_max_ent_lhs,
    "max_ent_bound": closed_form_max_ent_bound,
    "max_ent_delta": closed_form_max_ent_delta,
    "bell_entropy_x": closed_form_bell_entropy_x,
    "bell_entropy_z": closed_form_bell_entropy_z,
    "bell_lhs": closed_form_bell_lhs,
    "bell_bound": closed_form_bell_bound,
    "bell_delta": closed_form_bell_delta,
}
_X, _Z = pauli_x(), pauli_z()


def _closed_forms(c: np.ndarray) -> np.ndarray:
    """Every closed form at the amplitudes c: shape (10,) + c.shape, rows in _CLOSED_FORMS order."""
    return np.array([fn(c) for fn in _CLOSED_FORMS.values()])


def _evolved(c: np.ndarray, p: float) -> np.ndarray:
    """Both families evolved to the amplitudes c in one channel call: shape
    (2,) + c.shape + (4, 4), the maximally entangled family first."""
    initials = np.stack([max_entangled_initial(), bell_diagonal_initial(p)])
    return apply_memory_decay(initials.reshape((2,) + (1,) * c.ndim + (4, 4)), c)


def _definitions(evolved: np.ndarray) -> np.ndarray:
    """The definition-based value of every closed form, laid out as _closed_forms.

    One ledger call on the stack of both evolved families; per family the
    values follow the formula order entropy_x, entropy_z, lhs, bound, delta,
    with the post-measurement entropies S(rho_XB) and S(rho_ZB) taken from
    the ledger's branch spectra.
    """
    rec, post = _ledger(evolved, _X, _Z)
    values = np.stack([post[..., 0], post[..., 1], rec.u_left, rec.adabi, rec.delta], axis=1)
    return values.reshape((10,) + values.shape[2:])


@dataclass(frozen=True)
class FormulaComparison:
    """One closed form against its definition; arrays over an amplitude array."""

    name: str
    closed_form: float
    definition: float
    deviation: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "deviation", abs(self.closed_form - self.definition))


def closed_form_report(
    amplitude_c: float | np.ndarray, p: float = 0.5
) -> list[FormulaComparison]:
    """Evaluate every closed form and its definition-based counterpart.

    amplitude_c is one amplitude or an array of them; for an array every
    FormulaComparison value is an array over it, and both the closed forms
    and the definition route run once per family on the whole amplitude
    array.  The maximally entangled rows are p-independent.  The
    Bell-diagonal closed forms assume the p = 1/2 preparation; the
    definition route uses the given p, so deviations for other p mix
    formula error with preparation mismatch.  Discrepancies are data, not
    errors.
    """
    c = _real_array(amplitude_c, "amplitude")
    if not np.all(np.isfinite(c)):
        raise ValueError("amplitude must be finite")
    if np.any(np.abs(c) > 1.0):
        raise ValueError(f"amplitude |{np.max(np.abs(c))}| > 1 out of range")
    rows = zip(_CLOSED_FORMS, _closed_forms(c), _definitions(_evolved(c, p)))
    if c.ndim == 0:
        return [FormulaComparison(name, float(v), float(d)) for name, v, d in rows]
    return [FormulaComparison(name, v, d) for name, v, d in rows]


@dataclass
class Deviation:
    """One checked quantity: its largest |deviation| against a reference, the
    tolerance that decides it, and where it peaks (the grid amplitude c of
    an audit row, the grid time of an oracle row)."""

    label: str
    max_deviation: float
    tolerance: float
    at: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass
class MatrixAudit(Deviation):
    """Entrywise gap between the tabulated evolved Bell-diagonal matrix and the channel."""

    worst_entry: tuple[int, int]
    deviation_at_full_amplitude: float  # at c = 1, where both should equal the initial state


@dataclass
class DiscrepancyReport:
    p: float
    amplitude_grid: np.ndarray
    formulas: list[Deviation]
    evolved_matrix: MatrixAudit

    def audit(self, label: str) -> Deviation:
        for row in [*self.formulas, self.evolved_matrix]:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        lines = [
            f"closed-form audit (p = {self.p:g}, {self.amplitude_grid.size}-point amplitude grid)",
            f"  {'formula':20s} {'max |dev|':>12s} {'at c':>6s}  status",
        ]
        for row in [*self.formulas, self.evolved_matrix]:
            status = "CONSISTENT" if row.passed else "FLAGGED"
            lines.append(f"  {row.label:20s} {row.max_deviation:12.3e} {row.at:6.2f}  {status}")
        m = self.evolved_matrix
        lines[-1] += f"  (entry {m.worst_entry}, dev at c=1: {m.deviation_at_full_amplitude:.3e})"
        return "\n".join(lines)


def discrepancy_report(p: float = 0.5) -> DiscrepancyReport:
    """Audit every closed form against the definition route over c in [0, 1].

    The amplitude grid is fixed at 101 points, c = 0, 0.01, ..., 1.  Also
    compares the tabulated evolved Bell-diagonal matrix entrywise against
    channel evolution of the same initial state.  Every row is a Deviation
    at the tolerance CONSISTENCY_TOL (1e-9), located at its worst c; a
    failing row is FLAGGED.  Discrepancies are reported, never raised.  The
    closed forms are evaluated once over the whole grid; the definition
    route and the matrix gap run in amplitude stacks of _AUDIT_BLOCK points.
    """
    if not (_is_real(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    p = float(p)
    grid = np.linspace(0.0, 1.0, 101)
    # One row per closed form, turned into |closed form - definition| block
    # by block, then the matrix row: the largest entrywise gap at each c.
    deviation = np.concatenate([_closed_forms(grid), np.empty((1, grid.size))])
    entry = np.empty(grid.size, dtype=int)  # the flat 4x4 index of that gap
    # _evolved's initial states, built once for every block: shape (2, 1, 4, 4)
    initials = np.stack([max_entangled_initial(), bell_diagonal_initial(p)])[:, None]
    for start in range(0, grid.size, _AUDIT_BLOCK):
        rows = slice(start, start + _AUDIT_BLOCK)
        evolved = apply_memory_decay(initials, grid[rows])
        deviation[:-1, rows] = np.abs(deviation[:-1, rows] - _definitions(evolved))
        gap = np.abs(evolved_bell_diagonal_closed_form(p, grid[rows]) - evolved[1])
        entry[rows] = np.argmax(gap.reshape(-1, 16), axis=1)
        deviation[-1, rows] = np.max(gap, axis=(1, 2))
    # argmax takes the first maximum, so every worst c is the first on the
    # grid, as a point-by-point scan would report it
    worst = np.argmax(deviation, axis=1)
    formulas = [
        Deviation(label, float(dev[i]), CONSISTENCY_TOL, float(grid[i]))
        for label, dev, i in zip(_CLOSED_FORMS, deviation[:-1], worst)
    ]
    i = worst[-1]
    matrix = MatrixAudit(
        "bell_evolved_matrix",
        float(deviation[-1, i]),
        CONSISTENCY_TOL,
        float(grid[i]),
        worst_entry=divmod(int(entry[i]), 4),  # (row, column)
        deviation_at_full_amplitude=float(deviation[-1, -1]),  # the grid ends at c = 1
    )
    return DiscrepancyReport(p=p, amplitude_grid=grid, formulas=formulas, evolved_matrix=matrix)
