"""Entropic uncertainty lower bounds with a decohering quantum memory.

A library plus command-line tool for a two-qubit uncertainty game in which
the memory qubit is one of N qubits relaxing into a common Lorentzian
reservoir.  It computes the measured uncertainty and its lower bounds
(Berta and Adabi forms) from eigendecomposition-based definitions, checks
the reservoir dynamics against independent numerical oracles, and audits a
set of closed-form shortcut expressions for the two reference state
families.
"""

__version__ = "0.1.0"

from .audit import (
    DiscrepancyReport,
    closed_form_report,
    discrepancy_report,
    evolved_bell_diagonal_closed_form,
)
from .bounds import (
    BoundsRecord,
    Observable,
    bounds_record,
    complementarity,
    pauli_x,
    pauli_z,
)
from .channel import (
    apply_memory_decay,
    bell_diagonal_initial,
    max_entangled_initial,
)
from .linalg import (
    binary_entropy,
    eigenvalues_hermitian,
    von_neumann_entropy,
)
from .reservoir import (
    AmplitudeTrajectory,
    ModeGrid,
    ReservoirParams,
    build_mode_grid,
    decay_amplitude,
    discrete_mode_oracle,
    kernel_ode_oracle,
)
from .sweep import (
    ConfigError,
    OracleReport,
    SweepConfig,
    SweepOutput,
    figure_preset,
    format_config,
    oracle_report,
    parse_config,
    run_sweep,
    write_sweep,
)

__all__ = [
    "__version__",
    "AmplitudeTrajectory",
    "BoundsRecord",
    "ConfigError",
    "DiscrepancyReport",
    "ModeGrid",
    "Observable",
    "OracleReport",
    "ReservoirParams",
    "SweepConfig",
    "SweepOutput",
    "apply_memory_decay",
    "bell_diagonal_initial",
    "binary_entropy",
    "bounds_record",
    "build_mode_grid",
    "closed_form_report",
    "complementarity",
    "decay_amplitude",
    "discrepancy_report",
    "discrete_mode_oracle",
    "eigenvalues_hermitian",
    "evolved_bell_diagonal_closed_form",
    "figure_preset",
    "format_config",
    "kernel_ode_oracle",
    "max_entangled_initial",
    "oracle_report",
    "parse_config",
    "pauli_x",
    "pauli_z",
    "run_sweep",
    "von_neumann_entropy",
    "write_sweep",
]
