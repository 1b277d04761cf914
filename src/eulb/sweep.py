"""Parameter sweeps, deterministic CSV emission, and the oracle report.

A sweep evolves one of the two reference initial states through the memory
decay channel on a uniform time grid for each qubit count N.  Each N is
evaluated as one (steps, 4, 4) time stack, one channel call and one ledger
call, and kept as that stacked ledger: a BoundsRecord whose fields are
arrays over the grid.  The CSV is rendered from those columns.  Output is
deterministic: the same configuration always produces byte-identical CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bounds import BoundsRecord, bounds_record, pauli_x, pauli_z
from .channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from .reservoir import (
    ReservoirParams,
    _is_int,
    _is_real,
    build_mode_grid,
    decay_amplitude,
    discrete_mode_oracle,
    kernel_ode_oracle,
)

KERNEL_ORACLE_TOL = 1e-6
DISCRETE_ORACLE_TOL = 5e-3

_STATES = ("max_entangled", "bell_diagonal")

# A sweep evaluates each N as one time stack and holds its ledgers and the
# rendered CSV at once.  Measured tracemalloc peak of run_sweep + render_csv:
# ~0.58 kB per row for the figure presets (four N), up to ~1.9 kB per row
# when one N carries every row, where that N's ledger temporaries set the
# peak.  500k rows therefore stay below about 1 GB.
_MAX_SWEEP_ROWS = 500_000

CSV_HEADER = "n,gamma0_t,C,u_left,berta,adabi,delta,holevo_x,holevo_z,mutual_info,cond_entropy"
_FIELDS_FORMAT = ",".join(["%.12g"] * 10)  # the BoundsRecord fields in order


class ConfigError(ValueError):
    """Raised for malformed or out-of-range sweep configuration input."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; time is dimensionless gamma0*t on a uniform grid from 0.

    state:              'max_entangled' or 'bell_diagonal'
    lambda_over_gamma0: reservoir spectral width over relaxation rate
    p:                  Bell-diagonal mixing weight (ignored for max_entangled)
    n_qubits_list:      qubit counts to sweep (duplicate-free)
    t_max_gamma0:       end of the time grid
    steps:              number of grid points including t = 0
    excited_label:      which B basis level decays (0 or 1)
    """

    state: str
    lambda_over_gamma0: float
    p: float = 0.5
    n_qubits_list: tuple[int, ...] = (1, 2, 5, 10)
    t_max_gamma0: float = 20.0
    steps: int = 2001
    excited_label: int = 0


def validate_config(config: SweepConfig) -> SweepConfig:
    if config.state not in _STATES:
        raise ConfigError(f"state must be one of {_STATES}, got {config.state!r}")
    lam = config.lambda_over_gamma0
    if not (_is_real(lam) and math.isfinite(lam) and lam > 0):
        raise ConfigError(f"lambda_over_gamma0 must be positive and finite, got {lam!r}")
    if not (_is_real(config.p) and 0.0 <= config.p <= 1.0):
        raise ConfigError(f"p must be in [0, 1], got {config.p!r}")
    ns = config.n_qubits_list
    if not ns or any(not _is_int(n) or n < 1 for n in ns):
        raise ConfigError(f"n_qubits_list must be integers >= 1, got {ns!r}")
    if len(set(ns)) != len(ns):
        raise ConfigError(f"n_qubits_list must not contain duplicates, got {ns!r}")
    t_max = config.t_max_gamma0
    if not (_is_real(t_max) and math.isfinite(t_max) and t_max > 0):
        raise ConfigError(f"t_max_gamma0 must be positive and finite, got {t_max!r}")
    if not _is_int(config.steps) or config.steps < 2:
        raise ConfigError(f"steps must be an integer >= 2, got {config.steps!r}")
    if config.steps * len(ns) > _MAX_SWEEP_ROWS:
        raise ConfigError(
            f"steps x len(n_qubits_list) = {config.steps * len(ns)} exceeds the limit of "
            f"{_MAX_SWEEP_ROWS} rows per sweep"
        )
    if not _is_int(config.excited_label) or config.excited_label not in (0, 1):
        raise ConfigError(f"excited_label must be 0 or 1, got {config.excited_label!r}")
    return config


def figure_preset(fig: int) -> SweepConfig:
    """Named sweep presets: 2/3 evolve the maximally entangled state in the
    non-Markovian (lambda = 0.1 gamma0) and Markovian (lambda = 40 gamma0)
    regimes; 4/5 do the same for the Bell-diagonal state at p = 1/2."""
    presets = {
        2: SweepConfig(state="max_entangled", lambda_over_gamma0=0.1),
        3: SweepConfig(state="max_entangled", lambda_over_gamma0=40.0),
        4: SweepConfig(state="bell_diagonal", lambda_over_gamma0=0.1),
        5: SweepConfig(state="bell_diagonal", lambda_over_gamma0=40.0),
    }
    if fig not in presets:
        raise ValueError(f"no preset {fig!r}; choose one of {sorted(presets)}")
    return presets[fig]


# --- configuration document -------------------------------------------------

_INT_KEYS = {"steps", "excited_label"}
_FLOAT_KEYS = {"lambda_over_gamma0", "p", "t_max_gamma0"}


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key-value configuration format.

    One ``key = value`` pair per line; blank lines and lines starting with
    '#' are ignored.  n_qubits_list is comma-separated.  Keys 'state' and
    'lambda_over_gamma0' are required; all others default.  Unknown keys
    are rejected.
    """
    values: dict[str, object] = {}
    known = {f.name for f in fields(SweepConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "state":
                values[key] = value
            elif key == "n_qubits_list":
                values[key] = tuple(int(part.strip()) for part in value.split(","))
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    for required in ("state", "lambda_over_gamma0"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")
    return validate_config(SweepConfig(**values))  # type: ignore[arg-type]


def format_config(config: SweepConfig) -> str:
    """Render a config in the canonical form accepted by parse_config.

    Floats are written as repr(float(x)) and integers as int(x), so numpy
    scalars render like the Python numbers parse_config reads back.
    """
    return "\n".join(
        [
            f"state = {config.state}",
            f"lambda_over_gamma0 = {float(config.lambda_over_gamma0)!r}",
            f"p = {float(config.p)!r}",
            "n_qubits_list = " + ", ".join(str(int(n)) for n in config.n_qubits_list),
            f"t_max_gamma0 = {float(config.t_max_gamma0)!r}",
            f"steps = {int(config.steps)}",
            f"excited_label = {int(config.excited_label)}",
        ]
    )


# --- sweep ------------------------------------------------------------------


@dataclass
class SweepOutput:
    """A sweep's configuration and its ledger, one stacked record per N.

    ledgers maps each qubit count, in ascending order, to the BoundsRecord
    that bounds_record returns for the whole time grid: every field is an
    array of config.steps values, one per grid time.
    """

    config: SweepConfig
    ledgers: dict[int, BoundsRecord]


def _initial_state(config: SweepConfig) -> np.ndarray:
    if config.state == "max_entangled":
        return max_entangled_initial()
    return bell_diagonal_initial(config.p)


def _time_grid(config: SweepConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max_gamma0, config.steps)


def run_sweep(config: SweepConfig) -> SweepOutput:
    """Evaluate the bounds ledger over the configured (N, t) grid.

    gamma0 is fixed to 1, so grid times coincide with gamma0*t.
    """
    validate_config(config)
    x, z = pauli_x(), pauli_z()
    initial = _initial_state(config)
    times = _time_grid(config)
    ledgers: dict[int, BoundsRecord] = {}
    for n in sorted(config.n_qubits_list):
        params = ReservoirParams(gamma0=1.0, lambda_=config.lambda_over_gamma0, n_qubits=n)
        amplitudes = decay_amplitude(params, times)
        states = apply_memory_decay(initial, amplitudes, excited=config.excited_label)
        ledgers[n] = bounds_record(states, x, z, t=times, amplitude=amplitudes)
    return SweepOutput(config=config, ledgers=ledgers)


def render_csv(output: SweepOutput) -> str:
    from . import __version__

    lines = [f"# eulb {__version__}"]
    lines += ["# " + line for line in format_config(output.config).splitlines()]
    lines.append(CSV_HEADER)
    for n, ledger in output.ledgers.items():
        # + 0.0 writes -0.0 as 0
        columns = np.column_stack([getattr(ledger, f.name) for f in fields(ledger)]) + 0.0
        # One % over this N's whole block.  Its format string stays a
        # temporary: bound to a name, it would outlive the block and raise
        # the render's peak by its size (~0.13 MB for 2001 rows).
        row_format = f"{n}," + _FIELDS_FORMAT
        lines.append("\n".join([row_format] * len(columns)) % tuple(columns.ravel().tolist()))
    return "\n".join(lines) + "\n"


def emit_csv(output: SweepOutput, destination) -> bytes:
    """Write the sweep as CSV bytes ('\\n' endings, 12 significant digits).

    destination may be a path or a binary file object; the rendered bytes
    are returned either way.
    """
    data = render_csv(output).encode("ascii")
    if hasattr(destination, "write"):
        destination.write(data)
        return data
    path = Path(destination)
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc
    return data


# --- oracle report ----------------------------------------------------------


@dataclass
class OracleDeviation:
    n_qubits: int
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass
class OracleReport:
    """Closed-form decay amplitude versus the independent numerical routes."""

    config: SweepConfig
    kernel: list[OracleDeviation]
    discrete: list[OracleDeviation] = field(default_factory=list)
    discrete_max_norm_error: float | None = None
    discrete_window_warning: bool = False  # discretized window narrower than 10 lambda
    discrete_recurrence_warning: bool = False  # grid reaches pi * n_modes / window

    @property
    def passed(self) -> bool:
        rows = self.kernel + self.discrete
        return all(row.passed for row in rows)

    def render(self) -> str:
        lines = [
            f"oracle check: lambda/gamma0 = {self.config.lambda_over_gamma0:g}, "
            f"grid [0, {self.config.t_max_gamma0:g}] x {self.config.steps}"
        ]
        for label, rows, tol in (
            ("kernel-ODE", self.kernel, KERNEL_ORACLE_TOL),
            ("discrete-mode", self.discrete, DISCRETE_ORACLE_TOL),
        ):
            for row in rows:
                status = "ok" if row.passed else "FAIL"
                lines.append(
                    f"  {label:13s} N={row.n_qubits:<3d} max |dev| = {row.max_deviation:.3e}"
                    f"  (tol {tol:g})  {status}"
                )
        if self.discrete_max_norm_error is not None:
            lines.append(f"  discrete-mode max |norm - 1| = {self.discrete_max_norm_error:.3e}")
        if self.discrete_window_warning:
            lines.append(
                "  warning: discrete-mode window is narrower than 10 lambda; "
                "the deviation includes the truncated reservoir"
            )
        if self.discrete_recurrence_warning:
            lines.append(
                "  warning: grid reaches the discrete-mode recurrence time pi * modes / window; "
                "the deviation includes the returning excitation"
            )
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def oracle_report(
    config: SweepConfig,
    n_modes: int | None = None,
    window_over_lambda: float = 20.0,
) -> OracleReport:
    """Compare the closed-form amplitude against the kernel-ODE route for each
    configured N, and against the discretized-mode route with n_modes modes
    over the half-width window_over_lambda * lambda when n_modes is given.
    With n_modes None the report has no discrete-mode rows and
    window_over_lambda is unused."""
    validate_config(config)
    times = _time_grid(config)
    kernel_rows = []
    discrete_rows = []
    max_norm_err: float | None = None
    window_warning = recurrence_warning = False
    for n in sorted(config.n_qubits_list):
        params = ReservoirParams(gamma0=1.0, lambda_=config.lambda_over_gamma0, n_qubits=n)
        closed = decay_amplitude(params, times)
        ode = kernel_ode_oracle(params, times)
        kernel_rows.append(
            OracleDeviation(
                n_qubits=n,
                max_deviation=float(np.max(np.abs(closed - ode.amplitudes))),
                tolerance=KERNEL_ORACLE_TOL,
            )
        )
        if n_modes is not None:
            grid = build_mode_grid(params, n_modes, window_over_lambda * params.lambda_)
            traj = discrete_mode_oracle(params, times, grid)
            discrete_rows.append(
                OracleDeviation(
                    n_qubits=n,
                    max_deviation=float(np.max(np.abs(closed - traj.amplitudes))),
                    tolerance=DISCRETE_ORACLE_TOL,
                )
            )
            err = traj.max_norm_error or 0.0
            max_norm_err = err if max_norm_err is None else max(max_norm_err, err)
            window_warning = window_warning or traj.window_warning
            recurrence_warning = recurrence_warning or traj.recurrence_warning
    return OracleReport(
        config=config,
        kernel=kernel_rows,
        discrete=discrete_rows,
        discrete_max_norm_error=max_norm_err,
        discrete_window_warning=window_warning,
        discrete_recurrence_warning=recurrence_warning,
    )
