"""Parameter sweeps, deterministic CSV emission, and the oracle report.

A sweep evolves one of the two reference initial states through the memory
decay channel on a uniform time grid for each qubit count N.  It is
evaluated block by block: one amplitude call, one channel call and one
ledger call per _LEDGER_ROWS grid times.  write_sweep renders each block
to CSV, _RENDER_ROWS rows at a time, writes it and drops it before the
next block's ledger call, so one ledger block is alive at a time;
run_sweep instead holds the time grid and copies the blocks into one C(t)
column and one stacked ledger per N, a BoundsRecord whose fields are arrays
over the grid, and render_csv renders such a held sweep the same way.
Output is deterministic: the same configuration always produces
byte-identical CSV.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .audit import Deviation
from .bounds import BoundsRecord, bounds_record, pauli_x, pauli_z
from .channel import _decay, bell_diagonal_initial, max_entangled_initial
from .channel import apply_memory_decay  # noqa: F401  # the bench traces eulb.sweep.apply_memory_decay
from .linalg import _is_int, _is_positive_finite, _is_real
from .reservoir import (
    ReservoirParams,
    _amplitude,
    build_mode_grid,
    decay_amplitude,
    discrete_mode_oracle,
    kernel_ode_oracle,
)

KERNEL_ORACLE_TOL = 1e-12
DISCRETE_ORACLE_TOL = 5e-3

_STATES = ("max_entangled", "bell_diagonal")

# eulb sweep (write_sweep) holds one ledger block and the time grid (8 B a
# row); run_sweep holds the grid and nine float64 columns per N (72 B a row)
# for Python callers.  So the cap bounds the CLI's run time (~3-4 s), file
# size (~75 MB at 500k rows) and run_sweep's columns (40 MB), not the CLI's
# working set: one N of 500k rows measured 35-39 MB max RSS for the whole
# `eulb sweep` process, of which `import numpy, eulb` is 29 MB.
_MAX_SWEEP_ROWS = 500_000

CSV_HEADER = "n,gamma0_t,C,u_left,berta,adabi,delta,holevo_x,holevo_z,mutual_info,cond_entropy"
# Rows per bytes % in the CSV render.  A block holds a format string, a tuple
# and a Python float for each of its values.  Measured on figs 2-5: render
# time is flat from 64 to 1024 rows (16 is ~10% slower), and at 256 the peak
# of rendering fig 2 is 1.36x the CSV's size (2.05x with one block per N).
_RENDER_ROWS = 256
_FIELDS = tuple(f.name for f in fields(BoundsRecord))
_ROW_FORMAT = b",".join([b"%.12g"] * (2 + len(_FIELDS))) + b"\n"  # t, C, then the ledger
# Rows per channel call and ledger call in a sweep.  A block's ledger call,
# on its states, sets a streamed sweep's peak: ~0.5 MB.  Measured on figs 2-5
# (run_sweep alone, 30 interleaved rounds): 1024-row blocks ran 2% faster
# than one call per N, and 256-row blocks 4% slower, from per-call overhead.
_LEDGER_ROWS = 4 * _RENDER_ROWS


class ConfigError(ValueError):
    """Raised for malformed or out-of-range sweep configuration input."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; time is dimensionless gamma0*t on a uniform grid from 0.

    The memory qubit B decays from its level 0.  Both states are invariant
    under X x X, so decay from level 1 would give the same ledger.

    state:              'max_entangled' or 'bell_diagonal'
    lambda_over_gamma0: reservoir spectral width over relaxation rate
    p:                  Bell-diagonal mixing weight (ignored for max_entangled)
    n_qubits_list:      qubit counts to sweep (duplicate-free)
    t_max_gamma0:       end of the time grid
    steps:              number of grid points including t = 0

    A config checks itself when it is built (by the constructor,
    dataclasses.replace or parse_config): a value out of range raises ConfigError.
    """

    state: str
    lambda_over_gamma0: float
    p: float = 0.5
    n_qubits_list: tuple[int, ...] = (1, 2, 5, 10)
    t_max_gamma0: float = 20.0
    steps: int = 2001

    def __post_init__(self) -> None:
        if self.state not in _STATES:
            raise ConfigError(f"state must be one of {_STATES}, got {self.state!r}")
        lam = self.lambda_over_gamma0
        if not _is_positive_finite(lam):
            raise ConfigError(f"lambda_over_gamma0 must be positive and finite, got {lam!r}")
        if not (_is_real(self.p) and 0.0 <= self.p <= 1.0):
            raise ConfigError(f"p must be in [0, 1], got {self.p!r}")
        ns = self.n_qubits_list
        if not ns or any(not _is_int(n) or n < 1 for n in ns):
            raise ConfigError(f"n_qubits_list must be integers >= 1, got {ns!r}")
        if len(set(ns)) != len(ns):
            raise ConfigError(f"n_qubits_list must not contain duplicates, got {ns!r}")
        t_max = self.t_max_gamma0
        if not _is_positive_finite(t_max):
            raise ConfigError(f"t_max_gamma0 must be positive and finite, got {t_max!r}")
        if not _is_int(self.steps) or self.steps < 2:
            raise ConfigError(f"steps must be an integer >= 2, got {self.steps!r}")
        if self.steps * len(ns) > _MAX_SWEEP_ROWS:
            raise ConfigError(
                f"steps x len(n_qubits_list) = {self.steps * len(ns)} exceeds the limit of "
                f"{_MAX_SWEEP_ROWS} rows per sweep"
            )


def figure_preset(fig: int) -> SweepConfig:
    """Named sweep presets: 2/3 evolve the maximally entangled state in the
    non-Markovian (lambda = 0.1 gamma0) and Markovian (lambda = 40 gamma0)
    regimes; 4/5 do the same for the Bell-diagonal state at p = 1/2.  Only
    the preset asked for is built."""
    presets = {  # state, lambda_over_gamma0; every other field defaults
        2: ("max_entangled", 0.1),
        3: ("max_entangled", 40.0),
        4: ("bell_diagonal", 0.1),
        5: ("bell_diagonal", 40.0),
    }
    if not _is_int(fig) or fig not in presets:
        raise ValueError(f"no preset {fig!r}; choose one of {sorted(presets)}")
    return SweepConfig(*presets[fig])


# --- configuration document -------------------------------------------------

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
            elif key == "steps":
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    for required in ("state", "lambda_over_gamma0"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")
    return SweepConfig(**values)  # type: ignore[arg-type]


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
        ]
    )


# --- sweep ------------------------------------------------------------------


@dataclass
class SweepOutput:
    """A sweep's configuration, time grid, and per-N C(t) and ledger.

    times is the grid of config.steps gamma0*t values.  amplitudes and
    ledgers map each qubit count, in ascending order, to C(t) on that grid
    and to the BoundsRecord of the grid's states, bit for bit what
    bounds_record returns for the whole stack: every field is an array of
    config.steps values, one per grid time.
    """

    config: SweepConfig
    times: np.ndarray
    amplitudes: dict[int, np.ndarray]
    ledgers: dict[int, BoundsRecord]


def _initial_state(config: SweepConfig) -> np.ndarray:
    if config.state == "max_entangled":
        return max_entangled_initial()
    return bell_diagonal_initial(config.p)


def _time_grid(config: SweepConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max_gamma0, config.steps)


def _reservoirs(config: SweepConfig) -> list[tuple[int, ReservoirParams]]:
    """Each N in ascending order with its reservoir.

    Building every ReservoirParams up front raises the refusals that the
    config's own check leaves (N > 2**53, an overflowing lambda) before a
    sweep or an oracle computes or writes anything.  gamma0 is fixed to 1,
    so grid times coincide with gamma0*t.
    """
    lam = config.lambda_over_gamma0
    ns = sorted(config.n_qubits_list)
    return [(n, ReservoirParams(gamma0=1.0, lambda_=lam, n_qubits=n)) for n in ns]


def _ledger_blocks(
    config: SweepConfig, reservoirs: list[tuple[int, ReservoirParams]], times: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, BoundsRecord]]:
    """(n, t, C(t), ledger) for each block t of _LEDGER_ROWS grid times of
    each N, in CSV order: one amplitude call, one channel call and one
    ledger call a block.  C(t) is elementwise, so each block is bit for bit
    the matching rows of the whole grid's C(t) and ledger."""
    x, z = pauli_x(), pauli_z()
    initial = _initial_state(config)
    for n, params in reservoirs:
        for start in range(0, len(times), _LEDGER_ROWS):
            t = times[start : start + _LEDGER_ROWS]
            amplitudes = _amplitude(params, t)  # the cores: times and initial are this sweep's own
            states = _decay(initial, amplitudes)
            yield n, t, amplitudes, bounds_record(states, x, z)


def run_sweep(config: SweepConfig) -> SweepOutput:
    """Evaluate the bounds ledger over the configured (N, t) grid and hold it.

    Each N's C(t) and ledger are nine float64 columns (72 B a row), filled
    from the ledger blocks; the CLI streams through write_sweep instead.
    """
    reservoirs = _reservoirs(config)
    times = _time_grid(config)
    columns: dict[int, np.ndarray] = {}
    for n, t, c, record in _ledger_blocks(config, reservoirs, times):
        if n not in columns:
            columns[n] = np.empty((1 + len(_FIELDS), config.steps))  # C, then the BoundsRecord fields
            filled = 0
        block = slice(filled, filled + len(t))
        for row, value in zip(columns[n], [c] + [getattr(record, name) for name in _FIELDS]):
            row[block] = value
        filled = block.stop
        del c, record  # freed before the next ledger block is computed
    amplitudes = {n: rows[0] for n, rows in columns.items()}
    ledgers = {n: BoundsRecord(*rows[1:]) for n, rows in columns.items()}
    return SweepOutput(config, times, amplitudes, ledgers)


def _csv_chunks(
    config: SweepConfig, ledgers: Iterable[tuple[int, np.ndarray, np.ndarray, BoundsRecord]]
) -> Iterator[bytes]:
    """The CSV as ASCII chunks: the metadata and header, then the rows of each
    (n, t, C(t), ledger) in the order given, one bytes % per _RENDER_ROWS rows."""
    from . import __version__

    head = [f"# eulb {__version__}"]
    head += ["# " + line for line in format_config(config).splitlines()]
    head.append(CSV_HEADER)
    yield "\n".join(head).encode("ascii") + b"\n"
    for n, t, amplitudes, ledger in ledgers:
        columns = [t, amplitudes] + [getattr(ledger, name) for name in _FIELDS]
        row_format = f"{n},".encode("ascii") + _ROW_FORMAT
        for start in range(0, len(t), _RENDER_ROWS):
            # + 0.0 writes -0.0 as 0
            block = np.column_stack([c[start : start + _RENDER_ROWS] for c in columns]) + 0.0
            yield row_format * len(block) % tuple(block.ravel().tolist())
        amplitudes = ledger = columns = block = None  # freed before the next ledger block is computed


def render_csv(output: SweepOutput) -> str:
    """A held sweep's CSV: the text write_sweep writes for output.config."""
    data = bytearray()
    ledgers = ((n, output.times, output.amplitudes[n], ledger) for n, ledger in output.ledgers.items())
    for chunk in _csv_chunks(output.config, ledgers):
        data += chunk
    return data.decode("ascii")


def write_sweep(config: SweepConfig, destination) -> None:
    """Evaluate the sweep and write its CSV ('\\n' endings, 12 significant
    digits) to destination, a path or a binary file object, block by block.

    Each ledger block is rendered, written and dropped before the next is
    computed: the working set is one block plus the time grid (8 B a row).  The
    config checked itself when built; every N's reservoir is built and the
    time grid computed before the first byte is written, so no refusal
    writes anything.  A path that cannot be opened or written raises OSError
    naming the path; an OSError from a file object propagates unchanged.  A
    fault found once writing has begun (a write error, |C| > 1 + 1e-9 in the
    channel, an eigenvalue below the entropy floor) raises and leaves a
    partial CSV: the header and the blocks written before it.
    """
    reservoirs = _reservoirs(config)
    times = _time_grid(config)
    chunks = _csv_chunks(config, _ledger_blocks(config, reservoirs, times))
    if hasattr(destination, "write"):
        destination.writelines(chunks)
        return
    path = Path(destination)
    try:
        with path.open("wb") as file:
            file.writelines(chunks)  # unlike a for loop, drops each chunk once written
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


# --- oracle report ----------------------------------------------------------


def _deviation(
    n: int, times: np.ndarray, closed: np.ndarray, oracle: np.ndarray, tolerance: float
) -> Deviation:
    """N's row: the largest |closed - oracle| over the time grid, and where it peaks."""
    dev = np.abs(closed - oracle)
    i = int(np.argmax(dev))
    return Deviation(str(n), float(dev[i]), tolerance, float(times[i]))


@dataclass
class OracleReport:
    """Closed-form decay amplitude versus the independent numerical routes.

    discrete_max_norm_error is the largest |phi_k[0] - mu_k| of the discrete
    runs (see discrete_mode_oracle): a check of the doubled Chebyshev
    moments, not of a norm, which the field's name predates.
    """

    config: SweepConfig
    kernel: list[Deviation]
    discrete: list[Deviation] = field(default_factory=list)
    discrete_max_norm_error: float | None = None

    @property
    def passed(self) -> bool:
        rows = self.kernel + self.discrete
        return all(row.passed for row in rows)

    def render(self) -> str:
        lines = [
            f"oracle check: lambda/gamma0 = {self.config.lambda_over_gamma0:g}, "
            f"grid [0, {self.config.t_max_gamma0:g}] x {self.config.steps}"
        ]
        for route, rows in (("kernel-ODE", self.kernel), ("discrete-mode", self.discrete)):
            for row in rows:
                status = "ok" if row.passed else "FAIL"
                lines.append(
                    f"  {route:13s} N={row.label:<3s} max |dev| = {row.max_deviation:.3e}"
                    f"  (tol {row.tolerance:g})  {status}"
                )
        if self.discrete_max_norm_error is not None:
            err = self.discrete_max_norm_error
            lines.append(f"  discrete-mode max |phi_k[0] - mu_k| = {err:.3e}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def oracle_report(config: SweepConfig, n_modes: int | None = None) -> OracleReport:
    """Compare the closed-form amplitude against the kernel-ODE route for each
    configured N, and against the discretized-mode route with n_modes
    equal-weight modes over the half-width 20 lambda when n_modes is given.
    With n_modes None the report has no discrete-mode rows.  One mode grid
    serves every N: it reads gamma0 and lambda only.

    A failing discrete row may only mean too few modes: each failing N is
    rerun on one grid of ceil(n_modes / 2) modes, built once a row has
    failed, so a passing run does no extra work.  If C(t) moves between the
    grids by more than the tolerance at any N (e_N, its largest change over
    the time grid), ValueError names each failing N with its e_N and
    ceil(n_modes (max e_N / tol)^(2/3)) modes or more, from the slowest
    measured convergence, about n_modes^-1.5.  A failing discrete row in the
    report is thus a resolved reservoir that disagrees with the closed form.
    One mode has no coarser grid and is refused before anything propagates.
    """
    reservoirs = _reservoirs(config)
    times = _time_grid(config)
    modes = coarse = None
    if n_modes is not None:
        unit = ReservoirParams(1.0, config.lambda_over_gamma0, 1)
        modes = build_mode_grid(unit, n_modes)
        if modes.n_modes == 1:
            raise ValueError("1 discrete mode has no coarser grid to check it against; use 2 or more")
    kernel_rows = []
    discrete_rows = []
    refinement: dict[int, float] = {}  # e_N for each failing N
    max_norm_err: float | None = None
    for n, params in reservoirs:
        closed = decay_amplitude(params, times)
        ode = kernel_ode_oracle(params, times)
        kernel_rows.append(_deviation(n, times, closed, ode.amplitudes, KERNEL_ORACLE_TOL))
        if modes is not None:
            traj = discrete_mode_oracle(params, times, modes)
            row = _deviation(n, times, closed, traj.amplitudes, DISCRETE_ORACLE_TOL)
            discrete_rows.append(row)
            err = traj.max_norm_error or 0.0
            max_norm_err = err if max_norm_err is None else max(max_norm_err, err)
            if not row.passed:
                if coarse is None:
                    coarse = build_mode_grid(unit, (modes.n_modes + 1) // 2)
                half = discrete_mode_oracle(params, times, coarse)
                refinement[n] = float(np.max(np.abs(traj.amplitudes - half.amplitudes)))
    worst = max(refinement.values(), default=0.0)
    if worst > DISCRETE_ORACLE_TOL:
        needed = math.ceil(modes.n_modes * (worst / DISCRETE_ORACLE_TOL) ** (2.0 / 3.0))
        changes = ", ".join(f"{e:.3g} at N = {n}" for n, e in refinement.items())
        raise ValueError(
            f"{modes.n_modes} discrete modes are unresolved: C(t) moves by {changes} "
            f"against the {coarse.n_modes}-mode grid (tol {DISCRETE_ORACLE_TOL:g}); "
            f"--discrete-modes {needed} or more"
        )
    return OracleReport(
        config=config,
        kernel=kernel_rows,
        discrete=discrete_rows,
        discrete_max_norm_error=max_norm_err,
    )
