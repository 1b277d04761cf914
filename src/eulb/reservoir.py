"""Decay amplitude of one qubit among N sharing a common Lorentzian reservoir.

The reservoir has spectral density J(w) = gamma0 * lambda^2 / (2 pi (w^2 + lambda^2))
with w measured from the qubit transition frequency, so its memory kernel is
(gamma0 * lambda / 2) * exp(-lambda * tau).  Within the single-excitation
sector the excited-state amplitude of the initially excited qubit has the
closed form

    C(t) = (N - 1)/N + exp(-lambda t / 2) / N
           * [cosh(D t / 2) + (lambda / D) sinh(D t / 2)],
    D = sqrt(lambda^2 - 2 N gamma0 lambda),

which saturates at (N - 1)/N.  D is imaginary below the critical coupling
lambda = 2 N gamma0, where C(t) oscillates; at and above it C(t) decays
monotonically.  decay_amplitude evaluates one cancellation-free
rewrite of the formula for every coupling.  Two independent numerical
routes validate it: an exact local ODE reformulation of the memory-kernel
dynamics, and a brute-force simulation with explicitly discretized
reservoir modes.  Both propagate their linear system y' = A y with one
truncated Taylor series of exp(A h), in steps of h <= 2 / ||A||.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# Oracle propagator: a truncated Taylor series of exp(A h) per step of
# h <= _TAYLOR_THETA / ||A|| (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011)).  At ||A|| h <= 2 no term exceeds 2 in norm, so summing the series
# loses no digits to cancellation; it reaches 1e-16 within 24 terms, so the
# cap only trips on non-finite amplitudes.
_TAYLOR_THETA = 2.0
_TAYLOR_TOL = 1e-16
_TAYLOR_MAX_TERMS = 40

# One amplitude vector of 10^6 modes is 16 MB of complex128; the propagator
# holds a few of them.
_MAX_MODES = 1_000_000


def _is_int(value) -> bool:
    # floats such as 2.0 pass == checks but break array sizes, np.linspace and
    # the CSV; bool subclasses int but is no count or label (np.bool_ is no
    # np.integer)
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # a Python or numpy real number; bool and np.bool_ are flags, and strings
    # or None must fail as input errors before any arithmetic sees them
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian bath parameters and the number of qubits sharing it.

    gamma0:   relaxation rate (1/time)
    lambda_:  spectral width of the coupling (1/time)
    n_qubits: total number of qubits in the reservoir, N >= 1
    """

    gamma0: float
    lambda_: float
    n_qubits: int

    def __post_init__(self) -> None:
        if not (_is_real(self.gamma0) and math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not (_is_real(self.lambda_) and math.isfinite(self.lambda_) and self.lambda_ > 0):
            raise ValueError(f"lambda_ must be positive and finite, got {self.lambda_}")
        if not _is_int(self.n_qubits) or self.n_qubits < 1:
            raise ValueError(f"n_qubits must be an integer >= 1, got {self.n_qubits}")


@dataclass
class AmplitudeTrajectory:
    """Decay amplitude sampled on a time grid; times are dimensionless gamma0*t."""

    times: np.ndarray
    amplitudes: np.ndarray
    window_warning: bool = False
    recurrence_warning: bool = False
    max_norm_error: float | None = None


@dataclass(frozen=True)
class ModeGrid:
    """Uniform discretization of the reservoir over a symmetric frequency window.

    Frequencies are offsets from the qubit transition frequency; couplings
    are real, with coupling^2 = J(frequency) * grid spacing (midpoint rule).
    """

    n_modes: int
    window: float
    frequencies: np.ndarray = field(repr=False)
    couplings: np.ndarray = field(repr=False)


def spectral_density(params: ReservoirParams, frequency) -> np.ndarray:
    """Lorentzian J at the given offset(s) from the transition frequency."""
    f = np.asarray(frequency, dtype=float)
    lam = params.lambda_
    return params.gamma0 * lam * lam / (2.0 * math.pi * (f * f + lam * lam))


def decay_amplitude(params: ReservoirParams, t):
    """Closed-form decay amplitude C(t); scalar in, scalar out (arrays broadcast).

    The bracket exp(-lambda t/2) [cosh(Dt/2) + (lambda/D) sinh(Dt/2)] equals
    exp(-kappa t) (1 + kappa g) with kappa = (lambda - D)/2, computed as
    N gamma0 lambda / (lambda + D), and g = (1 - exp(-D t))/D, which tends
    to t as D -> 0.  D is taken in complex arithmetic, so one expression
    covers both sides of the critical coupling; no term cancels and no
    exponent has a positive real part.  C(0) = 1 exactly.  t must be finite
    and >= 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
        raise ValueError("decay_amplitude requires finite t >= 0")
    n = params.n_qubits
    lam = params.lambda_
    # the subtraction lam - 2 N gamma0 is exact near the critical coupling;
    # lam^2 - 2 N gamma0 lam would round both terms first
    d = cmath.sqrt(lam * (lam - 2 * n * params.gamma0))
    kappa = n * params.gamma0 * lam / (lam + d)
    g = t_arr if d == 0 else -np.expm1(-d * t_arr) / d
    c = ((n - 1) + (np.exp(-kappa * t_arr) * (1 + kappa * g)).real) / n
    if c.ndim == 0:
        return float(c)
    return c


def _validate_grid(t_grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if grid[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly ascending")
    return grid


def _taylor_increment(apply, y: np.ndarray, h: float, out: np.ndarray) -> None:
    """Add sum_{k >= 1} h^k A^k y / k! = (exp(A h) - I) y into out; apply(v) = A v.

    Terms are summed until ||term||^2 <= (1e-16)^2 ||y||^2.  out may be y
    itself: y is read only before the first addition.
    """
    tol_sq = _TAYLOR_TOL**2 * np.vdot(y, y).real
    term = y
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        term = apply(term) * (h / k)
        out += term
        if np.vdot(term, term).real <= tol_sq:
            return
    raise RuntimeError(f"Taylor series of exp(Ah) did not converge in {_TAYLOR_MAX_TERMS} terms")


def _step_cap(norm_bound: float, max_step: float | None) -> float:
    """Largest Taylor step 2 / ||A||, capped further by a valid max_step."""
    h_max = _TAYLOR_THETA / norm_bound
    if max_step is not None:
        if not (math.isfinite(max_step) and max_step > 0):
            raise ValueError(f"max_step must be positive and finite, got {max_step!r}")
        h_max = min(h_max, max_step)
    return h_max


def kernel_ode_oracle(
    params: ReservoirParams, t_grid, max_step: float | None = None
) -> AmplitudeTrajectory:
    """Integrate the memory-kernel dynamics reduced to an exact local ODE pair.

    The exponential kernel k(tau) = (gamma0 lambda / 2) exp(-lambda tau) makes
    the convolution state z(t) = int_0^t k(t - tau) s(tau) dtau local:

        ds/dt = -N z,   dz/dt = (gamma0 lambda / 2) s - lambda z,
        s(0) = 1, z(0) = 0,

    where s is the sum of the qubit amplitudes.  Amplitude differences are
    conserved, so the initially excited qubit has C(t) = (N - 1 + s(t)) / N.
    Each grid interval is cut into equal steps h <= 2 / ||A||, with the
    infinity norm ||A|| = max(N, gamma0 lambda / 2 + lambda); max_step, if
    given, only caps h further.  Per distinct h the Taylor series gives
    Q = exp(A h) - I once, and each step adds Q (s, z) to (s, z), which keeps
    the digits that forming I + Q would round away.
    """
    grid = _validate_grid(t_grid)
    n = float(params.n_qubits)
    lam = params.lambda_
    k = 0.5 * params.gamma0 * lam
    h_max = _step_cap(max(n, k + lam), max_step)
    a = np.array([[0.0, -n], [k, -lam]])

    increments: dict[float, np.ndarray] = {}
    s, z = 1.0, 0.0
    t_prev = 0.0
    sums = np.empty(grid.size)
    for idx, t_next in enumerate(map(float, grid)):
        span = t_next - t_prev
        if span > 0.0:
            substeps = max(1, math.ceil(span / h_max))
            h = span / substeps
            if h not in increments:
                increments[h] = np.zeros((2, 2))
                _taylor_increment(a.dot, np.eye(2), h, increments[h])
            q_ss, q_sz, q_zs, q_zz = increments[h].ravel().tolist()
            for _ in range(substeps):
                s, z = s + (q_ss * s + q_sz * z), z + (q_zs * s + q_zz * z)
            t_prev = t_next
        sums[idx] = s
    return AmplitudeTrajectory(times=params.gamma0 * grid, amplitudes=((n - 1.0) + sums) / n)


def build_mode_grid(params: ReservoirParams, n_modes: int, window: float) -> ModeGrid:
    """Midpoint-rule discretization of J over [-window, +window] around the transition.

    n_modes is an integer in [1, 10^6]; checked before anything is allocated.
    """
    if not _is_int(n_modes) or not 1 <= n_modes <= _MAX_MODES:
        raise ValueError(f"n_modes must be an integer in [1, {_MAX_MODES}], got {n_modes!r}")
    if not (math.isfinite(window) and window > 0):
        raise ValueError("window must be positive and finite")
    spacing = 2.0 * window / n_modes
    freqs = -window + (np.arange(n_modes) + 0.5) * spacing
    couplings = np.sqrt(spectral_density(params, freqs) * spacing)
    return ModeGrid(n_modes=n_modes, window=window, frequencies=freqs, couplings=couplings)


def discrete_mode_oracle(
    params: ReservoirParams,
    t_grid,
    mode_grid: ModeGrid,
    max_step: float | None = None,
) -> AmplitudeTrajectory:
    """Brute-force single-excitation dynamics with explicitly sampled modes.

    Evolves the amplitude vector (C_1..C_N, mode amplitudes) under the
    single-excitation Hamiltonian in the frame rotating at the transition
    frequency (an exact reformulation of the interaction picture), with a
    Taylor-series propagator: each step sums the series of exp(-iHh) applied
    to the vector until a term falls below 1e-16 of it.  Steps obey
    h <= 2 / ||H|| with the arrow-matrix bound ||H|| <= max|f| + sqrt(N) ||g||;
    max_step, if given, caps h further.  Converges to the closed form as
    n_modes and window grow; a window narrower than 10 * lambda sets a
    warning flag on the trajectory, and so does a grid reaching the
    recurrence time pi * n_modes / window (2 pi over the mode spacing),
    after which the discretized reservoir returns its excitation.  N is at
    most 10^6, checked before the amplitude vector is allocated.
    """
    grid = _validate_grid(t_grid)
    n = params.n_qubits
    if n > _MAX_MODES:
        raise ValueError(f"n_qubits must be at most {_MAX_MODES} for the discrete-mode oracle, got {n}")
    freqs = mode_grid.frequencies
    g = mode_grid.couplings
    norm_bound = float(np.max(np.abs(freqs))) + math.sqrt(n) * float(np.linalg.norm(g))
    h_max = _step_cap(norm_bound, max_step)

    minus_i_g = -1j * g
    minus_i_f = -1j * freqs

    def rhs(y: np.ndarray) -> np.ndarray:
        c = y[:n]
        b = y[n:]
        dy = np.empty_like(y)
        dy[:n] = minus_i_g @ b  # identical drive on every qubit
        dy[n:] = minus_i_f * b + minus_i_g * c.sum()
        return dy

    y = np.zeros(n + mode_grid.n_modes, dtype=complex)
    y[0] = 1.0
    t_prev = 0.0
    amps = np.empty(grid.size)
    max_norm_error = 0.0
    for idx, t_next in enumerate(grid):
        span = t_next - t_prev
        if span > 0.0:
            substeps = max(1, math.ceil(span / h_max))
            h = span / substeps
            for _ in range(substeps):
                _taylor_increment(rhs, y, h, y)
            t_prev = t_next
        amps[idx] = y[0].real
        max_norm_error = max(max_norm_error, abs(float(np.vdot(y, y).real) - 1.0))
    return AmplitudeTrajectory(
        times=params.gamma0 * grid,
        amplitudes=amps,
        window_warning=mode_grid.window < 10.0 * params.lambda_,
        recurrence_warning=float(grid[-1]) >= math.pi * mode_grid.n_modes / mode_grid.window,
        max_norm_error=max_norm_error,
    )
