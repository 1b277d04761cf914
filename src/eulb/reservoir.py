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
reservoir modes.  The kernel ODE is a 2x2 system, propagated with a
truncated Taylor series of exp(A h) in steps of h <= 2 / ||A||.  The
discrete modes are propagated in the symmetric sector (the qubit sum and
the modes) with a Chebyshev expansion of exp(-iHh), whose long steps each
cover many grid points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# Kernel-ODE propagator: a truncated Taylor series of exp(A h) per step of
# h <= _TAYLOR_THETA / ||A|| (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011)).  At ||A|| h <= 2 no term exceeds 2 in norm, so summing the series
# loses no digits to cancellation; it reaches 1e-16 within 24 terms, so the
# cap only trips on non-finite amplitudes.
_TAYLOR_THETA = 2.0
_TAYLOR_TOL = 1e-16
_TAYLOR_MAX_TERMS = 40

# Discrete-mode propagator: a Chebyshev expansion of exp(-iHh) (Tal-Ezer &
# Kosloff, J. Chem. Phys. 81, 3967 (1984)) with the spectrum of H inside an
# interval of half-width a.  Its terms are bounded by |J_k(a h)|, so a step of
# any length sums without cancellation; one step spans a h <= _CHEBYSHEV_THETA,
# at most about a h + 55 terms.  Shorter steps add more steps' roundoff, longer
# ones more terms': on the dense-eigh tests a h <= 16, 64 and 256 gave norm
# errors up to 5.6e-13, 1.4e-13 and 6.1e-13.  The series is cut at the first
# k > a h with |J_k| <= 1e-16.  A cut at 1e-17 lies in the noise of the FFT
# that computes J_k, so where it falls is noise: at a h = 56 it kept 124
# terms, more than the 118 kept at a h = 64.
_CHEBYSHEV_THETA = 64.0
_CHEBYSHEV_TOL = 1e-16

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

    @property
    def recurrence_time(self) -> float:
        """pi * n_modes / window, 2 pi over the mode spacing: from here on the
        discretized reservoir returns its excitation to the qubits."""
        return math.pi * self.n_modes / self.window


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


def _step_cap(h_max: float, max_step: float | None) -> float:
    """The propagator's longest step h_max, capped further by a valid max_step."""
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
    h_max = _step_cap(_TAYLOR_THETA / max(n, k + lam), max_step)
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


def _bessel_series(x: float) -> np.ndarray:
    """J_0(x), ..., J_{K-1}(x) for x >= 0, cut at the first K > x with |J_K(x)| <= 1e-16.

    By Jacobi-Anger, exp(i x sin tau) = sum_k J_k(x) exp(i k tau), so one FFT
    of P samples gives every J_k.  P is the power of two >= 3x + 256: the cut
    lies near x + 14 x^(1/3), well below P / 2, so the aliases J_{k-P} that
    share a bin with J_k are far below 1e-16 (at P >= 2x + 256 there is no cut
    below P / 2 near x = 1920).  Each J_k carries an absolute error of about
    x * 1e-16 from the rounded phase x sin(tau).  Raises RuntimeError if no
    cut exists, as for a non-finite x.
    """
    size = 256
    while size < 3.0 * x + 256.0:
        size *= 2
    tau = np.arange(size) * (2.0 * math.pi / size)
    bessel = (np.fft.fft(np.exp(1j * x * np.sin(tau)))[: size // 2] / size).real
    cut = np.flatnonzero((np.arange(size // 2) > x) & (np.abs(bessel) <= _CHEBYSHEV_TOL))
    if cut.size == 0:
        raise RuntimeError(f"Chebyshev series of exp(-iHh) has no cut at a h = {x!r}")
    return bessel[: cut[0]]


_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _chebyshev_coefficients(half_width: float, centre: float, h: float) -> np.ndarray:
    """c_k with exp(-iHh) = sum_k c_k T_k((H - centre) / half_width).

    c_k = (2 - delta_k0) (-i)^k J_k(half_width h) exp(-i centre h), cut as in
    _bessel_series.
    """
    bessel = _bessel_series(half_width * h)
    coeffs = 2.0 * bessel * _MINUS_I_POWERS[np.arange(bessel.size) % 4]
    coeffs[0] = bessel[0]
    return coeffs * cmath.exp(-1j * centre * h)


def discrete_mode_oracle(
    params: ReservoirParams,
    t_grid,
    mode_grid: ModeGrid,
    max_step: float | None = None,
) -> AmplitudeTrajectory:
    """Brute-force single-excitation dynamics with explicitly sampled modes.

    The single-excitation Hamiltonian, in the frame rotating at the
    transition frequency (an exact reformulation of the interaction
    picture), drives every qubit alike, so amplitude differences are
    conserved and only the symmetric sector moves: the vector
    (s, sqrt(N) b_1..b_M), with s the sum of the qubit amplitudes, evolves
    under the Hermitian arrow matrix with mode frequencies f on the diagonal
    and couplings sqrt(N) g to s, from s(0) = 1; the initially excited qubit
    has C(t) = (N - 1 + s(t)) / N.

    The propagator is a Chebyshev expansion of exp(-iHh) over the spectral
    interval [centre - a, centre + a], centre = (f_min + f_max) / 2,
    a = (f_max - f_min) / 2 + sqrt(N) ||g||.  One step runs the three-term
    recurrence once and covers every grid point within 64 / a (and
    max_step, if given) of its start: the grid points inside the step read
    s from the first component of each stored term, and the full vector is
    summed only at the step's end.  A grid interval longer than that cap is
    cut into equal substeps.  The norm of the vector, 1 in exact arithmetic,
    is checked at every step end, not at every grid point; the largest
    |norm^2 - 1| is reported as max_norm_error.

    Converges to the closed form as n_modes and window grow; a window
    narrower than 10 * lambda sets a warning flag on the trajectory, and so
    does a grid reaching the recurrence time pi * n_modes / window (2 pi over
    the mode spacing), after which the discretized reservoir returns its
    excitation.  N is at most 10^6.
    """
    grid = _validate_grid(t_grid)
    n = params.n_qubits
    if n > _MAX_MODES:
        raise ValueError(f"n_qubits must be at most {_MAX_MODES} for the discrete-mode oracle, got {n}")
    freqs = mode_grid.frequencies
    coupling = math.sqrt(n) * mode_grid.couplings
    f_min, f_max = float(freqs.min()), float(freqs.max())
    centre = 0.5 * (f_min + f_max)
    half_width = 0.5 * (f_max - f_min) + float(np.linalg.norm(coupling))
    h_max = _step_cap(_CHEBYSHEV_THETA / half_width, max_step)

    # 2 (H - centre) / half_width as arrow-matrix parts: the head's diagonal,
    # the modes' diagonal and the arm that couples them.  The real parts are
    # held as complex arrays: numpy multiplies complex by complex faster than
    # it casts real to complex, and the dot product needs no cast per term.
    head = -2.0 * centre / half_width
    diag = ((2.0 / half_width) * (freqs - centre)).astype(complex)
    arm = ((2.0 / half_width) * coupling).astype(complex)

    size = 1 + mode_grid.n_modes
    y = np.zeros(size, dtype=complex)
    y[0] = 1.0
    buffers = [np.empty(size, dtype=complex) for _ in range(3)]
    scratch = np.empty(size, dtype=complex)

    def twice_shifted(v: np.ndarray, out: np.ndarray) -> None:
        np.multiply(diag, v[1:], out=out[1:])
        np.multiply(arm, v[0], out=scratch[1:])
        out[1:] += scratch[1:]
        out[0] = head * v[0] + arm @ v[1:]

    def step(y: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """y <- sum_k coeffs[k] T_k y in place; returns the first component of each T_k y."""
        prev, cur, nxt = buffers
        heads = np.empty(coeffs.size, dtype=complex)
        np.copyto(cur, y)
        heads[0] = cur[0]
        y *= coeffs[0]
        for k in range(1, coeffs.size):
            twice_shifted(cur, nxt)
            if k == 1:
                nxt *= 0.5  # T_1 y = H~ y
            else:
                nxt -= prev  # T_k y = 2 H~ T_{k-1} y - T_{k-2} y
            prev, cur, nxt = cur, nxt, prev
            heads[k] = cur[0]
            np.multiply(cur, coeffs[k], out=scratch)
            y += scratch
        return heads

    sums = np.empty(grid.size)
    max_norm_error = 0.0
    t_prev = 0.0
    idx = 0
    if grid[0] == 0.0:
        sums[0] = 1.0
        idx = 1
    while idx < grid.size:
        span = float(grid[idx]) - t_prev
        if span > h_max:  # one long interval, cut into equal substeps
            end, substeps = idx, math.ceil(span / h_max)
        else:  # one step to the last grid point within h_max
            end = max(idx, int(np.searchsorted(grid, t_prev + h_max, side="right")) - 1)
            substeps = 1
        coeffs = _chebyshev_coefficients(half_width, centre, (float(grid[end]) - t_prev) / substeps)
        for _ in range(substeps):
            heads = step(y, coeffs)
            max_norm_error = max(max_norm_error, abs(float(np.vdot(y, y).real) - 1.0))
        for i in range(idx, end):  # grid points inside the step
            coeffs = _chebyshev_coefficients(half_width, centre, float(grid[i]) - t_prev)[: heads.size]
            sums[i] = (coeffs @ heads[: coeffs.size]).real
        sums[end] = y[0].real
        t_prev = float(grid[end])
        idx = end + 1
    return AmplitudeTrajectory(
        times=params.gamma0 * grid,
        amplitudes=((n - 1.0) + sums) / n,
        window_warning=mode_grid.window < 10.0 * params.lambda_,
        recurrence_warning=float(grid[-1]) >= mode_grid.recurrence_time,
        max_norm_error=max_norm_error,
    )
