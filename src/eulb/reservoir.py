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
reservoir modes.  The kernel ODE is a 2x2 system: per distinct grid
interval a truncated Taylor series of exp(A h), h <= 2 / ||A||, raised to
the interval's step count gives its propagator, and a prefix scan composes
the intervals over the whole grid at once, in log2 K rounds and O(K)
memory for K grid points.  The discrete modes are handled in the
symmetric sector (the qubit sum and the modes): one real Chebyshev moment
recurrence and a quadrature at Chebyshev nodes give every grid time at
once.
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

# Discrete-mode oracle: Chebyshev moments of the normalised Hamiltonian
# (Weisse, Wellein, Alvermann & Fehske, Rev. Mod. Phys. 78, 275 (2006)),
# kept up to the first k > a t_max with |J_k(a t_max)| <= 1e-16.  A cut at
# 1e-17 lies in the noise of the FFT that computes J_k, so where it falls is
# noise: at a t = 56 it kept 124 terms, more than the 118 kept at a t = 64.
_CHEBYSHEV_TOL = 1e-16
# a t_max is at most 10^6: the cut's FFT then has ~3 * 10^6 complex samples
# (48 MB), and the recurrence takes ~10^6 products with H.
_MAX_PHASE = 1e6

# One vector of 10^6 modes is 8 MB of float64; the moment recurrence holds
# five: three buffers, the diagonal and the arm.
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
    n_qubits: total number of qubits in the reservoir, 1 <= N <= 2^53
    """

    gamma0: float
    lambda_: float
    n_qubits: int

    def __post_init__(self) -> None:
        if not (_is_real(self.gamma0) and math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not (_is_real(self.lambda_) and math.isfinite(self.lambda_) and self.lambda_ > 0):
            raise ValueError(f"lambda_ must be positive and finite, got {self.lambda_}")
        # up to 2^53 a float holds N exactly; far beyond it the dynamics'
        # int-to-float conversions overflow (N = 10^308: OverflowError)
        if not _is_int(self.n_qubits) or not 1 <= self.n_qubits <= 2**53:
            raise ValueError(f"n_qubits must be an integer in [1, 2**53], got {self.n_qubits}")
        # decay_amplitude and kernel_ode_oracle form lambda (lambda - 2 N
        # gamma0), N gamma0 lambda and gamma0 lambda / 2 + lambda, which are
        # finite while this product is; past the float range they overflow
        # (lambda = 1e300 gamma0: NaN amplitudes, ZeroDivisionError)
        lam = float(self.lambda_)
        if not math.isfinite(lam * max(lam, 2.0 * float(self.n_qubits) * float(self.gamma0))):
            raise ValueError(
                f"lambda_ * max(lambda_, 2 n_qubits gamma0) must be finite, got lambda_ = "
                f"{self.lambda_}, gamma0 = {self.gamma0}, n_qubits = {self.n_qubits}"
            )


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


def _compose(a, b):
    """(I + a)(I + b) - I = a + b + ab for 2x2 increments held as rows (ss, sz, zs, zz).

    The rows are floats, or equal-length arrays holding one increment per
    column.  Working with increments keeps the digits that forming I + a
    would round away.
    """
    a_ss, a_sz, a_zs, a_zz = a
    b_ss, b_sz, b_zs, b_zz = b
    return (
        a_ss + b_ss + (a_ss * b_ss + a_sz * b_zs),
        a_sz + b_sz + (a_ss * b_sz + a_sz * b_zz),
        a_zs + b_zs + (a_zs * b_ss + a_zz * b_zs),
        a_zz + b_zz + (a_zs * b_sz + a_zz * b_zz),
    )


def _power_increment(q, m: int):
    """(I + q)^m - I for m >= 1, by repeated squaring in increment form."""
    result = (0.0, 0.0, 0.0, 0.0)
    while True:
        if m & 1:
            result = _compose(q, result)
        m >>= 1
        if not m:
            return result
        q = _compose(q, q)


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
    Each grid interval (the first from t = 0) is cut into equal steps
    h <= 2 / ||A||, with the infinity norm ||A|| = max(N, gamma0 lambda / 2
    + lambda); max_step, if given, only caps h further.  Per distinct
    interval length the Taylor series gives Q = exp(A h) - I once, raised to
    the interval's step count by repeated squaring.  An inclusive
    Hillis-Steele scan then composes the K intervals' propagators in
    ceil(log2 K) rounds over (4, K) rows, in memory O(K).  Every product is
    taken in increment form, (I + a)(I + b) - I = a + b + ab, so I + Q is
    never formed: it would round away the digits of Q below 1e-16.  The
    scan's (s, s) entry q_ss gives C = (N + q_ss) / N.
    """
    grid = _validate_grid(t_grid)
    n = float(params.n_qubits)
    lam = params.lambda_
    k = 0.5 * params.gamma0 * lam
    h_max = _step_cap(_TAYLOR_THETA / max(n, k + lam), max_step)
    a = np.array([[0.0, -n], [k, -lam]])

    spans, interval = np.unique(np.diff(grid, prepend=0.0), return_inverse=True)
    increments = np.empty((4, spans.size))
    for j, span in enumerate(spans.tolist()):
        substeps = max(1, math.ceil(span / h_max))
        q = np.zeros((2, 2))
        _taylor_increment(a.dot, np.eye(2), span / substeps, q)
        increments[:, j] = _power_increment(q.ravel().tolist(), substeps)
    scan = increments[:, interval]
    shift = 1
    while shift < grid.size:
        scan[:, shift:] = _compose(scan[:, shift:], scan[:, :-shift])
        shift *= 2
    return AmplitudeTrajectory(times=params.gamma0 * grid, amplitudes=(n + scan[0]) / n)


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
    of P samples gives every J_k.  P is the multiple of 512 >= 3x + 256: the
    cut lies near x + 14 x^(1/3), well below P / 2, so the aliases J_{k-P}
    that share a bin with J_k are far below 1e-16 (at P >= 2x + 256 there is
    no cut below P / 2 near x = 1920).  Each J_k carries an absolute error of
    about x * 1e-16 from the rounded phase x sin(tau).  Raises RuntimeError if
    no cut exists, as for a non-finite x.
    """
    if math.isfinite(x):
        size = 512 * math.ceil((3.0 * x + 256.0) / 512.0)
        # one expression, so the arrays of tau and sin(tau) are freed before the FFT
        samples = np.exp(1j * x * np.sin(np.arange(size) * (2.0 * math.pi / size)))
        bessel = (np.fft.fft(samples)[: size // 2] / size).real
        first = math.floor(x) + 1  # the first order k > x
        cut = np.flatnonzero(np.abs(bessel[first:]) <= _CHEBYSHEV_TOL)
        if cut.size:
            return bessel[: first + cut[0]]
    raise RuntimeError(f"Chebyshev series of exp(-iHt) has no cut at a t = {x!r}")


def discrete_mode_oracle(
    params: ReservoirParams, t_grid, mode_grid: ModeGrid
) -> AmplitudeTrajectory:
    """Brute-force single-excitation dynamics with explicitly sampled modes.

    The single-excitation Hamiltonian, in the frame rotating at the
    transition frequency (an exact reformulation of the interaction
    picture), drives every qubit alike, so amplitude differences are
    conserved and only the symmetric sector moves: the vector
    (s, sqrt(N) b_1..b_M), with s the sum of the qubit amplitudes, evolves
    under the real symmetric arrow matrix H with mode frequencies f on the
    diagonal and couplings sqrt(N) g to s, from s(0) = 1; the initially
    excited qubit has C(t) = (N - 1 + s(t)) / N.

    s(t) = <e0|exp(-iHt)|e0> depends on H only through the Chebyshev moments
    mu_k = <e0|T_k(H~)|e0> of H~ = (H - centre) / a, centre = (f_min +
    f_max) / 2, a = (f_max - f_min) / 2 + sqrt(N) ||g||, whose spectrum lies
    in [-1, 1].  One real three-term recurrence phi_{k+1} = 2 H~ phi_k -
    phi_{k-1} from phi_0 = e0 gives mu_k = phi_k[0] for k < K, where K is
    the cut of the Bessel series J_k(a t_max) at 1e-16: the expansion of
    exp(-iHt) in T_k(H~) has terms bounded by |J_k(a t)|, so no moment past
    K matters for t <= t_max.  One real FFT samples the spectral density
    sum_k (2 - delta_k0) mu_k T_k at the K + 1 Chebyshev nodes
    E_p = centre + a cos(pi p / K), giving trapezoid weights w_p with
    Re s(t) = sum_p w_p cos(t E_p) at every grid time.  The rule is exact
    because the integrand's bandwidth stays below 2K.  Memory is O(M + K).

    The norm identity ||T_k(H~) e0||^2 = (1 + mu_{2k}) / 2 checks every
    Chebyshev vector with 2k < K; the largest |2 ||phi_k||^2 - 1 - mu_{2k}|
    is reported as max_norm_error.

    Converges to the closed form as n_modes and window grow; a window
    narrower than 10 * lambda sets a warning flag on the trajectory, and so
    does a grid reaching the recurrence time pi * n_modes / window (2 pi over
    the mode spacing), after which the discretized reservoir returns its
    excitation.  N and a t_max are each at most 10^6, checked before
    anything is allocated.
    """
    grid = _validate_grid(t_grid)
    n = params.n_qubits
    # The vector has 1 + n_modes entries for any N, so this cap bounds no
    # allocation.  It bounds the run time: K grows as sqrt(N) through a.
    if n > 1_000_000:
        raise ValueError(f"n_qubits must be at most 10^6 for the discrete-mode oracle, got {n}")
    freqs = mode_grid.frequencies
    coupling = math.sqrt(n) * mode_grid.couplings
    f_min, f_max = float(freqs.min()), float(freqs.max())
    centre = 0.5 * (f_min + f_max)
    half_width = 0.5 * (f_max - f_min) + float(np.linalg.norm(coupling))
    phase = half_width * float(grid[-1])
    if not phase <= _MAX_PHASE:
        raise ValueError(
            f"a t_max must be at most {_MAX_PHASE:g} for the discrete-mode oracle, got {phase:.6g}"
        )
    n_moments = _bessel_series(phase).size

    # 2 H~ as arrow-matrix parts: the head's diagonal, the modes' diagonal
    # and the arm that couples them.  Each phi_k keeps its head entry apart,
    # as a float, from its mode entries.
    head = -2.0 * centre / half_width
    diag = (2.0 / half_width) * (freqs - centre)
    arm = (2.0 / half_width) * coupling
    prev, prev_head = np.zeros(mode_grid.n_modes), 1.0  # phi_0 = e0
    cur, cur_head = 0.5 * arm, 0.5 * head  # phi_1 = H~ e0
    scratch = np.empty(mode_grid.n_modes)
    moments = np.empty(n_moments + 1)  # mu_0, mu_1 even when K = 1
    norms = np.empty((n_moments + 1) // 2)  # ||phi_k||^2 for 2k < K
    moments[0], moments[1], norms[0] = 1.0, cur_head, 1.0
    for k in range(1, n_moments - 1):
        if k < norms.size:
            norms[k] = cur_head * cur_head + cur @ cur
        # prev <- 2 H~ cur - prev = phi_{k+1}
        np.multiply(arm, cur_head, out=scratch)
        np.subtract(scratch, prev, out=prev)
        np.multiply(diag, cur, out=scratch)
        prev += scratch
        prev_head = head * cur_head + arm @ cur - prev_head
        prev, cur, prev_head, cur_head = cur, prev, cur_head, prev_head
        moments[k + 1] = cur_head
    moments = moments[:n_moments]
    norm_defect = np.abs(2.0 * norms - 1.0 - moments[: 2 * norms.size : 2])

    # trapezoid weights at the nodes theta_p = pi p / K, p = 0..K
    moments[1:] *= 2.0
    weights = np.fft.rfft(moments, 2 * n_moments).real / n_moments
    weights[[0, -1]] *= 0.5
    energies = centre + half_width * np.cos((math.pi / n_moments) * np.arange(n_moments + 1))
    phases = np.empty_like(energies)
    sums = np.empty(grid.size)
    for i, t in enumerate(grid.tolist()):
        np.multiply(energies, t, out=phases)
        np.cos(phases, out=phases)
        sums[i] = weights @ phases
    if grid[0] == 0.0:
        sums[0] = 1.0  # s(0) = 1 exactly
    return AmplitudeTrajectory(
        times=params.gamma0 * grid,
        amplitudes=((n - 1.0) + sums) / n,
        window_warning=mode_grid.window < 10.0 * params.lambda_,
        recurrence_warning=float(grid[-1]) >= mode_grid.recurrence_time,
        max_norm_error=float(norm_defect.max()),
    )
