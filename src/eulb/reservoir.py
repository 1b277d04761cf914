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
reservoir modes.  Each gives every grid time at once: the kernel ODE, a
2x2 system, from one batched Taylor series and a prefix scan; the modes,
in the symmetric sector, from Chebyshev moments, two per recurrence vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _inexact, _is_int, _is_positive_finite, _real_array

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
# five: a (3, M) buffer (the arm and two vectors), the diagonal and scratch.
_MAX_MODES = 1_000_000

_RESEED = 64  # grid times between fresh phasor reads in the discrete-mode quadrature

# Half-width of the discrete-mode frequency window over lambda.  The modes
# outside it carry 1 - 2 atan(20) / pi = 3.2% of J's weight; the deviation
# this leaves (~2e-4 to 4e-4 on the fig 2 preset) is well inside the tolerance.
_WINDOW_OVER_LAMBDA = 20.0


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
        if not _is_positive_finite(self.gamma0):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0!r}")
        if not _is_positive_finite(self.lambda_):
            raise ValueError(f"lambda_ must be positive and finite, got {self.lambda_!r}")
        # up to 2^53 a float holds N exactly; far beyond it the dynamics'
        # int-to-float conversions overflow (N = 10^308: OverflowError)
        if not _is_int(self.n_qubits) or not 1 <= self.n_qubits <= 2**53:
            raise ValueError(f"n_qubits must be an integer in [1, 2**53], got {self.n_qubits!r}")
        # decay_amplitude and kernel_ode_oracle form lambda (lambda - 2 N
        # gamma0), N gamma0 lambda and gamma0 lambda / 2 + lambda, which are
        # finite while this product is; past the float range they overflow
        # (lambda = 1e300 gamma0: NaN amplitudes, ZeroDivisionError)
        lam = float(self.lambda_)
        if not math.isfinite(lam * max(lam, 2.0 * float(self.n_qubits) * float(self.gamma0))):
            raise ValueError(
                f"lambda_ * max(lambda_, 2 n_qubits gamma0) must be finite, got lambda_ = "
                f"{self.lambda_!r}, gamma0 = {self.gamma0!r}, n_qubits = {self.n_qubits!r}"
            )


@dataclass
class AmplitudeTrajectory:
    """Decay amplitude sampled on a time grid; times are dimensionless gamma0*t."""

    times: np.ndarray
    amplitudes: np.ndarray
    max_norm_error: float | None = None


@dataclass(frozen=True)
class ModeGrid:
    """Equal-weight discretization of the reservoir over a symmetric frequency window.

    Frequencies are offsets from the qubit transition frequency; couplings
    are real.  Both are finite 1-D arrays of one non-zero length, and every
    mode carries the same weight of J (see build_mode_grid).
    """

    frequencies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self) -> None:
        for name in ("frequencies", "couplings"):  # frozen: set the converted arrays
            object.__setattr__(self, name, _inexact(getattr(self, name), name, real=True))
        f, g = self.frequencies, self.couplings
        if not (f.ndim == g.ndim == 1 and 0 < f.size == g.size):
            raise ValueError(f"need 1-D frequencies and couplings of one length > 0, got {f.shape}, {g.shape}")
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            raise ValueError("mode frequencies and couplings must be finite")

    @property
    def n_modes(self) -> int:
        return self.frequencies.size


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
    t_arr = _real_array(t, "t")
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
        raise ValueError("decay_amplitude requires finite t >= 0")
    c = _amplitude(params, t_arr)
    return float(c) if c.ndim == 0 else c


def _amplitude(params: ReservoirParams, t_arr: np.ndarray) -> np.ndarray:
    # decay_amplitude's core: t_arr is float64, finite and >= 0
    n = params.n_qubits
    lam = params.lambda_
    # the subtraction lam - 2 N gamma0 is exact near the critical coupling;
    # lam^2 - 2 N gamma0 lam would round both terms first
    d = cmath.sqrt(lam * (lam - 2 * n * params.gamma0))
    kappa = n * params.gamma0 * lam / (lam + d)
    g = t_arr if d == 0 else -np.expm1(-d * t_arr) / d
    return ((n - 1) + (np.exp(-kappa * t_arr) * (1 + kappa * g)).real) / n


def _validate_grid(t_grid: np.ndarray) -> np.ndarray:
    grid = _real_array(t_grid, "t_grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)):
        raise ValueError("time grid must be finite")
    if grid[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly ascending")
    return grid


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


def kernel_ode_oracle(params: ReservoirParams, t_grid) -> AmplitudeTrajectory:
    """Integrate the memory-kernel dynamics reduced to an exact local ODE pair.

    The exponential kernel k(tau) = (gamma0 lambda / 2) exp(-lambda tau) makes
    the convolution state z(t) = int_0^t k(t - tau) s(tau) dtau local:

        ds/dt = -N z,   dz/dt = (gamma0 lambda / 2) s - lambda z,
        s(0) = 1, z(0) = 0,

    where s is the sum of the qubit amplitudes.  Amplitude differences are
    conserved, so the initially excited qubit has C(t) = (N - 1 + s(t)) / N.
    Each grid interval (the first from t = 0) is cut into 2^d equal steps,
    the fewest with h <= 2 / ||A|| for the infinity norm ||A|| = max(N,
    gamma0 lambda / 2 + lambda); dividing by 2^d is exact.  One Taylor
    series over the (J, 2, 2) stack of the J distinct interval lengths gives
    every Q = exp(A h) - I at once, and each is squared d times, all
    intervals at once over (4, J) rows.  An inclusive
    Hillis-Steele scan then composes the K intervals' propagators in
    ceil(log2 K) rounds over (4, K) rows, in memory O(K).  Every product is
    taken in increment form, (I + a)(I + b) - I = a + b + ab, so I + Q,
    which would round away the digits of Q below 1e-16, is never formed.
    The scan's (s, s) entry q_ss gives C = (N + q_ss) / N.  A step count
    past the float range, or a C that the squaring overflowed
    (||A|| t far beyond 1/eps), raises ValueError.
    """
    grid = _validate_grid(t_grid)
    n = float(params.n_qubits)
    lam = params.lambda_
    k = 0.5 * params.gamma0 * lam
    h_max = _TAYLOR_THETA / max(n, k + lam)
    a = np.array([[0.0, -n], [k, -lam]])

    spans, interval = np.unique(np.diff(grid, prepend=0.0), return_inverse=True)
    if not math.isfinite(float(spans[-1]) / h_max):  # np.unique sorts ascending
        raise ValueError(f"grid span {spans[-1]:g} needs over 1e308 steps of h <= {h_max!r}")
    # 2^d steps per span, d = ceil(log2 max(span / h_max, 1)) exactly; d ascends
    mantissa, exponent = np.frexp(np.maximum(spans / h_max, 1.0))
    doublings = exponent - (mantissa == 0.5)
    # each span's terms are summed until ||term||^2 <= (1e-16)^2 ||I||^2, then scaled by 0
    step = np.ldexp(spans, -doublings)
    term = np.broadcast_to(np.eye(2), (spans.size, 2, 2))
    q = np.zeros((spans.size, 2, 2))
    for order in range(1, _TAYLOR_MAX_TERMS + 1):
        term = np.matmul(a, term) * (step / order)[:, None, None]
        q += term
        step[np.einsum("jab,jab->j", term, term) <= 2.0 * _TAYLOR_TOL**2] = 0.0
        if not step.any():
            break
    else:
        raise RuntimeError(f"Taylor series of exp(Ah) did not converge in {_TAYLOR_MAX_TERMS} terms")
    increments = q.reshape(spans.size, 4).T  # rows (ss, sz, zs, zz), a view of q
    with np.errstate(over="ignore", invalid="ignore"):  # see the finiteness check
        for d in range(int(doublings[-1])):
            live = np.searchsorted(doublings, d, side="right")  # spans still to square
            increments[:, live:] = _compose(increments[:, live:], increments[:, live:])
    scan = increments[:, interval]
    shift = 1
    while shift < grid.size:
        scan[:, shift:] = _compose(scan[:, shift:], scan[:, :-shift])
        shift *= 2
    amplitudes = (n + scan[0]) / n
    if not np.isfinite(amplitudes).all():
        raise ValueError(f"kernel ODE oracle overflowed to a non-finite amplitude at {params}")
    return AmplitudeTrajectory(times=params.gamma0 * grid, amplitudes=amplitudes)


def build_mode_grid(params: ReservoirParams, n_modes: int) -> ModeGrid:
    """Equal-weight discretization of J over [-20 lambda, +20 lambda] around the transition.

    The map w = lambda tan(theta) turns J(w) dw into (gamma0 lambda / 2 pi)
    dtheta, so the nodes sit at w = lambda tan(theta) for the midpoints
    theta of n_modes equal cells of [-atan(20), atan(20)], and every mode
    gets coupling^2 = gamma0 lambda dtheta / 2 pi, the cell's exact weight
    of J (the "density of frequencies" grid of Wang, Thoss & Miller,
    J. Chem. Phys. 115, 2979 (2001)).  Modes crowd where J is large: the
    spacing near resonance is about lambda dtheta.  The window is fixed:
    n_modes is the grid's one setting, an integer in [1, 10^6] checked
    before anything is allocated.
    """
    if not _is_int(n_modes) or not 1 <= n_modes <= _MAX_MODES:
        raise ValueError(f"n_modes must be an integer in [1, {_MAX_MODES}], got {n_modes!r}")
    lam = params.lambda_
    edge = math.atan(_WINDOW_OVER_LAMBDA)
    cell = 2.0 * edge / n_modes
    freqs = lam * np.tan(-edge + (np.arange(n_modes) + 0.5) * cell)
    couplings = np.full(n_modes, math.sqrt(params.gamma0 * lam * cell / (2.0 * math.pi)))
    # near the float minimum (lambda = 5e-324) the nodes round onto each
    # other and the coupling to 0, which has no spacing or half-width
    if not (couplings[0] > 0 and np.all(np.diff(freqs) > 0)):
        raise ValueError(f"mode grid underflows at gamma0 = {params.gamma0!r}, lambda_ = {lam!r}")
    return ModeGrid(frequencies=freqs, couplings=couplings)


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


def _chebyshev_moments(freqs, coupling, centre: float, half_width: float, n_moments: int):
    """mu_0..mu_{K-1}, K = n_moments, of H~ = (H - centre) / half_width, and a check.

    H is the arrow matrix with 0 at the head, freqs on the diagonal and
    coupling as the arm.  buf holds the arm and the mode parts of phi_{k-1}
    and phi_k; once phi_{k+1} is formed in place, buf @ phi_k gives arm .
    phi_k (for the head of phi_{k+1}), <phi_{k+1}|phi_k> and <phi_k|phi_k>.
    """
    steps = (n_moments + 1) // 2
    buf = np.zeros((3, freqs.size))
    arm, prev, cur = buf  # phi_0 = e0 and phi_1 = H~ e0 off the head
    np.multiply(coupling, 2.0 / half_width, out=arm)
    np.multiply(arm, 0.5, out=cur)
    diag = (2.0 / half_width) * (freqs - centre)
    scratch = np.empty(freqs.size)
    head = -2.0 * centre / half_width
    mu_1 = 0.5 * head
    heads, moments = [1.0, mu_1], [1.0, mu_1]  # mu_0 and mu_1 even when K = 1
    prev_head, cur_head, prev_row = 1.0, mu_1, 1  # prev is buf[prev_row], cur the other row
    for _ in range(1, steps):
        # prev <- 2 H~ cur - prev = phi_{k+1}
        np.multiply(arm, cur_head, out=scratch)
        np.subtract(scratch, prev, out=prev)
        np.multiply(diag, cur, out=scratch)
        prev += scratch
        dots = buf.dot(cur).tolist()  # arm . cur, then buf[1] . cur and buf[2] . cur
        next_head = head * cur_head + dots[0] - prev_head
        moments.append(2.0 * (cur_head * cur_head + dots[3 - prev_row]) - 1.0)
        moments.append(2.0 * (next_head * cur_head + dots[prev_row]) - mu_1)
        heads.append(next_head)
        prev, cur, prev_head, cur_head, prev_row = cur, prev, cur_head, next_head, 3 - prev_row
    moments = np.array(moments)
    return moments[:n_moments], float(np.max(np.abs(np.array(heads) - moments[: steps + 1])))


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
    mu_k = <e0|T_k(H~)|e0> of H~ = (H - centre) / a.  With [lo, hi] the
    range of H's diagonal (0 and f), centre = (lo + hi) / 2 and a =
    (hi - lo) / 2 + sqrt(N) ||g||, the arm's norm added, H~'s spectrum lies
    in [-1, 1] by Weyl's inequality, for any f.  A real three-term
    recurrence phi_{k+1} = 2 H~ phi_k - phi_{k-1} from phi_0 = e0 gives mu_k
    for k < K, K the cut of the Bessel series J_k(a t_max) at 1e-16: the
    expansion of exp(-iHt) in T_k(H~) has terms bounded by |J_k(a t)|, so
    no moment past K matters for t <= t_max.
    Each vector gives two moments, mu_{2k} = 2 <phi_k|phi_k> - mu_0 and
    mu_{2k+1} = 2 <phi_{k+1}|phi_k> - mu_1 (Weisse et al.), so the
    recurrence stops at phi_{ceil(K/2)}, five numpy calls per vector.  One
    real FFT samples the spectral density sum_k (2 - delta_k0) mu_k T_k at
    the K + 1 Chebyshev nodes E_p = centre + a cos(pi p / K), giving
    trapezoid weights w_p with Re s(t) = sum_p w_p cos(t E_p) at every grid
    time; the rule is exact because the integrand's bandwidth stays below
    2K.  The head entry phi_k[0] is mu_k as well, and the largest
    |phi_k[0] - mu_k| over the vectors formed, which checks the doubled
    moments, is reported as max_norm_error (a name kept from an earlier
    norm check).

    The sum reads Re z_p of the phasor z_p = exp(i t E_p), which one
    product with a held rotation exp(i h E_p) steps to the next time.  A
    rotation is built only for a span h that the next six spans share
    within the slack, 4 ulps of t_max, and kept for later spans within it.
    Other times, and every B-th (B = _RESEED = 64), take the cosines
    afresh, bit for bit as without rotations, so irregular grids cost what
    they did.  Between fresh reads z runs ahead by one offset delta for all
    nodes, |delta| <= (B - 1) slack: each phase is off by at most
    B max|E_p| slack, and C, as |ds/dt| <= ||H e0|| = sqrt(N) ||g||, by at
    most |delta| ||g|| / sqrt(N).  Memory is O(M + K).

    The propagation is exact for the discretized reservoir at every time;
    it converges to the closed form, up to the window's cut, as n_modes
    grows.  Whether a grid is a check of the continuum is oracle_report's
    decision.  a t_max is at most 10^6, checked before anything is
    allocated: N enters only through a, so this one cap bounds K and the
    cut's FFT for any N.
    """
    grid = _validate_grid(t_grid)
    n = params.n_qubits
    freqs = mode_grid.frequencies
    coupling = math.sqrt(n) * mode_grid.couplings
    # the range of H's diagonal, the head's 0 included
    lo, hi = min(float(freqs.min()), 0.0), max(float(freqs.max()), 0.0)
    centre = 0.5 * (lo + hi)
    half_width = 0.5 * (hi - lo) + float(np.linalg.norm(coupling))
    # a hand-built grid of uncoupled modes, all at 0, has no width (cf. build_mode_grid)
    if not (half_width > 0 and math.isfinite(2.0 / half_width)):
        raise ValueError(f"mode grid underflows: spectral half-width {half_width!r}")
    phase = half_width * float(grid[-1])
    if not phase <= _MAX_PHASE:
        raise ValueError(
            f"a t_max must be at most {_MAX_PHASE:g} for the discrete-mode oracle, got {phase:.6g}"
        )
    n_moments = _bessel_series(phase).size
    moments, head_error = _chebyshev_moments(freqs, coupling, centre, half_width, n_moments)

    # trapezoid weights at the nodes theta_p = pi p / K, p = 0..K
    moments[1:] *= 2.0
    weights = np.fft.rfft(moments, 2 * n_moments).real / n_moments
    weights[[0, -1]] *= 0.5
    energies = centre + half_width * np.cos((math.pi / n_moments) * np.arange(n_moments + 1))
    spans = np.diff(grid, append=math.inf).tolist()  # spans[i] = t_{i+1} - t_i
    slack = 4.0 * float(np.spacing(grid[-1]))  # spans this close share one rotation
    phases = np.empty_like(energies)
    phasor, rotation = np.empty((2, energies.size), dtype=complex)  # e^{i t E}, e^{i held E}
    held = math.nan
    sums = np.empty(grid.size)
    for i, t in enumerate(grid.tolist()):
        if i % _RESEED and abs(spans[i - 1] - held) <= slack:
            read = np.multiply(phasor, rotation, out=phasor).real
        else:  # the cosine read
            ahead = spans[i : i + 6]  # a new rotation costs ~4 cosines and saves ~1 a step
            if not abs(ahead[0] - held) <= slack and max(ahead) - min(ahead) <= slack:
                held = ahead[0]
                np.multiply(energies, held, out=rotation.real)
                np.sin(rotation.real, out=rotation.imag)
                np.cos(rotation.real, out=rotation.real)
            np.multiply(energies, t, out=phases)
            if (i + 1) % _RESEED and abs(ahead[0] - held) <= slack:  # the next time rotates
                np.sin(phases, out=phasor.imag)
                np.cos(phases, out=phasor.real)
            read = np.cos(phases, out=phases)  # contiguous: the bits of a grid with no rotation
        sums[i] = np.einsum("i,i->", weights, read)  # a BLAS dot wakes a second thread
    if grid[0] == 0.0:
        sums[0] = 1.0  # s(0) = 1 exactly
    return AmplitudeTrajectory(
        times=params.gamma0 * grid,
        amplitudes=((n - 1.0) + sums) / n,
        max_norm_error=head_error,
    )
