from __future__ import annotations

import csv
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from eulb.reservoir import (
    ReservoirParams,
    _bessel_series,
    build_mode_grid,
    decay_amplitude,
    discrete_mode_oracle,
    kernel_ode_oracle,
    spectral_density,
)

# Closed-form value at gamma0*t = 0.1 for N=1, lambda=40*gamma0, confirmed by
# the kernel ODE route and by a 40-digit evaluation of the formula.
C_AT_01 = 0.9627172615168508
# First zero crossing of C for N=1, lambda=0.1*gamma0 (root of the closed
# form below the critical coupling, found to 40 digits independently).
FIRST_ZERO = 8.242034311692072

# C(t) at gamma0 = 1, evaluated at 40 digits and written to 20; written by
# tests/golden/capture_amplitude.py
AMPLITUDE_REFERENCE = Path(__file__).with_name("golden") / "amplitude_mpmath.csv"

# the largest lambda whose square is finite
LARGEST_LAMBDA = 1.3407807929942596e154


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="gamma0"):
            ReservoirParams(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="lambda_"):
            ReservoirParams(1.0, -2.0, 1)
        with pytest.raises(ValueError, match="n_qubits"):
            ReservoirParams(1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "bad", [2.0, True, np.bool_(True), 2**53 + 1, pytest.param(10**400, id="10**400")]
    )
    def test_rejects_non_integer_qubit_count(self, bad):
        # 2.0 used to pass and then fail inside np.zeros in the discrete oracle;
        # 10**400 raised OverflowError inside decay_amplitude
        with pytest.raises(ValueError, match="n_qubits"):
            ReservoirParams(1.0, 1.0, bad)

    def test_accepts_numpy_integer_qubit_count(self):
        assert ReservoirParams(1.0, 1.0, np.int64(3)).n_qubits == 3
        assert ReservoirParams(1.0, 1.0, np.int64(2**53)).n_qubits == 2**53

    @pytest.mark.parametrize("bad", [True, np.True_, "5", None])
    @pytest.mark.parametrize("name", ["gamma0", "lambda_"])
    def test_rejects_non_real_rates(self, name, bad):
        # booleans used to pass as 1, and strings or None raised TypeError
        rates = {"gamma0": 1.0, "lambda_": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            ReservoirParams(n_qubits=1, **rates)

    def test_accepts_numpy_float_rates(self):
        params = ReservoirParams(np.float32(0.5), np.float32(0.5), 1)
        assert params.gamma0 / params.lambda_ == 1.0

    @pytest.mark.parametrize(
        ("gamma0", "lam", "n"),
        [
            (1.0, 1e300, 1),
            (1e300, 1e300, 1),
            (1e300, 1.0, 2**53),
            (1.0, np.nextafter(LARGEST_LAMBDA, np.inf), 1),
        ],
    )
    def test_rejects_rates_that_overflow(self, gamma0, lam, n):
        # lambda = 1e300 gamma0 used to give NaN amplitudes, and with gamma0 =
        # 1e300 a ZeroDivisionError in the kernel ODE
        with pytest.raises(ValueError, match="must be finite"):
            ReservoirParams(gamma0, lam, n)

    @pytest.mark.filterwarnings("error")
    def test_largest_accepted_lambda(self):
        # lambda^2 is the largest product formed; at this lambda the
        # Markovian limit C = exp(-gamma0 t / 2) holds to the last digit
        params = ReservoirParams(1.0, LARGEST_LAMBDA, 1)
        t = np.linspace(0.0, 20.0, 201)
        assert np.max(np.abs(decay_amplitude(params, t) - np.exp(-t / 2))) <= 2 * EPS
        assert np.max(np.abs(kernel_ode_oracle(params, t).amplitudes - np.exp(-t / 2))) <= 4 * EPS


class TestDecayAmplitude:
    @pytest.mark.parametrize("lam", [0.05, 0.1, 1.0, 2.0, 40.0, 100.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 10])
    def test_starts_at_one_exactly(self, lam, n):
        assert decay_amplitude(ReservoirParams(1.0, lam, n), 0.0) == 1.0

    def test_markovian_value(self):
        c = decay_amplitude(ReservoirParams(1.0, 40.0, 1), 0.1)
        assert abs(c - C_AT_01) < 1e-12

    def test_first_zero_crossing_by_bisection(self):
        params = ReservoirParams(1.0, 0.1, 1)
        lo, hi = 7.0, 9.0
        assert decay_amplitude(params, lo) > 0 > decay_amplitude(params, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if decay_amplitude(params, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - FIRST_ZERO) < 1e-9

    def test_bounded_by_one(self):
        t = np.linspace(0.0, 50.0, 2001)
        for n in range(1, 11):
            for lam in (0.05, 0.1, 0.5, 2.0, 10.0, 100.0):
                c = decay_amplitude(ReservoirParams(1.0, lam, n), t)
                assert np.max(np.abs(c)) <= 1.0 + 1e-9

    def test_markovian_real_branch_monotone(self):
        # monotone at and above the critical coupling lambda = 2N (D = 0 there)
        t = np.linspace(0.0, 30.0, 3001)
        for n in (1, 2, 5, 10):
            for lam in (40.0, 2.0 * n):
                c = decay_amplitude(ReservoirParams(1.0, lam, n), t)
                assert np.all(np.diff(c) <= 1e-9), (lam, n)

    def test_oscillates_below_critical_coupling(self):
        # lambda = 2 < 2N: C(t) rises again after each oscillation minimum;
        # the threshold moves with N, so gamma0 / lambda = 1/2 alone decides nothing
        t = np.linspace(0.0, 30.0, 3001)
        for n in (2, 5, 10):
            c = decay_amplitude(ReservoirParams(1.0, 2.0, n), t)
            assert np.max(np.diff(c)) > 1e-6, n

    def test_saturates_at_protected_level(self):
        for n in (2, 5, 10):
            c = decay_amplitude(ReservoirParams(1.0, 40.0, n), 20.0)
            assert abs(c - (n - 1) / n) <= 1e-3

    def test_branch_continuity_at_critical_coupling(self):
        # gamma0 chosen so lambda^2 - 2 N gamma0 lambda lands at +2e-16, 0 and
        # -2e-16: D is real, zero and imaginary, and C must not jump between them
        lam, n = 1.0, 1
        eps2 = (1e-8 * lam) ** 2
        values = []
        for disc in (2 * eps2, 0.0, -2 * eps2):
            gamma0 = (lam * lam - disc) / (2 * n * lam)
            params = ReservoirParams(gamma0, lam, n)
            values.append([decay_amplitude(params, t) for t in (0.5, 2.0, 10.0)])
        spread = np.max(np.abs(np.array(values) - values[1]))
        assert spread <= 1e-14

    def test_matches_mpmath_reference(self):
        # presets, the critical coupling and lambda = 2N (1 +- 10^-k), k = 3..15
        reference = _mpmath_reference()
        assert len(reference) == 8 + 4 + 13 * 2 * 4
        for (lam, n), rows in reference.items():
            t, expected = np.array(rows).T
            dev = np.max(np.abs(decay_amplitude(ReservoirParams(1.0, lam, n), t) - expected))
            assert dev <= 1e-15, (lam, n, dev)

    def test_finite_over_extreme_parameters(self):
        t = np.linspace(0.0, 1e4, 20001)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for lam in (1e-6, 0.1, 2.0, 40.0, 1e3, 1e4):
                for n in (1, 7, 1000, 10**6):
                    params = ReservoirParams(1.0, lam, n)
                    c = decay_amplitude(params, t)
                    assert np.all(np.isfinite(c)), (lam, n)
                    assert np.max(np.abs(c)) <= 1.0 + 1e-9, (lam, n)
                    assert decay_amplitude(params, 1e300) == (n - 1) / n, (lam, n)

    def test_scalar_and_array_inputs(self):
        params = ReservoirParams(1.0, 0.1, 2)
        scalar = decay_amplitude(params, 1.5)
        assert isinstance(scalar, float)
        arr = decay_amplitude(params, np.array([0.0, 1.5]))
        assert arr.shape == (2,)
        assert arr[0] == 1.0 and arr[1] == scalar

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t >= 0"):
            decay_amplitude(ReservoirParams(1.0, 1.0, 1), -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.array([0.0, float("nan"), 1.0])])
    @pytest.mark.parametrize("lam", [0.1, 40.0])
    def test_non_finite_time_rejected(self, lam, bad):
        # NaN used to come back as NaN, and inf as (N-1)/N or NaN by regime
        with pytest.raises(ValueError, match="finite t >= 0"):
            decay_amplitude(ReservoirParams(1.0, lam, 2), bad)


class TestKernelOdeOracle:
    def test_matches_closed_form(self):
        t = np.linspace(0.0, 5.0, 101)  # coarse grid exercises substepping
        for n in (1, 3):
            for lam in (0.1, 2.0, 40.0):
                params = ReservoirParams(1.0, lam, n)
                traj = kernel_ode_oracle(params, t)
                closed = decay_amplitude(params, t)
                assert np.max(np.abs(traj.amplitudes - closed)) <= 1e-6

    def test_initial_value_exact(self):
        traj = kernel_ode_oracle(ReservoirParams(1.0, 2.0, 3), np.array([0.0, 1.0]))
        assert traj.amplitudes[0] == 1.0

    def test_times_are_dimensionless(self):
        params = ReservoirParams(4.0, 8.0, 1)
        traj = kernel_ode_oracle(params, np.array([0.0, 0.5]))
        assert np.array_equal(traj.times, [0.0, 2.0])

    def test_markovian_spot_value(self):
        traj = kernel_ode_oracle(ReservoirParams(1.0, 40.0, 1), np.array([0.0, 0.1]))
        assert abs(traj.amplitudes[1] - C_AT_01) < 1e-6

    def test_critical_coupling_through_taylor_branch(self):
        # lambda = 2 N gamma0 makes the discriminant vanish identically
        for n in (1, 3):
            params = ReservoirParams(1.0, 2.0 * n, n)
            t = np.linspace(0.0, 10.0, 201)
            traj = kernel_ode_oracle(params, t)
            assert np.max(np.abs(traj.amplitudes - decay_amplitude(params, t))) <= 1e-6

    def test_rejects_bad_grid(self):
        params = ReservoirParams(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="ascending"):
            kernel_ode_oracle(params, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="t >= 0"):
            kernel_ode_oracle(params, np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-3])
    def test_rejects_bad_max_step(self, bad):
        params = ReservoirParams(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="max_step must be positive and finite"):
            kernel_ode_oracle(params, np.array([0.0, 0.1]), max_step=bad)


def _mpmath_reference() -> dict[tuple[float, int], list[tuple[float, float]]]:
    rows = defaultdict(list)
    with AMPLITUDE_REFERENCE.open(encoding="ascii") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            key = (float(row["lambda"]), int(row["n_qubits"]))
            rows[key].append((float(row["t"]), float(row["amplitude"])))
    return rows


class TestKernelOdeTaylorPropagation:
    def test_matches_mpmath_reference(self):
        # presets, the critical coupling and lambda = 2N (1 +- 10^-k), k = 3..15,
        # on the oracle command's 2001-point grid
        reference = _mpmath_reference()
        assert len(reference) == 8 + 4 + 13 * 2 * 4
        grid = np.linspace(0.0, 20.0, 2001)
        index = {t: i for i, t in enumerate(grid.tolist())}
        worst = 0.0
        for (lam, n), rows in reference.items():
            assert len(rows) == 41
            amps = kernel_ode_oracle(ReservoirParams(1.0, lam, n), grid).amplitudes
            got = amps[[index[t] for t, _ in rows]]
            worst = max(worst, float(np.max(np.abs(got - [c for _, c in rows]))))
        assert worst <= 1e-15

    def test_large_max_step_does_not_change_trajectory(self):
        params = ReservoirParams(1.0, 2.0, 3)
        t = np.linspace(0.0, 2.0, 5)
        default = kernel_ode_oracle(params, t)
        capped = kernel_ode_oracle(params, t, max_step=1e3)
        assert np.array_equal(default.amplitudes, capped.amplitudes)
        finer = kernel_ode_oracle(params, t, max_step=1e-3)
        assert np.max(np.abs(finer.amplitudes - default.amplitudes)) <= 1e-13

    @pytest.mark.parametrize(("lam", "n"), [(40.0, 1), (0.1, 10), (2.0, 1), (2.0, 5)])
    def test_non_uniform_grid(self, lam, n):
        # spans are multiples of 2^-13 ~ 1.2e-4 up to 3, so the grid holds them
        # exactly: every length appears, some repeat, and the longest ones are
        # cut into steps; the grid starts above t = 0
        rng = np.random.default_rng(1504)
        units = np.unique(np.rint(np.geomspace(1.0, 3.0 * 2**13, 12)))
        spans = rng.permutation(np.concatenate([units, rng.choice(units, 36)])) * 2.0**-13
        t = 0.75 + np.cumsum(spans)
        assert np.array_equal(np.diff(t), spans[1:]) and spans.max() == 3.0
        params = ReservoirParams(1.0, lam, n)
        traj = kernel_ode_oracle(params, t)
        assert np.max(np.abs(traj.amplitudes - decay_amplitude(params, t))) <= 1e-13
        finer = kernel_ode_oracle(params, t, max_step=1e-3)
        assert np.max(np.abs(finer.amplitudes - traj.amplitudes)) <= 1e-13

    @pytest.mark.parametrize(("lam", "n"), [(40.0, 1), (40.0, 10), (0.1, 10), (2.0, 5)])
    def test_coarse_grid_is_substepped(self, lam, n):
        # every interval is longer than 2 / ||A||, so each is cut into steps
        params = ReservoirParams(1.0, lam, n)
        t = np.array([0.0, 3.0, 7.5, 20.0])
        traj = kernel_ode_oracle(params, t)
        assert np.max(np.abs(traj.amplitudes - decay_amplitude(params, t))) <= 1e-13


class TestModeGrid:
    def test_coupling_sum_matches_integral(self):
        params = ReservoirParams(1.0, 40.0, 1)
        window = 20 * params.lambda_
        grid = build_mode_grid(params, 2000, window)
        total = float(grid.couplings @ grid.couplings)
        analytic = params.gamma0 * params.lambda_ / np.pi * np.arctan(window / params.lambda_)
        assert abs(total - analytic) / analytic < 0.01

    def test_spectral_density_peak(self):
        params = ReservoirParams(2.0, 5.0, 1)
        assert abs(spectral_density(params, 0.0) - 2.0 / (2 * np.pi)) < 1e-12
        # half maximum at one spectral width from the transition
        assert abs(spectral_density(params, 5.0) - 1.0 / (2 * np.pi)) < 1e-12

    def test_validation(self):
        params = ReservoirParams(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="n_modes"):
            build_mode_grid(params, 0, 10.0)
        with pytest.raises(ValueError, match="window"):
            build_mode_grid(params, 10, -1.0)

    def test_mode_count_bounded_before_allocation(self):
        params = ReservoirParams(1.0, 1.0, 1)
        # far beyond memory: the check must run before any array is built
        for bad in (10**12, 1_000_001, True, 2.0):
            with pytest.raises(ValueError, match="n_modes"):
                build_mode_grid(params, bad, 10.0)
        assert build_mode_grid(params, np.int64(3), 10.0).n_modes == 3


class TestDiscreteModeOracle:
    def test_matches_closed_form_moderate_setup(self):
        params = ReservoirParams(1.0, 1.0, 2)
        grid = build_mode_grid(params, 400, 15.0)
        t = np.linspace(0.0, 3.0, 61)
        traj = discrete_mode_oracle(params, t, grid)
        closed = decay_amplitude(params, t)
        assert traj.amplitudes[0] == 1.0
        assert np.max(np.abs(traj.amplitudes - closed)) <= 5e-3
        assert traj.max_norm_error is not None and traj.max_norm_error <= 1e-8
        assert not traj.window_warning

    def test_qubit_count_bounded_for_run_time(self):
        # the vector has 1 + n_modes entries for any N, but the half-width a
        # includes sqrt(N) ||g||, so the step count grows as sqrt(N): 10^12
        # qubits must be refused before the first step
        params = ReservoirParams(1.0, 1.0, 10**12)
        grid = build_mode_grid(params, 20, 10.0)
        with pytest.raises(ValueError, match="n_qubits"):
            discrete_mode_oracle(params, np.array([0.0, 0.1]), grid)

    def test_narrow_window_sets_warning(self):
        params = ReservoirParams(1.0, 1.0, 1)
        grid = build_mode_grid(params, 50, 5.0)
        traj = discrete_mode_oracle(params, np.array([0.0, 0.1]), grid)
        assert traj.window_warning

    def test_recurrence_time_sets_warning(self):
        # mode spacing 2 * 20 / 100 = 0.4: the excitation returns at 2 pi / 0.4 = 5 pi
        params = ReservoirParams(1.0, 1.0, 1)
        grid = build_mode_grid(params, 100, 20.0)
        assert discrete_mode_oracle(params, np.array([0.0, 5.0 * np.pi]), grid).recurrence_warning
        before = discrete_mode_oracle(params, np.array([0.0, 15.0]), grid)
        assert not before.recurrence_warning and not before.window_warning


def _exact_amplitudes(params, t, mode_grid):
    """C_1(t) by dense eigendecomposition of the discretized Hamiltonian."""
    n, g, f = params.n_qubits, mode_grid.couplings, mode_grid.frequencies
    size = n + mode_grid.n_modes
    h = np.zeros((size, size))
    h[:n, n:] = g
    h[n:, :n] = g[:, None]
    h[n:, n:] = np.diag(f)
    energies, vectors = np.linalg.eigh(h)
    # y(t) = V exp(-iEt) V^T e_0, first component
    weights = vectors[0] * vectors[0]
    return (np.exp(-1j * np.outer(t, energies)) @ weights).real


class TestDiscreteModeExactPropagation:
    @pytest.mark.parametrize(
        ("lam", "n", "modes"),
        [(1.0, 2, 400), (40.0, 1, 400), (0.1, 5, 300), (2.0, 3, 200), (40.0, 4, 300)],
    )
    def test_matches_dense_eigh(self, lam, n, modes):
        params = ReservoirParams(1.0, lam, n)
        grid = build_mode_grid(params, modes, 20.0 * lam)
        t = np.linspace(0.0, 3.0, 31)
        traj = discrete_mode_oracle(params, t, grid)
        assert np.max(np.abs(traj.amplitudes - _exact_amplitudes(params, t, grid))) <= 1e-12
        assert traj.max_norm_error <= 1e-12

    def test_grid_independence(self):
        # the moments serve every grid time at once: a subgrid with the same
        # end, and a grid run on to 2 t_max (more moments, more nodes), give
        # the same amplitudes at the shared times
        params = ReservoirParams(1.0, 2.0, 3)
        grid = build_mode_grid(params, 200, 40.0)
        t = np.linspace(0.0, 3.0, 31)
        base = discrete_mode_oracle(params, t, grid).amplitudes
        sub = discrete_mode_oracle(params, t[::2], grid).amplitudes
        longer = discrete_mode_oracle(params, np.concatenate([t, t[1:] + t[-1]]), grid).amplitudes
        assert np.max(np.abs(sub - base[::2])) <= 1e-13
        assert np.max(np.abs(longer[: t.size] - base)) <= 1e-13

    def test_phase_cap_checked_before_allocation(self):
        # a t_max above 10^6 would need a Bessel FFT of over 3 * 10^6 points
        params = ReservoirParams(1.0, 1.0, 1)
        grid = build_mode_grid(params, 20, 10.0)
        f = grid.frequencies
        a = (f.max() - f.min()) / 2 + np.linalg.norm(grid.couplings)
        for t_end in (1.001e6 / a, 1e300, float("inf")):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="a t_max must be at most 1e"):
                    discrete_mode_oracle(params, np.array([0.0, t_end]), grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000, t_end


EPS = np.finfo(float).eps


class TestChebyshevPropagator:
    def test_bessel_series_at_zero_is_identity(self):
        assert np.array_equal(_bessel_series(0.0), [1.0])

    def test_bessel_series_identities(self):
        # each J_k(x) carries an absolute error of about x * eps from the
        # rounded phase x sin(tau), so the bounds grow with x; 1917.5-1920 is
        # where an FFT of the power of two >= 2x + 256 points would leave no cut
        xs = np.concatenate([[1e-6, 1e-3, 0.5, 64.0, 1917.5, 1920.0], np.linspace(1.0, 2000.0, 200)])
        for x in xs:
            j = _bessel_series(x)
            k = np.arange(j.size)
            assert j.size > x
            # Jacobi-Anger at tau = 0, and Parseval
            assert abs(j[0] + 2.0 * j[2::2].sum() - 1.0) <= 4.0 * EPS * (1.0 + x), x
            assert abs(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2) - 1.0) <= 8.0 * EPS, x
            # three-term recurrence, multiplied through by x below x = 1
            lhs = j[:-2] + j[2:]
            rhs = 2.0 * k[1:-1] * j[1:-1]
            if x >= 1.0:
                assert np.max(np.abs(lhs - rhs / x)) <= 2.0 * EPS * (1.0 + x), x
            else:
                assert np.max(np.abs(x * lhs - rhs)) <= 2.0 * EPS, x

    def test_bessel_series_without_cut_raises(self):
        with pytest.raises(RuntimeError, match="no cut"):
            _bessel_series(float("nan"))
        with pytest.raises(RuntimeError, match="no cut"):
            _bessel_series(float("inf"))  # used to double the FFT size forever

    # a non-uniform grid, with intervals from 0.01 to 3.8 and a t_max ~ 290
    # moments behind it; start = 1 drops t = 0, whose amplitude is set exactly
    T_NONUNIFORM = np.array([0.0, 0.013, 0.05, 0.21, 0.4, 0.47, 0.9, 1.3, 1.31, 1.7, 2.2, 6.0, 6.1, 6.35, 7.0])

    @pytest.mark.parametrize(("n", "start"), [(1, 0), (3, 0), (3, 1)])
    def test_long_steps_match_dense_eigh(self, n, start):
        params = ReservoirParams(1.0, 2.0, n)
        grid = build_mode_grid(params, 200, 40.0)
        t = self.T_NONUNIFORM[start:]
        f = grid.frequencies
        a = (f.max() - f.min()) / 2 + np.sqrt(n) * np.linalg.norm(grid.couplings)
        assert a * t[-1] > 250 and np.max(np.diff(t)) > 300 * np.min(np.diff(t))
        traj = discrete_mode_oracle(params, t, grid)
        assert np.max(np.abs(traj.amplitudes - _exact_amplitudes(params, t, grid))) <= 1e-12
        assert traj.max_norm_error <= 1e-12
