from __future__ import annotations

import csv
import dataclasses
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from eulb.reservoir import (
    ModeGrid,
    ReservoirParams,
    _bessel_series,
    _chebyshev_moments,
    build_mode_grid,
    decay_amplitude,
    discrete_mode_oracle,
    kernel_ode_oracle,
)
from eulb.sweep import KERNEL_ORACLE_TOL, figure_preset

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
        # an int beyond the float range used to raise OverflowError from math.isfinite
        for bad in (0.0, 10**400):
            with pytest.raises(ValueError, match="^gamma0 must be positive and finite"):
                ReservoirParams(bad, 1.0, 1)
        for bad in (-2.0, 10**400):
            with pytest.raises(ValueError, match="^lambda_ must be positive and finite"):
                ReservoirParams(1.0, bad, 1)
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

    @pytest.mark.parametrize(
        ("args", "shown"),
        [
            ((np.array(1.0), 1.0, 1), "gamma0 must be positive and finite, got array(1.)"),
            ((1.0, np.array(1.0), 1), "lambda_ must be positive and finite, got array(1.)"),
            ((1.0, 1.0, "3"), "n_qubits must be an integer in [1, 2**53], got '3'"),
        ],
        ids=["gamma0", "lambda_", "n_qubits"],
    )
    def test_refusal_shows_the_value_as_given(self, args, shown):
        # a 0-d array used to print as 1.0, the very value the check accepts
        with pytest.raises(ValueError) as exc:
            ReservoirParams(*args)
        assert str(exc.value) == shown

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

    @pytest.mark.parametrize("bad", ["3", b"3", True, [0.0, None]])
    def test_non_real_time_rejected(self, bad):
        # np.asarray(t, dtype=float) parsed "3" into C(3) and read True as t = 1
        with pytest.raises(ValueError, match="t must be a real number"):
            decay_amplitude(ReservoirParams(1.0, 1.0, 1), bad)


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

    @pytest.mark.parametrize("t_max", [1.0, 20.0, 1e5])
    @pytest.mark.parametrize("n", [1, 10, 2**53])
    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0, 20.0, 1e3, 1e6])
    def test_within_report_tolerance(self, lam, n, t_max):
        # the gate eulb oracle applies, over couplings far from the presets;
        # the worst measured deviation is 1.65e-14 (lam = 1e-6, N = 1, t_max = 1e5)
        params = ReservoirParams(1.0, lam, n)
        t = np.linspace(0.0, t_max, 2001)
        dev = np.max(np.abs(kernel_ode_oracle(params, t).amplitudes - decay_amplitude(params, t)))
        assert dev <= KERNEL_ORACLE_TOL, dev

    def test_rejects_bad_grid(self):
        params = ReservoirParams(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="ascending"):
            kernel_ode_oracle(params, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="t >= 0"):
            kernel_ode_oracle(params, np.array([-1.0, 1.0]))


def _discrete_oracle(params, t):
    return discrete_mode_oracle(params, t, build_mode_grid(params, 20))


@pytest.mark.parametrize("oracle", [kernel_ode_oracle, _discrete_oracle], ids=["kernel", "discrete"])
@pytest.mark.parametrize(
    "t", [[0.0, np.nan], [0.0, 1.0, np.inf], [np.nan]], ids=["nan", "inf", "nan-only"]
)
def test_non_finite_grid_rejected(oracle, t):
    # refused by the grid check, before a step count or a t_max is formed
    # from them
    with pytest.raises(ValueError, match="time grid must be finite"):
        oracle(ReservoirParams(1.0, 1.0, 2), np.array(t))


def _refined(t, h=1e-3):
    """A grid from 0 through every point of t, with spans <= h."""
    ends = np.concatenate([[0.0], t]) if t[0] > 0 else t
    pieces = [
        np.linspace(a, b, math.ceil((b - a) / h) + 1)[:-1] for a, b in zip(ends[:-1], ends[1:])
    ]
    return np.concatenate(pieces + [ends[-1:]])


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

    def test_refined_grid_does_not_change_trajectory(self):
        params = ReservoirParams(1.0, 2.0, 3)
        t = np.linspace(0.0, 2.0, 5)
        default = kernel_ode_oracle(params, t)
        dense = _refined(t)
        finer = kernel_ode_oracle(params, dense).amplitudes[np.isin(dense, t)]
        assert np.max(np.abs(finer - default.amplitudes)) <= 1e-13

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
        dense = _refined(t)
        finer = kernel_ode_oracle(params, dense).amplitudes[np.isin(dense, t)]
        assert np.max(np.abs(finer - traj.amplitudes)) <= 1e-13

    @pytest.mark.parametrize(("lam", "n"), [(40.0, 1), (40.0, 10), (0.1, 10), (2.0, 5)])
    def test_coarse_grid_is_substepped(self, lam, n):
        # every interval is longer than 2 / ||A||, so each is cut into steps
        params = ReservoirParams(1.0, lam, n)
        t = np.array([0.0, 3.0, 7.5, 20.0])
        traj = kernel_ode_oracle(params, t)
        assert np.max(np.abs(traj.amplitudes - decay_amplitude(params, t))) <= 1e-13

    @pytest.mark.parametrize("t", [[0.0, 5e299, 1e300]])
    def test_step_count_beyond_float_range_rejected(self, t):
        # h_max = 2 / 2^53: the longest span needs more than 1e308 steps,
        # which used to end in OverflowError from math.ceil
        params = ReservoirParams(1.0, 1e-300, 2**53)
        with pytest.raises(ValueError, match=r"grid span 5e\+299 needs over 1e308 steps"):
            kernel_ode_oracle(params, np.array(t))

    def test_overflowed_amplitude_raises(self):
        # gamma0 >> 1 puts ||A|| t far beyond 1/eps: repeated squaring of a
        # rotation whose rounded eigenvalues sit just off the unit circle
        # overflowed, and NaN came back where the closed form is finite
        params = ReservoirParams(1e100, 1e-10, 3)
        t = [0, 1e-3, 0.5, 20]
        assert np.all(np.isfinite(decay_amplitude(params, np.array(t, dtype=float))))
        named = r"non-finite amplitude at ReservoirParams\(gamma0=1e\+100, lambda_=1e-10, n_qubits=3\)"
        with pytest.raises(ValueError, match=named):
            kernel_ode_oracle(params, t)


class TestModeGrid:
    def test_coupling_sum_matches_integral(self):
        # every mode carries its cell's exact weight of J, so the sum is the
        # integral of J over the 20-lambda window up to rounding
        params = ReservoirParams(1.0, 40.0, 1)
        grid = build_mode_grid(params, 2000)
        total = float(grid.couplings @ grid.couplings)
        analytic = params.gamma0 * params.lambda_ / np.pi * np.arctan(20.0)
        assert abs(total - analytic) / analytic <= 1e-12

    def test_equal_weight_nodes(self):
        # nodes at lambda tan(theta), theta the cell midpoints of
        # [-atan(20), atan(20)], all with one coupling
        params = ReservoirParams(2.0, 5.0, 1)
        grid = build_mode_grid(params, 4)
        edge = np.arctan(20.0)
        theta = edge * np.array([-0.75, -0.25, 0.25, 0.75])
        assert np.allclose(grid.frequencies, 5.0 * np.tan(theta), rtol=1e-14, atol=0)
        assert np.allclose(grid.couplings, np.sqrt(2.0 * 5.0 * (edge / 2) / (2 * np.pi)), rtol=1e-14)

    def test_holds_only_the_modes(self):
        # the grid is its frequencies and couplings; the count is read from them
        grid = build_mode_grid(ReservoirParams(1.0, 1.0, 1), np.int64(5))
        assert [f.name for f in dataclasses.fields(grid)] == ["frequencies", "couplings"]
        assert grid.n_modes == 5 and type(grid.n_modes) is int
        with pytest.raises(AttributeError):
            grid.n_modes = 6

    def test_validation(self):
        params = ReservoirParams(1.0, 1.0, 1)
        with pytest.raises(ValueError, match="n_modes"):
            build_mode_grid(params, 0)
        # coinciding nodes or a zero coupling used to end in ZeroDivisionError
        tiny = ReservoirParams(1.0, 5e-324, 1)
        for modes in (1, 10):
            with pytest.raises(ValueError, match="mode grid underflows"):
                build_mode_grid(tiny, modes)

    def test_mode_count_bounded_before_allocation(self):
        params = ReservoirParams(1.0, 1.0, 1)
        # far beyond memory: the check must run before any array is built
        for bad in (10**12, 1_000_001, True, 2.0):
            with pytest.raises(ValueError, match="n_modes"):
                build_mode_grid(params, bad)
        assert build_mode_grid(params, np.int64(3)).n_modes == 3

    def test_hand_built_grid_is_checked(self):
        # two frequencies with one coupling used to broadcast and run, and a
        # NaN frequency to fail in the oracle as an a t_max beyond its cap
        with pytest.raises(ValueError, match=r"^need 1-D frequencies and couplings of one length > 0"):
            ModeGrid(np.array([-1.0, 1.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="^mode frequencies and couplings must be finite"):
            ModeGrid(np.array([-1.0, np.nan]), np.array([0.5, 0.5]))
        grid = build_mode_grid(ReservoirParams(1.0, 1.0, 1), 8)
        kept = ModeGrid(grid.frequencies, grid.couplings)  # float64 passes through
        assert kept.frequencies is grid.frequencies and kept.couplings is grid.couplings

    @pytest.mark.parametrize(
        ("frequencies", "couplings"),
        [([0.0], [0.0]), ([0.0, 0.0], [0.0, 0.0]), ([0.0], [1e-320]), ([0.0, 1e-320], [0.0, 0.0])],
        ids=["one-uncoupled", "coincident-uncoupled", "norm-underflows", "subnormal-width"],
    )
    def test_hand_built_grid_without_width_refused(self, frequencies, couplings):
        # a zero half-width used to raise ZeroDivisionError in the moments,
        # and a subnormal one an invalid-value RuntimeWarning
        with pytest.raises(ValueError, match="^mode grid underflows: spectral half-width"):
            discrete_mode_oracle(ReservoirParams(1.0, 1.0, 2), [0, 1], ModeGrid(frequencies, couplings))

    def test_uncoupled_modes_away_from_zero_leave_the_qubit_excited(self):
        # the diagonal 0, 1, 1 has width although the modes coincide; with the
        # head uncoupled s(t) = 1, so C = 1 at every time
        grid = ModeGrid([1.0, 1.0], [0.0, 0.0])
        traj = discrete_mode_oracle(ReservoirParams(1.0, 1.0, 2), np.linspace(0.0, 5.0, 11), grid)
        assert np.all(traj.amplitudes == 1.0)

    @pytest.mark.parametrize(
        ("frequencies", "couplings"),
        [([1e300], [1e-100]), ([1e300, 1e300], [1e-100, 1.0])],
        ids=["one-mode", "two-modes"],
    )
    def test_hand_built_grid_far_from_zero_refused(self, frequencies, couplings):
        # the scaled diagonal and head, (f - centre) 2 / a and -2 centre / a,
        # used to leave the float range with a RuntimeWarning; the range of
        # the diagonal now spans 0 to 1e300, which the phase cap refuses
        with pytest.raises(ValueError, match=r"^a t_max must be at most 1e\+06 .*got 5e\+299"):
            discrete_mode_oracle(ReservoirParams(1.0, 1.0, 2), [0, 1], ModeGrid(frequencies, couplings))


class TestDiscreteModeOracle:
    def test_matches_closed_form_moderate_setup(self):
        params = ReservoirParams(1.0, 1.0, 2)
        grid = build_mode_grid(params, 400)
        t = np.linspace(0.0, 3.0, 61)
        traj = discrete_mode_oracle(params, t, grid)
        closed = decay_amplitude(params, t)
        assert traj.amplitudes[0] == 1.0
        assert np.max(np.abs(traj.amplitudes - closed)) <= 5e-3
        assert traj.max_norm_error is not None and traj.max_norm_error <= 1e-8

    def test_qubit_count_bounded_for_run_time(self):
        # the vector has 1 + n_modes entries for any N, but the half-width a
        # includes sqrt(N) ||g||, so K grows as sqrt(N): the phase cap alone
        # refuses 10^12 qubits (a t_max = 1.39e6) before anything is allocated
        params = ReservoirParams(1.0, 1.0, 10**12)
        grid = build_mode_grid(params, 20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"a t_max must be at most 1e\+06 .*got 1\.39156e\+06"):
                discrete_mode_oracle(params, np.array([0.0, 2.0]), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


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
        [
            (1.0, 2, 400),
            (40.0, 1, 400),
            (0.1, 5, 300),
            (2.0, 3, 200),
            (40.0, 4, 300),
            (1.0, 1, 10),
            (40.0, 1, 10),
        ],
    )
    def test_matches_dense_eigh(self, lam, n, modes):
        # the last case recurs at 0.51, before t = 3: the propagation stays
        # exact past the recurrence time ((1.0, 1, 10) recurs only at 20.5)
        params = ReservoirParams(1.0, lam, n)
        grid = build_mode_grid(params, modes)
        t = np.linspace(0.0, 3.0, 31)
        traj = discrete_mode_oracle(params, t, grid)
        assert np.max(np.abs(traj.amplitudes - _exact_amplitudes(params, t, grid))) <= 1e-12
        assert traj.max_norm_error <= 1e-12

    @pytest.mark.parametrize(
        ("frequencies", "couplings"),
        [([10.0], [0.1]), ([3.0], [0.5]), ([2.0, 4.0], [0.3, 0.3]), ([-7.0, -3.0], [0.4, 0.2])],
    )
    @pytest.mark.parametrize("n", [1, 3])
    def test_hand_built_grid_off_zero_matches_dense_eigh(self, frequencies, couplings, n):
        # modes that do not straddle the head's 0 used to put an eigenvalue of
        # the scaled H outside [-1, 1], where the Chebyshev series diverges:
        # errors up to 1.6e12 at N = 1, with max_norm_error 0
        params = ReservoirParams(1.0, 1.0, n)
        grid = ModeGrid(frequencies, couplings)
        t = np.linspace(0.0, 5.0, 11)
        traj = discrete_mode_oracle(params, t, grid)
        assert np.max(np.abs(traj.amplitudes - _exact_amplitudes(params, t, grid))) <= 1e-12
        assert traj.max_norm_error <= 1e-12

    def test_grid_independence(self):
        # the moments serve every grid time at once: a subgrid with the same
        # end, and a grid run on to 2 t_max (more moments, more nodes), give
        # the same amplitudes at the shared times
        params = ReservoirParams(1.0, 2.0, 3)
        grid = build_mode_grid(params, 200)
        t = np.linspace(0.0, 3.0, 31)
        base = discrete_mode_oracle(params, t, grid).amplitudes
        sub = discrete_mode_oracle(params, t[::2], grid).amplitudes
        longer = discrete_mode_oracle(params, np.concatenate([t, t[1:] + t[-1]]), grid).amplitudes
        assert np.max(np.abs(sub - base[::2])) <= 1e-13
        assert np.max(np.abs(longer[: t.size] - base)) <= 1e-13

    def test_phase_cap_checked_before_allocation(self):
        # a t_max above 10^6 would need a Bessel FFT of over 3 * 10^6 points
        params = ReservoirParams(1.0, 1.0, 1)
        grid = build_mode_grid(params, 20)
        f = grid.frequencies
        a = (f.max() - f.min()) / 2 + np.linalg.norm(grid.couplings)
        capped = "a t_max must be at most 1e"
        for t_end, message in ((1.001e6 / a, capped), (1e300, capped), (np.inf, "must be finite")):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=message):
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

    # a non-uniform grid, with intervals from 0.01 to 3.8 and a t_max ~ 270
    # moments behind it; start = 1 drops t = 0, whose amplitude is set exactly
    T_NONUNIFORM = np.array(
        [0.0, 0.013, 0.05, 0.21, 0.4, 0.47, 0.9, 1.3, 1.31, 1.7, 2.2, 6.0, 6.1, 6.35, 7.0, 7.5]
    )

    @pytest.mark.parametrize(("n", "start"), [(1, 0), (3, 0), (3, 1)])
    def test_long_steps_match_dense_eigh(self, n, start):
        params = ReservoirParams(1.0, 2.0, n)
        grid = build_mode_grid(params, 200)
        t = self.T_NONUNIFORM[start:]
        f = grid.frequencies
        a = (f.max() - f.min()) / 2 + np.sqrt(n) * np.linalg.norm(grid.couplings)
        assert a * t[-1] > 250 and np.max(np.diff(t)) > 300 * np.min(np.diff(t))
        traj = discrete_mode_oracle(params, t, grid)
        assert np.max(np.abs(traj.amplitudes - _exact_amplitudes(params, t, grid))) <= 1e-12
        assert traj.max_norm_error <= 1e-12


def _dense_moments(f, coupling, centre, half_width, n_moments):
    """sum_j |v_j0|^2 T_k(E~_j), k < n_moments, from eigh of the symmetric-sector arrow matrix."""
    h = np.diag(np.concatenate([[0.0], f]))
    h[0, 1:] = h[1:, 0] = coupling
    energies, vectors = np.linalg.eigh(h)
    scaled = (energies - centre) / half_width
    return (vectors[0] * vectors[0]) @ np.polynomial.chebyshev.chebvander(scaled, n_moments - 1)


class TestDoubledMomentRecurrence:
    # each Chebyshev vector phi_k gives mu_2k and mu_2k+1, so the recurrence
    # stops at phi_ceil(K/2); the edge cases are K <= 4, where it forms no
    # or one vector past phi_1, and K of either parity
    PARAMS = ReservoirParams(1.0, 2.0, 3)
    MODES = build_mode_grid(PARAMS, 200)

    def _parts(self):
        f = self.MODES.frequencies
        coupling = np.sqrt(self.PARAMS.n_qubits) * self.MODES.couplings
        centre = 0.5 * (f.max() + f.min())
        half_width = 0.5 * (f.max() - f.min()) + np.linalg.norm(coupling)
        return f, coupling, centre, half_width

    @pytest.mark.parametrize(
        ("phase", "n_moments"),
        [(0.0, 1), (1e-10, 2), (1e-6, 3), (1e-4, 4), (100.0, 155), (120.0, 174)],
    )
    def test_matches_dense_eigh(self, phase, n_moments):
        # phase = a t_max sets K, the Bessel cut; phase 0 is the grid [0.0]
        f, coupling, centre, half_width = self._parts()
        assert _bessel_series(phase).size == n_moments
        t = np.linspace(0.0, phase / half_width, 5) if phase else np.array([0.0])
        traj = discrete_mode_oracle(self.PARAMS, t, self.MODES)
        exact = _exact_amplitudes(self.PARAMS, t, self.MODES)
        assert np.max(np.abs(traj.amplitudes - exact)) <= 1e-12
        assert traj.max_norm_error <= 1e-12
        moments, head_error = _chebyshev_moments(f, coupling, centre, half_width, n_moments)
        assert moments.shape == (n_moments,) and moments[0] == 1.0
        assert head_error == traj.max_norm_error
        dense = _dense_moments(f, coupling, centre, half_width, n_moments)
        assert np.max(np.abs(moments - dense)) <= 1e-13


def _cosine_quadrature(params, t, mode_grid):
    """C(t) from the oracle's quadrature read with one cosine per node and time."""
    n, f = params.n_qubits, mode_grid.frequencies
    coupling = math.sqrt(n) * mode_grid.couplings
    centre = 0.5 * (float(f.min()) + float(f.max()))
    half_width = 0.5 * (float(f.max()) - float(f.min())) + float(np.linalg.norm(coupling))
    k = _bessel_series(half_width * float(t[-1])).size
    moments = _chebyshev_moments(f, coupling, centre, half_width, k)[0]
    moments[1:] *= 2.0
    weights = np.fft.rfft(moments, 2 * k).real / k
    weights[[0, -1]] *= 0.5
    energies = centre + half_width * np.cos((math.pi / k) * np.arange(k + 1))
    sums = np.array([weights @ np.cos(time * energies) for time in t])
    return ((n - 1.0) + sums) / n


def _irregular_grid(t_max, size, seed=5):
    """A grid from 0 to t_max whose spans are all distinct."""
    t = np.concatenate([[0.0], np.sort(np.random.default_rng(seed).uniform(0.0, t_max, size - 2)), [t_max]])
    assert np.unique(np.diff(t)).size == size - 1
    return t


class TestPhasorQuadrature:
    # the quadrature steps a phasor exp(i t E_p) by a held rotation and reads
    # the cosines afresh every 64 times and wherever no rotation serves; each
    # case must stay within 1e-12 of one cosine per node and time
    BENCH = ReservoirParams(1.0, 40.0, 1)
    BENCH_MODES = build_mode_grid(BENCH, 2000)

    @pytest.mark.parametrize("fig", [2, 3])
    def test_preset_grids_match_cosine_read(self, fig):
        config = figure_preset(fig)
        modes = build_mode_grid(ReservoirParams(1.0, config.lambda_over_gamma0, 1), 2000)
        t = np.linspace(0.0, config.t_max_gamma0, config.steps)
        for n in config.n_qubits_list:
            params = ReservoirParams(1.0, config.lambda_over_gamma0, n)
            amplitudes = discrete_mode_oracle(params, t, modes).amplitudes
            assert np.max(np.abs(amplitudes - _cosine_quadrature(params, t, modes))) <= 1e-12, n

    @pytest.mark.parametrize(
        "t",
        [np.linspace(0.0, 2.0, 201), _irregular_grid(2.0, 201)]
        + [np.linspace(0.0, 2.0, size) for size in (63, 64, 65, 129)],
        ids=["bench", "irregular", "63", "64", "65", "129"],
    )
    def test_bench_config_matches_cosine_read(self, t):
        amplitudes = discrete_mode_oracle(self.BENCH, t, self.BENCH_MODES).amplitudes
        assert np.max(np.abs(amplitudes - _cosine_quadrature(self.BENCH, t, self.BENCH_MODES))) <= 1e-12

    def test_piecewise_uniform_grid_matches_cosine_read(self):
        # three spans in turn, and one doubled span where a time is left out:
        # each change needs a fresh read, and a new span a new rotation
        t = np.concatenate([np.linspace(0.0, 0.5, 101), np.linspace(0.5, 1.5, 51)[1:], 1.5 + 0.003 * np.arange(1, 90)])
        t = np.delete(t, 40)
        amplitudes = discrete_mode_oracle(self.BENCH, t, self.BENCH_MODES).amplitudes
        assert np.max(np.abs(amplitudes - _cosine_quadrature(self.BENCH, t, self.BENCH_MODES))) <= 1e-12

    def test_every_64th_time_is_read_afresh(self):
        # t[::64] has too few spans to build a rotation, so it is read with
        # the cosines at every time; the full grid must agree there bit for bit
        t = np.linspace(0.0, 2.0, 129)
        full = discrete_mode_oracle(self.BENCH, t, self.BENCH_MODES).amplitudes
        assert np.array_equal(full[::64], discrete_mode_oracle(self.BENCH, t[::64], self.BENCH_MODES).amplitudes)

    def test_peak_does_not_grow_with_distinct_spans(self):
        # same t_max, so the same K; a rotation per distinct span would add
        # 200 vectors of K + 1 complex entries to the irregular grid's peak
        peaks = []
        for t in (np.linspace(0.0, 2.0, 201), _irregular_grid(2.0, 201)):
            discrete_mode_oracle(self.BENCH, t, self.BENCH_MODES)  # numpy's FFT caches its plan
            tracemalloc.start()
            try:
                discrete_mode_oracle(self.BENCH, t, self.BENCH_MODES)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        k = _bessel_series(2.0 * (20.0 * 40.0 + 10.0)).size  # above the bench config's K
        assert peaks[1] <= peaks[0] + 16 * k
