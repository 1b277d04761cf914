from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import eulb.audit as audit_mod
import eulb.bounds as bounds_mod
import eulb.linalg as linalg_mod
from conftest import (
    partial_trace,
    post_measurement_state,
    projectors,
    random_density_matrix,
    random_observable_pair,
)
from eulb.audit import closed_form_report, discrepancy_report
from eulb.bounds import (
    BoundsRecord,
    Observable,
    _reduced_spectra,
    bounds_record,
    complementarity,
    pauli_x,
    pauli_z,
)
from eulb.channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from eulb.linalg import binary_entropy, von_neumann_entropy
from eulb.reservoir import ReservoirParams, decay_amplitude
from eulb.sweep import figure_preset

# Exact algebraic values for the Bell-diagonal p = 1/2 state at full amplitude,
# confirmed against a brute-force numpy-only route in the acceptance suite.
U_LEFT_BELL = 3.0 - 0.75 * math.log2(3.0)  # 1.81127812445913...
DELTA_BELL = 1.5 - 0.75 * math.log2(3.0)  # 0.31127812445913...
HOLEVO_Z_BELL = 0.75 * math.log2(3.0) - 1.0  # 0.18872187554086...


class TestObservables:
    def test_pauli_z_projectors(self):
        p0, p1 = projectors(pauli_z())
        assert np.array_equal(p0, np.diag([1.0, 0.0]))
        assert np.array_equal(p1, np.diag([0.0, 1.0]))

    def test_pauli_x_projectors(self):
        p0, p1 = projectors(pauli_x())
        assert np.max(np.abs(p0 - np.array([[0.5, 0.5], [0.5, 0.5]]))) < 1e-15
        assert np.max(np.abs(p1 - np.array([[0.5, -0.5], [-0.5, 0.5]]))) < 1e-15

    def test_projectors_complete(self):
        for obs in (pauli_x(), pauli_z()):
            p0, p1 = projectors(obs)
            assert np.max(np.abs(p0 + p1 - np.eye(2))) < 1e-12
            assert np.max(np.abs(p0 @ p1)) < 1e-12
            assert np.max(np.abs(p0 @ p0 - p0)) < 1e-12

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Observable("bad", np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_kets(self, bad):
        # NaN fails every comparison: a NaN Gram defect once passed the check,
        # and bounds_record then gave u_left = -0.5 and NaN bounds
        with pytest.raises(ValueError, match="orthonormal"):
            Observable("bad", np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="orthonormal"):
            Observable("bad", np.array([[1.0, 0.0], [0.0, 1j * bad]]))


class TestComplementarity:
    def test_mutually_unbiased(self):
        c = complementarity(pauli_x(), pauli_z())
        assert abs(c - 0.5) < 1e-15
        assert abs(math.log2(1.0 / c) - 1.0) < 1e-15

    def test_identical_observables(self):
        assert complementarity(pauli_z(), pauli_z()) == 1.0

    def test_rotated_basis(self):
        theta = math.pi / 8
        rotated = Observable(
            "rotated",
            np.array(
                [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
            ),
        )
        assert abs(complementarity(pauli_z(), rotated) - math.cos(theta) ** 2) < 1e-12


class TestPostMeasurement:
    def test_sigma_z_on_bell_diagonal(self):
        out = post_measurement_state(bell_diagonal_initial(0.5), pauli_z())
        assert np.max(np.abs(out - np.diag([1 / 8, 3 / 8, 3 / 8, 1 / 8]))) < 1e-15

    def test_idempotent_on_block_diagonal_state(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.05  # coherence within the A=0 block only
        out = post_measurement_state(rho, pauli_z())
        assert np.max(np.abs(out - rho)) < 1e-15

    def test_sigma_x_on_max_entangled_entropy(self):
        out = post_measurement_state(max_entangled_initial(), pauli_x())
        assert abs(von_neumann_entropy(out) - 1.0) < 1e-12

    def test_memory_marginal_unchanged(self, rng):
        for obs in (pauli_x(), pauli_z()):
            for _ in range(50):
                rho = random_density_matrix(rng, 4)
                out = post_measurement_state(rho, obs)
                dev = np.abs(partial_trace(out, "B") - partial_trace(rho, "B"))
                assert np.max(dev) <= 1e-12


class TestHolevo:
    # holevo_q is the information about pauli_x, holevo_r about pauli_z
    def test_perfect_classical_correlation(self):
        rec = bounds_record(max_entangled_initial(), pauli_x(), pauli_z())
        assert abs(rec.holevo_r - 1.0) < 1e-12

    def test_uninformative_measurement(self):
        rec = bounds_record(bell_diagonal_initial(0.5), pauli_x(), pauli_z())
        assert abs(rec.holevo_q) < 1e-12

    def test_bell_diagonal_sigma_z(self):
        value = bounds_record(bell_diagonal_initial(0.5), pauli_x(), pauli_z()).holevo_r
        assert abs(value - HOLEVO_Z_BELL) < 1e-12
        assert abs(value - 0.188722) < 1e-6

    def test_zero_probability_outcome_contributes_nothing(self):
        # A fixed in |1>: the sigma_z outcome 0 never occurs, and the memory
        # carries no information at all
        rho = np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2)
        assert abs(bounds_record(rho, pauli_x(), pauli_z()).holevo_r) < 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_probability_branch_is_exactly_zero(self, dtype):
        # a pure product state measured in its own basis: the sigma_z
        # outcome-0 branch is the zero block, so its spectrum and p are exact
        ket_b = np.array([0.6, 0.8])
        rho = np.kron(np.diag([0.0, 1.0]), np.outer(ket_b, ket_b)).astype(dtype)
        kets = np.concatenate([pauli_x().kets, pauli_z().kets]).astype(dtype)
        evals, p = _reduced_spectra(rho, kets)
        assert np.array_equal(evals[4], [0.0, 0.0]) and p[2] == 0.0

    def test_range_on_random_states(self, rng):
        states = np.array([random_density_matrix(rng, 4) for _ in range(200)])
        x, z = pauli_x(), pauli_z()
        batch = bounds_record(states, x, z)
        for i, rho in enumerate(states):
            single = bounds_record(rho, x, z)
            for name in ("holevo_q", "holevo_r"):
                value = getattr(single, name)
                assert -1e-9 <= value <= 1.0 + 1e-9
                assert abs(getattr(batch, name)[i] - value) <= 1e-12


class TestInformationMeasures:
    def test_product_state_has_no_mutual_information(self, rng):
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert abs(bounds_record(rho, pauli_x(), pauli_z()).mutual_info) < 1e-9

    def test_max_entangled_values(self):
        rec = bounds_record(max_entangled_initial(), pauli_x(), pauli_z())
        assert abs(rec.mutual_info - 2.0) < 1e-12
        assert abs(rec.cond_entropy + 1.0) < 1e-12

    def test_bell_diagonal_values(self):
        rec = bounds_record(bell_diagonal_initial(0.5), pauli_x(), pauli_z())
        assert abs(rec.mutual_info - 0.5) < 1e-12
        assert abs(rec.cond_entropy - 0.5) < 1e-12

    def test_maximally_mixed_conditional_entropy(self):
        rec = bounds_record(np.eye(4, dtype=complex) / 4, pauli_x(), pauli_z())
        assert abs(rec.cond_entropy - 1.0) < 1e-12

    def test_mutual_information_nonnegative(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng, 4)
            mi = bounds_record(rho, pauli_x(), pauli_z()).mutual_info
            assert -1e-9 <= mi <= 2.0 + 1e-9


class TestBounds:
    def test_max_entangled_start(self):
        rec = bounds_record(max_entangled_initial(), pauli_x(), pauli_z())
        assert abs(rec.u_left) < 1e-9
        assert abs(rec.berta) < 1e-9
        assert abs(rec.adabi) < 1e-9
        assert abs(rec.delta) < 1e-9

    def test_bell_diagonal_start(self):
        rec = bounds_record(bell_diagonal_initial(0.5), pauli_x(), pauli_z())
        assert abs(rec.u_left - U_LEFT_BELL) < 1e-12
        assert abs(rec.berta - 1.5) < 1e-12
        assert abs(rec.adabi - U_LEFT_BELL) < 1e-12
        assert abs(rec.delta - DELTA_BELL) < 1e-12

    def test_fully_decayed_max_entangled(self):
        rec = bounds_record(apply_memory_decay(max_entangled_initial(), 0.0), pauli_x(), pauli_z())
        assert abs(rec.u_left - 2.0) < 1e-9
        assert abs(rec.berta - 2.0) < 1e-9
        assert abs(rec.adabi - 2.0) < 1e-9

    def test_product_state_delta_vanishes(self, rng):
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        rec = bounds_record(rho, pauli_x(), pauli_z())
        assert abs(rec.delta) < 1e-9
        assert abs(rec.adabi - rec.berta) < 1e-9

    def test_inequality_chain_random_states(self, rng):
        x, z = pauli_x(), pauli_z()
        for _ in range(300):
            rec = bounds_record(random_density_matrix(rng, 4), x, z)
            assert rec.u_left >= rec.adabi - 1e-9
            assert rec.adabi >= rec.berta - 1e-9
            assert abs(rec.adabi - (rec.berta + max(0.0, rec.delta))) <= 1e-12

    def test_evolved_family_joint_entropy(self):
        for c in np.linspace(0, 1, 41):
            rho = apply_memory_decay(max_entangled_initial(), c)
            expected = binary_entropy((1.0 - c * c) / 2.0)
            assert abs(von_neumann_entropy(rho) - expected) <= 1e-9


class TestBoundsRecord:
    def test_stack_equals_single_calls(self, rng):
        for _ in range(10):
            q, r = random_observable_pair(rng)
            assert 0.5 - 1e-12 <= complementarity(q, r) <= 1.0 + 1e-12
            ranks = (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)
            stack = np.array([random_density_matrix(rng, 4, rank) for rank in ranks])
            times = np.linspace(0.0, 2.0, len(stack))
            batch = bounds_record(stack, q, r, t=times, amplitude=-times)
            for i, rho in enumerate(stack):
                single = bounds_record(rho, q, r, t=times[i], amplitude=-times[i])
                for name in (f.name for f in dataclasses.fields(BoundsRecord)):
                    assert getattr(batch, name).shape == (len(stack),)
                    assert abs(getattr(batch, name)[i] - getattr(single, name)) <= 1e-12, name

    def test_stack_with_scalar_time_and_amplitude(self, rng):
        stack = np.array([[random_density_matrix(rng, 4) for _ in range(2)] for _ in range(3)])
        rec = bounds_record(stack, pauli_x(), pauli_z(), t=0.25, amplitude=0.5)
        for name in (f.name for f in dataclasses.fields(BoundsRecord)):
            assert getattr(rec, name).shape == (3, 2), name
        assert np.all(rec.t == 0.25) and np.all(rec.amplitude == 0.5)
        single = bounds_record(stack[0, 0], pauli_x(), pauli_z(), t=1.5, amplitude=0.7)
        assert single.t == 1.5 and single.amplitude == 0.7

    @pytest.mark.parametrize(
        ("name", "stamp"),
        [("t", np.array([0.0, 1.0])), ("t", [0.0, 1.0]), ("amplitude", np.array([0.5]))],
    )
    def test_single_state_rejects_array_stamp(self, name, stamp):
        # float() of these used to raise TypeError instead of the input rule's ValueError
        with pytest.raises(ValueError, match=f"^{name} must be a scalar for one state"):
            bounds_record(max_entangled_initial(), pauli_x(), pauli_z(), **{name: stamp})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, bad):
        # a NaN entry used to give a finite record: u_left 0.0, berta 2.0
        rho = np.eye(4) / 4
        rho[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            bounds_record(rho, pauli_x(), pauli_z())
        stack = np.array([np.eye(4) / 4] * 5, dtype=complex)
        stack[2, 1, 3] = stack[2, 3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            bounds_record(stack, pauli_x(), pauli_z())

    @pytest.mark.parametrize(
        ("diagonal", "smallest"),
        [
            ((-1e-3, 0.5, 0.5 + 1e-3, 0.0), "-1.000e-03"),
            # rho_AB passes the floor; only rho_B's (0, 0) entry, -1.8e-10, falls below it
            ((-0.9e-10, 0.5, -0.9e-10, 0.5 + 1.8e-10), "-1.800e-10"),
        ],
    )
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rejects_state_below_floor(self, diagonal, smallest, dtype):
        # one floor check over the 16 eigenvalues of rho_AB, its marginals
        # and its branches names the smallest of them
        rho = np.diag(diagonal).astype(dtype)
        match = f"eigenvalue {smallest} below positivity floor"
        with pytest.raises(ValueError, match=match):
            bounds_record(rho, pauli_x(), pauli_z())
        stack = np.array([np.eye(4) / 4, rho, max_entangled_initial()], dtype=dtype)
        with pytest.raises(ValueError, match=match):
            bounds_record(stack, pauli_x(), pauli_z())

    def test_empty_stack(self):
        rec = bounds_record(np.zeros((0, 4, 4)), pauli_x(), pauli_z())
        for name in (f.name for f in dataclasses.fields(BoundsRecord)):
            assert getattr(rec, name).shape == (0,), name

    def test_one_spectral_pass_per_call(self, monkeypatch, rng):
        calls = []
        plogp = bounds_mod._plogp

        def counting(evals):
            calls.append(evals.shape)
            return plogp(evals)

        monkeypatch.setattr(bounds_mod, "_plogp", counting)
        bounds_record(random_density_matrix(rng, 4), pauli_x(), pauli_z())
        assert calls == [(16,)]
        stack = np.array([[random_density_matrix(rng, 4) for _ in range(3)] for _ in range(2)])
        bounds_record(stack, pauli_x(), pauli_z())
        assert calls[1:] == [(2, 3, 16)]
        calls.clear()
        discrepancy_report(0.5)
        assert len(calls) == -(-101 // audit_mod._AUDIT_BLOCK)  # one per amplitude block

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4, 4)])
    def test_converts_its_input_once(self, monkeypatch, shape):
        # one conversion per argument: rho's 4x4 spectrum comes from LAPACK
        # directly, not through the public eigenvalues_hermitian, which converts
        calls = []
        inexact = linalg_mod._inexact

        def counting(value, name, real=False):
            calls.append(name)
            return inexact(value, name, real)

        x, z = pauli_x(), pauli_z()
        for module in (bounds_mod, linalg_mod):
            monkeypatch.setattr(module, "_inexact", counting)
        rho = np.broadcast_to(np.eye(4) / 4, shape)
        assert np.allclose(bounds_record(rho, x, z).cond_entropy, 1.0)
        assert calls == ["t", "amplitude", "rho"]

    @pytest.mark.parametrize(("name", "bad"), [("t", "2"), ("t", False), ("amplitude", True), ("amplitude", "1")])
    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
    def test_rejects_non_real_time_and_amplitude(self, name, bad, shape):
        # t="2" used to be recorded as 2.0, and amplitude=True as 1.0
        rho = np.broadcast_to(np.eye(4) / 4, shape)
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            bounds_record(rho, pauli_x(), pauli_z(), **{name: bad})


def _preset_stack(fig: int, n: int) -> np.ndarray:
    """The (steps, 4, 4) evolved states of one qubit count of a figure preset."""
    config = figure_preset(fig)
    params = ReservoirParams(gamma0=1.0, lambda_=config.lambda_over_gamma0, n_qubits=n)
    amplitudes = decay_amplitude(params, np.linspace(0.0, config.t_max_gamma0, config.steps))
    if config.state == "max_entangled":
        initial = max_entangled_initial()
    else:
        initial = bell_diagonal_initial(config.p)
    return apply_memory_decay(initial, amplitudes)


def _assert_ledgers_agree(got: BoundsRecord, want: BoundsRecord, atol: float) -> None:
    for name in (f.name for f in dataclasses.fields(BoundsRecord)):
        dev = float(np.max(np.abs(getattr(got, name) - getattr(want, name))))
        assert dev <= atol, (name, dev)


class TestRealAndComplexPaths:
    # The reference families and sigma_x, sigma_z are real, so their ledger
    # runs in real arithmetic; these inputs reach the complex path with the
    # same ledger.
    @pytest.mark.parametrize("fig", [2, 4])
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_memory_phase_leaves_ledger_unchanged(self, fig, n):
        # I x diag(1, e^{i phi}) is a local unitary on B: it makes the
        # stack complex and changes no entropy on either side.  The two
        # routes differ most (~1e-14) in S(AB) near a vanishing eigenvalue.
        phase = np.diag([1.0, np.exp(0.7j)])
        u = np.kron(np.eye(2), phase)
        states = _preset_stack(fig, n)
        rotated = u @ states @ u.conj().T
        assert np.max(np.abs(rotated.imag)) > 0.01
        x, z = pauli_x(), pauli_z()
        _assert_ledgers_agree(bounds_record(rotated, x, z), bounds_record(states, x, z), 1e-14)

    @pytest.mark.parametrize("fig", [2, 4])
    def test_ket_phases_leave_ledger_unchanged(self, fig):
        states = _preset_stack(fig, 2)
        x, z = pauli_x(), pauli_z()
        phases = np.exp(1j * np.array([[0.3], [-1.1]]))
        x_phased = Observable("x", x.kets * phases)
        z_phased = Observable("z", z.kets * phases[::-1])
        assert x_phased.kets.imag.any() and z_phased.kets.imag.any()
        _assert_ledgers_agree(
            bounds_record(states, x_phased, z_phased), bounds_record(states, x, z), 1e-14
        )

    def test_arithmetic_follows_state_and_kets(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            seen.append(m.dtype)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        states = _preset_stack(4, 2)  # float64: the channel keeps a real state real
        x, z = pauli_x(), pauli_z()
        assert states.dtype == x.kets.dtype == z.kets.dtype == np.dtype(float)
        bounds_record(states, x, z)
        assert seen and set(seen) == {np.dtype(float)}
        seen.clear()
        # the dtype alone decides: zero imaginary parts still take the complex route
        bounds_record(states.astype(complex), x, z)
        assert seen and set(seen) == {np.dtype(complex)}
        seen.clear()
        bounds_record(states, x, Observable("z", z.kets * 1j))
        assert seen and set(seen) == {np.dtype(complex)}
        seen.clear()
        u = np.kron(np.eye(2), np.diag([1.0, 1j]))
        bounds_record(u @ states @ u.conj().T, x, z)
        assert seen and set(seen) == {np.dtype(complex)}

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_non_hermitian_member_rejected(self, dtype):
        stack = np.array([np.eye(4) / 4] * 5, dtype=dtype)
        stack[3, 0, 2] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            bounds_record(stack, pauli_x(), pauli_z())

    def test_complex_non_hermitian_member_rejected(self):
        # Hermitian in the real part, anti-Hermitian in the imaginary part
        stack = np.array([np.eye(4) / 4] * 3, dtype=complex)
        stack[1] += 1e-6j * np.kron([[0, 1], [1, 0]], np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            bounds_record(stack, pauli_x(), pauli_z())

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 4, 2), (4, 2)])
    def test_non_4x4_rejected(self, shape):
        with pytest.raises(ValueError, match="4x4"):
            bounds_record(np.zeros(shape), pauli_x(), pauli_z())


class TestClosedForms:
    def test_report_row_names(self):
        names = [row.name for row in closed_form_report(0.5)]
        assert names == [
            "max_ent_entropy_x",
            "max_ent_entropy_z",
            "max_ent_lhs",
            "max_ent_bound",
            "max_ent_delta",
            "bell_entropy_x",
            "bell_entropy_z",
            "bell_lhs",
            "bell_bound",
            "bell_delta",
        ]

    def test_consistent_formulas_agree(self):
        consistent = {
            "max_ent_entropy_x",
            "max_ent_entropy_z",
            "max_ent_bound",
            "max_ent_delta",
            "bell_entropy_x",
            "bell_entropy_z",
        }
        for c in np.linspace(0, 1, 21):
            for row in closed_form_report(float(c)):
                if row.name in consistent:
                    assert row.deviation <= 1e-9, (row.name, c)

    def test_lhs_formula_deviates_by_memory_entropy(self):
        # the maximally entangled sum subtracts S(rho_B) once instead of twice
        for c in np.linspace(0, 1, 21):
            rows = {row.name: row for row in closed_form_report(float(c))}
            expected = binary_entropy(0.5 * float(c) ** 2)
            assert abs(rows["max_ent_lhs"].deviation - expected) <= 1e-9

    def test_bell_lhs_deviation_at_full_amplitude(self):
        rows = {row.name: row for row in closed_form_report(1.0)}
        assert abs(rows["bell_lhs"].deviation - 0.375) <= 1e-6

    def test_flagged_formulas_deviate(self):
        rows = {row.name: row for row in closed_form_report(1.0)}
        assert rows["max_ent_lhs"].deviation > 0.9
        assert rows["bell_delta"].deviation > 1.0

    def test_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            closed_form_report(1.5)

    @pytest.mark.parametrize("bad", ["0.5", True, np.array(["0.5"])])
    def test_rejects_non_real_amplitude(self, bad):
        with pytest.raises(ValueError, match="amplitude must be a real number"):
            closed_form_report(bad)

    def test_empty_amplitude_array(self):
        rows = closed_form_report(np.array([]))
        assert len(rows) == 10
        for row in rows:
            assert row.closed_form.shape == row.definition.shape == row.deviation.shape == (0,)

    def test_array_report_equals_scalar_reports(self):
        amplitudes = np.array([-1.0, -0.6, -0.25, 0.0, 1e-9, 0.3, 0.5, 0.77, 0.99, 1.0])
        for p in (0.0, 1.0 / 3.0, 0.5, 1.0):
            batch = closed_form_report(amplitudes, p)
            for i, c in enumerate(amplitudes):
                single = closed_form_report(float(c), p)
                assert [row.name for row in batch] == [row.name for row in single]
                for b, s in zip(batch, single):
                    assert b.closed_form.shape == amplitudes.shape
                    assert b.closed_form[i] == s.closed_form, (b.name, c, p)
                    assert b.definition[i] == s.definition, (b.name, c, p)
                    assert b.deviation[i] == s.deviation, (b.name, c, p)

    def test_scalar_report_returns_floats(self):
        for c in (0.5, np.float64(0.5), 1):
            for row in closed_form_report(c):
                for value in (row.closed_form, row.definition, row.deviation):
                    assert type(value) is float, (row.name, c)

    @pytest.mark.parametrize("bad", [np.nan, np.array([0.2, np.nan, 0.4])])
    def test_non_finite_amplitude_rejected_before_ledger(self, monkeypatch, bad):
        def unreachable(*args, **kwargs):
            raise AssertionError("ledger reached with a non-finite amplitude")

        monkeypatch.setattr(audit_mod, "apply_memory_decay", unreachable)
        with pytest.raises(ValueError, match="finite"):
            closed_form_report(bad)
