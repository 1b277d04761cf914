from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    bell_diagonal_from_r,
    evolved_max_entangled,
    partial_trace,
    random_density_matrix,
)
from eulb.audit import discrepancy_report, evolved_bell_diagonal_closed_form
from eulb.channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from eulb.linalg import eigenvalues_hermitian, von_neumann_entropy


class TestInitialStates:
    def test_max_entangled_entries(self):
        rho = max_entangled_initial()
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.array_equal(rho, expected)

    def test_max_entangled_is_pure(self):
        rho = max_entangled_initial()
        assert abs((rho @ rho).trace().real - 1.0) < 1e-15
        assert von_neumann_entropy(rho) < 1e-12

    def test_bell_diagonal_half(self):
        rho = bell_diagonal_initial(0.5)
        expected = np.array(
            [[1, 0, 0, 1], [0, 3, -1, 0], [0, -1, 3, 0], [1, 0, 0, 1]], dtype=complex
        ) / 8
        assert np.max(np.abs(rho - expected)) < 1e-15

    def test_bell_diagonal_spectrum(self):
        for p in (0.0, 0.3, 0.5, 1.0):
            evals = eigenvalues_hermitian(bell_diagonal_initial(p))
            expected = np.sort([p, (1 - p) / 2, (1 - p) / 2, 0.0])[::-1]
            assert np.max(np.abs(evals - expected)) < 1e-12

    def test_bell_diagonal_pure_singlet(self):
        rho = bell_diagonal_initial(1.0)
        singlet = np.zeros(4, dtype=complex)
        singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert np.max(np.abs(rho - np.outer(singlet, singlet.conj()))) < 1e-15

    def test_bell_diagonal_marginals_maximally_mixed(self):
        for p in np.linspace(0, 1, 11):
            rho = bell_diagonal_initial(p)
            assert np.max(np.abs(partial_trace(rho, "A") - np.eye(2) / 2)) < 1e-15
            assert np.max(np.abs(partial_trace(rho, "B") - np.eye(2) / 2)) < 1e-15

    def test_bell_diagonal_matches_correlation_vector_route(self):
        for p in np.linspace(0, 1, 11):
            direct = bell_diagonal_initial(p)
            via_r = bell_diagonal_from_r((1.0 - 2.0 * p, -p, -p))
            assert np.max(np.abs(direct - via_r)) < 1e-15

    def test_bell_diagonal_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bell_diagonal_initial(1.2)


_P_TAKERS = {
    "bell_diagonal_initial": bell_diagonal_initial,
    "evolved_bell_diagonal_closed_form": lambda p: evolved_bell_diagonal_closed_form(p, 0.5),
    "discrepancy_report": discrepancy_report,
}


@pytest.mark.parametrize("bad", ["0.5", b"1", True, np.True_, None, np.nan], ids=repr)
@pytest.mark.parametrize("build", list(_P_TAKERS.values()), ids=list(_P_TAKERS))
def test_p_must_be_a_real_in_the_unit_interval(build, bad):
    # float(p) used to turn strings and flags into weights, and None into a TypeError
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        build(bad)


@pytest.mark.parametrize("build", list(_P_TAKERS.values()), ids=list(_P_TAKERS))
def test_p_accepts_numpy_floats(build):
    assert repr(build(np.float32(0.5))) == repr(build(0.5))


class TestApplyMemoryDecay:
    def test_identity_at_full_amplitude(self, rng):
        rho = random_density_matrix(rng, 4)
        assert np.max(np.abs(apply_memory_decay(rho, 1.0) - rho)) < 1e-15

    def test_reproduces_evolved_max_entangled(self):
        initial = max_entangled_initial()
        for c in np.linspace(-1.0, 1.0, 100):
            via_channel = apply_memory_decay(initial, c)
            assert np.max(np.abs(via_channel - evolved_max_entangled(c))) <= 1e-15

    def test_full_decay_gives_product_state(self):
        out = apply_memory_decay(max_entangled_initial(), 0.0)
        assert np.max(np.abs(out - np.diag([0.0, 0.5, 0.0, 0.5]))) < 1e-15

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(1000):
            rho = random_density_matrix(rng, 4)
            c = rng.uniform(-1.0, 1.0)
            out = apply_memory_decay(rho, c)
            assert abs(out.trace().real - 1.0) < 1e-12
            assert eigenvalues_hermitian(out)[-1] >= -1e-10

    def test_amplitude_semigroup(self, rng):
        for _ in range(50):
            rho = random_density_matrix(rng, 4)
            c1, c2 = rng.uniform(-1, 1, size=2)
            twice = apply_memory_decay(apply_memory_decay(rho, c2), c1)
            once = apply_memory_decay(rho, c1 * c2)
            assert np.max(np.abs(twice - once)) <= 1e-12

    def test_negative_unit_amplitude_is_phase_flip(self, rng):
        flip = np.kron(np.eye(2), np.diag([-1.0, 1.0]))
        for _ in range(20):
            rho = random_density_matrix(rng, 4)
            assert np.max(np.abs(apply_memory_decay(rho, -1.0) - flip @ rho @ flip)) <= 1e-12

    def test_amplitude_array_equals_per_amplitude(self, rng):
        rho = random_density_matrix(rng, 4)
        stack = np.array([random_density_matrix(rng, 4) for _ in range(41)])
        cs = np.linspace(-1.0, 1.0, 41)
        out = apply_memory_decay(rho, cs)
        paired = apply_memory_decay(stack, cs)
        assert out.shape == paired.shape == (41, 4, 4)
        for i, c in enumerate(cs):
            assert np.array_equal(out[i], apply_memory_decay(rho, c))
            assert np.array_equal(paired[i], apply_memory_decay(stack[i], c))

    def test_real_state_stays_real(self, rng):
        # the Kraus pair has real coefficients: real in, float64 out, with the
        # real part of the complex route's result bit for bit
        cs = np.linspace(-1.0, 1.0, 5)
        assert max_entangled_initial().dtype == bell_diagonal_initial(0.3).dtype == np.float64
        for initial in (max_entangled_initial(), bell_diagonal_initial(0.3), np.diag([1, 0, 0, 0])):
            out = apply_memory_decay(initial, cs)
            assert out.dtype == np.float64
            via_complex = apply_memory_decay(np.asarray(initial, dtype=complex), cs)
            assert via_complex.dtype == np.complex128
            assert out.tobytes() == via_complex.real.tobytes()
        assert apply_memory_decay(random_density_matrix(rng, 4), cs).dtype == np.complex128

    def test_amplitude_clamped_near_one(self, rng):
        rho = random_density_matrix(rng, 4)
        out = apply_memory_decay(rho, 1.0 + 5e-10)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_rejects_bad_arguments(self, rng):
        rho = random_density_matrix(rng, 4)
        with pytest.raises(ValueError, match="positivity"):
            apply_memory_decay(rho, 1.01)
        with pytest.raises(ValueError, match="positivity"):
            apply_memory_decay(rho, np.array([0.5, -1.01]))
        with pytest.raises(ValueError, match="4x4"):
            apply_memory_decay(np.eye(2) / 2, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.array([0.5, np.nan])])
    def test_rejects_non_finite_amplitude(self, rng, bad):
        # NaN fails every comparison, so a range check alone lets it through
        with pytest.raises(ValueError, match="finite"):
            apply_memory_decay(random_density_matrix(rng, 4), bad)


class TestEvolvedConstructors:
    def test_evolved_max_entangled_values(self):
        rho = evolved_max_entangled(0.6)
        assert abs(rho[0, 0] - 0.18) < 1e-15
        assert abs(rho[1, 1] - 0.32) < 1e-15
        assert abs(rho[3, 3] - 0.5) < 1e-15
        assert abs(rho[0, 3] - 0.3) < 1e-15

    def test_evolved_max_entangled_limits(self):
        assert np.max(np.abs(evolved_max_entangled(1.0) - max_entangled_initial())) < 1e-15
        for c in np.linspace(-1, 1, 21):
            assert abs(evolved_max_entangled(c).trace().real - 1.0) < 1e-15

    def test_bell_closed_form_rejects_nan(self):
        with pytest.raises(ValueError, match="out of range"):
            evolved_bell_diagonal_closed_form(0.5, float("nan"))

    def test_bell_closed_form_trace_one(self):
        for p in np.linspace(0, 1, 6):
            for c in np.linspace(-1, 1, 9):
                rho = evolved_bell_diagonal_closed_form(p, c)
                assert rho.dtype == np.float64
                assert abs(rho.trace() - 1.0) < 1e-15

    def test_bell_closed_form_is_inconsistent_at_full_amplitude(self):
        # the tabulated matrix fails its own c = 1 limit: corner coherence is
        # doubled and the diagonal is permuted relative to the initial state
        lit = evolved_bell_diagonal_closed_form(0.5, 1.0)
        initial = bell_diagonal_initial(0.5)
        assert abs(lit[0, 3].real - 0.25) < 1e-15
        assert abs(initial[0, 3].real - 0.125) < 1e-15
        assert abs(lit[0, 0].real - 0.375) < 1e-15
        assert abs(initial[0, 0].real - 0.125) < 1e-15
        assert np.max(np.abs(lit - initial)) >= 0.125

    def test_bell_closed_form_range_checks(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            evolved_bell_diagonal_closed_form(-0.1, 0.5)
        with pytest.raises(ValueError, match="out of range"):
            evolved_bell_diagonal_closed_form(0.5, 1.5)
