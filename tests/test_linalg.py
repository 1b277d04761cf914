from __future__ import annotations

import math

import numpy as np
import pytest

import eulb.linalg as linalg_mod
from conftest import partial_trace, random_density_matrix, random_unitary
from eulb.linalg import (
    _eigvalsh_2x2,
    binary_entropy,
    eigenvalues_hermitian,
    entropy_from_eigenvalues,
    hermiticity_defect,
    von_neumann_entropy,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTensorProduct:
    # tests and conftest build two-qubit operators with np.kron, so its
    # ordering must be the package's A-major basis (flat index = 2a + b)
    def test_identity_halves(self):
        assert np.array_equal(np.kron(np.eye(2) / 2, np.eye(2) / 2), np.eye(4) / 4)

    def test_basis_bookkeeping(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert np.array_equal(np.kron(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_mixed_times_sigma_x(self):
        out = np.kron(np.eye(2) / 2, PAULI_X / 2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 0.25
        assert np.max(np.abs(out - expected)) == 0.0


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        phi = np.zeros((4, 4), dtype=complex)
        phi[0, 0] = phi[0, 3] = phi[3, 0] = phi[3, 3] = 0.5
        assert np.max(np.abs(partial_trace(phi, "B") - np.eye(2) / 2)) < 1e-15
        assert np.max(np.abs(partial_trace(phi, "A") - np.eye(2) / 2)) < 1e-15

    def test_evolved_state_memory_marginal(self):
        c = 0.6
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 0.18
        rho[1, 1] = 0.32
        rho[3, 3] = 0.5
        rho[0, 3] = rho[3, 0] = 0.3
        out = partial_trace(rho, "B")
        assert np.max(np.abs(out - np.diag([c * c / 2, 1 - c * c / 2]))) < 1e-15

    def test_row_sums(self):
        rho = np.diag([1 / 8, 3 / 8, 3 / 8, 1 / 8]).astype(complex)
        assert np.max(np.abs(partial_trace(rho, "A") - np.diag([0.5, 0.5]))) < 1e-15

    def test_undoes_tensor_product(self, rng):
        pairs = [(random_density_matrix(rng, 2), random_density_matrix(rng, 2)) for _ in range(50)]
        for a, b in pairs:
            prod = np.kron(a, b)
            assert np.max(np.abs(partial_trace(prod, "A") - a)) < 1e-12
            assert np.max(np.abs(partial_trace(prod, "B") - b)) < 1e-12
        a, b = (np.array(side) for side in zip(*pairs))
        prod = np.array([np.kron(x, y) for x, y in pairs])
        assert prod.shape == (50, 4, 4)
        assert np.max(np.abs(partial_trace(prod, "A") - a)) < 1e-12
        assert np.max(np.abs(partial_trace(prod, "B") - b)) < 1e-12


class TestEigenvalues:
    def test_diagonal_input(self):
        evals = eigenvalues_hermitian(np.diag([0.5, 0.25, 0.25, 0.0]))
        assert np.array_equal(evals, [0.5, 0.25, 0.25, 0.0])

    def test_rank_deficient_block(self):
        # outer 2x2 block of the evolved maximally entangled state at c = 1
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        evals = eigenvalues_hermitian(m)
        assert np.max(np.abs(evals - [1.0, 0.0])) < 1e-15

    def test_pauli_spectrum(self):
        assert np.array_equal(eigenvalues_hermitian(PAULI_X), [1.0, -1.0])

    def test_2x2_against_characteristic_polynomial(self, rng):
        for _ in range(200):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (g + g.conj().T) / 2
            mine = eigenvalues_hermitian(h)
            tr = h.trace().real
            det = np.linalg.det(h).real
            roots = np.sort(np.roots([1.0, -tr, det]).real)[::-1]
            assert np.max(np.abs(mine - roots)) < 1e-12

    def test_4x4_against_lapack(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng, 4)
            mine = eigenvalues_hermitian(rho)
            ref = np.sort(np.linalg.eigvalsh(rho))[::-1]
            assert np.max(np.abs(mine - ref)) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues_hermitian(m)
        stack = np.array([np.eye(4) / 4] * 5, dtype=complex)
        stack[3, 0, 2] = 1e-6  # one non-Hermitian member
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues_hermitian(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize(("shape", "index"), [((4, 4), (0, 0)), ((4, 4), (1, 2)), ((5, 2, 2), (3, 1, 1))])
    def test_rejects_non_finite_entries(self, bad, shape, index):
        # the defect of a non-finite entry is NaN or inf, which a plain
        # defect > tolerance test would let through
        m = np.broadcast_to(np.eye(shape[-1]) / shape[-1], shape).astype(complex)
        m[index] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues_hermitian(m)
        with pytest.raises(ValueError, match="non-finite"):
            von_neumann_entropy(m)

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError, match="2x2 or 4x4"):
            eigenvalues_hermitian(np.eye(3))

    def test_real_input_solved_in_real_arithmetic(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            seen.append(m.dtype)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert np.array_equal(eigenvalues_hermitian(np.diag([1, 3, 2, 4])), [4.0, 3.0, 2.0, 1.0])
        assert np.array_equal(eigenvalues_hermitian(np.kron(PAULI_X, PAULI_X)), [1.0, 1.0, -1.0, -1.0])
        assert seen == [np.dtype(float), np.dtype(complex)]
        # 2x2 spectra are closed form: they never reach LAPACK, and come out
        # float64 from a real and from a complex input alike
        for m, want in ((np.array([[2, 1], [1, 2]]), [3.0, 1.0]), (PAULI_X, [1.0, -1.0])):
            evals = eigenvalues_hermitian(m)
            assert evals.dtype == np.dtype(float) and np.array_equal(evals, want)
        assert len(seen) == 2

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e150])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_closed_form_2x2_against_lapack(self, rng, dtype, scale):
        def draw(*shape):
            g = rng.normal(size=shape)
            return g + 1j * rng.normal(size=shape) if dtype is complex else g

        def hermitian(g):
            return (g + g.conj().swapaxes(-1, -2)) / 2

        n = 200
        v = draw(n, 2)
        kinds = [
            hermitian(draw(n, 2, 2)),  # random
            v[:, :, None] * v.conj()[:, None, :],  # rank 1
            rng.normal(size=(n, 1, 1)) * np.eye(2) + 1e-17 * hermitian(draw(n, 2, 2)),  # degenerate
            rng.normal(size=(n, 2, 1)) * np.eye(2),  # diagonal
            np.zeros((n, 2, 2), dtype=dtype),
        ]
        stack = scale * np.concatenate(kinds)
        mine = _eigvalsh_2x2(stack)
        assert mine.dtype == np.dtype(float) and np.all(np.isfinite(mine))
        bound = 16 * np.finfo(float).eps * np.abs(stack).max(axis=(-2, -1))
        assert np.all(np.abs(mine - np.linalg.eigvalsh(stack)) <= bound[:, None])

    def test_empty_stack(self):
        # the Hermiticity check's reduction used to have no identity for a size-0 stack
        assert eigenvalues_hermitian(np.zeros((0, 4, 4))).shape == (0, 4)
        assert eigenvalues_hermitian(np.zeros((0, 2, 2), dtype=complex)).shape == (0, 2)
        assert hermiticity_defect(np.zeros((0, 2, 2))) == 0.0
        assert math.isnan(hermiticity_defect(np.array([[np.nan, 0.0], [0.0, 1.0]])))

    def test_hermiticity_defect_of_real_and_complex_input(self):
        assert hermiticity_defect(np.array([[1, 2], [3, 4]])) == 1.0
        assert hermiticity_defect(np.array([[1.0, 0.5j], [0.5j, 1.0]])) == 1.0
        assert hermiticity_defect(np.array([[1.0, 0.5j], [-0.5j, 1.0]])) == 0.0


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == 1.0

    def test_pure_state(self):
        ket = np.array([0.6, 0.8j])
        rho = np.outer(ket, ket.conj())
        assert abs(von_neumann_entropy(rho)) < 1e-12

    def test_dyadic_probabilities(self):
        assert von_neumann_entropy(np.diag([0.5, 0.25, 0.25, 0.0])) == 1.5

    def test_random_states_spectrum_and_range(self, rng):
        states = np.array([random_density_matrix(rng, 4) for _ in range(1000)])
        from_stack = von_neumann_entropy(states)
        for rho, s_stack in zip(states, from_stack):
            evals = eigenvalues_hermitian(rho)
            assert abs(evals.sum() - 1.0) < 1e-9
            s = von_neumann_entropy(rho)
            assert 0.0 <= s <= 2.0 + 1e-12
            assert abs(s_stack - s) <= 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng, 4)
            u = random_unitary(rng, 4)
            rotated = u @ rho @ u.conj().T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9

    def test_positivity_error(self):
        with pytest.raises(ValueError, match="positivity|eigenvalue"):
            von_neumann_entropy(np.diag([1.001, -0.001]))

    @pytest.mark.parametrize("shape", [(4,), (6, 2), (8, 6, 2), (2001, 4), (2001, 6, 2)])
    def test_bitwise_equal_to_plain_expression(self, rng, shape):
        # the ledger's stacks, with exact zeros and clamped roundoff negatives
        evals = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        evals[..., 0] = 0.0
        evals[..., -1] = -1e-17
        p = np.where(evals > 0.0, evals, 1.0)
        plain = np.maximum(-np.sum(p * np.log2(p), axis=-1), 0.0)
        assert np.array_equal(entropy_from_eigenvalues(evals), plain)

    def test_empty_stack(self):
        assert entropy_from_eigenvalues(np.zeros((0, 4))).shape == (0,)
        assert entropy_from_eigenvalues(np.zeros(0)) == 0.0
        assert np.array_equal(entropy_from_eigenvalues(np.zeros((3, 0))), np.zeros(3))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (3, 5, 4, 4)])
    def test_von_neumann_entropy_converts_its_input_once(self, monkeypatch, shape):
        calls = []
        inexact = linalg_mod._inexact

        def counting(value, name, real=False):
            calls.append(name)
            return inexact(value, name, real)

        monkeypatch.setattr(linalg_mod, "_inexact", counting)
        rho = np.broadcast_to(np.eye(shape[-1]) / shape[-1], shape)
        assert np.allclose(von_neumann_entropy(rho), math.log2(shape[-1]))
        assert calls == ["rho"]

    def test_von_neumann_entropy_of_empty_stack(self):
        assert von_neumann_entropy(np.zeros((0, 2, 2))).shape == (0,)
        assert von_neumann_entropy(np.zeros((0, 3, 4, 4))).shape == (0, 3)

    def test_input_left_unchanged(self):
        # the p log2 p kernel works in place, so the wrapper hands it a copy
        evals = np.array([[0.5, 0.5, 0.0, -1e-12], [np.nan, 1.0, 0.0, 0.0]])
        kept = evals.copy()
        entropy_from_eigenvalues(evals)
        assert np.array_equal(evals, kept, equal_nan=True)

    def test_nan_counts_as_zero_probability(self):
        # NaN is neither below the floor nor positive, so it adds 0 log 0
        assert entropy_from_eigenvalues(np.array([np.nan, 0.5])) == 0.5
        assert entropy_from_eigenvalues(np.array([np.nan, np.nan])) == 0.0
        with pytest.raises(ValueError, match="-1.000e-03 below positivity floor"):
            entropy_from_eigenvalues(np.array([np.nan, -1e-3]))

    def test_floor_error_names_smallest_eigenvalue(self):
        evals = np.array([[0.7, -2e-3, 0.3], [0.9, 0.2, -3e-3]])
        with pytest.raises(ValueError, match="eigenvalue -3.000e-03 below positivity floor"):
            entropy_from_eigenvalues(evals)
        # roundoff negatives down to the floor are clamped, not refused
        assert entropy_from_eigenvalues(np.array([1.0, -1e-10])) == 0.0


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        expected = 2.0 - 0.75 * math.log2(3.0)  # independent algebraic form
        assert abs(binary_entropy(0.25) - expected) < 1e-15
        assert abs(binary_entropy(0.25) - 0.811278) < 1e-6

    def test_symmetry(self, rng):
        for x in rng.uniform(0, 1, size=50):
            assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-12

    def test_clamps_edges(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1 + 1e-13) == 0.0

    def test_domain_error(self):
        # NaN used to pass the range check and come out as entropy 0
        for x in (1.5, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="outside"):
                binary_entropy(x)
