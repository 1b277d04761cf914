"""Property tests of the channel and the ledger over random states,
observable pairs and local unitaries.

Hypothesis runs derandomized, so the drawn examples are the same on every
run and tier-1 stays reproducible.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import partial_trace, post_measurement_state
from eulb.audit import _evolved
from eulb.bounds import (
    BoundsRecord,
    Observable,
    _ledger,
    bounds_record,
    complementarity,
    pauli_x,
    pauli_z,
)
from eulb.channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from eulb.linalg import von_neumann_entropy

TOL = 1e-9
_unit = st.floats(-1.0, 1.0, allow_subnormal=False)
_angle = st.floats(0.0, 2.0 * np.pi)


@st.composite
def states(draw) -> np.ndarray:
    """rho = G G^dagger / Tr, with G a 4 x rank complex matrix: every rank 1..4."""
    rank = draw(st.integers(1, 4))
    parts = draw(arrays(float, (2, 4, rank), elements=_unit))
    g = parts[0] + 1j * parts[1]
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return rho / trace


def _su2(u: float, v: float, w: float) -> np.ndarray:
    cu, su = np.cos(u), np.sin(u)
    return np.array(
        [[cu * np.exp(1j * v), su * np.exp(1j * w)], [-su * np.exp(-1j * w), cu * np.exp(-1j * v)]]
    )


@st.composite
def unitaries(draw) -> np.ndarray:
    """A qubit unitary: an SU(2) element with any global phase."""
    phase, u, v, w = (draw(_angle) for _ in range(4))
    return np.exp(1j * phase) * _su2(u, v, w)


@st.composite
def observable_pairs(draw) -> tuple[Observable, Observable, float]:
    """Two qubit observables whose complementarity c is anywhere in [1/2, 1]."""
    c = draw(st.floats(0.5, 1.0))
    a, b, u, v, w = (draw(_angle) for _ in range(5))
    kets = _su2(u, v, w)
    s, t = np.sqrt(c), np.sqrt(1.0 - c)
    mix = np.array(
        [[s * np.exp(1j * a), t * np.exp(1j * b)], [-t * np.exp(-1j * b), s * np.exp(-1j * a)]]
    )
    return Observable("q", kets), Observable("r", mix @ kets), c  # <q_i|r_j> = mix[j, i]


@settings(derandomize=True, database=None, deadline=None)
@given(rho=states(), pair=observable_pairs())
def test_inequality_chain_and_holevo_range(rho, pair):
    q, r, c = pair
    assert abs(complementarity(q, r) - c) <= 1e-12
    rec = bounds_record(rho, q, r)
    assert rec.u_left >= rec.adabi - TOL
    assert rec.adabi >= rec.berta - TOL
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    for chi in (rec.holevo_q, rec.holevo_r):
        assert -TOL <= chi <= s_b + TOL


@settings(derandomize=True, database=None, deadline=None)
@given(c=_unit, excited=st.sampled_from([0, 1]))
def test_channel_is_cptp(c, excited):
    # the Choi matrix is the channel on B of the unnormalised |00> + |11>: the
    # channel is completely positive iff it is PSD, trace preserving iff its
    # trace over B is I_A
    choi = apply_memory_decay(2 * max_entangled_initial(), c, excited)
    assert np.min(np.linalg.eigvalsh(choi)) >= -1e-12
    assert np.max(np.abs(partial_trace(choi, "A") - np.eye(2))) <= 1e-12


_FLIP_B = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


@settings(derandomize=True, database=None, deadline=None)
@given(rho=states(), c=_unit)
def test_excited_label_one_is_flip_conjugated_channel(rho, c):
    # relabeling the decaying memory level is sigma_x on B before and after
    flipped = _FLIP_B @ apply_memory_decay(_FLIP_B @ rho @ _FLIP_B, c) @ _FLIP_B
    assert np.max(np.abs(apply_memory_decay(rho, c, excited=1) - flipped)) <= 1e-12


@settings(derandomize=True, database=None, deadline=None)
@given(rho=states(), u=unitaries())
def test_ledger_invariant_under_unitary_on_memory(rho, u):
    # every ledger field is a function of entropies conditioned on B or of
    # S(B) itself, so a basis change on the memory leaves all of them alone
    local = np.kron(np.eye(2), u)
    moved = local @ rho @ local.conj().T
    x, z = pauli_x(), pauli_z()
    before, after = bounds_record(rho, x, z), bounds_record(moved, x, z)
    for f in fields(BoundsRecord):
        assert abs(getattr(after, f.name) - getattr(before, f.name)) <= TOL, f.name


@settings(derandomize=True, database=None, deadline=None)
@given(rho=states(), pair=observable_pairs())
def test_post_entropies_equal_dephased_state_entropies(rho, pair):
    # the ledger sums branch spectra; dephasing the 4x4 state in the measured
    # basis and solving it whole is the independent route to S(rho_QB).  Each
    # route is within ~8e-15 of a 40-digit reference on sampled states; on
    # pure states the zero eigenvalues come out at ~1e-17, where x log2 x is
    # steep, and the two routes then differ by up to ~1.1e-14.
    q, r, _ = pair
    _, post = _ledger(rho, q, r)
    for value, obs in zip(post, (q, r)):
        assert abs(value - von_neumann_entropy(post_measurement_state(rho, obs))) <= 2e-14


def _assert_member_equal(stacked, k, single):
    """Member k of a stacked _ledger result equals a single call's, bit for bit."""
    (rec, post), (one, one_post) = stacked, single
    for f in fields(BoundsRecord):
        assert np.array_equal(getattr(rec, f.name)[k], getattr(one, f.name)), f.name
    assert np.array_equal(post[k], one_post)


@settings(derandomize=True, database=None, deadline=None)
@given(c=arrays(float, st.integers(1, 9), elements=_unit), p=st.floats(0.0, 1.0))
def test_two_family_stack_equals_per_family_calls(c, p):
    # the audit's one ledger call over (2, B) evolved states gives, bit for
    # bit, what one call per family gives
    x, z = pauli_x(), pauli_z()
    stacked = _ledger(_evolved(c, p), x, z)
    for k, initial in enumerate((max_entangled_initial(), bell_diagonal_initial(p))):
        _assert_member_equal(stacked, k, _ledger(apply_memory_decay(initial, c), x, z))


@settings(derandomize=True, database=None, deadline=None)
@given(rhos=st.lists(states(), min_size=2, max_size=8), pair=observable_pairs())
def test_stacked_general_states_equal_per_half_calls(rhos, pair):
    # a stack runs in real arithmetic only if all of it is real, so every
    # member is complex here and both calls take the complex route
    assume(all(rho.imag.any() for rho in rhos))
    q, r, _ = pair
    half = len(rhos) // 2
    stack = np.array(rhos[: 2 * half]).reshape(2, half, 4, 4)
    stacked = _ledger(stack, q, r)
    for k in range(2):
        _assert_member_equal(stacked, k, _ledger(stack[k], q, r))
