"""Property tests of the channel and the ledger over random states,
observable pairs and local unitaries.

Hypothesis runs derandomized, so the drawn examples are the same on every
run and tier-1 stays reproducible.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import assume, example, given, settings
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
from eulb.reservoir import ReservoirParams, decay_amplitude
from eulb.sweep import SweepConfig, run_sweep

TOL = 1e-9
_unit = st.floats(-1.0, 1.0, allow_subnormal=False)
_angle = st.floats(0.0, 2.0 * np.pi)


@st.composite
def states(draw, real: bool = False) -> np.ndarray:
    """rho = G G^dagger / Tr, with G a 4 x rank complex matrix (real when
    real is set): every rank 1..4."""
    rank = draw(st.integers(1, 4))
    parts = draw(arrays(float, (2, 4, rank), elements=_unit))
    g = parts[0] if real else parts[0] + 1j * parts[1]
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
@given(
    initial=st.just(max_entangled_initial()) | st.floats(0.0, 1.0).map(bell_diagonal_initial),
    c=arrays(float, st.integers(1, 9), elements=_unit),
)
def test_sweep_states_blind_to_the_decaying_level(initial, c):
    # both sweep families are invariant under X x X, so decay from level 1 is
    # decay from level 0 up to X on A, which only relabels the sigma_x and
    # sigma_z outcomes, and X on B, which the ledger ignores.  A sweep
    # therefore offers no choice of the decaying level.
    x, z = pauli_x(), pauli_z()
    zero = bounds_record(apply_memory_decay(initial, c), x, z)
    one = bounds_record(apply_memory_decay(initial, c, excited=1), x, z)
    for f in fields(BoundsRecord):
        assert np.max(np.abs(getattr(one, f.name) - getattr(zero, f.name))) <= 1e-12, f.name


@settings(derandomize=True, database=None, deadline=None)
@given(
    rho=states() | states(real=True),
    c=arrays(float, st.integers(1, 9), elements=_unit),
    excited=st.sampled_from([0, 1]),
)
def test_ledger_even_in_the_amplitude(rho, c, excited):
    # c -> -c flips the sign of the excited memory level, a local unitary on
    # B, so the whole ledger is even in c, on the real route and the complex one
    x, z = pauli_x(), pauli_z()
    plus = _ledger(apply_memory_decay(rho, c, excited), x, z)
    minus = _ledger(apply_memory_decay(rho, -c, excited), x, z)
    for f in fields(BoundsRecord):
        dev = np.max(np.abs(getattr(minus[0], f.name) - getattr(plus[0], f.name)))
        assert dev <= 1e-14, f.name
    assert np.max(np.abs(minus[1] - plus[1])) <= 1e-14


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
    # the dtype alone sets the arithmetic, so a stack of complex128 states
    # and each half of it take the same complex route, members with zero
    # imaginary part included
    q, r, _ = pair
    half = len(rhos) // 2
    stack = np.array(rhos[: 2 * half]).reshape(2, half, 4, 4)
    stacked = _ledger(stack, q, r)
    for k in range(2):
        _assert_member_equal(stacked, k, _ledger(stack[k], q, r))


SWEEP_EPS = 1e-13


@settings(derandomize=True, database=None, deadline=None)
@given(
    lam=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    ns=st.lists(st.integers(1, 10**4), min_size=1, max_size=3, unique=True),
    t_max=st.floats(1e-3, 100.0),
    p=st.floats(0.0, 1.0),
    state=st.sampled_from(["max_entangled", "bell_diagonal"]),
)
# Bell-diagonal at p = 0 has a branch of zero chi, which came out -1.1e-16
@example(lam=1.0, ns=[215], t_max=26.23872491697007, p=0.0, state="bell_diagonal")
def test_sweep_rows_keep_the_bounds_chain(lam, ns, t_max, p, state):
    # the whole pipeline, amplitude to ledger, on short grids across the
    # parameter space.  The record carries no S(B), so chi is bounded by
    # I(A;B): measuring A cannot raise its correlation with B.
    config = SweepConfig(
        state=state,
        lambda_over_gamma0=lam,
        p=p,
        n_qubits_list=tuple(ns),
        t_max_gamma0=t_max,
        steps=9,
    )
    for rec in run_sweep(config).ledgers.values():
        assert all(np.isfinite(getattr(rec, f.name)).all() for f in fields(BoundsRecord))
        assert np.all(np.abs(rec.amplitude) <= 1.0)
        assert np.all(rec.u_left >= rec.adabi - SWEEP_EPS)
        assert np.all(rec.adabi >= rec.berta - SWEEP_EPS)
        for chi in (rec.holevo_q, rec.holevo_r):
            assert np.all(chi >= 0.0)
            assert np.all(chi <= rec.mutual_info + SWEEP_EPS)


# Criterion 12, adding qubits protects the bound, as two properties: the
# bound cannot rise as |C| grows, and |C| grows with N in the overdamped
# regime lambda >= 2 N gamma0.
MONOTONE_EPS = 1e-13


@settings(derandomize=True, database=None, deadline=None)
@given(rho=states() | states(real=True), pair=observable_pairs(), b=_unit, ratio=_unit)
def test_bound_nonincreasing_in_the_amplitude(rho, pair, b, ratio):
    # for |a| <= |b|, AD(a) = AD(a / b) AD(b) is AD(b) followed by a further
    # channel on B, under which S(X|B) and S(A|B) cannot fall (data
    # processing); so u_left and Berta at a are at least their values at b.
    # Adabi adds max(0, delta) and has no such proof; hypothesis finds no
    # counterexample for it either.
    q, r, _ = pair
    rec = bounds_record(apply_memory_decay(rho, np.array([ratio * b, b])), q, r)
    for name in ("u_left", "berta", "adabi"):
        weak, strong = getattr(rec, name)
        assert weak >= strong - MONOTONE_EPS, name


@settings(derandomize=True, database=None, deadline=None)
@given(
    ns=st.lists(st.integers(1, 200), min_size=2, max_size=5, unique=True).map(sorted),
    excess=st.floats(0.0, 3.0).map(lambda e: 10.0**e),
    t=arrays(float, st.integers(1, 9), elements=st.floats(0.0, 100.0)),
)
def test_amplitude_nondecreasing_in_n_when_overdamped(ns, excess, t):
    # at lambda >= 2 N_max gamma0 every C_N(t) decays without oscillating,
    # and more qubits hold more of the excitation at every time
    lam = 2.0 * ns[-1] * excess
    c = np.abs([decay_amplitude(ReservoirParams(1.0, lam, n), t) for n in ns])
    assert np.all(np.diff(c, axis=0) >= -MONOTONE_EPS)
