"""Property tests of the ledger over random states and observable pairs.

Hypothesis runs derandomized, so the drawn examples are the same on every
run and tier-1 stays reproducible.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eulb.bounds import Observable, bounds_record, complementarity
from eulb.linalg import partial_trace, von_neumann_entropy

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


@st.composite
def observable_pairs(draw) -> tuple[Observable, Observable, float]:
    """Two qubit observables whose complementarity c is anywhere in [1/2, 1]."""
    c = draw(st.floats(0.5, 1.0))
    a, b, u, v, w = (draw(_angle) for _ in range(5))
    cu, su = np.cos(u), np.sin(u)
    kets = np.array(
        [[cu * np.exp(1j * v), su * np.exp(1j * w)], [-su * np.exp(-1j * w), cu * np.exp(-1j * v)]]
    )
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
