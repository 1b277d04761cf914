"""Write ledger_general_mpmath.csv: the ledger of general states to 40 digits.

ledger_mpmath.csv covers the real X-shaped reference states under sigma_x
and sigma_z only.  This file covers what bounds_record accepts beyond them:
60 seeded complex two-qubit states, 15 of each rank 1 to 4, measured with
sigma_x/sigma_z or with a random pair of qubit bases whose complementarity
c = max |<q_i|r_j>|^2 lies in (0.55, 0.95), so inside (1/2, 1).  Every
state of rank 2 to 4 at an odd index has its smallest nonzero eigenvalue
set to 1e-8, 1e-10, 1e-12 or 1e-14, in turn.

A state is sum_k w_k |psi_k><psi_k| over the first `rank` vectors of a
40-digit Gram-Schmidt basis drawn from Python's seeded Mersenne Twister; a
basis is (cos t, e^{i f} sin t) and (-e^{-i f} sin t, cos t), each ket with
its own phase.  The state's upper triangle and every ket entry are then
rounded to float64, and the lower triangle is set to the conjugate, so the
state is Hermitian in float64.  The file holds those float64 inputs as
reprs, and every ledger value is evaluated with mpmath from them exactly
(rounding leaves a rank-r state with 4 - r eigenvalues of order 1e-17, of
either sign), so the only error left in a float64 route is its own.  Every
spectrum is a 40-digit Hermitian eigensolve (mp.eighe); each is
cross-checked against the trace and the Frobenius norm of its matrix.
It shares the field list, the entropy and the partial trace of
capture_ledger.py.  mpmath is needed only to run this script.  Run from the
repository root:

    python3 tests/golden/capture_ledger_general.py
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import mpmath as mp

from capture_ledger import FIELDS, entropy, reduced

OUT = Path(__file__).with_name("ledger_general_mpmath.csv")
DPS = 40
SEED = 2019
CASES_PER_RANK = 15
TINY_EXPONENTS = (8, 10, 12, 14)
COMPLEMENTARITY_RANGE = (0.55, 0.95)
INPUTS = ("rho_re", "rho_im", "q_re", "q_im", "r_re", "r_im")


def orthonormal_basis(rng: random.Random) -> list[list[mp.mpc]]:
    """Four orthonormal complex 4-vectors by Gram-Schmidt on Gaussian draws."""
    basis = []
    while len(basis) < 4:
        v = [mp.mpc(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
        for u in basis:
            overlap = mp.fsum(mp.conj(a) * b for a, b in zip(u, v))
            v = [b - overlap * a for a, b in zip(u, v)]
        norm = mp.sqrt(mp.fsum(abs(b) ** 2 for b in v))
        if norm > mp.mpf("0.1"):
            basis.append([b / norm for b in v])
    return basis


def float64_state(rng: random.Random, rank: int, tiny: int | None) -> list[list[complex]]:
    """A rank-`rank` density matrix, its smallest weight 10^-tiny if tiny is
    given, rounded to a Hermitian float64 matrix."""
    vectors = orthonormal_basis(rng)[:rank]
    small = [] if tiny is None else [mp.mpf(10) ** -tiny]
    draws = [mp.mpf(rng.uniform(0.1, 1.0)) for _ in range(rank - len(small))]
    total = mp.fsum(draws)
    weights = [(1 - mp.fsum(small)) * w / total for w in draws] + small
    rho = [[complex(0.0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            entry = mp.fsum(w * v[i] * mp.conj(v[j]) for w, v in zip(weights, vectors))
            im = float(entry.imag) if i != j else 0.0
            rho[j][i] = complex(float(entry.real), -im)
            rho[i][j] = complex(float(entry.real), im)  # the diagonal keeps +0.0
    return rho


def float64_basis(rng: random.Random) -> list[list[complex]]:
    """A random orthonormal qubit basis as float64 row kets."""
    t = mp.mpf(rng.uniform(0.0, math.pi / 2.0))
    f, a, b = (mp.mpf(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3))
    kets = [
        [mp.expj(a) * mp.cos(t), mp.expj(a + f) * mp.sin(t)],
        [-mp.expj(b - f) * mp.sin(t), mp.expj(b) * mp.cos(t)],
    ]
    return [[complex(float(x.real), float(x.imag)) for x in ket] for ket in kets]


def pauli_pair() -> tuple[list[list[complex]], list[list[complex]]]:
    s = 1.0 / math.sqrt(2.0)  # as in eulb.bounds.pauli_x
    return [[s, s], [s, -s]], [[1.0, 0.0], [0.0, 1.0]]


def complementarity(q: list[list[mp.mpc]], r: list[list[mp.mpc]]) -> mp.mpf:
    return max(
        abs(mp.fsum(mp.conj(x) * y for x, y in zip(qi, rj))) ** 2 for qi in q for rj in r
    )


def random_pair(rng: random.Random) -> tuple[list[list[complex]], list[list[complex]]]:
    lo, hi = COMPLEMENTARITY_RANGE
    while True:
        q, r = float64_basis(rng), float64_basis(rng)
        if lo < complementarity(to_mp(q), to_mp(r)) < hi:
            return q, r


def to_mp(rows: list[list[complex]]) -> list[list[mp.mpc]]:
    return [[mp.mpc(x.real, x.imag) for x in row] for row in rows]


def spectrum(m: mp.matrix) -> list[mp.mpf]:
    evals = mp.eighe(m, eigvals_only=True)
    values = [evals[i] for i in range(m.rows)]
    trace = mp.fsum(m[i, i] for i in range(m.rows)).real
    frobenius = mp.fsum(abs(m[i, j]) ** 2 for i in range(m.rows) for j in range(m.cols))
    if abs(mp.fsum(values) - trace) > mp.mpf(10) ** -35 or abs(
        mp.fsum(x * x for x in values) - frobenius
    ) > mp.mpf(10) ** -35:
        raise RuntimeError("spectrum disagrees with the trace or the Frobenius norm")
    return values


def branch(rho: mp.matrix, ket: list[mp.mpc]) -> mp.matrix:
    """The unnormalised memory state <k|rho|k> for a ket k of qubit A."""
    out = mp.zeros(2, 2)
    for b in range(2):
        for d in range(2):
            out[b, d] = mp.fsum(
                mp.conj(ket[a]) * rho[2 * a + b, 2 * c + d] * ket[c]
                for a in range(2)
                for c in range(2)
            )
    return out


def ledger(rho: mp.matrix, q: list[list[mp.mpc]], r: list[list[mp.mpc]]) -> dict[str, mp.mpf]:
    s_ab = entropy(spectrum(rho))
    s_a = entropy(spectrum(reduced(rho, "A")))
    s_b = entropy(spectrum(reduced(rho, "B")))

    def conditional_and_holevo(kets):
        branches = [branch(rho, k) for k in kets]
        s_qb = mp.fsum(entropy(spectrum(m)) for m in branches)  # block-diagonal QB state
        shannon = entropy([(m[0, 0] + m[1, 1]).real for m in branches])
        # S(Q|B) = S(QB) - S(B); I(Q;B) = S(Q) + S(B) - S(QB)
        return s_qb - s_b, shannon + s_b - s_qb

    cond_q, hol_q = conditional_and_holevo(q)
    cond_r, hol_r = conditional_and_holevo(r)
    mi = s_a + s_b - s_ab
    ce = s_ab - s_b
    delta = mi - hol_q - hol_r
    berta = -mp.log(complementarity(q, r), 2) + ce
    return {
        "u_left": cond_q + cond_r,
        "berta": berta,
        "adabi": berta + max(0, delta),
        "delta": delta,
        "holevo_q": hol_q,
        "holevo_r": hol_r,
        "mutual_info": mi,
        "cond_entropy": ce,
    }


def cases() -> list[tuple[str, list[list[complex]], list[list[complex]], list[list[complex]]]]:
    """(name, rho, q kets, r kets) for every case, in file order."""
    rng = random.Random(SEED)
    out = []
    for rank in range(1, 5):
        tiny_cycle = iter(TINY_EXPONENTS * CASES_PER_RANK)
        for i in range(CASES_PER_RANK):
            tiny = next(tiny_cycle) if rank > 1 and i % 2 else None
            rho = float64_state(rng, rank, tiny)
            paulis = i % 3 == 0
            q, r = pauli_pair() if paulis else random_pair(rng)
            name = f"rank{rank}_{i:02d}_{'xz' if paulis else 'random'}"
            if tiny is not None:
                name += f"_tiny1e-{tiny}"
            out.append((name, rho, q, r))
    return out


def _reprs(values) -> str:
    return " ".join(repr(float(x)) for x in values)


def main() -> None:
    mp.mp.dps = DPS + 10  # guard digits for the 40 written
    lines = [
        f"# ledger of general complex states, mpmath {mp.__version__} to {DPS} digits; inputs are",
        "# float64 reprs, row-major and space-separated, taken exactly (kets are rows);",
        "# written by tests/golden/capture_ledger_general.py",
        ",".join(["case", *INPUTS, *FIELDS]),
    ]
    for name, rho, q, r in cases():
        flat = [x for row in rho for x in row]
        kets = {"q": [x for row in q for x in row], "r": [x for row in r for x in row]}
        inputs = [_reprs(x.real for x in flat), _reprs(x.imag for x in flat)]
        for key in ("q", "r"):
            inputs += [_reprs(x.real for x in kets[key]), _reprs(x.imag for x in kets[key])]
        values = ledger(mp.matrix(to_mp(rho)), to_mp(q), to_mp(r))
        lines.append(",".join([name, *inputs] + [mp.nstr(values[f], DPS) for f in FIELDS]))
    OUT.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines) - 4} rows to {OUT}")


if __name__ == "__main__":
    main()
