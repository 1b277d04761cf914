"""Write ledger_mpmath.csv: the eight ledger fields to 40 digits.

Each row is the bounds ledger for Q = sigma_x, R = sigma_z on one evolved
reference state: the maximally entangled state, or the Bell-diagonal
mixture at p in {0, 1/3, 1/2, 1}, after the memory decay channel with
amplitude c (decaying level |0>).  The amplitudes are c in {0, +-1e-12,
1e-8, 1e-4, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-10, 1 - 1e-14, 1}.  Every value
is evaluated with mpmath from the float64 c and p that the test passes, so
the only error left in a float64 route is its own.

The state is built exactly (Bell projectors with entries +-1/2, the Kraus
pair K0 = c |0><0| + |1><1|, K1 = sqrt(1 - c^2) |1><0| on B), and every
entropy comes from a 40-digit symmetric eigensolve.  The joint spectrum is
cross-checked against the two 2x2 blocks of the X-shaped state solved by
the quadratic formula.  mpmath is needed only to run this script.  Run from
the repository root:

    python3 tests/golden/capture_ledger.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("ledger_mpmath.csv")
DPS = 40
FIELDS = (
    "u_left",
    "berta",
    "adabi",
    "delta",
    "holevo_q",
    "holevo_r",
    "mutual_info",
    "cond_entropy",
)
P_VALUES = (0.0, 1.0 / 3.0, 0.5, 1.0)
AMPLITUDES = (
    0.0,
    1e-12,
    -1e-12,
    1e-8,
    1e-4,
    0.1,
    0.5,
    0.9,
    1.0 - 1e-6,
    1.0 - 1e-10,
    1.0 - 1e-14,
    1.0,
)


def cases() -> list[tuple[str, float | None]]:
    return [("max_entangled", None)] + [("bell_diagonal", p) for p in P_VALUES]


def initial_state(state: str, p: float | None) -> mp.matrix:
    """The reference state in the basis |00>, |01>, |10>, |11>."""
    half = mp.mpf(1) / 2
    rho = mp.zeros(4, 4)
    if state == "max_entangled":
        for i in (0, 3):
            for j in (0, 3):
                rho[i, j] = half
        return rho
    p = mp.mpf(p)
    # p |psi-><psi-| + (1 - p)/2 (|psi+><psi+| + |phi+><phi+|)
    w = (1 - p) / 2
    for i in (0, 3):
        for j in (0, 3):
            rho[i, j] = w * half
    for i in (1, 2):
        for j in (1, 2):
            sign = 1 if i == j else -1
            rho[i, j] = p * half * sign + w * half
    return rho


def memory_decay(rho: mp.matrix, c: mp.mpf) -> mp.matrix:
    """sum_k (I x K_k) rho (I x K_k)^T for the real Kraus pair on B."""
    k0 = mp.matrix([[c, 0], [0, 1]])
    k1 = mp.matrix([[0, 0], [mp.sqrt(1 - c * c), 0]])
    out = mp.zeros(4, 4)
    for k in (k0, k1):
        lifted = mp.zeros(4, 4)
        for a in range(2):
            for b in range(2):
                for d in range(2):
                    lifted[2 * a + b, 2 * a + d] = k[b, d]
        out += lifted * rho * lifted.T
    return out


def spectrum(m: mp.matrix) -> list[mp.mpf]:
    evals, _ = mp.eigsy(m)
    return [evals[i] for i in range(m.rows)]


def entropy(evals: list[mp.mpf]) -> mp.mpf:
    """-sum x log2 x over a (possibly unnormalised) spectrum, 0 log 0 = 0."""
    return -mp.fsum(x * mp.log(x, 2) for x in evals if x > 0)


def block(rho: mp.matrix, rows: tuple[int, int]) -> mp.matrix:
    return mp.matrix([[rho[i, j] for j in rows] for i in rows])


def quadratic_spectrum(m: mp.matrix) -> list[mp.mpf]:
    mean = (m[0, 0] + m[1, 1]) / 2
    radius = mp.sqrt(((m[0, 0] - m[1, 1]) / 2) ** 2 + m[0, 1] * m[1, 0])
    return [mean - radius, mean + radius]


def reduced(rho: mp.matrix, keep: str) -> mp.matrix:
    out = mp.zeros(2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "A":
                    out[i, j] += rho[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


def branch(rho: mp.matrix, ket: list[mp.mpf]) -> mp.matrix:
    """The unnormalised memory state <k|rho|k> for a real ket k of qubit A."""
    out = mp.zeros(2, 2)
    for b in range(2):
        for d in range(2):
            out[b, d] = mp.fsum(
                ket[a] * rho[2 * a + b, 2 * c + d] * ket[c] for a in range(2) for c in range(2)
            )
    return out


def ledger(rho: mp.matrix) -> dict[str, mp.mpf]:
    s = mp.sqrt(mp.mpf(1) / 2)
    joint = spectrum(rho)
    check = quadratic_spectrum(block(rho, (0, 3))) + quadratic_spectrum(block(rho, (1, 2)))
    if max(abs(x - y) for x, y in zip(sorted(joint), sorted(check))) > mp.mpf(10) ** -30:
        raise RuntimeError("joint spectrum disagrees with the X-state blocks")
    s_ab = entropy(joint)
    s_a = entropy(spectrum(reduced(rho, "A")))
    s_b = entropy(spectrum(reduced(rho, "B")))

    def conditional_and_holevo(kets):
        branches = [branch(rho, k) for k in kets]
        s_qb = mp.fsum(entropy(spectrum(m)) for m in branches)  # block-diagonal QB state
        probs = [m[0, 0] + m[1, 1] for m in branches]
        shannon = entropy(probs)
        # S(Q|B) = S(QB) - S(B); I(Q;B) = S(Q) + S(B) - S(QB)
        return s_qb - s_b, shannon + s_b - s_qb

    cond_x, hol_x = conditional_and_holevo([[s, s], [s, -s]])
    cond_z, hol_z = conditional_and_holevo([[1, 0], [0, 1]])
    mi = s_a + s_b - s_ab
    ce = s_ab - s_b
    delta = mi - hol_x - hol_z
    berta = 1 + ce  # log2(1 / c) with c = 1/2 for sigma_x and sigma_z
    return {
        "u_left": cond_x + cond_z,
        "berta": berta,
        "adabi": berta + max(0, delta),
        "delta": delta,
        "holevo_q": hol_x,
        "holevo_r": hol_z,
        "mutual_info": mi,
        "cond_entropy": ce,
    }


def main() -> None:
    mp.mp.dps = DPS + 10  # guard digits for the 40 written
    lines = [
        f"# ledger for Q = sigma_x, R = sigma_z, mpmath {mp.__version__} to {DPS} digits; p and c",
        "# are float64 reprs taken exactly; written by tests/golden/capture_ledger.py",
        ",".join(["state", "p", "c", *FIELDS]),
    ]
    for state, p in cases():
        initial = initial_state(state, p)
        for c in AMPLITUDES:
            values = ledger(memory_decay(initial, mp.mpf(c)))
            p_text = "" if p is None else repr(p)
            row = [state, p_text, repr(c)] + [mp.nstr(values[f], DPS) for f in FIELDS]
            lines.append(",".join(row))
    OUT.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines) - 3} rows to {OUT}")


if __name__ == "__main__":
    main()
