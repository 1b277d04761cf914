"""Write amplitude_mpmath.csv: the decay amplitude C(t), evaluated at 40 digits
and written to 20 significant digits (float64 needs 17).

Each row is C(t) for gamma0 = 1 and one (lambda, N) pair, evaluated with
mpmath from the float64 lambda and t that the test passes, so the only
error left in a float64 route is its own.  The pairs are the eight preset
pairs (lambda in {0.1, 40}, N in {1, 2, 5, 10}), the critical coupling
lambda = 2N, and lambda = 2N (1 +- 10^-k) for k = 3..15; the times are every
50th point of the 2001-point grid on [0, 20] that the oracle command uses.

C(t) is written in the branch-free form ((N - 1) + exp(-lambda t / 2)
[F(s) + (lambda t / 2) G(s)]) / N with s = (lambda^2 - 2 N lambda) t^2 / 4,
F = cosh(sqrt s), G = sinh(sqrt s) / sqrt s (cos and sin for s < 0), and
every value is cross-checked against the first component of the 40-digit
matrix exponential of the kernel ODE.  mpmath is needed only to run this
script.  Run from the repository root:

    python3 tests/golden/capture_amplitude.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).with_name("amplitude_mpmath.csv")
DPS = 40
DIGITS = 20
N_VALUES = (1, 2, 5, 10)
GRID = np.linspace(0.0, 20.0, 2001)
EVERY = 50


def pairs() -> list[tuple[float, int]]:
    out = [(lam, n) for lam in (0.1, 40.0) for n in N_VALUES]
    out += [(2.0 * n, n) for n in N_VALUES]
    for k in range(3, 16):
        for sign in (1.0, -1.0):
            out += [(2.0 * n * (1.0 + sign * 10.0**-k), n) for n in N_VALUES]
    return out


def amplitude(lam: mp.mpf, n: int, t: mp.mpf) -> mp.mpf:
    s = (lam * lam - 2 * n * lam) * t * t / 4
    if s > 0:
        r = mp.sqrt(s)
        f, g = mp.cosh(r), mp.sinh(r) / r
    elif s < 0:
        r = mp.sqrt(-s)
        f, g = mp.cos(r), mp.sin(r) / r
    else:
        f = g = mp.mpf(1)
    return ((n - 1) + mp.exp(-lam * t / 2) * (f + lam * t / 2 * g)) / n


def amplitude_by_expm(lam: mp.mpf, n: int, t: mp.mpf) -> mp.mpf:
    a = mp.matrix([[0, -n], [lam / 2, -lam]])
    return ((n - 1) + mp.expm(a * t)[0, 0]) / n


def main() -> None:
    mp.mp.dps = DPS
    lines = [
        f"# C(t) for gamma0 = 1, mpmath {mp.__version__} at dps = {DPS}, written to {DIGITS} significant",
        "# digits; lambda and t are float64 reprs taken exactly; written by",
        "# tests/golden/capture_amplitude.py",
        "lambda,n_qubits,t,amplitude",
    ]
    for lam, n in pairs():
        for t in GRID[::EVERY].tolist():
            c = amplitude(mp.mpf(lam), n, mp.mpf(t))
            check = amplitude_by_expm(mp.mpf(lam), n, mp.mpf(t))
            if abs(c - check) > mp.mpf(10) ** (-30):
                raise RuntimeError(f"closed form and expm disagree at lambda={lam!r}, N={n}, t={t!r}")
            lines.append(f"{lam!r},{n},{t!r},{mp.nstr(c, DIGITS)}")
    OUT.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines) - 4} rows to {OUT}")


if __name__ == "__main__":
    main()
