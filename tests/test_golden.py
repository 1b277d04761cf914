"""Full-precision golden ledger gates.

tests/golden/ledger_mpmath.csv holds the eight ledger fields to 40 digits
for the evolved reference states at twelve amplitudes, from 0 and +-1e-12
to 1 - 1e-14 and 1 (written by tests/golden/capture_ledger.py);
bounds_record must reproduce them within MPMATH_ATOL.  The same states
conjugated by the unitary I x diag(1, e^{2i}) on B have the same ledger,
but imaginary parts, so they take the complex-arithmetic route; it must
reproduce the reference within MPMATH_COMPLEX_ATOL.  So must bounds_record
on tests/golden/ledger_general_mpmath.csv (written by
tests/golden/capture_ledger_general.py): 60 complex states of rank 1 to 4,
some with a smallest nonzero eigenvalue of 1e-8 to 1e-14, under sigma_x and
sigma_z or a random pair of qubit bases that are not mutually unbiased.

The figure presets' CSVs are pinned byte for byte by the SHA-256 of
everything from the header line on; the '#' metadata lines above it carry
the package version, so a version bump does not move the pins.

tests/golden/ledger.csv holds t, C(t) and every BoundsRecord field,
written with repr, for the four figure presets at 51 time points plus
fig 4 with the other memory level decaying.  The file was written by the
per-state (Jacobi) engine; any later engine must reproduce every column
within GOLDEN_ATOL.  The rendered 12-digit CSV cannot carry this gate:
its last digit flips under roundoff-level changes.  The presets run
through run_sweep, whose times and C(t) are its own columns.  The
channel always decays memory level 0, so fig4_excited1 is built by X_B
conjugation, since decay from level 1 is X_B AD(X_B rho X_B) X_B:
decay_amplitude on the grid, apply_memory_decay on the flipped state,
the flip undone, then bounds_record.

The golden ledger is never regenerated: a file written by today's engine
would erase the gate.  When a change moves the preset CSV bytes on
purpose, print the four PRESET_CSV_SHA256 values of the current tree with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from eulb.bounds import BoundsRecord, Observable, bounds_record, complementarity, pauli_x, pauli_z
from eulb.channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from eulb.reservoir import ReservoirParams, decay_amplitude
from eulb.sweep import figure_preset, run_sweep, write_sweep

GOLDEN = Path(__file__).with_name("golden") / "ledger.csv"
GOLDEN_ATOL = 1e-12
MPMATH_REFERENCE = Path(__file__).with_name("golden") / "ledger_mpmath.csv"
MPMATH_ATOL = 1e-14
# LAPACK's complex solver is off the 40-digit spectra by more than the real
# one near a vanishing eigenvalue (9.3e-15 on berta at worst here, 1.1e-14
# on delta for a rank-1 general state)
MPMATH_COMPLEX_ATOL = 2e-14
GENERAL_REFERENCE = Path(__file__).with_name("golden") / "ledger_general_mpmath.csv"
B_PHASE = np.kron(np.eye(2), np.diag([1.0, np.exp(2j)]))
FLIP_B = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
STEPS = 51
LEDGER_FIELDS = [f.name for f in dataclasses.fields(BoundsRecord)]
FIELDS = ["t", "amplitude", *LEDGER_FIELDS]  # the golden ledger's columns
CASES = {  # case: (figure preset, decaying memory level)
    "fig2": (2, 0),
    "fig3": (3, 0),
    "fig4": (4, 0),
    "fig5": (5, 0),
    "fig4_excited1": (4, 1),
}


def case_columns(case: str) -> dict[int, dict[str, np.ndarray]]:
    """The case's FIELDS columns on the STEPS-point grid, for each N in
    ascending order."""
    fig, excited = CASES[case]
    config = dataclasses.replace(figure_preset(fig), steps=STEPS)
    if not excited:
        out = run_sweep(config)
        times, amplitudes, ledgers = out.times, out.amplitudes, out.ledgers
    else:
        times = np.linspace(0.0, config.t_max_gamma0, config.steps)
        amplitudes, ledgers = {}, {}
        flipped = FLIP_B @ bell_diagonal_initial(config.p) @ FLIP_B
        for n in sorted(config.n_qubits_list):
            c = amplitudes[n] = decay_amplitude(ReservoirParams(1.0, config.lambda_over_gamma0, n), times)
            states = FLIP_B @ apply_memory_decay(flipped, c) @ FLIP_B
            ledgers[n] = bounds_record(states, pauli_x(), pauli_z())
    return {
        n: {"t": times, "amplitude": amplitudes[n], **dataclasses.asdict(ledger)}
        for n, ledger in ledgers.items()
    }


def load_golden() -> dict[str, list[tuple[int, list[float]]]]:
    lines = GOLDEN.read_text(encoding="ascii").splitlines()
    assert lines[0] == ",".join(["case", "n", *FIELDS])
    out: dict[str, list[tuple[int, list[float]]]] = {}
    for line in lines[1:]:
        case, n, *values = line.split(",")
        out.setdefault(case, []).append((int(n), [float(v) for v in values]))
    return out


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("case", list(CASES))
def test_ledger_matches_golden(golden, case):
    expected = golden[case]
    columns = case_columns(case)
    assert [n for n, column in columns.items() for _ in column["t"]] == [n for n, _ in expected]
    want = np.array([values for _, values in expected])
    worst = {}
    for name, w in zip(FIELDS, want.T):
        got = np.concatenate([column[name] for column in columns.values()])
        worst[name] = float(np.max(np.abs(got - w)))
    bad = {name: dev for name, dev in worst.items() if not dev <= GOLDEN_ATOL}
    assert not bad, f"{case}: columns off the golden ledger: {bad}"


def load_mpmath_reference() -> dict[tuple[str, str], list[tuple[float, list[float]]]]:
    """(state, p as written) -> [(c, the eight fields)] in file order."""
    out: dict[tuple[str, str], list[tuple[float, list[float]]]] = defaultdict(list)
    with MPMATH_REFERENCE.open(encoding="ascii") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            values = [float(row[name]) for name in LEDGER_FIELDS]
            out[(row["state"], row["p"])].append((float(row["c"]), values))
    return out


MPMATH_CASES = [
    ("max_entangled", ""),
    ("bell_diagonal", "0.0"),
    ("bell_diagonal", repr(1.0 / 3.0)),
    ("bell_diagonal", "0.5"),
    ("bell_diagonal", "1.0"),
]


def mpmath_deviations(case, unitary_on_b=None) -> dict[str, float]:
    """Worst deviation of each ledger field from the 40-digit reference over
    the case's twelve amplitudes, after conjugating the states by unitary_on_b."""
    state, p = case
    rows = load_mpmath_reference()[case]
    assert len(rows) == 12
    if state == "max_entangled":
        initial = max_entangled_initial()
    else:
        initial = bell_diagonal_initial(float(p))
    amplitudes = np.array([c for c, _ in rows])
    states = apply_memory_decay(initial, amplitudes)
    if unitary_on_b is not None:
        states = unitary_on_b @ states @ unitary_on_b.conj().T
        assert np.any(states.imag != 0.0)  # the stack takes the complex route
    ledger = bounds_record(states, pauli_x(), pauli_z())
    want = np.array([values for _, values in rows])
    return {
        name: float(np.max(np.abs(getattr(ledger, name) - w)))
        for name, w in zip(LEDGER_FIELDS, want.T)
    }


MPMATH_IDS = ["_".join(filter(None, case)) for case in MPMATH_CASES]


@pytest.mark.parametrize("case", MPMATH_CASES, ids=MPMATH_IDS)
def test_ledger_matches_mpmath(case):
    worst = mpmath_deviations(case)
    bad = {name: dev for name, dev in worst.items() if not dev <= MPMATH_ATOL}
    assert not bad, f"{case}: columns off the 40-digit ledger: {bad}"


@pytest.mark.parametrize("case", MPMATH_CASES, ids=MPMATH_IDS)
def test_complex_ledger_matches_mpmath(case):
    worst = mpmath_deviations(case, B_PHASE)
    bad = {name: dev for name, dev in worst.items() if not dev <= MPMATH_COMPLEX_ATOL}
    assert not bad, f"{case}: complex-route columns off the 40-digit ledger: {bad}"


def _floats(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=float)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_general_ledger_matches_mpmath(rank):
    with GENERAL_REFERENCE.open(encoding="ascii") as fh:
        rows = [
            row
            for row in csv.DictReader(line for line in fh if not line.startswith("#"))
            if row["case"].startswith(f"rank{rank}_")
        ]
    assert len(rows) == 15
    worst = dict.fromkeys(LEDGER_FIELDS, 0.0)
    for row in rows:
        rho = (_floats(row["rho_re"]) + 1j * _floats(row["rho_im"])).reshape(4, 4)
        kets = {key: _floats(row[key + "_re"]) + 1j * _floats(row[key + "_im"]) for key in "qr"}
        q, r = (Observable(key, k.reshape(2, 2)) for key, k in kets.items())
        assert np.linalg.matrix_rank(rho, tol=1e-15) == rank
        assert 0.5 - 1e-15 <= complementarity(q, r) < 1.0
        ledger = bounds_record(rho, q, r)
        for name in LEDGER_FIELDS:
            worst[name] = max(worst[name], abs(getattr(ledger, name) - float(row[name])))
    bad = {name: dev for name, dev in worst.items() if not dev <= MPMATH_COMPLEX_ATOL}
    assert not bad, f"rank {rank}: columns off the 40-digit general ledger: {bad}"


# SHA-256 of each preset CSV from its header line to the end of the file.
PRESET_CSV_SHA256 = {
    2: "a94126c0dff55574ec6e51a6047dacfae69bb37b35612ad1bfd06bfd1cd2ea5a",
    3: "8b5df4ead4235098035c75b914453bbbadba97676565bd5be027fcd800f66748",
    4: "1c7e0858db55e43de7e7b87178002c6a81a7607f6f8aa70ab512c5dfa261726b",
    5: "bda764dcca41aefaab100592c5418105a74d5692d20e654f05c0387ab53e354f",
}


@pytest.fixture(scope="module")
def preset_csvs(tmp_path_factory):
    """Each preset's CSV as eulb sweep writes it, and the dtypes of every
    stack np.linalg.eigvalsh saw while writing them."""
    out = tmp_path_factory.mktemp("presets")
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(m):
        seen.append(m.dtype)
        return eigvalsh(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", spy)
        for fig in PRESET_CSV_SHA256:
            write_sweep(figure_preset(fig), out / f"fig{fig}.csv")
    return {fig: (out / f"fig{fig}.csv").read_bytes() for fig in PRESET_CSV_SHA256}, seen


def body_sha256(csv_bytes: bytes) -> str:
    """SHA-256 of a CSV from its header line, the first line not starting with '#'."""
    lines = csv_bytes.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    return hashlib.sha256(b"".join(lines[header:])).hexdigest()


@pytest.mark.parametrize("fig", list(PRESET_CSV_SHA256))
def test_preset_csv_bytes_pinned(preset_csvs, fig):
    assert body_sha256(preset_csvs[0][fig]) == PRESET_CSV_SHA256[fig]


def test_presets_run_in_real_arithmetic(preset_csvs):
    # real initial states stay real through the channel, and sigma_x and
    # sigma_z have real kets, so no spectrum of the sweep is complex
    seen = preset_csvs[1]
    assert seen and set(seen) == {np.dtype(float)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for fig in PRESET_CSV_SHA256:
            path = Path(tmp) / f"fig{fig}.csv"
            write_sweep(figure_preset(fig), path)
            print(f'    {fig}: "{body_sha256(path.read_bytes())}",')
