"""Full-precision golden ledger gates.

tests/golden/ledger_mpmath.csv holds the eight ledger fields to 40 digits
for the evolved reference states at twelve amplitudes, from 0 and +-1e-12
to 1 - 1e-14 and 1 (written by tests/golden/capture_ledger.py);
bounds_record must reproduce them within MPMATH_ATOL.

tests/golden/ledger.csv holds every BoundsRecord field, written with repr,
for the four figure presets at 51 time points plus fig 4 with the other
memory level decaying.  The file was written by the per-state (Jacobi)
engine; any later engine must reproduce every column within GOLDEN_ATOL.
The rendered 12-digit CSV cannot carry this gate: its last digit flips
under roundoff-level changes.

Regenerate (only when a change of the values is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import dataclasses
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from eulb.bounds import BoundsRecord, bounds_record, pauli_x, pauli_z
from eulb.channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from eulb.sweep import figure_preset, run_sweep

GOLDEN = Path(__file__).with_name("golden") / "ledger.csv"
GOLDEN_ATOL = 1e-12
MPMATH_REFERENCE = Path(__file__).with_name("golden") / "ledger_mpmath.csv"
MPMATH_ATOL = 1e-14
STEPS = 51
FIELDS = [f.name for f in dataclasses.fields(BoundsRecord)]
MPMATH_FIELDS = FIELDS[2:]  # the ledger, without t and amplitude
CASES = {
    "fig2": (2, 0),
    "fig3": (3, 0),
    "fig4": (4, 0),
    "fig5": (5, 0),
    "fig4_excited1": (4, 1),
}


def case_config(case: str):
    fig, excited = CASES[case]
    return dataclasses.replace(figure_preset(fig), steps=STEPS, excited_label=excited)


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
    ledgers = run_sweep(case_config(case)).ledgers
    assert [n for n, ledger in ledgers.items() for _ in ledger.t] == [n for n, _ in expected]
    want = np.array([values for _, values in expected])
    worst = {}
    for name, w in zip(FIELDS, want.T):
        got = np.concatenate([getattr(ledger, name) for ledger in ledgers.values()])
        worst[name] = float(np.max(np.abs(got - w)))
    bad = {name: dev for name, dev in worst.items() if not dev <= GOLDEN_ATOL}
    assert not bad, f"{case}: columns off the golden ledger: {bad}"


def load_mpmath_reference() -> dict[tuple[str, str], list[tuple[float, list[float]]]]:
    """(state, p as written) -> [(c, the eight fields)] in file order."""
    out: dict[tuple[str, str], list[tuple[float, list[float]]]] = defaultdict(list)
    with MPMATH_REFERENCE.open(encoding="ascii") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            values = [float(row[name]) for name in MPMATH_FIELDS]
            out[(row["state"], row["p"])].append((float(row["c"]), values))
    return out


MPMATH_CASES = [
    ("max_entangled", ""),
    ("bell_diagonal", "0.0"),
    ("bell_diagonal", repr(1.0 / 3.0)),
    ("bell_diagonal", "0.5"),
    ("bell_diagonal", "1.0"),
]


@pytest.mark.parametrize("case", MPMATH_CASES, ids=lambda case: "_".join(filter(None, case)))
def test_ledger_matches_mpmath(case):
    state, p = case
    rows = load_mpmath_reference()[case]
    assert len(rows) == 12
    if state == "max_entangled":
        initial = max_entangled_initial()
    else:
        initial = bell_diagonal_initial(float(p))
    amplitudes = np.array([c for c, _ in rows])
    ledger = bounds_record(apply_memory_decay(initial, amplitudes), pauli_x(), pauli_z())
    want = np.array([values for _, values in rows])
    worst = {
        name: float(np.max(np.abs(getattr(ledger, name) - w)))
        for name, w in zip(MPMATH_FIELDS, want.T)
    }
    bad = {name: dev for name, dev in worst.items() if not dev <= MPMATH_ATOL}
    assert not bad, f"{state} p={p}: columns off the 40-digit ledger: {bad}"


def write_golden() -> None:
    lines = [",".join(["case", "n", *FIELDS])]
    for case in CASES:
        for n, ledger in run_sweep(case_config(case)).ledgers.items():
            for i in range(len(ledger.t)):
                values = [repr(float(getattr(ledger, f)[i])) for f in FIELDS]
                lines.append(",".join([case, str(n)] + values))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    write_golden()
