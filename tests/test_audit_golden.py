"""Byte-for-byte gates on the rendered audit and oracle reports.

tests/golden/audit.txt holds the stdout of ``eulb audit --p P`` for the
weights in P_VALUES, one table after another.  The table prints deviations
to three significant digits and the worst amplitude to two decimals, so a
change in evaluation order that moves a roundoff-level deviation shows up
here.  tests/golden/oracle.txt holds the stdout of ``eulb oracle`` for each
argument list in ORACLE_ARGS the same way.  ``eulb oracle --fig 3
--discrete-modes 2000`` takes ~2.3 s, so tier-1 leaves it out: CI diffs its
stdout against tests/golden/oracle_fig3_discrete.txt.

Regenerate all three (only when a change of the text is intended) with

    PYTHONPATH=src python tests/test_audit_golden.py
"""

from __future__ import annotations

import contextlib
import io
from collections.abc import Iterable
from pathlib import Path

from eulb.cli import main

GOLDEN = Path(__file__).with_name("golden") / "audit.txt"
P_VALUES = (0.0, 1.0 / 3.0, 0.5, 1.0)
ORACLE_GOLDEN = GOLDEN.with_name("oracle.txt")
ORACLE_ARGS = (("--fig", "2"), ("--fig", "3"), ("--fig", "2", "--discrete-modes", "2000"))
FIG3_DISCRETE_GOLDEN = GOLDEN.with_name("oracle_fig3_discrete.txt")


def _stdout(runs: Iterable[list[str]]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in runs:
            assert main(argv) == 0
    return out.getvalue()


def render_audits() -> str:
    return _stdout(["audit", "--p", repr(p)] for p in P_VALUES)


def render_oracles() -> str:
    return _stdout(["oracle", *args] for args in ORACLE_ARGS)


def test_audit_table_matches_golden():
    assert render_audits() == GOLDEN.read_text(encoding="ascii")


def test_oracle_report_matches_golden():
    assert render_oracles() == ORACLE_GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    GOLDEN.write_text(render_audits(), encoding="ascii")
    ORACLE_GOLDEN.write_text(render_oracles(), encoding="ascii")
    fig3 = _stdout([["oracle", "--fig", "3", "--discrete-modes", "2000"]])
    FIG3_DISCRETE_GOLDEN.write_text(fig3, encoding="ascii")
