"""Byte-for-byte gate on the rendered closed-form audit table.

tests/golden/audit.txt holds the stdout of ``eulb audit --p P`` for the
weights in P_VALUES, one table after another.  The table prints deviations
to three significant digits and the worst amplitude to two decimals, so a
change in evaluation order that moves a roundoff-level deviation shows up
here.

Regenerate (only when a change of the table is intended) with

    PYTHONPATH=src python tests/test_audit_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from eulb.cli import main

GOLDEN = Path(__file__).with_name("golden") / "audit.txt"
P_VALUES = (0.0, 1.0 / 3.0, 0.5, 1.0)


def render_audits() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for p in P_VALUES:
            assert main(["audit", "--p", repr(p)]) == 0
    return out.getvalue()


def test_audit_table_matches_golden():
    assert render_audits() == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    GOLDEN.write_text(render_audits(), encoding="ascii")
