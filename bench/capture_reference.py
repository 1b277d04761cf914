"""Write reference/figures_ledger.csv: every 50th time point of each preset sweep.

The committed file was captured from the initial eulb code; the figures
workload compares its output against it.  Run from the repository root:

    python3 bench/capture_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import eulb  # noqa: E402
from eulb.sweep import render_csv  # noqa: E402

from workloads import FIGS, REFERENCE  # noqa: E402

EVERY = 50


def main() -> None:
    lines = ["fig," + eulb.sweep.CSV_HEADER]
    for k in FIGS:
        config = eulb.figure_preset(k)
        rows = [ln for ln in render_csv(eulb.run_sweep(config)).splitlines() if ln[:1].isdigit()]
        lines += [f"{k},{row}" for i, row in enumerate(rows) if (i % config.steps) % EVERY == 0]
    REFERENCE.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines) - 1} rows to {REFERENCE}")


if __name__ == "__main__":
    main()
