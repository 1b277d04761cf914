from __future__ import annotations

import inspect
import re
from pathlib import Path

import eulb

README = Path(__file__).resolve().parents[1] / "README.md"


def test_export_list_matches_namespace():
    missing = [name for name in eulb.__all__ if not hasattr(eulb, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(eulb).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public - set(eulb.__all__) == set()
    assert len(eulb.__all__) == len(set(eulb.__all__))


def test_public_api_is_pinned():
    # any change to the public API shows up in this list's diff
    assert set(eulb.__all__) == {
        "__version__",
        "AmplitudeTrajectory",
        "BoundsRecord",
        "ConfigError",
        "DiscrepancyReport",
        "ModeGrid",
        "Observable",
        "OracleReport",
        "ReservoirParams",
        "SweepConfig",
        "SweepOutput",
        "apply_memory_decay",
        "bell_diagonal_initial",
        "binary_entropy",
        "bounds_record",
        "build_mode_grid",
        "closed_form_report",
        "complementarity",
        "decay_amplitude",
        "discrepancy_report",
        "discrete_mode_oracle",
        "eigenvalues_hermitian",
        "evolved_bell_diagonal_closed_form",
        "figure_preset",
        "format_config",
        "kernel_ode_oracle",
        "max_entangled_initial",
        "oracle_report",
        "parse_config",
        "pauli_x",
        "pauli_z",
        "run_sweep",
        "von_neumann_entropy",
        "write_sweep",
    }


def test_readme_python_examples_run(capsys):
    # the README's python blocks run in order in one namespace, so a
    # signature change cannot leave them stale
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "(2001,)" in capsys.readouterr().out
