from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

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


_PARAMS = eulb.ReservoirParams(1.0, 1.0, 2)
_X, _Z = eulb.pauli_x(), eulb.pauli_z()
_PAIR = np.stack([eulb.max_entangled_initial()] * 2)

# Every public numeric argument: its entry point, the name its error gives,
# a call that puts a value in its place and returns arrays, and a valid
# integer-valued value as nested Python lists.
NUMERIC_ARGUMENTS = [
    ("decay_amplitude", "t", lambda v: eulb.decay_amplitude(_PARAMS, v), [0, 1, 2]),
    ("kernel_ode_oracle", "t_grid", lambda v: eulb.kernel_ode_oracle(_PARAMS, v).amplitudes, [0, 1, 2]),
    (
        "discrete_mode_oracle",
        "t_grid",
        lambda v: eulb.discrete_mode_oracle(_PARAMS, v, eulb.build_mode_grid(_PARAMS, 40)).amplitudes,
        [0, 1, 2],
    ),
    (
        "apply_memory_decay",
        "rho",
        lambda v: eulb.apply_memory_decay(v, 0.5),
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]],
    ),
    (
        "apply_memory_decay",
        "channel amplitude",
        lambda v: eulb.apply_memory_decay(eulb.max_entangled_initial(), v),
        [1, 0, -1],
    ),
    (
        "bounds_record",
        "rho",
        lambda v: dataclasses.astuple(eulb.bounds_record(v, _X, _Z)),
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ),
    ("bounds_record", "t", lambda v: dataclasses.astuple(eulb.bounds_record(_PAIR, _X, _Z, t=v)), [0, 3]),
    (
        "bounds_record",
        "amplitude",
        lambda v: dataclasses.astuple(eulb.bounds_record(_PAIR, _X, _Z, amplitude=v)),
        [1, 0],
    ),
    ("Observable", "kets", lambda v: eulb.Observable("q", v).kets, [[0, 1], [1, 0]]),
    ("eigenvalues_hermitian", "m", eulb.eigenvalues_hermitian, [[2, 1], [1, 2]]),
    ("von_neumann_entropy", "rho", eulb.von_neumann_entropy, [[1, 0], [0, 0]]),
    ("binary_entropy", "x", eulb.binary_entropy, [0, 1]),
    (
        "closed_form_report",
        "amplitude",
        lambda v: [(row.closed_form, row.definition) for row in eulb.closed_form_report(v)],
        [0, 1],
    ),
    (
        "evolved_bell_diagonal_closed_form",
        "c",
        lambda v: eulb.evolved_bell_diagonal_closed_form(0.5, v),
        [0, 1],
    ),
]
_IDS = [f"{entry}-{name}" for entry, name, _, _ in NUMERIC_ARGUMENTS]


@pytest.mark.parametrize("bad", ["0.5", b"1", True, np.True_, None, [True, 0.5]], ids=repr)
@pytest.mark.parametrize(("entry", "name", "call", "valid"), NUMERIC_ARGUMENTS, ids=_IDS)
def test_non_numeric_input_is_refused_by_name(entry, name, call, valid, bad):
    # numpy alone parses "0.5", reads True as 1 and promotes the True in
    # [True, 0.5] to 1.0; each entry point refuses them all
    with pytest.raises(ValueError, match=rf"^{name} must be a real"):
        call(bad)


@pytest.mark.parametrize(("entry", "name", "call", "valid"), NUMERIC_ARGUMENTS, ids=_IDS)
def test_int_and_float_lists_equal_float_arrays(entry, name, call, valid):
    expected = np.asarray(call(np.array(valid, dtype=float)), dtype=float)
    as_floats = np.array(valid, dtype=float).tolist()
    for value in (valid, as_floats, np.array(valid)):
        assert np.array_equal(np.asarray(call(value), dtype=float), expected)


def _eulb_imports(path: Path) -> set[str]:
    """The package modules that one source file imports ("__init__" for the package)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("eulb")):
            module = (node.module or "").removeprefix("eulb").lstrip(".")
            found.add(module.split(".")[0] or "__init__")
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("eulb."))
    return found


def test_module_layering():
    # the numeric-input rule lives in linalg, the base module, so no
    # ledger or audit module reaches into the reservoir physics for it
    sources = {path.stem: path for path in Path(eulb.__file__).parent.glob("*.py")}
    imports = {stem: _eulb_imports(path) for stem, path in sources.items()}
    assert imports["linalg"] == set()
    assert {stem for stem, found in imports.items() if "reservoir" in found} == {"sweep", "__init__"}
