from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import io
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import eulb
import eulb.audit as audit_mod
import eulb.linalg as linalg_mod
import eulb.sweep as sweep_mod

README = Path(__file__).resolve().parents[1] / "README.md"
_SOURCES = sorted(Path(eulb.__file__).parent.glob("*.py"))


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
    ("Observable", "kets", lambda v: eulb.Observable("q", v).kets, [[0, 1], [1, 0]]),
    (
        "ModeGrid",
        "frequencies",
        lambda v: eulb.discrete_mode_oracle(_PARAMS, [0, 1], eulb.ModeGrid(v, [1, 1])).amplitudes,
        [-1, 1],
    ),
    (
        "ModeGrid",
        "couplings",
        lambda v: eulb.discrete_mode_oracle(_PARAMS, [0, 1], eulb.ModeGrid([-1, 1], v)).amplitudes,
        [1, 2],
    ),
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


def _called_names(node: ast.AST) -> set[str]:
    return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def _converting_calls() -> set[tuple[str, str]]:
    """(caller, callee) for every call, from a function of src/eulb outside
    cli, to a public function that converts an argument with _inexact,
    directly or through the package's private helpers."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in _SOURCES}
    calls = {  # each module-level function (no two share a name) -> the names it calls
        node.name: _called_names(node)
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    private = {"_inexact"}  # and the private helpers that reach it
    while grown := {n for n, called in calls.items() if n[0] == "_" and n not in private and called & private}:
        private |= grown
    public = {name for name, called in calls.items() if name[0] != "_" and called & private}
    return {
        (node.name, callee)
        for stem, tree in trees.items()
        if stem != "cli"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for callee in _called_names(node) & public
    }


def test_pipeline_calls_cores_not_checked_entry_points():
    # every public numeric entry point converts its input once; the sweep and
    # the audit call the private cores (_amplitude, _decay, _tabulated_bell)
    # on arrays they built, so a call added to this set is a re-check
    assert _converting_calls() == {
        ("_ledger_blocks", "bounds_record"),  # the ledger's one Hermiticity check
        ("oracle_report", "decay_amplitude"),  # the oracles stay public callers
        ("oracle_report", "kernel_ode_oracle"),
        ("oracle_report", "discrete_mode_oracle"),
        # the tabulated closed forms, audit targets written with binary_entropy
        ("closed_form_max_ent_lhs", "binary_entropy"),
        ("closed_form_max_ent_delta", "binary_entropy"),
        ("closed_form_max_ent_bound", "binary_entropy"),
        ("closed_form_bell_lhs", "binary_entropy"),
        ("closed_form_bell_delta", "binary_entropy"),
        ("closed_form_bell_bound", "binary_entropy"),
    }


@pytest.fixture
def conversions(monkeypatch) -> Counter:
    """The argument names of every _inexact call, in every module that binds it."""
    names: Counter = Counter()
    inexact = linalg_mod._inexact

    def counting(value, name, real=False):
        names[name] += 1
        return inexact(value, name, real)

    for module in [importlib.import_module(f"eulb.{path.stem}") for path in _SOURCES if path.stem != "__init__"]:
        if hasattr(module, "_inexact"):
            monkeypatch.setattr(module, "_inexact", counting)
    return names


def test_sweep_converts_one_argument_a_block(conversions):
    # the ledger's rho a block, and the two observables' kets
    config = eulb.figure_preset(2)
    eulb.write_sweep(config, io.BytesIO())
    blocks = len(config.n_qubits_list) * -(-config.steps // sweep_mod._LEDGER_ROWS)
    assert blocks == 8
    assert conversions == Counter(rho=blocks, kets=2)


def test_audit_converts_each_block_once(conversions):
    # the ledger's rho a block, and x once per binary_entropy
    # call of the ten closed forms over the whole grid
    eulb.discrepancy_report(0.5)
    blocks = -(-101 // audit_mod._AUDIT_BLOCK)
    assert blocks == 7
    assert conversions == Counter(x=11, rho=blocks)


def test_binary_entropy_converts_once(conversions):
    assert eulb.binary_entropy(0.3) == pytest.approx(0.8812908992306927, abs=1e-15)
    assert conversions == Counter(x=1)
