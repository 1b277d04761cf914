from __future__ import annotations

import gc
import re
import warnings

import pytest

import eulb
import eulb.cli as cli_mod
import eulb.sweep as sweep_mod
from eulb.cli import build_parser, main

SMALL_CONFIG = """\
state = max_entangled
lambda_over_gamma0 = 2.0
n_qubits_list = 1, 2
t_max_gamma0 = 2
steps = 41
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def test_sweep_from_config(tmp_path, config_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    assert "wrote 82 rows" in capsys.readouterr().out
    lines = out.read_bytes().decode("ascii").splitlines()
    assert lines[0].startswith("# eulb")


def test_sweep_deterministic(tmp_path, config_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_pass(config_path, capsys):
    assert main(["oracle", "--config", str(config_path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_preset_matches_its_config(tmp_path, capsys):
    path = tmp_path / "fig3.cfg"
    path.write_text(eulb.format_config(eulb.figure_preset(3)))
    assert main(["oracle", "--config", str(path)]) == 0
    from_config = capsys.readouterr().out
    assert main(["oracle", "--fig", "3"]) == 0
    assert capsys.readouterr().out == from_config and "lambda/gamma0 = 40" in from_config


@pytest.mark.parametrize("source", [[], ["--fig", "3", "--config", "x.cfg"], ["--fig", "7"]])
def test_oracle_needs_one_source(source, capsys):
    assert main(["oracle", *source]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_closed(config_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["oracle", "--config", str(config_path)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_oracle_with_discrete_modes(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "state = max_entangled\nlambda_over_gamma0 = 1.0\n"
        "n_qubits_list = 1\nt_max_gamma0 = 1\nsteps = 11\n"
    )
    code = main(["oracle", "--config", str(path), "--discrete-modes", "300"])
    assert code == 0
    assert "discrete-mode" in capsys.readouterr().out


def test_oracle_tolerance_failure_exits_2(config_path, monkeypatch, capsys):
    monkeypatch.setattr(sweep_mod, "KERNEL_ORACLE_TOL", 1e-30)
    assert main(["oracle", "--config", str(config_path)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_audit(capsys):
    assert main(["audit", "--p", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "FLAGGED" in out and "CONSISTENT" in out


def test_audit_bad_p_exits_1(capsys):
    assert main(["audit", "--p", "1.5"]) == 1
    assert "error" in capsys.readouterr().err


def test_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("state = wrong\nlambda_over_gamma0 = 1\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg"), "--out", "x.csv"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_bad_preset_exits_1(tmp_path, capsys):
    assert main(["sweep", "--fig", "7", "--out", str(tmp_path / "x.csv")]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_oracle_help_names_the_mode_count_m(monkeypatch, capsys):
    # N is the qubit count in the report and the errors; the mode count is M
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["oracle", "--help"]) == 0
    out = capsys.readouterr().out
    assert "[--discrete-modes M]" in out
    assert "--discrete-modes N" not in out
    assert "an unresolved M exits 1 and names a larger count" in out


TINY_CONFIG = (
    "state = max_entangled\nlambda_over_gamma0 = 1.0\n"
    "n_qubits_list = 1\nt_max_gamma0 = 1\nsteps = 11\n"
)


@pytest.mark.parametrize("modes", ["0", "-3", "1000001"])
def test_oracle_bad_discrete_modes_exits_1(tmp_path, capsys, modes):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    # 1000001 modes is rejected before the mode grid is allocated
    assert main(["oracle", "--config", str(path), "--discrete-modes", modes]) == 1
    captured = capsys.readouterr()
    assert "n_modes" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("command", ["sweep", "oracle"])
def test_qubit_count_too_large_for_a_float_exits_1(tmp_path, capsys, command):
    # 10**400 written out in digits used to end in an OverflowError traceback
    path = tmp_path / "huge.cfg"
    path.write_text(TINY_CONFIG.replace("n_qubits_list = 1", f"n_qubits_list = 1, {10**400}"))
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "sweep" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: n_qubits must be an integer in [1, 2**53]")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["sweep", "oracle"])
def test_rate_that_overflows_exits_1(tmp_path, capsys, command):
    # lambda = 1e300 gamma0 overflowed lambda^2: sweep failed on a NaN
    # amplitude with a misleading message, and oracle printed nan ... FAIL
    path = tmp_path / "huge.cfg"
    path.write_text(TINY_CONFIG.replace("lambda_over_gamma0 = 1.0", "lambda_over_gamma0 = 1e300"))
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "sweep" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: lambda_ * max(lambda_, 2 n_qubits gamma0)")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["sweep", "oracle"])
@pytest.mark.parametrize("source", ["--config", "--fig"])
def test_run_checks_its_config_once(tmp_path, monkeypatch, capsys, command, source):
    # a SweepConfig checks lambda_over_gamma0 and t_max_gamma0 when it is
    # built, and nothing checks it again: a --config run used to check both
    # twice, in parse_config and again before the sweep or the oracle
    calls = []
    is_positive_finite = sweep_mod._is_positive_finite

    def counting(value):
        calls.append(value)
        return is_positive_finite(value)

    monkeypatch.setattr(sweep_mod, "_is_positive_finite", counting)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    out = tmp_path / "out.csv"
    argv = [command, source, str(path) if source == "--config" else "2"]
    assert main(argv + (["--out", str(out)] if command == "sweep" else [])) == 0
    assert len(calls) == 2


def test_sweep_to_unwritable_path_exits_1_before_the_ledger(tmp_path, monkeypatch, capsys):
    # the destination is opened before the first block is computed
    def no_ledger(*args, **kwargs):
        raise AssertionError("ledger evaluated before the file was opened")

    monkeypatch.setattr(sweep_mod, "bounds_record", no_ledger)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    out = tmp_path / "missing" / "out.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: failed to write CSV to {out}")


def test_oracle_step_count_beyond_float_range_exits_1(tmp_path, capsys):
    # span ||A|| / 2 overflows: the kernel ODE's step count used to end in an
    # OverflowError traceback
    path = tmp_path / "long.cfg"
    path.write_text(
        "state = max_entangled\nlambda_over_gamma0 = 1e-300\n"
        "n_qubits_list = 9007199254740992\nt_max_gamma0 = 1e300\nsteps = 3\n"
    )
    assert main(["oracle", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: grid span 5e+299 needs over 1e308 steps")
    assert captured.out == ""


def test_window_option_removed(capsys):
    # the window is fixed at 20 lambda; the mode count is the one setting
    assert main(["oracle", "--fig", "3", "--window", "20"]) == 1
    assert "unrecognized arguments: --window" in capsys.readouterr().err


def test_oracle_single_mode_refused(tmp_path, monkeypatch, capsys):
    # one mode has no coarser grid: ceil(1 / 2) = 1 would read as resolved
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)

    def propagate(*args, **kwargs):
        raise AssertionError("the discrete-mode oracle ran")

    monkeypatch.setattr(sweep_mod, "discrete_mode_oracle", propagate)
    assert main(["oracle", "--config", str(path), "--discrete-modes", "1"]) == 1
    captured = capsys.readouterr()
    assert "1 discrete mode has no coarser grid" in captured.err
    assert captured.out == ""


# lambda = gamma0: the qubits' spectral weight sits off resonance, where the
# equal-weight modes are sparse, so few modes fail without recurring
OFF_RESONANT_CONFIG = (
    "state = max_entangled\nlambda_over_gamma0 = 1.0\n"
    "n_qubits_list = 1\nt_max_gamma0 = 15\nsteps = 301\n"
)


def test_oracle_refuses_unresolved_modes(tmp_path, capsys):
    # 24 modes deviate by 3.8e-2, and C(t) moves by 0.262 against 12 modes,
    # far beyond the tolerance: no check of the closed form, so exit 1 and
    # ceil(24 (0.262 / 5e-3)^(2/3)) = 336
    path = tmp_path / "off.cfg"
    path.write_text(OFF_RESONANT_CONFIG)
    assert main(["oracle", "--config", str(path), "--discrete-modes", "24"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 24 discrete modes are unresolved: C(t) moves by 0.262")
    assert "at N = 1 against the 12-mode grid (tol 0.005)" in captured.err
    assert "--discrete-modes 336 or more" in captured.err
    assert captured.out == ""


def test_oracle_named_mode_count_passes(tmp_path, capsys):
    # the count that the refusal names must itself pass
    path = tmp_path / "off.cfg"
    path.write_text(OFF_RESONANT_CONFIG)
    assert main(["oracle", "--config", str(path), "--discrete-modes", "24"]) == 1
    needed = re.search(r"--discrete-modes (\d+) or more", capsys.readouterr().err).group(1)
    assert main(["oracle", "--config", str(path), "--discrete-modes", needed]) == 0
    assert capsys.readouterr().out.rstrip().endswith("result: PASS")


def test_oracle_resolved_disagreement_exits_2(tmp_path, monkeypatch, capsys):
    # a closed form off by 0.1 fails every row at a resolved 300 modes; the
    # failing rows are rerun on 150 modes, which agree, so the failure is
    # the closed form's: exit 2
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG.replace("n_qubits_list = 1", "n_qubits_list = 1, 2"))
    closed, propagate = sweep_mod.decay_amplitude, sweep_mod.discrete_mode_oracle
    runs = []

    def counted(params, times, modes):
        runs.append((params.n_qubits, modes.n_modes))
        return propagate(params, times, modes)

    monkeypatch.setattr(sweep_mod, "decay_amplitude", lambda *args: closed(*args) + 0.1)
    monkeypatch.setattr(sweep_mod, "discrete_mode_oracle", counted)
    assert main(["oracle", "--config", str(path), "--discrete-modes", "300"]) == 2
    assert runs == [(1, 300), (1, 150), (2, 300), (2, 150)]
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "result: FAIL"
    assert all(line.endswith("FAIL") for line in lines if "discrete-mode N=" in line)


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys):
    # main builds its parser on the first call, not at import, and reuses it
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli_mod, "build_parser", counting)
    cli_mod._parser.cache_clear()
    try:
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_CONFIG)
        assert main(["oracle", "--config", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["audit", "--p", "2"]) == 1  # a validation error between two valid calls
        assert main(["oracle", "--config", str(path), "--discrete-modes", "x"]) == 1  # a usage error
        capsys.readouterr()
        assert main(["oracle", "--config", str(path)]) == 0
        assert capsys.readouterr().out == first
        assert built == [1]
    finally:
        cli_mod._parser.cache_clear()  # later tests build the real parser afresh


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0_twice(flag, capsys):
    outputs = []
    for _ in range(2):
        assert main([flag]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
