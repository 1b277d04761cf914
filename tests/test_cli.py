from __future__ import annotations

import gc
import re
import warnings

import pytest

import eulb
import eulb.sweep as sweep_mod
from eulb.cli import main

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


def test_oracle_single_mode_propagates(tmp_path, capsys):
    # one mode has no spacing, so no recurrence refuses it: it propagates,
    # and fails the tolerance on its own (a Rabi oscillation, not a decay)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    assert main(["oracle", "--config", str(path), "--discrete-modes", "1"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "result: FAIL"
    assert "discrete-mode N=1" in lines[-3] and lines[-3].endswith("FAIL")


def test_oracle_refuses_recurring_modes_before_propagating(tmp_path, monkeypatch, capsys):
    # fig 3: 300 equal-weight modes over a window of 20 lambda = 800 recur at
    # 2 pi over their smallest spacing, 15.49, before the grid end 20; the
    # refusal names ceil(1.5 * 20 * 300 / 15.49) = 581
    path = tmp_path / "fig3.cfg"
    path.write_text(eulb.format_config(eulb.figure_preset(3)))

    def propagate(*args, **kwargs):
        raise AssertionError("the discrete-mode oracle ran")

    monkeypatch.setattr(sweep_mod, "discrete_mode_oracle", propagate)
    assert main(["oracle", "--config", str(path), "--discrete-modes", "300"]) == 1
    captured = capsys.readouterr()
    assert "recur at gamma0 t = 15.4926 (2 pi over the smallest mode spacing)" in captured.err
    assert "--discrete-modes 581 or more" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(("modes", "code"), [("95", 1), ("96", 2)])
def test_oracle_recurrence_check_boundary(tmp_path, capsys, modes, code):
    # window 20 lambda = 20 and grid end 197: 95 modes recur at 196.17, 96 at
    # 198.29, so 96 propagates, and fails: it clears the recurrence but is
    # too coarse for lambda = gamma0; the refusal names
    # ceil(1.5 * 197 * 95 / 196.17) = 144
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG.replace("t_max_gamma0 = 1", "t_max_gamma0 = 197"))
    assert main(["oracle", "--config", str(path), "--discrete-modes", modes]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert "--discrete-modes 144 or more" in captured.err and captured.out == ""
    else:
        assert captured.out.rstrip().endswith("result: FAIL")


def test_oracle_named_mode_count_passes(tmp_path, capsys):
    # on the fig 3 preset the count that the refusal names must itself pass,
    # not only clear the recurrence: 300 modes are refused and name 581
    path = tmp_path / "fig3.cfg"
    path.write_text(eulb.format_config(eulb.figure_preset(3)).replace("1, 2, 5, 10", "1"))
    assert main(["oracle", "--config", str(path), "--discrete-modes", "300"]) == 1
    needed = re.search(r"--discrete-modes (\d+) or more", capsys.readouterr().err).group(1)
    assert needed == "581"
    assert main(["oracle", "--config", str(path), "--discrete-modes", needed]) == 0
    assert capsys.readouterr().out.rstrip().endswith("result: PASS")
