from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest

import eulb.audit as audit_mod
import eulb.sweep as sweep_mod
from eulb.audit import closed_form_report, discrepancy_report, evolved_bell_diagonal_closed_form
from eulb.bounds import BoundsRecord
from eulb.channel import apply_memory_decay, bell_diagonal_initial
from eulb.sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepOutput,
    emit_csv,
    figure_preset,
    format_config,
    oracle_report,
    parse_config,
    render_csv,
    run_sweep,
    validate_config,
)

SMALL = SweepConfig(
    state="max_entangled",
    lambda_over_gamma0=40.0,
    n_qubits_list=(1, 2),
    t_max_gamma0=2.0,
    steps=21,
)


class TestConfigDocument:
    def test_defaults_applied(self):
        cfg = parse_config("state = max_entangled\nlambda_over_gamma0 = 0.1\n")
        assert cfg == SweepConfig(state="max_entangled", lambda_over_gamma0=0.1)
        assert cfg.n_qubits_list == (1, 2, 5, 10)
        assert cfg.t_max_gamma0 == 20.0
        assert cfg.steps == 2001
        assert cfg.p == 0.5
        assert cfg.excited_label == 0

    def test_bell_default_weight(self):
        cfg = parse_config("state = bell_diagonal\nlambda_over_gamma0 = 40\n")
        assert cfg.p == 0.5

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\nstate = max_entangled\n# more\nlambda_over_gamma0 = 2\n"
        assert parse_config(text).lambda_over_gamma0 == 2.0

    def test_round_trip_all_fields(self):
        cfg = SweepConfig(
            state="bell_diagonal",
            lambda_over_gamma0=0.3,
            p=0.25,
            n_qubits_list=(1, 4, 9),
            t_max_gamma0=7.5,
            steps=301,
            excited_label=1,
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_numpy_scalars(self):
        plain = SweepConfig(
            state="bell_diagonal",
            lambda_over_gamma0=0.1,
            p=0.25,
            n_qubits_list=(1, 4),
            t_max_gamma0=7.5,
            steps=301,
            excited_label=1,
        )
        cfg = SweepConfig(
            state="bell_diagonal",
            lambda_over_gamma0=np.float64(0.1),
            p=np.float64(0.25),
            n_qubits_list=(np.int64(1), np.int64(4)),
            t_max_gamma0=np.float64(7.5),
            steps=np.int64(301),
            excited_label=np.int64(1),
        )
        assert format_config(cfg) == format_config(plain)
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_presets(self):
        for fig in (2, 3, 4, 5):
            cfg = figure_preset(fig)
            assert parse_config(format_config(cfg)) == cfg

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match="p"):
            parse_config("state = bell_diagonal\nlambda_over_gamma0 = 1\np = 1.5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'mystery'"):
            parse_config("state = max_entangled\nlambda_over_gamma0 = 1\nmystery = 3\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("state = max_entangled\nnonsense without equals\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*steps"):
            parse_config("state = max_entangled\nsteps = many\nlambda_over_gamma0 = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="lambda_over_gamma0"):
            parse_config("state = max_entangled\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("state = max_entangled\nstate = bell_diagonal\n")

    def test_validation_rules(self):
        with pytest.raises(ConfigError, match="state"):
            parse_config("state = ghz\nlambda_over_gamma0 = 1\n")
        with pytest.raises(ConfigError, match="steps"):
            parse_config("state = max_entangled\nlambda_over_gamma0 = 1\nsteps = 1\n")
        with pytest.raises(ConfigError, match="duplicates"):
            parse_config("state = max_entangled\nlambda_over_gamma0 = 1\nn_qubits_list = 2, 2\n")
        with pytest.raises(ConfigError, match="excited_label"):
            parse_config("state = max_entangled\nlambda_over_gamma0 = 1\nexcited_label = 2\n")


class TestConfigLimits:
    BASE = SweepConfig(state="max_entangled", lambda_over_gamma0=1.0)

    def test_bool_steps_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            validate_config(dataclasses.replace(self.BASE, steps=True))

    def test_bool_excited_label_rejected(self):
        with pytest.raises(ConfigError, match="excited_label"):
            validate_config(dataclasses.replace(self.BASE, excited_label=True))
        with pytest.raises(ConfigError, match="excited_label"):
            validate_config(dataclasses.replace(self.BASE, excited_label=np.True_))

    def test_bool_qubit_count_rejected(self):
        with pytest.raises(ConfigError, match="n_qubits_list"):
            validate_config(dataclasses.replace(self.BASE, n_qubits_list=(True, 2)))

    def test_float_steps_rejected(self):
        for steps in (5.0, np.float64(5.0)):
            with pytest.raises(ConfigError, match="steps"):
                validate_config(dataclasses.replace(self.BASE, steps=steps))

    def test_float_qubit_count_rejected(self):
        with pytest.raises(ConfigError, match="n_qubits_list"):
            validate_config(dataclasses.replace(self.BASE, n_qubits_list=(2.0,)))

    def test_float_excited_label_rejected(self):
        with pytest.raises(ConfigError, match="excited_label"):
            validate_config(dataclasses.replace(self.BASE, excited_label=1.0))

    def test_numpy_reals_accepted(self):
        cfg = dataclasses.replace(
            self.BASE, lambda_over_gamma0=np.int64(40), p=np.float32(0.1), t_max_gamma0=np.float32(2)
        )
        assert validate_config(cfg) is cfg

    def test_bool_reals_rejected(self):
        for key in ("lambda_over_gamma0", "p", "t_max_gamma0"):
            for flag in (True, np.True_):
                with pytest.raises(ConfigError, match=key):
                    validate_config(dataclasses.replace(self.BASE, **{key: flag}))

    def test_non_number_end_time_rejected(self):
        for value in ("5", None):
            with pytest.raises(ConfigError, match="t_max_gamma0"):
                validate_config(dataclasses.replace(self.BASE, t_max_gamma0=value))

    def test_numpy_integers_accepted(self):
        cfg = dataclasses.replace(
            self.BASE, steps=np.int64(3), n_qubits_list=(np.int32(2),), excited_label=np.int8(1)
        )
        assert validate_config(cfg) is cfg
        assert parse_config(format_config(cfg)) == cfg

    def test_sweep_above_row_limit_rejected(self):
        # validated only: a sweep at this size would hold ~1 GB
        limit = sweep_mod._MAX_SWEEP_ROWS
        at_limit = dataclasses.replace(self.BASE, n_qubits_list=(1, 2), steps=limit // 2)
        assert validate_config(at_limit) is at_limit
        with pytest.raises(ConfigError, match="steps x len"):
            validate_config(dataclasses.replace(at_limit, steps=limit // 2 + 1))
        with pytest.raises(ConfigError, match="steps x len"):
            parse_config(
                f"state = max_entangled\nlambda_over_gamma0 = 1\nsteps = {limit + 1}\n"
                "n_qubits_list = 1\n"
            )


class TestFigurePresets:
    def test_values(self):
        assert figure_preset(2) == SweepConfig(state="max_entangled", lambda_over_gamma0=0.1)
        assert figure_preset(3) == SweepConfig(state="max_entangled", lambda_over_gamma0=40.0)
        assert figure_preset(4) == SweepConfig(state="bell_diagonal", lambda_over_gamma0=0.1)
        assert figure_preset(5) == SweepConfig(state="bell_diagonal", lambda_over_gamma0=40.0)
        assert figure_preset(4).p == 0.5

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            figure_preset(1)


class TestRunSweep:
    def test_row_count_and_order(self):
        out = run_sweep(SMALL)
        assert list(out.ledgers) == [1, 2]
        for ledger in out.ledgers.values():
            ts = ledger.t.tolist()
            assert len(ts) == 21
            assert ts == sorted(ts)
            assert ts[0] == 0.0 and ts[-1] == 2.0

    def test_initial_row_is_certain(self):
        first = run_sweep(SMALL).ledgers[1]
        assert first.amplitude[0] == 1.0
        for value in (first.u_left[0], first.berta[0], first.adabi[0]):
            assert abs(value) < 1e-9
        assert abs(first.mutual_info[0] - 2.0) < 1e-9
        assert abs(first.cond_entropy[0] + 1.0) < 1e-9

    def test_unsorted_qubit_list_is_sorted_in_output(self):
        out = run_sweep(
            SweepConfig(
                state="max_entangled",
                lambda_over_gamma0=40.0,
                n_qubits_list=(5, 1),
                t_max_gamma0=1.0,
                steps=3,
            )
        )
        assert [n for n, ledger in out.ledgers.items() for _ in ledger.t] == [1, 1, 1, 5, 5, 5]

    def test_deterministic(self):
        assert render_csv(run_sweep(SMALL)) == render_csv(run_sweep(SMALL))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(state="max_entangled", lambda_over_gamma0=-1.0))

    def test_excited_label_choice_does_not_change_bounds(self):
        # relabeling which memory level decays is a local basis change for the
        # maximally entangled family, so every information quantity agrees
        base = dict(
            state="max_entangled", lambda_over_gamma0=0.1, n_qubits_list=(1,),
            t_max_gamma0=4.0, steps=41,
        )
        a = run_sweep(SweepConfig(**base, excited_label=0)).ledgers[1]
        b = run_sweep(SweepConfig(**base, excited_label=1)).ledgers[1]
        assert np.max(np.abs(a.adabi - b.adabi)) < 1e-12
        assert np.max(np.abs(a.u_left - b.u_left)) < 1e-12
        assert np.max(np.abs(a.holevo_q - b.holevo_q)) < 1e-12

    def test_bell_sweep_t0_values(self):
        out = run_sweep(
            SweepConfig(
                state="bell_diagonal",
                lambda_over_gamma0=40.0,
                n_qubits_list=(1,),
                t_max_gamma0=1.0,
                steps=2,
            )
        )
        rec = out.ledgers[1]
        assert abs(rec.berta[0] - 1.5) < 1e-9
        assert abs(rec.u_left[0] - 1.811278) < 1e-6
        assert abs(rec.adabi[0] - 1.811278) < 1e-6


class TestCsv:
    def test_header_and_metadata(self):
        text = render_csv(run_sweep(SMALL))
        lines = text.splitlines()
        meta = [line for line in lines if line.startswith("#")]
        assert meta[0].startswith("# eulb ")
        assert "# state = max_entangled" in meta
        assert lines[len(meta)] == CSV_HEADER
        assert text.endswith("\n")
        assert "\r" not in text

    def test_initial_row_rendering(self):
        text = render_csv(run_sweep(SMALL))
        first_data = text.splitlines()[9]
        fields = first_data.split(",")
        assert fields[0] == "1"
        assert fields[1] == "0"
        assert fields[2] == "1"
        values = [float(v) for v in fields[1:]]
        expected = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, -1.0]
        assert np.max(np.abs(np.array(values) - expected)) < 1e-9

    def test_twelve_significant_digits(self):
        text = render_csv(run_sweep(SMALL))
        row = text.splitlines()[10].split(",")
        assert row[2] == format(float(row[2]), ".12g")
        assert len(row) == 11

    @staticmethod
    def _assert_rows_match_reference(output):
        names = [f.name for f in dataclasses.fields(BoundsRecord)]
        expected = []
        for n, ledger in output.ledgers.items():
            for i in range(len(ledger.t)):
                row = [float(getattr(ledger, name)[i]) for name in names]
                expected.append(",".join([str(n)] + [format(v + 0.0, ".12g") for v in row]))
        lines = render_csv(output).splitlines()
        assert lines[lines.index(CSV_HEADER) + 1 :] == expected

    def test_rows_match_reference_format(self):
        # every value sits in every column once: -0.0 must print as 0, the rest
        # as format(x, ".12g") prints them
        values = np.array([-0.0, 5e-324, 0.1 + 0.2, 1e16, 123456789.0123, np.nan])
        columns = [np.roll(values, k) for k in range(len(dataclasses.fields(BoundsRecord)))]
        output = SweepOutput(config=SMALL, ledgers={3: BoundsRecord(*columns)})
        self._assert_rows_match_reference(output)

    def test_sweep_rows_match_reference_format(self):
        self._assert_rows_match_reference(run_sweep(SMALL))
        bell = SweepConfig(
            state="bell_diagonal", lambda_over_gamma0=0.1, p=0.3, n_qubits_list=(2, 1),
            t_max_gamma0=3.0, steps=31, excited_label=1,
        )
        self._assert_rows_match_reference(run_sweep(bell))

    def test_emit_to_path_and_bytes(self, tmp_path):
        out = run_sweep(SMALL)
        target = tmp_path / "out.csv"
        data = emit_csv(out, target)
        assert target.read_bytes() == data
        assert data.decode("ascii") == render_csv(out)

    def test_emit_to_binary_file_object(self):
        out = run_sweep(SMALL)
        buffer = io.BytesIO()
        data = emit_csv(out, buffer)
        assert buffer.getvalue() == data

    def test_emit_write_failure_mentions_path(self, tmp_path):
        out = run_sweep(SMALL)
        missing = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            emit_csv(out, missing)


class TestOracleReport:
    def test_kernel_only(self):
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=2.0,
            n_qubits_list=(1, 3),
            t_max_gamma0=4.0,
            steps=81,
        )
        report = oracle_report(cfg)
        assert report.passed
        assert [row.n_qubits for row in report.kernel] == [1, 3]
        assert all(row.max_deviation <= 1e-6 for row in report.kernel)
        assert report.discrete == []
        assert "PASS" in report.render()

    def test_with_discrete_modes(self):
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=1.0,
            n_qubits_list=(1,),
            t_max_gamma0=2.0,
            steps=41,
        )
        report = oracle_report(cfg, n_modes=400, window_over_lambda=15.0)
        assert report.passed
        assert len(report.discrete) == 1
        assert report.discrete[0].max_deviation <= 5e-3
        assert report.discrete_max_norm_error is not None
        assert report.discrete_max_norm_error <= 1e-8

    def test_narrow_window_reported(self):
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=1.0,
            n_qubits_list=(1, 2),
            t_max_gamma0=0.5,
            steps=6,
        )
        wide = oracle_report(cfg, n_modes=100, window_over_lambda=15.0)
        narrow = oracle_report(cfg, n_modes=100, window_over_lambda=5.0)
        assert not wide.discrete_window_warning and "warning" not in wide.render()
        assert narrow.discrete_window_warning
        lines = narrow.render().splitlines()
        assert "narrower than 10 lambda" in lines[-2] and not lines[-2].endswith("FAIL")
        assert lines[-1] == "result: " + ("PASS" if narrow.passed else "FAIL")

    def test_recurrence_reported(self):
        # 100 modes over a window of 20 lambda recur at pi * 100 / 20 = 15.7
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=1.0,
            n_qubits_list=(1, 2),
            t_max_gamma0=16.0,
            steps=5,
        )
        late = oracle_report(cfg, n_modes=100)
        early_cfg = dataclasses.replace(cfg, t_max_gamma0=15.0)
        early = oracle_report(early_cfg, n_modes=100)
        assert not early.discrete_recurrence_warning and "warning" not in early.render()
        assert late.discrete_recurrence_warning and not late.discrete_window_warning
        lines = late.render().splitlines()
        assert "recurrence time" in lines[-2]
        assert lines[-1] == "result: " + ("PASS" if late.passed else "FAIL")

    def test_tolerance_failure_detected(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "KERNEL_ORACLE_TOL", 1e-30)
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=2.0,
            n_qubits_list=(1,),
            t_max_gamma0=1.0,
            steps=11,
        )
        report = oracle_report(cfg)
        assert not report.passed
        assert "FAIL" in report.render()


@pytest.fixture(scope="module")
def report():
    return discrepancy_report(0.5)


class TestDiscrepancyReport:
    def test_statuses(self, report):
        expected = {
            "max_ent_entropy_x": "CONSISTENT",
            "max_ent_entropy_z": "CONSISTENT",
            "max_ent_lhs": "FLAGGED",
            "max_ent_bound": "CONSISTENT",
            "max_ent_delta": "CONSISTENT",
            "bell_entropy_x": "CONSISTENT",
            "bell_entropy_z": "CONSISTENT",
            "bell_lhs": "FLAGGED",
            "bell_bound": "FLAGGED",
            "bell_delta": "FLAGGED",
        }
        assert {row.name: row.status for row in report.formulas} == expected

    def test_flagged_lhs_peaks_at_full_amplitude(self, report):
        row = report.audit("max_ent_lhs")
        assert abs(row.max_deviation - 1.0) <= 1e-9
        assert row.worst_c == 1.0

    def test_evolved_matrix_audit(self, report):
        m = report.evolved_matrix
        assert m.deviation_at_full_amplitude >= 0.125
        assert abs(m.deviation_at_full_amplitude - 0.25) < 1e-12
        assert m.max_deviation >= 0.25

    def test_render_mentions_every_formula(self, report):
        text = report.render()
        for row in report.formulas:
            assert row.name in text
        assert "bell_evolved_matrix" in text

    def test_p_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            discrepancy_report(-0.2)

    def test_unknown_audit_name(self, report):
        with pytest.raises(KeyError):
            report.audit("nope")

    @pytest.mark.parametrize("bad", [0, 1, -5, True, np.bool_(True), 2.5, 5.0, 10**6 + 1, 10**12])
    def test_grid_points_validated(self, bad):
        with pytest.raises(ValueError, match="grid_points"):
            discrepancy_report(0.5, bad)

    def test_numpy_integer_grid_points_accepted(self):
        assert discrepancy_report(0.5, np.int64(9)).amplitude_grid.size == 9

    @pytest.mark.parametrize("p", [0.0, 1.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("grid_points", [2, 7, 8, 9, 101])
    def test_blocks_equal_pointwise_scan(self, p, grid_points):
        # grid sizes straddle the audit's stack size, so both a partial
        # last stack and an exact multiple are covered
        reference = _pointwise_discrepancy(p, grid_points)
        report = discrepancy_report(p, grid_points)
        assert [
            (row.name, row.max_deviation, row.worst_c) for row in report.formulas
        ] == [(row.name, row.max_deviation, row.worst_c) for row in reference.formulas]
        assert report.evolved_matrix == reference.evolved_matrix


def _pointwise_discrepancy(p: float, grid_points: int) -> audit_mod.DiscrepancyReport:
    """The audit as a scan of one scalar closed_form_report per amplitude."""
    grid = np.linspace(0.0, 1.0, grid_points)
    worst = {}
    matrix_worst = (0.0, 0.0, (0, 0))
    initial = bell_diagonal_initial(p)
    for c in grid:
        for row in closed_form_report(c, p):
            dev, _ = worst.get(row.name, (-1.0, 0.0))
            if row.deviation > dev:
                worst[row.name] = (row.deviation, float(c))
        gap = np.abs(evolved_bell_diagonal_closed_form(p, c) - apply_memory_decay(initial, c))
        idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
        if gap[idx] > matrix_worst[0]:
            matrix_worst = (float(gap[idx]), float(c), (int(idx[0]), int(idx[1])))
    gap_full = np.abs(evolved_bell_diagonal_closed_form(p, 1.0) - apply_memory_decay(initial, 1.0))
    return audit_mod.DiscrepancyReport(
        p=p,
        amplitude_grid=grid,
        formulas=[audit_mod.FormulaAudit(name, dev, c) for name, (dev, c) in worst.items()],
        evolved_matrix=audit_mod.MatrixAudit(
            max_deviation=matrix_worst[0],
            worst_c=matrix_worst[1],
            worst_entry=matrix_worst[2],
            deviation_at_full_amplitude=float(np.max(gap_full)),
        ),
    )
