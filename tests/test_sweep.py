from __future__ import annotations

import dataclasses
import functools
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

import eulb.audit as audit_mod
import eulb.sweep as sweep_mod
from eulb.audit import (
    CONSISTENCY_TOL,
    Deviation,
    closed_form_report,
    discrepancy_report,
    evolved_bell_diagonal_closed_form,
)
from eulb.bounds import BoundsRecord, bounds_record, pauli_x, pauli_z
from eulb.channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from eulb.reservoir import AmplitudeTrajectory, ReservoirParams, decay_amplitude
from eulb.sweep import (
    CSV_HEADER,
    ConfigError,
    OracleReport,
    SweepConfig,
    SweepOutput,
    figure_preset,
    format_config,
    oracle_report,
    parse_config,
    render_csv,
    run_sweep,
    write_sweep,
)


def _traced_peak(fn) -> int:
    """tracemalloc peak of fn(), in bytes above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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
        )
        cfg = SweepConfig(
            state="bell_diagonal",
            lambda_over_gamma0=np.float64(0.1),
            p=np.float64(0.25),
            n_qubits_list=(np.int64(1), np.int64(4)),
            t_max_gamma0=np.float64(7.5),
            steps=np.int64(301),
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
        with pytest.raises(ConfigError, match="unknown key 'excited_label'"):
            parse_config("state = max_entangled\nlambda_over_gamma0 = 1\nexcited_label = 0\n")


class TestConfigLimits:
    BASE = SweepConfig(state="max_entangled", lambda_over_gamma0=1.0)

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"state": "ghz"}, r"state must be one of \('max_entangled', 'bell_diagonal'\), got 'ghz'"),
            ({"lambda_over_gamma0": 0.0}, "lambda_over_gamma0 must be positive and finite, got 0.0"),
            ({"p": -0.1}, r"p must be in \[0, 1\], got -0.1"),
            ({"n_qubits_list": ()}, r"n_qubits_list must be integers >= 1, got \(\)"),
            ({"n_qubits_list": (0, 1)}, r"n_qubits_list must be integers >= 1, got \(0, 1\)"),
            ({"n_qubits_list": (2, 2)}, r"n_qubits_list must not contain duplicates, got \(2, 2\)"),
            ({"t_max_gamma0": math.inf}, "t_max_gamma0 must be positive and finite, got inf"),
            ({"steps": 1}, "steps must be an integer >= 2, got 1"),
            (
                {"n_qubits_list": (1, 2), "steps": 250_001},
                r"steps x len\(n_qubits_list\) = 500002 exceeds the limit of 500000 rows per sweep",
            ),
        ],
        ids=["state", "lambda", "p", "no-n", "n-below-1", "duplicate-n", "t_max", "steps", "rows"],
    )
    def test_constructor_refuses(self, fields, message):
        # the config checks itself when it is built: no invalid one exists
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SweepConfig(**{"state": "max_entangled", "lambda_over_gamma0": 1.0, **fields})

    def test_bool_steps_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            dataclasses.replace(self.BASE, steps=True)

    def test_bool_qubit_count_rejected(self):
        with pytest.raises(ConfigError, match="n_qubits_list"):
            dataclasses.replace(self.BASE, n_qubits_list=(True, 2))

    def test_float_steps_rejected(self):
        for steps in (5.0, np.float64(5.0)):
            with pytest.raises(ConfigError, match="steps"):
                dataclasses.replace(self.BASE, steps=steps)

    def test_float_qubit_count_rejected(self):
        with pytest.raises(ConfigError, match="n_qubits_list"):
            dataclasses.replace(self.BASE, n_qubits_list=(2.0,))

    def test_numpy_reals_accepted(self):
        dataclasses.replace(
            self.BASE, lambda_over_gamma0=np.int64(40), p=np.float32(0.1), t_max_gamma0=np.float32(2)
        )

    def test_bool_reals_rejected(self):
        for key in ("lambda_over_gamma0", "p", "t_max_gamma0"):
            for flag in (True, np.True_):
                with pytest.raises(ConfigError, match=key):
                    dataclasses.replace(self.BASE, **{key: flag})

    def test_non_number_end_time_rejected(self):
        for value in ("5", None):
            with pytest.raises(ConfigError, match="t_max_gamma0"):
                dataclasses.replace(self.BASE, t_max_gamma0=value)

    @pytest.mark.parametrize("key", ["lambda_over_gamma0", "t_max_gamma0"])
    def test_int_beyond_float_range_rejected(self, key):
        # math.isfinite(10**400) used to raise OverflowError
        with pytest.raises(ConfigError, match=f"^{key} must be positive and finite"):
            dataclasses.replace(self.BASE, **{key: 10**400})

    def test_numpy_integers_accepted(self):
        cfg = dataclasses.replace(self.BASE, steps=np.int64(3), n_qubits_list=(np.int32(2),))
        assert parse_config(format_config(cfg)) == cfg

    def test_sweep_above_row_limit_rejected(self):
        # built only: a sweep at this size peaks near 150 MB and runs ~5 s
        limit = sweep_mod._MAX_SWEEP_ROWS
        at_limit = dataclasses.replace(self.BASE, n_qubits_list=(1, 2), steps=limit // 2)
        with pytest.raises(ConfigError, match="steps x len"):
            dataclasses.replace(at_limit, steps=limit // 2 + 1)
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

    @pytest.mark.parametrize("label", [2.0, np.float64(3), True, 1.0], ids=repr)
    def test_labels_are_integers(self, label):
        # 2.0 == 2 found a preset, although labels follow the package's integer rule
        with pytest.raises(ValueError, match=rf"^no preset {re.escape(repr(label))}; choose one of"):
            figure_preset(label)
        assert figure_preset(np.int64(4)) == figure_preset(4)


class TestRunSweep:
    def test_row_count_and_order(self):
        out = run_sweep(SMALL)
        assert list(out.ledgers) == list(out.amplitudes) == [1, 2]
        ts = out.times.tolist()
        assert len(ts) == 21
        assert ts == sorted(ts)
        assert ts[0] == 0.0 and ts[-1] == 2.0
        for n, ledger in out.ledgers.items():
            assert out.amplitudes[n].shape == ledger.u_left.shape == (21,)

    def test_initial_row_is_certain(self):
        out = run_sweep(SMALL)
        first = out.ledgers[1]
        assert out.amplitudes[1][0] == 1.0
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
        assert [n for n, ledger in out.ledgers.items() for _ in ledger.u_left] == [1, 1, 1, 5, 5, 5]

    def test_deterministic(self):
        assert render_csv(run_sweep(SMALL)) == render_csv(run_sweep(SMALL))

    @pytest.mark.parametrize("state", ["max_entangled", "bell_diagonal"])
    def test_ledger_blocks_equal_one_stacked_call(self, state):
        # one N over two full ledger blocks and one row: C(t) is bit for bit
        # decay_amplitude on the whole grid, and every ledger field what one
        # bounds_record call on the whole time stack returns
        cfg = SweepConfig(
            state=state, lambda_over_gamma0=0.1, p=0.3, n_qubits_list=(2,),
            t_max_gamma0=30.0, steps=2 * sweep_mod._LEDGER_ROWS + 1,
        )
        out = run_sweep(cfg)
        times = np.linspace(0.0, cfg.t_max_gamma0, cfg.steps)
        amplitudes = decay_amplitude(ReservoirParams(1.0, cfg.lambda_over_gamma0, 2), times)
        initial = max_entangled_initial() if state == "max_entangled" else bell_diagonal_initial(cfg.p)
        states = apply_memory_decay(initial, amplitudes)
        whole = bounds_record(states, pauli_x(), pauli_z())
        pairs = {"times": (out.times, times), "C": (out.amplitudes[2], amplitudes)}
        for f in dataclasses.fields(BoundsRecord):
            pairs[f.name] = getattr(out.ledgers[2], f.name), getattr(whole, f.name)
        for name, (got, want) in pairs.items():
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_peak_does_not_grow_with_the_stack(self):
        # One N of 20,001 rows.  The sweep keeps the time grid and nine float64
        # columns (80 B a row) and evaluates one ledger block at a time; the
        # temporaries of a whole-stack channel and ledger call would read
        # ~940 B a row.
        cfg = SweepConfig(
            state="max_entangled", lambda_over_gamma0=0.1, n_qubits_list=(1,), steps=20_001
        )
        run_sweep(dataclasses.replace(cfg, steps=3))
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * cfg.steps

    def test_peak_grows_by_the_columns_and_the_grid(self):
        # Per row the sweep keeps nine float64 columns and the time grid (80 B);
        # C(t) evaluated on the whole grid at once would add its complex
        # temporaries (~136 B a row).
        cfg = SweepConfig(
            state="max_entangled", lambda_over_gamma0=0.1, n_qubits_list=(1,), steps=20_001
        )
        run_sweep(dataclasses.replace(cfg, steps=3))
        small = _traced_peak(lambda: run_sweep(cfg))
        large = _traced_peak(lambda: run_sweep(dataclasses.replace(cfg, steps=60_001)))
        assert large - small < 100 * 40_000

    def test_ledger_block_peak_stays_within_five_stacks(self):
        # One block of real states: the ledger frees its contraction before
        # the branch entropies and forms p log2 p in place, ~4.1x the stack's
        # bytes; with both alive through the entropies it read ~5.6x.
        times = np.linspace(0.0, 20.0, sweep_mod._LEDGER_ROWS)
        amplitudes = decay_amplitude(ReservoirParams(1.0, 0.1, 2), times)
        states = apply_memory_decay(bell_diagonal_initial(0.3), amplitudes)
        assert states.dtype == np.float64
        x, z = pauli_x(), pauli_z()
        bounds_record(states, x, z)
        assert _traced_peak(lambda: bounds_record(states, x, z)) <= 5 * states.nbytes

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(state="max_entangled", lambda_over_gamma0=-1.0))

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
        lines = text.splitlines()
        first_data = lines[lines.index(CSV_HEADER) + 1]
        fields = first_data.split(",")
        assert fields[0] == "1"
        assert fields[1] == "0"
        assert fields[2] == "1"
        values = [float(v) for v in fields[1:]]
        expected = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, -1.0]
        assert np.max(np.abs(np.array(values) - expected)) < 1e-9

    def test_twelve_significant_digits(self):
        text = render_csv(run_sweep(SMALL))
        lines = text.splitlines()
        row = lines[lines.index(CSV_HEADER) + 2].split(",")
        assert row[2] == format(float(row[2]), ".12g")
        assert len(row) == 11

    @staticmethod
    def _assert_rows_match_reference(output):
        names = [f.name for f in dataclasses.fields(BoundsRecord)]
        expected = []
        for n, ledger in output.ledgers.items():
            columns = [output.times, output.amplitudes[n]] + [getattr(ledger, name) for name in names]
            for i in range(len(output.times)):
                row = [float(column[i]) for column in columns]
                expected.append(",".join([str(n)] + [format(v + 0.0, ".12g") for v in row]))
        lines = render_csv(output).splitlines()
        assert lines[lines.index(CSV_HEADER) + 1 :] == expected

    def test_rows_match_reference_format(self):
        # every value sits in every column once: -0.0 must print as 0, the rest
        # as format(x, ".12g") prints them
        values = np.array([-0.0, 5e-324, 0.1 + 0.2, 1e16, 123456789.0123, np.nan])

        def output(columns, ns):
            # t, then each N's C(t) and ledger fields, rolled apart by N
            width = 1 + len(dataclasses.fields(BoundsRecord))
            rolled = {n: [np.roll(columns, n + k) for k in range(1, 1 + width)] for n in ns}
            return SweepOutput(
                config=SMALL,
                times=columns,
                amplitudes={n: rows[0] for n, rows in rolled.items()},
                ledgers={n: BoundsRecord(*rows[1:]) for n, rows in rolled.items()},
            )

        self._assert_rows_match_reference(output(values, [3]))
        # the same values tiled over two N of two full render blocks and one
        # row, so -0.0 also sits on the rows either side of each block seam
        self._assert_rows_match_reference(output(np.resize(values, 2 * sweep_mod._RENDER_ROWS + 1), [1, 4]))

    def test_sweep_rows_match_reference_format(self):
        self._assert_rows_match_reference(run_sweep(SMALL))
        bell = SweepConfig(
            state="bell_diagonal", lambda_over_gamma0=0.1, p=0.3, n_qubits_list=(2, 1),
            t_max_gamma0=3.0, steps=31,
        )
        self._assert_rows_match_reference(run_sweep(bell))
        # two N, each crossing both seams between render blocks
        seams = dataclasses.replace(bell, steps=2 * sweep_mod._RENDER_ROWS + 1)
        self._assert_rows_match_reference(run_sweep(seams))


class TestWriteSweep:
    @pytest.mark.parametrize("state", ["max_entangled", "bell_diagonal"])
    def test_file_equals_the_held_sweeps_csv(self, state, tmp_path):
        # two N, each crossing the seams between ledger blocks and render blocks
        cfg = SweepConfig(
            state=state, lambda_over_gamma0=0.1, p=0.3, n_qubits_list=(5, 2),
            t_max_gamma0=30.0, steps=2 * sweep_mod._LEDGER_ROWS + 1,
        )
        target = tmp_path / "out.csv"
        write_sweep(cfg, target)
        assert target.read_bytes() == render_csv(run_sweep(cfg)).encode("ascii")

    def test_to_binary_file_object(self):
        buffer = io.BytesIO()
        write_sweep(SMALL, buffer)
        assert buffer.getvalue() == render_csv(run_sweep(SMALL)).encode("ascii")

    def test_write_failure_mentions_path(self, tmp_path):
        missing = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            write_sweep(SMALL, missing)

    def test_file_object_sees_no_refusal_and_keeps_its_own_errors(self):
        buffer = io.BytesIO()
        with pytest.raises(ConfigError):
            write_sweep(dataclasses.replace(SMALL, steps=1), buffer)
        assert buffer.getvalue() == b""

        class Full(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                raise OSError("device full")

        with pytest.raises(OSError) as info:
            write_sweep(SMALL, Full())
        assert str(info.value) == "device full"

    def test_peak_grows_by_the_time_grid_only(self, tmp_path):
        # The time grid is 8 B a row; holding the columns and the CSV read
        # ~0.37 kB a row.  Both sizes are whole ledger blocks plus one row, and
        # at least two blocks: a one-block sweep peaks at a different point.
        rows = sweep_mod._LEDGER_ROWS
        cfg = SweepConfig(
            state="max_entangled", lambda_over_gamma0=0.1, n_qubits_list=(1,), steps=2 * rows + 1
        )
        target = tmp_path / "out.csv"
        write_sweep(dataclasses.replace(cfg, steps=3), target)
        small = _traced_peak(lambda: write_sweep(cfg, target))
        ten = dataclasses.replace(cfg, steps=10 * rows + 1)
        large = _traced_peak(lambda: write_sweep(ten, target))
        assert large - small < 16 * 8 * rows

    def test_one_ledger_block_alive_at_a_time(self, tmp_path):
        # Four full blocks.  Each block's ledger and render rows are dropped
        # before the next ledger call, and that call solves rho's spectrum
        # after its 2x2 blocks: ~490 B a block row above the time grid, against
        # ~660 B when the previous block's ledger columns were still alive
        # (numpy 2.4).
        rows = sweep_mod._LEDGER_ROWS
        cfg = SweepConfig(
            state="max_entangled", lambda_over_gamma0=0.1, n_qubits_list=(1,), steps=4 * rows
        )
        target = tmp_path / "out.csv"
        write_sweep(dataclasses.replace(cfg, steps=3), target)
        peak = _traced_peak(lambda: write_sweep(cfg, target))
        assert (peak - 8 * cfg.steps) / rows < 575


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
        assert [row.label for row in report.kernel] == ["1", "3"]
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
        report = oracle_report(cfg, n_modes=400)
        assert report.passed
        assert len(report.discrete) == 1
        assert report.discrete[0].max_deviation <= 5e-3
        assert report.discrete_max_norm_error is not None
        assert report.discrete_max_norm_error <= 1e-8

    def test_fig3_horizon_at_default_mode_count(self):
        # equal-weight modes crowd near resonance, where the Markovian fig 3
        # dynamics live: 2000 of them pass at N = 10 with room to spare
        cfg = dataclasses.replace(figure_preset(3), n_qubits_list=(10,))
        report = oracle_report(cfg, n_modes=2000)
        assert report.passed and len(report.discrete) == 1
        assert report.discrete[0].max_deviation <= 1e-4

    def test_render_prints_each_rows_tolerance(self):
        # the printed tolerance is the one that decided the row's status
        cfg = SweepConfig(state="max_entangled", lambda_over_gamma0=1.0)
        report = OracleReport(
            config=cfg,
            kernel=[Deviation(label="1", max_deviation=0.3, tolerance=0.25, at=0.0)],
            discrete=[Deviation(label="2", max_deviation=0.3, tolerance=0.5, at=0.0)],
        )
        lines = report.render().splitlines()
        assert lines[1].endswith("(tol 0.25)  FAIL")
        assert lines[2].endswith("(tol 0.5)  ok")

    def test_row_records_where_the_deviation_peaks(self, monkeypatch):
        # an oracle equal to the closed form but for one bumped grid time
        bump, index = 0.25, 37

        def bumped(params, times):
            amplitudes = decay_amplitude(params, times)
            amplitudes[index] += bump
            return AmplitudeTrajectory(times=times, amplitudes=amplitudes)

        monkeypatch.setattr(sweep_mod, "kernel_ode_oracle", bumped)
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=2.0,
            n_qubits_list=(3,),
            t_max_gamma0=4.0,
            steps=81,
        )
        (row,) = oracle_report(cfg).kernel
        assert row.label == "3" and not row.passed
        assert row.at == np.linspace(0.0, 4.0, 81)[index]
        assert row.max_deviation == pytest.approx(bump, abs=1e-15)

    def test_mode_grid_built_once(self, monkeypatch):
        # the grid reads gamma0 and lambda only, so every N shares it
        built, real = [], sweep_mod.build_mode_grid

        def build(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(sweep_mod, "build_mode_grid", build)
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=1.0,
            n_qubits_list=(1, 2, 5),
            t_max_gamma0=0.5,
            steps=6,
        )
        assert len(oracle_report(cfg, n_modes=100).discrete) == 3
        assert len(built) == 1

    def test_passing_run_propagates_once_per_n(self, monkeypatch):
        # the coarser grid is built only once a row has failed, so a passing
        # run does the work of one grid
        built, runs = [], []
        build, propagate = sweep_mod.build_mode_grid, sweep_mod.discrete_mode_oracle

        def built_grid(*args):
            built.append(args[1])
            return build(*args)

        def counted(params, times, modes):
            runs.append(params.n_qubits)
            return propagate(params, times, modes)

        monkeypatch.setattr(sweep_mod, "build_mode_grid", built_grid)
        monkeypatch.setattr(sweep_mod, "discrete_mode_oracle", counted)
        cfg = SweepConfig(
            state="max_entangled",
            lambda_over_gamma0=1.0,
            n_qubits_list=(1, 2, 5),
            t_max_gamma0=1.0,
            steps=11,
        )
        assert oracle_report(cfg, n_modes=300).passed
        assert built == [300] and runs == [1, 2, 5]

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


def test_deviation_passes_at_its_tolerance():
    # the rule is max |dev| <= tolerance, so a deviation equal to it passes
    assert Deviation("x", 1e-9, 1e-9, 0.0).passed
    assert not Deviation("x", float(np.nextafter(1e-9, 1.0)), 1e-9, 0.0).passed


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
        statuses = {row.label: "CONSISTENT" if row.passed else "FLAGGED" for row in report.formulas}
        assert statuses == expected

    def test_flagged_lhs_peaks_at_full_amplitude(self, report):
        row = report.audit("max_ent_lhs")
        assert abs(row.max_deviation - 1.0) <= 1e-9
        assert row.at == 1.0

    def test_evolved_matrix_audit(self, report):
        m = report.evolved_matrix
        assert m.deviation_at_full_amplitude >= 0.125
        assert abs(m.deviation_at_full_amplitude - 0.25) < 1e-12
        assert m.max_deviation >= 0.25

    def test_render_mentions_every_formula(self, report):
        text = report.render()
        for row in report.formulas:
            assert row.label in text
        assert "bell_evolved_matrix" in text

    def test_p_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            discrepancy_report(-0.2)

    def test_audit_finds_every_rendered_row(self, report):
        # the matrix row used to raise KeyError, although render prints it
        rows = [*report.formulas, report.evolved_matrix]
        assert len(rows) == 11
        for row in rows:
            assert report.audit(row.label) is row

    def test_unknown_audit_name(self, report):
        with pytest.raises(KeyError):
            report.audit("nope")

    @pytest.mark.parametrize("p", [0.0, 1.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("block", [2, 7, 8, 9, 101])
    def test_blocks_equal_pointwise_scan(self, monkeypatch, p, block):
        # stack sizes that split the 101-point grid with a partial last stack
        # (the default 8 leaves 5) and that cover it exactly in one stack
        monkeypatch.setattr(audit_mod, "_AUDIT_BLOCK", block)
        reference = _pointwise_discrepancy(p)
        report = discrepancy_report(p)
        assert report.amplitude_grid.size == 101
        assert [
            (row.label, row.max_deviation, row.at) for row in report.formulas
        ] == [(row.label, row.max_deviation, row.at) for row in reference.formulas]
        assert report.evolved_matrix == reference.evolved_matrix


@functools.cache
def _pointwise_discrepancy(p: float) -> audit_mod.DiscrepancyReport:
    """The audit as a scan of one scalar closed_form_report per amplitude (one scan per p)."""
    grid = np.linspace(0.0, 1.0, 101)
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
        formulas=[Deviation(name, dev, CONSISTENCY_TOL, c) for name, (dev, c) in worst.items()],
        evolved_matrix=audit_mod.MatrixAudit(
            label="bell_evolved_matrix",
            max_deviation=matrix_worst[0],
            tolerance=CONSISTENCY_TOL,
            at=matrix_worst[1],
            worst_entry=matrix_worst[2],
            deviation_at_full_amplitude=float(np.max(gap_full)),
        ),
    )
