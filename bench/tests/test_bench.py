"""Tests of the benchmark itself: output checks, span accounting, tiny smoke runs.

Run from the repository root:  python3 -m pytest bench/tests -q
No test here gates on timing.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

import eulb
import run
import spans
import workloads


def _tiny(name, tmp_path):
    return workloads.WORKLOADS[name](7, tmp_path, tiny=True)


def _run_and_check(ops) -> list[str]:
    return [op.check(op.run()) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_passes_its_checks(name, tmp_path):
    workload = _tiny(name, tmp_path)
    assert workload.alloc_ops and set(map(id, workload.alloc_ops)) <= set(map(id, workload.ops))
    assert _run_and_check(workload.ops) == [""] * len(workload.ops)
    assert _run_and_check(workload.ops) == [""] * len(workload.ops)  # second pass: same bytes


def _tiny_fig_csv(tmp_path):
    workload = _tiny("figures", tmp_path)
    op = next(op for op in workload.ops if op.label == "sweep fig 4")
    assert op.check(op.run()) == ""
    config = dataclasses.replace(eulb.figure_preset(4), steps=11)
    return (tmp_path / "fig4.csv").read_text(encoding="ascii"), config


def _perturb(text: str, row_prefix: str, column: int, new: str) -> str:
    lines = text.split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith(row_prefix))
    fields = lines[i].split(",")
    fields[column] = new
    lines[i] = ",".join(fields)
    return "\n".join(lines)


def test_perturbed_csv_row_fails_the_reference_check(tmp_path):
    text, config = _tiny_fig_csv(tmp_path)
    reference = workloads.load_reference()[4]
    assert workloads.check_ledger(text.encode(), reference, config) == ""
    row = "5,4,"  # n = 5, gamma0_t = 4: on the reference grid; column 4 is berta
    value = float(next(ln for ln in text.split("\n") if ln.startswith(row)).split(",")[4])
    flipped = _perturb(text, row, 4, format(value * (1 + 1e-12), ".12g"))
    assert workloads.check_ledger(flipped.encode(), reference, config) == ""
    broken = _perturb(text, row, 4, format(value * (1 + 1e-9), ".12g"))
    assert "differs from the reference" in workloads.check_ledger(broken.encode(), reference, config)
    chain = _perturb(text, "2,2,", 3, "-1")  # u_left below both bounds
    assert "chain" in workloads.check_ledger(chain.encode(), reference, config)


def test_changed_csv_bytes_between_passes_count_as_failed(tmp_path):
    workload = _tiny("figures", tmp_path)
    op = workload.ops[0]
    assert op.check(op.run()) == ""
    result = op.run()
    path = tmp_path / f"fig{op.label.split()[-1]}.csv"
    path.write_bytes(path.read_bytes().replace(b"# eulb", b"# EULB", 1))
    verdicts = run.Verdicts()
    verdicts.add([op], [result])
    assert verdicts.failed == 1 and "differ" in verdicts.failures[0]


def test_failing_oracle_counts_as_failed():
    failing = "oracle check: x\n  kernel-ODE    N=1   max |dev| = 1e-3  (tol 1e-06)  FAIL\nresult: FAIL\n"
    op = workloads.Op("oracle fig2", lambda: (2, failing), workloads.check_oracle)
    verdicts = run.Verdicts()
    verdicts.add([op, op], [op.run(), (0, "result: PASS\n")])
    assert verdicts.attempted == 2 and verdicts.failed == 1
    assert workloads.check_oracle((0, failing)) != ""  # report says FAIL even if the code were 0


def test_op_that_raises_counts_as_failed_without_stopping_the_pass():
    def boom():
        raise ValueError("bad state")

    ops = [workloads.Op("bad", boom, workloads.check_record),
           workloads.Op("oracle", lambda: (0, "result: PASS\n"), workloads.check_oracle)]
    verdicts = run.Verdicts()
    verdicts.add(ops, run.run_ops(ops))
    assert verdicts.attempted == 2 and verdicts.failures == ["bad: raised ValueError('bad state')"]


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > g [2, 3];  root > b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_and_unattributed_add_up_to_the_pass():
    recorder = spans.SpanRecorder()
    leaf = recorder.record("linalg.eigenvalues_hermitian", lambda m: sum(range(2000)),
                           spans._count_eigen_shape)
    inner = recorder.record("bounds.bounds_record", lambda: [leaf([[0] * 4] * 4) for _ in range(3)])
    outer = recorder.record("cli.main", lambda: [inner() for _ in range(2)])
    recorder.run_root(outer)
    recorder.run_root(outer)
    metrics, wall = recorder.layer_metrics(untraced_pass_s=1.0)
    shares = sum(metrics[f"{m}.share"] for m in spans.MODULES)
    assert shares * wall + metrics["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["bounds.bounds_record.calls"] == 2  # per pass
    assert metrics["linalg.eigenvalues_hermitian.calls_4x4"] == 6
    assert metrics["linalg.eigenvalues_hermitian.calls_2x2"] == 0
    assert metrics["cli.main.calls"] == 1


def test_traced_tiny_pass_reports_every_per_layer_metric_and_restores_eulb(tmp_path):
    workload = _tiny("oracle", tmp_path)
    original = eulb.cli.main
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        outputs = recorder.run_root(lambda: run.run_ops(workload.ops))
    finally:
        recorder.uninstall()
    assert eulb.cli.main is original
    assert [op.check(o) for op, o in zip(workload.ops, outputs)] == [""] * 3
    metrics, _ = recorder.layer_metrics(untraced_pass_s=1.0)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()
    assert set(spans.per_layer_names()) <= set(metrics)
    assert metrics["reservoir.kernel_ode_oracle.rk4_steps"] > 0
    assert metrics["reservoir.discrete_mode_oracle.mode_steps"] > 0
    assert metrics["linalg.eigenvalues_hermitian.self_s"] == 0
    assert metrics["bounds.bounds_record.calls"] == 0
    assert metrics["channel.apply_memory_decay.calls"] == 0


def test_rk4_step_count_follows_the_oracle_step_rule():
    params = eulb.ReservoirParams(gamma0=1.0, lambda_=40.0, n_qubits=1)
    # intervals 0.5, 0.5, 1 at max step 0.25, and a repeated point that takes no step
    assert spans._rk4_steps([0.0, 0.5, 1.0, 1.0, 2.0], 0.25) == 8
    counts = spans._count_kernel_steps((params, [0.0, 2.0]), {}, None)
    assert counts == {"reservoir.kernel_ode_oracle.rk4_steps": math.ceil(2.0 / 1e-3)}
