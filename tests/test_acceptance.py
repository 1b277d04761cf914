"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The preset sweeps are computed once per session (conftest).
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import evolved_max_entangled, random_density_matrix
from eulb.audit import closed_form_report, discrepancy_report
from eulb.bounds import bounds_record, pauli_x, pauli_z
from eulb.channel import apply_memory_decay, bell_diagonal_initial, max_entangled_initial
from eulb.cli import main
from eulb.linalg import binary_entropy
from eulb.reservoir import ReservoirParams, build_mode_grid, decay_amplitude, discrete_mode_oracle, kernel_ode_oracle


def _report(label: str, failures: list[str]) -> None:
    print(f"[acceptance] {label}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, "; ".join(failures)


def test_criterion_01_kernel_ode_oracle():
    failures = []
    grid = np.arange(0.0, 20.0 + 1e-9, 1e-3)
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 5, 10):
        for lam in (0.1, 2.0, 40.0):
            params = ReservoirParams(1.0, lam, n)
            closed = decay_amplitude(params, grid)
            ode = kernel_ode_oracle(params, grid)
            worst = max(worst, float(np.max(np.abs(closed - ode.amplitudes))))
    elapsed = time.perf_counter() - start
    if worst > 1e-6:
        failures.append(f"max |C_closed - C_ode| = {worst:.3e} > 1e-6")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(f"01 closed form vs kernel ODE (max dev {worst:.2e}, {elapsed:.1f}s)", failures)


def test_criterion_02_discrete_mode_oracle():
    failures = []
    params = ReservoirParams(1.0, 40.0, 1)
    grid = np.linspace(0.0, 2.0, 201)
    modes = build_mode_grid(params, 2000)
    start = time.perf_counter()
    traj = discrete_mode_oracle(params, grid, modes)
    elapsed = time.perf_counter() - start
    dev = float(np.max(np.abs(decay_amplitude(params, grid) - traj.amplitudes)))
    if dev > 5e-3:
        failures.append(f"max deviation {dev:.3e} > 5e-3")
    if traj.max_norm_error is None or traj.max_norm_error > 1e-8:
        failures.append(f"norm error {traj.max_norm_error} > 1e-8")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(f"02 discretized-mode oracle (max dev {dev:.2e}, {elapsed:.1f}s)", failures)


def test_criterion_03_max_entangled_start_is_exact():
    failures = []
    rec = bounds_record(max_entangled_initial(), pauli_x(), pauli_z())
    values = {"u_left": rec.u_left, "berta": rec.berta, "adabi": rec.adabi}
    for name, value in values.items():
        if abs(value) > 1e-9:
            failures.append(f"{name} = {value:.3e} not within 1e-9 of 0")
    _report("03 maximally entangled t=0 exactness", failures)


def _brute_force_bell_half_t0() -> dict[str, float]:
    # Independent numpy-only route: literal matrices, LAPACK eigenvalues.
    rho = np.array(
        [[1, 0, 0, 1], [0, 3, -1, 0], [0, -1, 3, 0], [1, 0, 0, 1]], dtype=complex
    ) / 8.0

    def entropy(m: np.ndarray) -> float:
        evals = np.linalg.eigvalsh(m)
        evals = evals[evals > 1e-14]
        return float(-(evals @ np.log2(evals)))

    def trace_a(m: np.ndarray) -> np.ndarray:
        return m.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)

    def trace_b(m: np.ndarray) -> np.ndarray:
        return m.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)

    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    projectors = {
        "z": [np.kron(np.diag([1.0, 0.0]), np.eye(2)), np.kron(np.diag([0.0, 1.0]), np.eye(2))],
        "x": [np.kron(np.outer(h[:, i], h[:, i]), np.eye(2)) for i in range(2)],
    }
    s_b = entropy(trace_a(rho))
    s_a = entropy(trace_b(rho))
    s_ab = entropy(rho)
    post = {}
    hol = {}
    for name, (p0, p1) in projectors.items():
        sub0, sub1 = p0 @ rho @ p0, p1 @ rho @ p1
        post[name] = entropy(sub0 + sub1)
        total = s_b
        for sub in (sub0, sub1):
            prob = float(sub.trace().real)
            total -= prob * entropy(trace_a(sub) / prob)
        hol[name] = total
    u_left = (post["x"] - s_b) + (post["z"] - s_b)
    berta = 1.0 + s_ab - s_b
    delta = (s_a + s_b - s_ab) - hol["x"] - hol["z"]
    return {"u_left": u_left, "berta": berta, "adabi": berta + max(0.0, delta), "delta": delta}


def test_criterion_04_bell_diagonal_start_values():
    failures = []
    rho = bell_diagonal_initial(0.5)
    x, z = pauli_x(), pauli_z()
    rec = bounds_record(rho, x, z)
    brute = _brute_force_bell_half_t0()
    expectations = [
        ("berta", rec.berta, 1.5, 1e-9),
        ("u_left", rec.u_left, 1.811278, 1e-6),
        ("adabi", rec.adabi, 1.811278, 1e-6),
        ("delta", rec.delta, 0.311278, 1e-6),
    ]
    for name, value, target, tol in expectations:
        if abs(value - target) > tol:
            failures.append(f"{name} = {value!r}, expected {target} +/- {tol}")
        if abs(value - brute[name]) > 1e-10:
            failures.append(f"{name} disagrees with brute-force route by {abs(value - brute[name]):.2e}")
    _report("04 Bell-diagonal t=0 values (vs brute-force oracle)", failures)


def test_criterion_05_markovian_saturation(preset_sweeps):
    failures = []
    ledger = preset_sweeps[3].ledgers[1]
    t, adabi, amplitude = ledger.t[-1], ledger.adabi[-1], ledger.amplitude[-1]
    if t != 20.0:
        failures.append(f"last grid point is {t}, expected 20")
    if abs(adabi - 2.0) > 1e-3:
        failures.append(f"|adabi - 2| = {abs(adabi - 2.0):.3e} > 1e-3")
    if abs(amplitude) > 1e-4:
        failures.append(f"|C| = {abs(amplitude):.3e} > 1e-4")
    _report("05 Markovian saturation at gamma0*t = 20", failures)


def test_criterion_06_inequality_chain(preset_sweeps):
    failures = []
    rng = np.random.default_rng(7)
    x, z = pauli_x(), pauli_z()
    worst_u, worst_b = 0.0, 0.0
    for _ in range(1000):
        rho = random_density_matrix(rng, 4)
        rec = bounds_record(rho, x, z)
        worst_u = min(worst_u, rec.u_left - rec.adabi)
        worst_b = min(worst_b, rec.adabi - rec.berta)
    for fig, output in preset_sweeps.items():
        for ledger in output.ledgers.values():
            worst_u = min(worst_u, float(np.min(ledger.u_left - ledger.adabi)))
            worst_b = min(worst_b, float(np.min(ledger.adabi - ledger.berta)))
    if worst_u < -1e-9:
        failures.append(f"u_left - adabi dips to {worst_u:.3e}")
    if worst_b < -1e-9:
        failures.append(f"adabi - berta dips to {worst_b:.3e}")
    _report("06 inequality chain on 1000 random states + all sweep rows", failures)


def test_criterion_07_channel_matches_evolved_matrix():
    failures = []
    initial = max_entangled_initial()
    worst = 0.0
    for c in np.linspace(-1.0, 1.0, 100):
        gap = np.max(np.abs(apply_memory_decay(initial, c) - evolved_max_entangled(c)))
        worst = max(worst, float(gap))
    if worst > 1e-15:
        failures.append(f"entrywise gap {worst:.3e} > 1e-15")
    _report(f"07 channel vs evolved matrix (max gap {worst:.2e})", failures)


def test_criterion_08_closed_form_audit():
    failures = []
    consistent = ("max_ent_entropy_x", "max_ent_entropy_z", "max_ent_bound", "max_ent_delta")
    for c in np.linspace(0.0, 1.0, 101):
        rows = {row.name: row for row in closed_form_report(float(c))}
        for name in consistent:
            if rows[name].deviation > 1e-9:
                failures.append(f"{name} deviates {rows[name].deviation:.2e} at c={c:.2f}")
                break
        expected = binary_entropy(0.5 * float(c) ** 2)
        if abs(rows["max_ent_lhs"].deviation - expected) > 1e-9:
            failures.append(f"max_ent_lhs deviation != S_bin(c^2/2) at c={c:.2f}")
            break
    rows_full = {row.name: row for row in closed_form_report(1.0)}
    if abs(rows_full["bell_lhs"].deviation - 0.375) > 1e-6:
        failures.append(f"bell_lhs deviation at c=1 is {rows_full['bell_lhs'].deviation!r}, expected 0.375")
    report = discrepancy_report(0.5)
    if report.audit("max_ent_lhs").passed:
        failures.append("max_ent_lhs not FLAGGED")
    if report.audit("bell_lhs").passed:
        failures.append("bell_lhs not FLAGGED")
    if report.evolved_matrix.deviation_at_full_amplitude < 0.125:
        failures.append(
            f"evolved-matrix deviation at c=1 is {report.evolved_matrix.deviation_at_full_amplitude:.3e} < 1/8"
        )
    _report("08 closed-form audit (consistent set, flagged set, matrix gap)", failures)


def test_criterion_09_protection_by_additional_qubits(preset_sweeps):
    failures = []
    for fig, output in preset_sweeps.items():
        means = [float(np.mean(output.ledgers[n].adabi)) for n in (1, 2, 5, 10)]
        if not all(a > b for a, b in zip(means, means[1:])):
            failures.append(f"preset {fig}: time-averaged adabi not strictly decreasing: {means}")
    _report("09 protection by N across all four presets", failures)


def test_criterion_10_revival_and_monotonicity(preset_sweeps):
    failures = []
    adabi_nm = preset_sweeps[2].ledgers[1].adabi
    largest_drop = float(np.max(np.maximum.accumulate(adabi_nm) - adabi_nm))
    if largest_drop <= 0.01:
        failures.append(f"non-Markovian largest drop {largest_drop:.4f} <= 0.01")
    adabi_m = preset_sweeps[3].ledgers[1].adabi
    if not np.all(np.diff(adabi_m) >= -1e-9):
        failures.append("Markovian adabi not non-decreasing within 1e-9")
    _report(f"10 non-Markovian revival (drop {largest_drop:.3f}) / Markovian monotonicity", failures)


def test_criterion_11_deterministic_csv(tmp_path):
    failures = []
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--fig", "2", "--out", str(a)]) == 0
    assert main(["sweep", "--fig", "2", "--out", str(b)]) == 0
    if a.read_bytes() != b.read_bytes():
        failures.append("two runs of 'sweep --fig 2' differ")
    _report("11 byte-identical CSV for repeated preset runs", failures)


def test_criterion_12_paper_claim_ordering_in_n(preset_sweeps):
    # The paper's claim that adding qubits to the reservoir protects the
    # lower bound.  Markovian presets (figs 3 and 5): ordered in N at every
    # t.  Non-Markovian presets (figs 2 and 4): pointwise ordering fails
    # during the revivals, so only the time average is ordered.
    failures = []
    for fig, output in preset_sweeps.items():
        columns = {
            name: np.array([getattr(ledger, name) for ledger in output.ledgers.values()])
            for name in ("u_left", "adabi", "berta", "amplitude")
        }
        if fig in (3, 5):
            for name in ("u_left", "adabi", "berta"):
                rises = int(np.sum(np.diff(columns[name], axis=0) > 0.0))
                if rises:
                    failures.append(f"preset {fig}: {name} rises with N at {rises} points")
            falls = int(np.sum(np.diff(np.abs(columns["amplitude"]), axis=0) < 0.0))
            if falls:
                failures.append(f"preset {fig}: |C| falls with N at {falls} points")
        else:
            means = np.mean(columns["u_left"], axis=1)
            if not np.all(np.diff(means) < 0.0):
                failures.append(f"preset {fig}: time-averaged u_left not decreasing: {means}")
    _report("12 bound protected by N (pointwise Markovian, time-averaged non-Markovian)", failures)
