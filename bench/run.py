"""eulb benchmark: one workload, timed end to end, or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 12 --trace 0

Workloads are defined in workloads.py.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json: set-up time in fresh interpreters,
median wall and CPU seconds per pass, and the tracemalloc peak of one extra
untimed pass.  With --trace 1 it times untraced passes for half the
budget, then binds the span recorder of spans.py and reports the
per-layer metrics of the traced passes.  Every pass's outputs are checked;
the last stdout line is {"correct", "attempted", "failed", "metrics"}, and
the full record (environment, quartiles, call tree) goes to
.bench_out/results/.  eulb is imported from src/ of this checkout, in this
process, with BLAS/OpenMP threads capped at the available CPU count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("figures", "oracle", "single_state")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def build_inputs(workload: str, seed: int, workdir: Path):
    """Import eulb from this checkout and build the workload's seeded inputs."""
    sys.path.insert(0, str(SRC))
    import eulb
    import workloads

    if Path(eulb.__file__).resolve().parent != SRC / "eulb":
        raise ImportError(f"eulb imported from {eulb.__file__}, not from {SRC}")
    return workloads.WORKLOADS[workload](seed, workdir)


def setup_probe(args: argparse.Namespace) -> None:
    """Child process: time import + input building in this fresh interpreter."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        build_inputs(args.workload, args.seed, Path(tmp))
        print(time.perf_counter() - t0)


def measure_setup(args: argparse.Namespace) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_ops(ops) -> list:
    """Each op's output, or the exception it raised, which its check counts as failed."""
    outputs = []
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op, not a crash
            outputs.append(exc)
    return outputs


def run_pass(ops) -> tuple[float, float, list]:
    gc.collect()  # garbage left by the previous pass's checks is not this pass's cost
    w0, c0 = time.perf_counter(), time.process_time()
    outputs = run_ops(ops)
    return time.perf_counter() - w0, time.process_time() - c0, outputs


class Verdicts:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, ops, outputs) -> None:
        for op, output in zip(ops, outputs):
            self.attempted += 1
            reason = f"raised {output!r}" if isinstance(output, Exception) else op.check(output)
            if reason:
                self.failures.append(f"{op.label}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(seed: int, nproc: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eulb").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def timed_passes(ops, seconds: float, verdicts: Verdicts) -> tuple[list[float], list[float]]:
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, outputs = run_pass(ops)
        walls.append(wall)
        cpus.append(cpu)
        verdicts.add(ops, outputs)
    return walls, cpus


def end_to_end(args, workload, verdicts: Verdicts, detail: dict) -> dict[str, float]:
    import tracemalloc

    walls, cpus = timed_passes(workload.ops, args.seconds, verdicts)
    tracemalloc.start()
    try:
        _, _, outputs = run_pass(workload.alloc_ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    verdicts.add(workload.alloc_ops, outputs)
    detail.update(pass_s=summary(walls), pass_cpu_s=summary(cpus), peak_alloc_ops=len(workload.alloc_ops))
    return {
        "setup_s": statistics.median(detail["setup_s"]["samples"]),
        "pass_s": statistics.median(walls),
        "pass_cpu_s": statistics.median(cpus),
        "peak_alloc_mb": peak / 1e6,
    }


def per_layer(args, workload, verdicts: Verdicts, detail: dict) -> dict[str, float]:
    from spans import SpanRecorder

    walls, _ = timed_passes(workload.ops, args.seconds / 2, verdicts)
    untraced = statistics.median(walls)
    recorder = SpanRecorder()
    recorder.install()
    try:
        start = time.perf_counter()
        traced_passes = 0
        while not traced_passes or time.perf_counter() - start < args.seconds / 2:
            outputs = recorder.run_root(lambda: run_ops(workload.ops))
            traced_passes += 1
            verdicts.add(workload.ops, outputs)
    finally:
        recorder.uninstall()
    metrics, wall = recorder.layer_metrics(untraced)
    detail.update(untraced_pass_s=summary(walls), traced_passes=traced_passes,
                  traced_pass_wall_s=wall, spans=len(recorder.starts),
                  call_tree=recorder.call_tree())
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "eulb" / "__init__.py").is_file():
        print(f"error: no eulb sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    detail: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if args.trace == 0:
        samples = measure_setup(args)
        detail["setup_s"] = {**summary(samples), "samples": samples}
    verdicts = Verdicts()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = build_inputs(args.workload, args.seed, Path(tmp))
        detail["env"] = environment(args.seed, nproc)
        if args.trace == 0:
            values = end_to_end(args, workload, verdicts, detail)
            wanted = spec["end_to_end"]
        else:
            values = per_layer(args, workload, verdicts, detail)
            wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = verdicts.failed
    detail.update(attempted=verdicts.attempted, failed=failed,
                  ops_failed_frac=failed / verdicts.attempted,
                  failures=verdicts.failures[:20], metrics=metrics)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"ops_failed_frac {failed / verdicts.attempted:.6g} ({failed}/{verdicts.attempted}); detail: {path.relative_to(ROOT)}")
    for reason in verdicts.failures[:5]:
        print(f"failed: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": verdicts.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
