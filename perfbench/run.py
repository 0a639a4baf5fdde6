"""Benchmark for the hardysim CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hardysim checkout; the program is imported from its
`src/` directory.  Each operation is one CLI command in a fresh process,
run to completion before the next starts (closed loop, one client, no
pool).  Operations repeat until S seconds have passed; every output is
checked.  With --trace 0 the last line reports the end-to-end metrics,
with --trace 1 the per-layer metrics of traced operations, which alternate
with untraced ones so the tracing overhead is measured in the same run.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

SETUP_PROBES = 5
# One operation may take up to OP_TIMEOUT_S.  The measuring loop starts
# operations for --seconds, and at most one more may be forced after it
# (the second of a traced run, or the repeat of the seeded sweep), so an
# invocation ends within set-up + max(seconds, OP_TIMEOUT_S) + OP_TIMEOUT_S.
# MAX_SECONDS keeps that under the 180 s an invocation is allowed.
OP_TIMEOUT_S = 75.0
MAX_SECONDS = 75.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, source, span): source says which trace aggregate to read.
PER_LAYER = tuple(
    (f"{layer}.self_s", "s", "layer_self", layer) for layer in spans.LAYERS
) + (
    ("sweep.csv_write_s", "s", "total", "sweep.csv_write"),
    ("sweep.csv_write_bytes", "bytes", "work", "sweep.csv_write"),
    ("sweep.csv_read_s", "s", "total", "sweep.csv_read"),
    ("sweep.csv_read_rows", "count", "work", "sweep.csv_read"),
    ("sweep.report_s", "s", "total", "sweep.report"),
    ("noise.point_p50_ms", "ms", "p50", "noise.point"),
    ("noise.point_p95_ms", "ms", "p95", "noise.point"),
    ("noise.simulate_s", "s", "total", "noise.simulate"),
    ("noise.simulate_calls", "count", "calls", "noise.simulate"),
    ("noise.simulate_self_s", "s", "self", "noise.simulate"),
    ("noise.kraus_s", "s", "total", "noise.kraus"),
    ("noise.kraus_builds", "count", "calls", "noise.kraus"),
    ("noise.sample_s", "s", "total", "noise.sample"),
    ("noise.sample_calls", "count", "calls", "noise.sample"),
    ("noise.rng_streams", "count", "calls", "noise.rng"),
    ("noise.estimate_s", "s", "total", "noise.estimate"),
    ("gates.circuit_build_s", "s", "total", "gates.circuit_build"),
    ("gates.circuit_steps", "count", "work", "gates.circuit_build"),
    ("statevector.channel_s", "s", "total", "statevector.channel"),
    ("statevector.channel_calls", "count", "calls", "statevector.channel"),
    ("statevector.gate_s", "s", "total", "statevector.gate"),
    ("statevector.gate_calls", "count", "calls", "statevector.gate"),
    ("statevector.unitary_s", "s", "total", "statevector.unitary"),
    ("hardy.params_s", "s", "total", "hardy.params"),
    ("hardy.params_calls", "count", "calls", "hardy.params"),
    ("hardy.vector_s", "s", "total", "hardy.vector"),
    ("hardy.vector_calls", "count", "calls", "hardy.vector"),
    ("selftest.suites_s", "s", "total", "selftest.suites"),
    ("trace.overhead_frac", "1", "overhead", None),
)


def now() -> float:
    """CLOCK_MONOTONIC, shared with the child so set-up can span the spawn."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Op:
    """One CLI run: its timings, whether its output passed, and its trace."""

    mode: str
    setup_s: float | None = None
    run_s: float | None = None
    cpu_s: float | None = None
    timed_out: bool = False
    rss_mb: float | None = None
    points: int = 0
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    out_bytes: bytes | None = None

    @property
    def ok(self) -> bool:
        return not self.problems and not self.timed_out

    def status(self) -> str:
        if self.timed_out:
            return f"TIMEOUT after {OP_TIMEOUT_S:g} s"
        return "ok" if self.ok else "FAIL " + "; ".join(self.problems[:5])


class Runner:
    """Spawns child processes against one checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, mode: str, argv=()) -> tuple[dict | None, str]:
        """Run child.py; returns (its JSON result or None, error text).

        Raises subprocess.TimeoutExpired after OP_TIMEOUT_S, once the child
        has been killed and reaped.
        """
        cmd = [sys.executable, str(CHILD), mode, str(self.root / "src"), *argv]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not out.strip():
            return None, f"child exited {proc.returncode}: {err.strip()[-500:]}"
        return json.loads(out.splitlines()[-1]), err

    def setup_probe(self) -> float:
        start = now()
        try:
            result, err = self.spawn("import")
        except subprocess.TimeoutExpired:
            result, err = None, f"timed out after {OP_TIMEOUT_S:g} s"
        if result is None:
            raise RuntimeError(f"cannot import hardysim: {err}")
        return result["t_ready"] - start

    def operation(self, workload: workloads.Workload, mode: str) -> Op:
        if workload.out_path is not None and workload.out_path.exists():
            workload.out_path.unlink()
        op = Op(mode)
        start = now()
        try:
            result, err = self.spawn(mode, workload.argv)
        except subprocess.TimeoutExpired:
            op.timed_out = True
            return op
        if result is None:
            op.problems.append(err)
            return op
        op.setup_s = result["t_ready"] - start
        op.run_s = result["run_s"]
        op.cpu_s = result["cpu_s"]
        op.rss_mb = result["maxrss_kb"] / 1024.0
        op.trace = result.get("trace")
        if result["rc"] != 0:
            op.problems.append(f"exit code {result['rc']}: {err.strip()[-500:]}")
            return op
        if workload.out_path is not None and workload.out_path.exists():
            op.out_bytes = workload.out_path.read_bytes()
        outcome = workloads.Outcome(result["output"], op.out_bytes)
        op.points, problems = workload.check(outcome)
        op.problems += problems
        return op


def environment(root: Path) -> dict:
    """Machine, interpreter, library and source identity for the record."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hardysim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def layer_value(trace: dict, source: str, span: str | None) -> float:
    if source == "layer_self":
        return trace["layer_self"][span]
    if source in ("p50", "p95"):
        durations = trace["durations"].get(span) or [0.0]
        return float(np.percentile(durations, 50 if source == "p50" else 95)) * 1e3
    return trace[source].get(span, 0)


def end_to_end_metrics(setups: list[float], ops: list[Op]) -> dict[str, float]:
    """Medians over the operations that completed with a correct output."""
    done = [op for op in ops if op.ok]
    return {
        "setup_s": statistics.median(setups + [op.setup_s for op in done]),
        "run_s": statistics.median(op.run_s for op in done),
        "points_per_s": statistics.median(op.points / op.run_s for op in done),
        "peak_rss_mb": statistics.median(op.rss_mb for op in done),
    }


def per_layer_metrics(ops: list[Op]) -> tuple[dict[str, float], list[str]]:
    traced = [op for op in ops if op.ok and op.mode == "trace"]
    plain = [op.run_s for op in ops if op.ok and op.mode == "run"]
    installed = set(traced[0].trace["installed"])
    values, absent = {}, []
    for metric, _unit, source, span in PER_LAYER:
        if source == "overhead":
            values[metric] = (statistics.median(op.run_s for op in traced)
                              / statistics.median(plain) - 1.0)
            continue
        if source != "layer_self" and span not in installed:
            absent.append(metric)
        values[metric] = statistics.median(layer_value(op.trace, source, span)
                                           for op in traced)
    return values, absent


def run(args, root: Path, workdir: Path) -> int:
    runner = Runner(root)
    print("env " + json.dumps(environment(root), sort_keys=True))
    workload = workloads.prepare(args.workload, args.seed, workdir)

    runner.setup_probe()  # warm-up: writes bytecode caches, fills the page cache
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]

    modes = ("run", "trace") if args.trace else ("run",)
    ops: list[Op] = []
    start = now()
    while len(ops) < len(modes) or now() - start < args.seconds:
        ops.append(runner.operation(workload, modes[len(ops) % len(modes)]))
        if ops[-1].timed_out:
            break

    # Every operation ran the same command line, so every output file must
    # hold the same bytes.  The seeded sweep gets an untimed second run when
    # only one was timed.
    checked = list(ops)
    if workload.name == "diagonal_sampled" and len(ops) < 2 and not ops[0].timed_out:
        checked.append(runner.operation(workload, "run"))
        checked[-1].mode = "repeat"
    first = next((op.out_bytes for op in checked if op.out_bytes is not None), None)
    for op in checked:
        if op.out_bytes is not None and op.out_bytes != first:
            op.problems.append("output differs from the first run of the same command")
    for i, op in enumerate(checked, start=1):
        print(f"op {i} mode={op.mode} setup_s={op.setup_s} run_s={op.run_s} "
              f"cpu_s={op.cpu_s} points={op.points} rss_mb={op.rss_mb} {op.status()}")
    # A timed-out operation is slow, not wrong: it is neither attempted nor failed.
    timed_out = sum(op.timed_out for op in checked)
    attempted = len(checked) - timed_out
    failed = sum(not op.ok for op in checked) - timed_out
    if timed_out:
        print(f"timed_out={timed_out} (operations stopped after {OP_TIMEOUT_S:g} s)")
    if attempted:
        print(f"error_rate={failed / attempted:.6g} ({failed}/{attempted} operations failed)")

    needed = modes if args.trace else ("run",)
    if not all(any(op.ok and op.mode == mode for op in ops) for mode in needed):
        print(f"error: no correct {'/'.join(needed)} operation to time "
              f"({failed} failed, {timed_out} timed out)", file=sys.stderr)
        return 1
    if args.trace:
        values, absent = per_layer_metrics(ops)
        units = {metric: unit for metric, unit, _s, _n in PER_LAYER}
        traced = next(op for op in ops if op.ok and op.mode == "trace")
        covered = sum(traced.trace["layer_self"].values()) / traced.run_s
        print(f"trace.self_sum_frac={covered:.6f} (layer self times / traced run_s)")
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
        if traced.trace["missing"]:
            print("not found in program: " + ", ".join(traced.trace["missing"]))
    else:
        values = end_to_end_metrics(setups, ops)
        units = dict(END_TO_END)
    for metric, value in values.items():
        print(f"{metric}={value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")

    root = Path.cwd()
    if not (root / "src" / "hardysim" / "cli.py").is_file():
        print(f"error: no src/hardysim/cli.py under {root}; run from a hardysim checkout",
              file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
