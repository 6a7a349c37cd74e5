"""Benchmark of the fastcloud program: set-up, timed ops and output checks.

Run from the root of a checkout, which holds the program's sources in ``src``:

    python3 perfbench/run.py --workload assess-deep --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
from wrappers installed around each layer for the timed ops. Without
``--workload`` all workloads run one after another, each in its own process.
Results and traces are also written under ``perfbench/out``.

End-to-end times are process CPU times scaled to a reference speed: a fixed
probe, ``reference_work()``, is timed around every op and set-up, so that a
change in how fast the host runs this process does not read as a change in
the program (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

WORKLOAD_NAMES = ("assess-deep", "ingest-batches", "rank-wide")
WARMUP_OPS = 4
SETUP_REPEATS = 5
# CPU milliseconds that reference_work() takes at the speed every reported
# time is scaled to (about its time on the machine of the README's figures).
# Changing it rescales every reported time.
REFERENCE_MS = 7.5
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_cpu_s": "ops/s",
    "op_cpu_ms_p50": "ms",
    "op_cpu_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class _Record:
    __slots__ = ("csp", "csc", "attribute", "value")

    def __init__(self, csp: str, csc: str, attribute: str, value: float):
        self.csp, self.csc, self.attribute, self.value = csp, csc, attribute, value

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.csp, self.csc, self.attribute)


class _Cell:
    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float):
        self.lower, self.upper = lower, upper


def reference_work() -> float:
    """Fixed pure-Python work, independent of the program: the speed probe.

    It mixes the patterns the ops spend their time in: scans of slotted
    records through a tuple-building property, sorting, and float arithmetic
    over pairs of interval-like objects.
    """
    records = [_Record(f"p{i % 13}", f"u{i % 3}", "abcdef"[i % 6], i * 0.5)
               for i in range(1000)]
    total = 0.0
    for j in range(12):
        key = (f"p{j}", f"u{j % 3}", "abcdef"[j % 6])
        total += len(sorted((r for r in records if r.key == key), key=lambda r: r.value))
    cells = [_Cell(i * 0.37 % 11.0, i * 0.37 % 11.0 + (i % 5) * 0.1) for i in range(300)]
    for a in cells[:50]:
        for b in cells:
            total += abs(a.lower - b.lower) + abs(a.upper - b.upper)
    return total


def reference_seconds() -> float:
    # without the collector, which would otherwise also scan whatever the
    # workload left alive and make the probe's time depend on it
    gc.disable()
    try:
        started = time.process_time()
        reference_work()
        return time.process_time() - started
    finally:
        gc.enable()


def scaled(cpu: float, probes) -> float:
    """CPU seconds at reference speed, from the probe's times around them."""
    return cpu * REFERENCE_MS / 1e3 / statistics.median(probes)


def run_workload(name: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> dict:
    import layertrace
    import workloads

    workload = workloads.WORKLOADS[name]
    n_timed = workload.timed_ops(seconds)
    n_ops = WARMUP_OPS + n_timed
    inputs = workload.generate(seed, n_ops)
    work_dir = out_dir / f"work-{name}-{os.getpid()}"
    tracer = layertrace.Tracer() if trace else None
    setup_cpu, raw_times, errors, failed = [], [], [], 0
    with ExitStack() as stack:
        stack.callback(shutil.rmtree, work_dir, ignore_errors=True)
        for _ in range(SETUP_REPEATS):
            state = None
            shutil.rmtree(work_dir, ignore_errors=True)
            gc.collect()
            before = reference_seconds()
            state, cpu = workload.setup(inputs, work_dir)
            setup_cpu.append((cpu, (before, reference_seconds())))
        # The inputs and prepared state of every op stay alive for the whole
        # run; freezing them keeps the full collection before each op from
        # scanning them again and again.
        gc.collect()
        gc.freeze()
        probes = [reference_seconds()]  # probes[i] runs before op i, probes[i + 1] after
        for i in range(n_ops):
            if tracer is not None:
                if i == WARMUP_OPS:
                    stack.enter_context(tracer)
                tracer.op = i
            # free the previous op's output here, not inside the next timed op
            output = None
            gc.collect()
            started = time.process_time()
            try:
                ok, output = workload.run_op(state, i)
            except Exception:
                traceback.print_exc()
                ok = False
            elapsed = time.process_time() - started
            probes.append(reference_seconds())
            if not ok:
                failed += 1
                continue
            if i >= WARMUP_OPS:
                raw_times.append((i, elapsed))
            errors += [f"op {i}: {e}" for e in workload.check_op(state, i, output)]
        errors += workload.check_end(state)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)

    # The median of the three probes before and the three after an op keeps
    # one probe's jitter out of the op's scale and still follows changes of
    # speed that last a second or more.
    times = [scaled(cpu, probes[max(0, i - 2):i + 4]) for i, cpu in raw_times]
    if tracer is not None:
        metrics = tracer.metrics(len(times))
        units = layertrace.METRICS
    else:
        metrics = end_to_end([scaled(*s) for s in setup_cpu], times)
        units = E2E_UNITS
    result = {
        "correct": not errors,
        "attempted": n_ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    # unscaled CPU times, kept beside the result for comparison
    raw = end_to_end([cpu for cpu, _ in setup_cpu], [cpu for _, cpu in raw_times])
    if tracer is None:
        (out_dir / f"{name}-seed{seed}.json").write_text(
            json.dumps(dict(result, unscaled=raw)) + "\n")
    else:
        ops_per_cpu_s = len(times) / sum(times) if times else 0.0
        summary = {"workload": name, "seed": seed, "traced_ops_per_cpu_s": ops_per_cpu_s,
                   "traced_unscaled_ops_per_cpu_s": raw["ops_per_cpu_s"]}
        untraced = out_dir / f"{name}-seed{seed}.json"
        if untraced.exists() and ops_per_cpu_s:
            base = json.loads(untraced.read_text())["metrics"]["ops_per_cpu_s"]["value"]
            summary["untraced_ops_per_cpu_s"] = base
            summary["tracing_overhead"] = base / ops_per_cpu_s - 1.0
            print(f"tracing overhead on ops_per_cpu_s: {summary['tracing_overhead']:+.1%}",
                  file=sys.stderr)
        summary["metrics"] = metrics
        tracer.write(out_dir / f"{name}-seed{seed}.trace.jsonl", summary)
    return result


def end_to_end(setup_cpu: list[float], times: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_cpu),
        "ops_per_cpu_s": len(times) / sum(times) if times else 0.0,
        "op_cpu_ms_p50": 1e3 * statistics.median(times) if times else 0.0,
        "op_cpu_ms_p90": 1e3 * statistics.quantiles(times, n=10)[8] if len(times) > 1 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another; prints a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<42}{m['value']:>14.4f} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="nominal run length; sets the op count from today's op rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "fastcloud" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/fastcloud; "
              "run from the root of a fastcloud checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import fastcloud

    if Path(fastcloud.__file__).resolve().parent != (src / "fastcloud").resolve():
        print(f"error: fastcloud imported from {fastcloud.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
