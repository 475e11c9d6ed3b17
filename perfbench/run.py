"""Benchmark of coherence-engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload {trajectory,extraction,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
The workload's inputs come from the seed alone.  The run is a closed loop
with one client over whole passes of those inputs, for about S seconds;
every op's output is checked against references owned by the benchmark.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
environment.  --trace 0 reports the end-to-end metrics, with every time
rescaled to a reference machine speed (speed.py), --trace 1 the per-layer
metrics of a separately traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Processes the benchmark starts get the caller's environment, unchanged
# but for PYTHONPATH: BLAS start-up is part of what a user's import costs.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("trajectory", "extraction", "cli")
SETUP_PROBES = 7
IMPORT_PROBES = 3
TAIL_ABOVE = 10
TAIL_PERCENTILE = 99.0
PROBE_TIMEOUT_S = 60.0


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package to import)."""


def setup(workload: str, seed: int, workdir: Path):
    """Import the package from the checkout and make the seeded inputs.

    This is what setup_s measures; it runs before anything else imports
    numpy, so the package pays its full import cost here.
    """
    if not (SRC / "coherence_engine" / "__init__.py").is_file():
        raise SetupError(f"no coherence_engine package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import coherence_engine as ce

    if Path(ce.__file__).resolve().parent != (SRC / "coherence_engine").resolve():
        raise SetupError(f"imported coherence_engine from {ce.__file__}, not from {SRC}")
    import inputs

    ops = inputs.generate(workload, seed)
    if workload == "cli":
        inputs.write_cli_configs(ops, workdir)
    return ce, ops


def pin_blas_threads() -> None:
    """One BLAS thread in this process, unless the caller chose a number.

    The checks call expm/eigvalsh; a multi-threaded BLAS keeps worker threads
    spinning on the other core between ops.  The program's 3x3 to 5x5
    products stay below any BLAS threading threshold, so no op's work
    changes.  Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def child(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run a helper interpreter to completion, killing it on timeout."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=timeout, check=True, env=CHILD_ENV,
    )


def probe_setup(workload: str, seed: int) -> tuple:
    """Set-up of a fresh interpreter: (wall s, CPU s, median kernel s just after)."""
    out = child([str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--setup-only"], PROBE_TIMEOUT_S)
    probe = json.loads(out.stdout.splitlines()[-1])
    return float(probe["setup_s"]), float(probe["setup_cpu_s"]), float(probe["kernel_s"])


def probe_import() -> tuple:
    """(total, scipy) seconds of `import coherence_engine`, from -X importtime.

    total is the cumulative time of the coherence_engine entry; scipy is the
    sum of the self times of every scipy module it imported.
    """
    out = child(["-X", "importtime", "-c", "import coherence_engine"], PROBE_TIMEOUT_S)
    total = scipy = 0.0
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "coherence_engine":
            total = int(cumulative_us) / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += int(self_us) / 1e6
    return total, scipy


class Stats:
    """Latency and outcome of every op of a run."""

    def __init__(self):
        self.latencies = []
        self.starts = []
        self.walls = []
        self.cpus = []
        self.by_label = {}
        self.failed = 0
        self.reasons = []

    def record(self, label: str, start: float, latency: float, cpu: float, ok: bool,
               reason: str = "") -> None:
        """One op: wall-clock start and latency, and CPU time of this thread."""
        self.latencies.append(latency if ok else math.inf)
        self.starts.append(start)
        self.walls.append(latency)
        self.cpus.append(cpu)
        self.by_label.setdefault(label, []).append(latency)
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def busy_s(self) -> float:
        return sum(v for vs in self.by_label.values() for v in vs)


def label_of(op: dict) -> str:
    return op.get("label") or op["kind"]


def one_op(workload, i: int, op: dict, stats: Stats, tracer=None) -> None:
    """Time one op, then check its output; a raise or a miss is a failure."""
    scope = tracer.op() if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    cpu_start = time.thread_time()
    try:
        with scope:
            out = workload.run(i, op)
    except Exception as exc:  # the op failed; count it and keep the loop going
        stats.record(label_of(op), start, time.perf_counter() - start,
                     time.thread_time() - cpu_start, False, repr(exc)[:300])
        return
    cpu = time.thread_time() - cpu_start
    latency = time.perf_counter() - start
    try:
        workload.check(i, op, out)
    except Exception as exc:  # a miss or an unreadable output; counted, not skipped
        stats.record(label_of(op), start, latency, cpu, False, repr(exc)[:300])
        return
    stats.record(label_of(op), start, latency, cpu, True)


def measure(workload, ops: list, seconds: float, tracer=None, stats: Stats | None = None,
            speed=None) -> Stats:
    """Closed loop, one client, over whole passes of ops for about `seconds`.

    The first pass fixes the number of passes, round(seconds / its
    duration) and at least one, so the mix of ops in a run, and with it
    every rank statistic, does not flip with small changes in speed.
    With `speed`, a kernel sample may precede each op (speed.Speed.tick),
    one more follows the last, and the duration of the first pass is taken
    at reference speed, so the number of passes does not follow the host
    either: a cli run has 3 or 4 passes of 7 ops, and its tail, the
    11th-slowest op, is p52 with 3 and p64 with 4.
    """
    stats = stats or Stats()
    # Objects that exist before the loop (modules, inputs, the harness) are
    # frozen out of the collector, so a collection pause measures only the
    # objects the ops themselves create.
    gc.collect()
    gc.freeze()
    passes = 1
    done = 0
    while done < passes:
        start = time.perf_counter()
        first_sample = len(speed.took) if speed is not None else 0
        for i, op in enumerate(ops):
            if speed is not None:
                speed.tick()
            one_op(workload, i, op, stats, tracer)
        if done == 0:
            duration = time.perf_counter() - start
            if speed is not None:
                duration *= speed.pace(first_sample)
            passes = max(1, round(seconds / duration))
        done += 1
    if speed is not None:
        speed.sample()
    return stats


def tail(latencies: list) -> tuple:
    """(value, percentile) at TAIL_PERCENTILE, or lower, so TAIL_ABOVE ops stay above.

    Runs of fewer than 1,100 ops get the highest rank with TAIL_ABOVE ops
    above it.  The percentile stops at p99 because, over the ~14,000
    sub-millisecond ops of an extraction run, the ops above it are the few
    the host disturbed, not the program's slowest.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 1
    if n > TAIL_ABOVE:
        rank = min(math.ceil(TAIL_PERCENTILE / 100.0 * n) - 1, n - 1 - TAIL_ABOVE)
    return ordered[rank], 100.0 * (rank + 1) / n


def finite(x: float) -> float:
    return x if math.isfinite(x) else sys.float_info.max


def end_to_end(workload: str, stats: Stats, setup_probes: list, speed) -> tuple:
    """The six end-to-end metrics; times are rescaled to REFERENCE_S speed.

    An op's time is the CPU time of this thread for the in-process
    workloads, whose ops run on this thread alone: that is its wall time
    without the stretches in which the host ran something else on the
    core.  For cli it is the wall time of the subprocess.  Each op's time
    is scaled by the kernel samples around it, each set-up probe by the
    kernel samples its own interpreter took after set-up.  The unscaled
    wall-clock figures go into the info line.
    """
    from speed import REFERENCE_S

    ok = stats.attempted - stats.failed
    scaled = speed.scale(stats.starts, stats.walls if workload == "cli" else stats.cpus)
    latencies = [s if math.isfinite(v) else math.inf for s, v in zip(scaled, stats.latencies)]
    tail_s, tail_pct = tail(latencies)
    raw_tail_s, _ = tail(stats.latencies)
    setups = [cpu * REFERENCE_S / k for _, cpu, k in setup_probes]
    if workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (ok / sum(scaled), "1/s"),
        "latency_p50_ms": (finite(1e3 * statistics.median(latencies)), "ms"),
        "latency_tail_ms": (finite(1e3 * tail_s), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_ops_frac": (ok / stats.attempted, "1"),
    }
    info = {
        "tail_percentile": tail_pct,
        "ops": stats.attempted,
        "failed_ops_frac": stats.failed / stats.attempted,
        "setup_samples_s": setups,
        "kernel_median_ms": 1e3 * speed.median(),
        "kernel_samples": len(speed.took),
        "unscaled": {
            "setup_s": statistics.median(wall for wall, _, _ in setup_probes),
            "throughput_ops_s": ok / stats.busy_s(),
            "latency_p50_ms": finite(1e3 * statistics.median(stats.latencies)),
            "latency_tail_ms": finite(1e3 * raw_tail_s),
        },
    }
    return metrics, info


def per_layer(name: str, ce, ops: list, seconds: float) -> tuple:
    """Traced run: a warm-up pass, then untraced and traced passes in turn.

    The tracer is installed only for the traced passes, so the untraced
    ones run the plain program and give the base of trace.overhead_frac.
    """
    import inputs
    import tracer as tracing
    import workloads

    workload = workloads.make(name, ce, CHILD_ENV, ROOT, in_process=True)
    plain, traced = Stats(), Stats()
    measure(workload, ops, 0.0, stats=plain)
    t = tracing.Tracer()
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        before = plain.busy_s()
        measure(workload, ops, 0.0, stats=plain)
        plain_s += plain.busy_s() - before
        t.install()
        try:
            before = traced.busy_s()
            measure(workload, ops, 0.0, tracer=t, stats=traced)
            traced_s += traced.busy_s() - before
        finally:
            t.uninstall()
        now = time.perf_counter()
        if (now - start) + (now - lap) > seconds:
            break
    metrics = t.metrics()
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "1")
    imports = [probe_import() for _ in range(IMPORT_PROBES)]
    metrics["import.total_s"] = (statistics.median(v[0] for v in imports), "s")
    metrics["import.scipy_s"] = (statistics.median(v[1] for v in imports), "s")
    for label in inputs.CLI_LABELS:
        walls = traced.by_label.get(label, []) if name == "cli" else []
        metrics[f"cli.{label}.wall_ms"] = (1e3 * statistics.median(walls) if walls else 0.0, "ms")
    plain.latencies += traced.latencies
    plain.failed += traced.failed
    plain.reasons += traced.reasons
    return metrics, plain


def environment(overhead) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip())
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "trace_overhead_frac": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not args.setup_only:
        pin_blas_threads()
    workdir = SCRATCH / f"run-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        cpu_start = time.thread_time()
        try:
            ce, ops = setup(args.workload, args.seed, workdir)
        except (SetupError, ImportError) as exc:
            print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
            return 2
        own_setup = time.perf_counter() - start
        own_setup_cpu = time.thread_time() - cpu_start
        # speed.py imports numpy, so only after set-up has timed that import.
        from speed import SETUP_SAMPLES, SUBPROCESS_ELASTICITY, Speed
        if args.setup_only:
            speed = Speed()
            for _ in range(SETUP_SAMPLES):
                speed.sample()
            print(json.dumps({"setup_s": own_setup, "setup_cpu_s": own_setup_cpu,
                              "kernel_s": speed.median()}))
            return 0
        if args.trace:
            metrics, stats = per_layer(args.workload, ce, ops, args.seconds)
            info = {"ops": stats.attempted}
            overhead = metrics["trace.overhead_frac"][0]
        else:
            import workloads

            probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            workload = workloads.make(args.workload, ce, CHILD_ENV, ROOT)
            speed = Speed(SUBPROCESS_ELASTICITY if args.workload == "cli" else 1.0)
            stats = measure(workload, ops, args.seconds, speed=speed)
            metrics, info = end_to_end(args.workload, stats, probes, speed)
            overhead = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    for reason in stats.reasons:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print(json.dumps({"env": environment(overhead), "info": info}))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if stats.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
