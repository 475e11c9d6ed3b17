"""Print every benchmark metric by name and unit, and check every op.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]
                                [--out FILE]

Runs perfbench/run.py for each workload twice, in fresh interpreters:
untraced for the end-to-end metrics, traced for the per-layer metrics.
Prints one line per metric, the unscaled wall-clock figures behind the
end-to-end times, and the environment of the runs.  --out also
writes everything to a JSON file.  Exits 1 if any op failed its check or
any run gave no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900.0


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        context = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"no result (exit code {proc.returncode})"}
    return {**result, **context}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results[workload] = {
            "end_to_end": run_once(workload, args.seed, args.seconds, 0),
            "per_layer": run_once(workload, args.seed, args.seconds, 1),
        }
    ok = True
    env = None
    print(f"{'workload':<12} {'metric':<42} {'value':>16} unit")
    for workload, runs in results.items():
        for kind, run in runs.items():
            if not run.get("correct"):
                ok = False
                print(f"{workload:<12} {kind} run FAILED: "
                      f"{run.get('error') or str(run.get('failed')) + ' failed ops'}")
            for name, metric in run.get("metrics", {}).items():
                print(f"{workload:<12} {name:<42} {metric['value']:>16.6g} {metric['unit']}")
            if kind == "end_to_end" and "info" in run:
                info = run["info"]
                print(f"{workload:<12} {'failed_ops_frac':<42} {info['failed_ops_frac']:>16.6g} 1")
                print(f"{workload:<12} {'(tail percentile, ops)':<42} "
                      f"{info['tail_percentile']:>16.6g} % of {info['ops']}")
                for name, value in info.get("unscaled", {}).items():
                    unit = run["metrics"][name]["unit"]
                    print(f"{workload:<12} {'(unscaled wall) ' + name:<42} {value:>16.6g} {unit}")
            if kind == "per_layer":
                env = env or run.get("env")
    print("environment:", json.dumps(env))
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "env": env, "results": results},
            indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
