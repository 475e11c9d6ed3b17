"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import coherence_engine as ce  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
COUNTS = (".calls", ".steps", ".built", "rounds_per_run", "steps_per_sample", "useful_time_frac")


def small_ops(name: str, workdir: Path) -> list:
    """The cheapest inputs of a workload that still reach each op kind."""
    ops = inputs.generate(name, SEED)
    if name == "trajectory":
        return [op for op in ops if op["horizon"] == 50.0] + ops[-1:]
    if name == "extraction":
        p2 = [op for op in ops if op["kind"] == "protocol2"]
        return ops[:2] + [op for op in p2 if op["work_mode"] == "closed"][:1] + [
            op for op in p2 if op["work_mode"] == "quadrature"][:1]
    inputs.write_cli_configs(ops, workdir)
    return ops


def workload(name: str, workdir: Path, in_process: bool = True):
    return workloads.make(name, ce, run.CHILD_ENV, run.ROOT, in_process=in_process)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_at_minimal_size_passes_every_check(name, tmp_path):
    ops = small_ops(name, tmp_path)
    stats = run.measure(workload(name, tmp_path), ops, 0.0)
    assert stats.reasons == []
    assert stats.attempted == len(ops)


def test_cli_subprocess_reruns_are_byte_identical(tmp_path):
    ops = [op for op in small_ops("cli", tmp_path) if op["label"] in ("steady", "protocol2")]
    cli = workload("cli", tmp_path, in_process=False)
    stats = run.measure(cli, ops, 0.0)
    stats = run.measure(cli, ops, 0.0, stats=stats)
    assert stats.reasons == []
    assert stats.attempted == 2 * len(ops)
    assert len(cli.digests) == len(ops)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_runs_with_one_seed_give_identical_counts(name, tmp_path):
    def counts():
        t = tracer.Tracer()
        t.install()
        try:
            stats = run.measure(workload(name, tmp_path), small_ops(name, tmp_path), 0.0, tracer=t)
        finally:
            t.uninstall()
        assert stats.failed == 0
        return {k: v for k, (v, _) in t.metrics().items() if k.endswith(COUNTS)}

    first, second = counts(), counts()
    assert first == second
    assert any(first.values())


def test_tracer_uninstall_restores_the_package():
    before = (ce.dynamics.integrate_ode, ce.numerics.integrate_ode, ce.DensityMatrix.validate)
    t = tracer.Tracer()
    t.install()
    assert ce.dynamics.integrate_ode is not before[0]
    t.uninstall()
    assert (ce.dynamics.integrate_ode, ce.numerics.integrate_ode,
            ce.DensityMatrix.validate) == before


def shifted(fn, by: float):
    return lambda *args, **kwargs: fn(*args, **kwargs) + by


def test_wrong_trajectory_reference_counts_as_failed(tmp_path, monkeypatch):
    ops = small_ops("trajectory", tmp_path)
    uses_expm = sum(op["alignment"] != 1.0 for op in ops)
    monkeypatch.setattr(workloads, "propagate", shifted(workloads.propagate, 1e-6))
    stats = run.measure(workload("trajectory", tmp_path), ops, 0.0)
    assert 0 < stats.failed == uses_expm


def test_wrong_fed_reference_counts_as_failed(tmp_path, monkeypatch):
    ops = small_ops("extraction", tmp_path)
    monkeypatch.setattr(workloads, "free_energy_difference",
                        shifted(workloads.free_energy_difference, 1e-6))
    stats = run.measure(workload("extraction", tmp_path), ops, 0.0)
    assert stats.failed == len(ops)


def test_wrong_cli_reference_counts_as_failed(tmp_path, monkeypatch):
    ops = [op for op in small_ops("cli", tmp_path) if op["label"] == "evolve"]
    monkeypatch.setattr(workloads, "propagate", shifted(workloads.propagate, 1e-6))
    stats = run.measure(workload("cli", tmp_path), ops, 0.0)
    assert stats.failed == 1


def test_tail_is_p99_or_lower_with_ten_ops_above():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail(list(range(5000))) == (4949, 99.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_speed_rescales_each_op_by_the_kernel_samples_around_it():
    s = speed.Speed()
    s.at = [float(k) for k in range(20)]
    s.burst = list(range(20))
    s.took = [speed.REFERENCE_S] * 10 + [2.0 * speed.REFERENCE_S] * 10
    assert s.scale([2.5, 15.5], [0.1, 0.1]) == [0.1, 0.05]
    s.elasticity = 0.5
    assert s.scale([15.5], [0.1]) == [pytest.approx(0.1 * 0.5 ** 0.5)]


def test_speed_window_spans_the_bursts_around_a_long_op():
    s = speed.Speed()
    s.at = [float(k) for k in range(20)]
    s.burst = [0] * 10 + [1] * 10
    ref = speed.REFERENCE_S
    s.took = [ref] * 10 + [3.0 * ref] * 7 + [ref] * 3
    assert s.scale([9.5], [0.1]) == [0.1]


def test_speed_samples_in_proportion_to_elapsed_time(monkeypatch):
    monkeypatch.setattr(speed, "EVERY_S", 1e3)
    s = speed.Speed()
    s.tick()
    assert len(s.took) == speed.BURST
    s.tick()
    assert len(s.took) == speed.BURST


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectory", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
