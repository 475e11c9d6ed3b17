"""Ops and correctness checks of the benchmark workloads.

``run`` hands one generated input to the program and returns its answer;
``check`` compares that answer with references owned by the benchmark and
raises CheckFailed on any miss.  The references are independent of the
program's own solution path: a matrix exponential of the augmented affine
generator, the aligned closed form, and a free-energy difference computed
here from an eigendecomposition.  Every check compares against the exact
solution at the requested time, never against convergence to the Gibbs
state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

TRAJECTORY_TOL = 1e-8
TRACE_TOL = 1e-12
MIN_EIGENVALUE = -1e-8
FED_TOL = 1e-10
PROTOCOL2_TOL = {"closed": 1e-10, "quadrature": 1e-6}
CLI_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """An op's output disagreed with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# References owned by the benchmark
# ----------------------------------------------------------------------


def augmented(generator) -> np.ndarray:
    """5x5 form [[M, -b], [0, 0]] of dPi/dt = M Pi - b on (r22, r00, r+, d)."""
    m, b = generator.real_form()
    a = np.zeros((5, 5))
    a[:4, :4] = m
    a[:4, 4] = -b
    return a


def propagate(a: np.ndarray, init, t: float) -> np.ndarray:
    """Exact coherence vector at time t: expm(t A) applied to (Pi0, 1)."""
    return (expm(a * t) @ np.append(np.asarray(init, dtype=float), 1.0))[:4]


def stationary(a: np.ndarray, init) -> np.ndarray:
    """Long-time limit of propagate, taken at 60 slowest relaxation times."""
    rates = -np.linalg.eigvals(a[:4, :4]).real
    slowest = min(r for r in rates if r > 1e-9)
    return propagate(a, init, 60.0 / slowest)


def density(vec) -> np.ndarray:
    """3x3 state in basis order (|2>, |1>, |0>) from (r22, r00, r+, d)."""
    r22, r00, rp, d = (float(v) for v in vec)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = r22, 1.0 - r22 - r00, r00
    m[0, 1] = rp + 1j * d
    m[1, 0] = rp - 1j * d
    return m


def general_state(b: float, n_norm: float, theta: float, phi: float) -> np.ndarray:
    """Ground weight b plus an excited qubit with Bloch vector (n, theta, phi)."""
    nx = n_norm * math.sin(theta) * math.cos(phi)
    ny = n_norm * math.sin(theta) * math.sin(phi)
    nz = n_norm * math.cos(theta)
    w = 0.5 * (1.0 - b)
    m = np.zeros((3, 3), dtype=complex)
    m[:2, :2] = w * np.array([[1.0 + nz, nx - 1j * ny], [nx + 1j * ny, 1.0 - nz]])
    m[2, 2] = b
    return m


def l1(m: np.ndarray) -> float:
    a = np.abs(m)
    return float(a.sum() - np.trace(a))


def free_energy_difference(m: np.ndarray, omega: float, beta: float) -> float:
    """F(rho) - F(Gibbs) for H = diag(omega, omega, 0), from the spectrum."""
    lam = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    entropy = -sum(float(v) * math.log(v) for v in lam if v > 1e-300)
    energy = omega * float((m[0, 0] + m[1, 1]).real)
    z = 1.0 + 2.0 * math.exp(-beta * omega)
    return energy - entropy / beta + math.log(z) / beta


def gibbs(omega: float, beta: float) -> np.ndarray:
    x = math.exp(-beta * omega)
    return np.diag([x, x, 1.0]).astype(complex) / (1.0 + 2.0 * x)


def trace_distance(m1: np.ndarray, m2: np.ndarray) -> float:
    diff = m1 - m2
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def require_physical(m: np.ndarray, where: str) -> None:
    trace_gap = abs(complex(np.trace(m)) - 1.0)
    require(trace_gap <= TRACE_TOL, f"{where}: trace off by {trace_gap:.3e}")
    low = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    require(low >= MIN_EIGENVALUE, f"{where}: eigenvalue {low:.3e}")


def require_close(value: float, reference: float, tol: float, where: str) -> None:
    gap = abs(value - reference)
    require(gap <= tol, f"{where}: {value!r} vs reference {reference!r} (gap {gap:.3e})")


# ----------------------------------------------------------------------
# trajectory
# ----------------------------------------------------------------------


class Trajectory:
    """evolve_trajectory over a time grid, and near-degenerate series."""

    def __init__(self, ce):
        self.ce = ce

    def run(self, i: int, op: dict):
        ce = self.ce
        bath = ce.BathSpec(beta=op["beta"], alignment=op["alignment"])
        times = np.linspace(0.0, op["horizon"], op["samples"])
        if op["kind"] == "evolve_trajectory":
            system = ce.DegenerateSystem(op["omega"])
            rho0 = ce.DensityMatrix(density(op["init"]))
            states = ce.evolve_trajectory(rho0, system, bath, times)
            rows = ce.trajectory_rows(times, states)
            return [s.matrix for s in states], rows
        system = ce.NearDegenerateSystem(op["omega"], op["omega"] + op["delta"])
        pi0 = ce.CoherenceVector(*op["init"])
        return [
            ce.evolve_neardegenerate(pi0, system, bath, float(t)).as_array()
            for t in times
        ]

    def check(self, i: int, op: dict, out) -> None:
        ce = self.ce
        bath = ce.BathSpec(beta=op["beta"], alignment=op["alignment"])
        times = np.linspace(0.0, op["horizon"], op["samples"])
        if op["kind"] == "evolve_trajectory":
            states, rows = out
            require(len(states) == len(times) == len(rows), "sample count")
            system = ce.DegenerateSystem(op["omega"])
            if op["alignment"] == 1.0:
                r22, r00, r12 = ce.analytic_evolution_aligned(op["init"], system, bath, times)
                refs = [
                    np.diag([r22[k], 1.0 - r22[k] - r00[k], r00[k]]).astype(complex)
                    for k in range(len(times))
                ]
                for ref, z in zip(refs, r12):
                    ref[1, 0], ref[0, 1] = z, np.conj(z)
            else:
                a = augmented(ce.coherence_generator(system, bath))
                refs = [density(propagate(a, op["init"], t)) for t in times]
            for t, m, ref in zip(times, states, refs):
                gap = float(np.max(np.abs(m - ref)))
                require(gap <= TRAJECTORY_TOL, f"t={t}: gap {gap:.3e} to reference")
            for t, m in zip(times, states):
                require_physical(m, f"t={t}")
            return
        system = ce.NearDegenerateSystem(op["omega"], op["omega"] + op["delta"])
        a = augmented(ce.neardegenerate_generator(system, bath))
        require(len(out) == len(times), "sample count")
        for t, vec in zip(times, out):
            gap = float(np.max(np.abs(np.asarray(vec) - propagate(a, op["init"], t))))
            require(gap <= TRAJECTORY_TOL, f"t={t}: gap {gap:.3e} to reference")
            require_physical(density(vec), f"t={t}")


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


class Extraction:
    """run_protocol1 from the charged state, and protocol2 cycles."""

    def __init__(self, ce):
        self.ce = ce

    def run(self, i: int, op: dict):
        ce = self.ce
        beta, omega = op["beta"], op["omega"]
        bath = ce.BathSpec(beta=beta, alignment=1.0)
        if op["kind"] == "run_protocol1":
            initial = ce.protocol_initial_state(beta, omega)
            ledger, rounds = ce.run_protocol1(initial, omega, beta, bath)
            bound = ce.fed_subspace(initial, omega, beta)
            return (
                initial.matrix,
                ledger.net_work,
                [(r.net_work, r.coherence_after) for r in rounds],
                bound,
            )
        init = ce.GeneralInitialState(op["b"], op["n_norm"], op["theta"], op["phi"])
        ledger = ce.protocol2(init, omega, beta, bath, work_mode=op["work_mode"])
        bound = ce.fed(init.to_density(), ce.HamiltonianSpec.degenerate(omega), beta)
        return ledger.net_work, bound

    def check(self, i: int, op: dict, out) -> None:
        beta, omega = op["beta"], op["omega"]
        if op["kind"] == "run_protocol1":
            initial, work, rounds, bound = out
            a = augmented(self.ce.coherence_generator(
                self.ce.DegenerateSystem(omega), self.ce.BathSpec(beta=beta)))
            charged = density(stationary(a, (0.0, 1.0, 0.0, 0.0)))
            require(float(np.max(np.abs(initial - charged))) <= TRAJECTORY_TOL,
                    "initial state differs from the aligned stationary state")
            reference = free_energy_difference(charged, omega, beta)
            require_close(bound, reference, FED_TOL, "fed_subspace")
            require(len(rounds) >= 1, "no round executed")
            coherence = l1(charged)
            for k, (net, after) in enumerate(rounds, 1):
                require(net >= 0.0, f"round {k}: net work {net!r} < 0")
                require(after < coherence, f"round {k}: coherence did not fall")
                coherence = after
            require(0.0 < work < reference, f"W1 = {work!r} outside (0, FED = {reference!r})")
            return
        work, bound = out
        m = general_state(op["b"], op["n_norm"], op["theta"], op["phi"])
        reference = free_energy_difference(m, omega, beta)
        require_close(bound, reference, FED_TOL, "fed")
        require_close(work, reference, PROTOCOL2_TOL[op["work_mode"]], "protocol2 net work")


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------


def read_csv(path: Path):
    """(comment lines, header, float rows) of a CSV written by the CLI."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
    return comments, body[0].split(","), rows


def file_digests(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


class Cli:
    """python -m coherence_engine.cli, one subcommand at a time.

    Untraced runs start a subprocess per op.  The traced run calls
    cli.main with the same argument lists in-process, so its spans see the
    subcommands' calls into the other modules.
    """

    def __init__(self, ce, env: dict, cwd: Path, in_process: bool = False):
        self.ce = ce
        self.env = {**env, "COHERENCE_ENGINE_LOG": "warn"}
        self.cwd = cwd
        self.in_process = in_process
        self.digests: dict = {}

    def run(self, i: int, op: dict):
        for stale in Path(op["out_dir"]).iterdir():
            stale.unlink()
        if self.in_process:
            from coherence_engine import cli

            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = cli.main(op["argv"])
            return code, stdout.getvalue(), ""
        proc = subprocess.Popen(
            [sys.executable, "-m", "coherence_engine.cli", *op["argv"]],
            cwd=self.cwd,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, stdout, stderr

    def check(self, i: int, op: dict, out) -> None:
        code, stdout, stderr = out
        require(code == 0, f"{op['label']}: exit code {code}: {stderr.strip()[:300]}")
        out_dir = Path(op["out_dir"])
        getattr(self, "_check_" + op["command"].replace("-", "_"))(op, out_dir / "out")
        digests = file_digests(out_dir)
        previous = self.digests.setdefault(i, digests)
        require(previous == digests, f"{op['label']}: rerun changed the output files")

    def _check_evolve(self, op: dict, out: Path) -> None:
        cfg = op["config"]
        omega, beta = cfg["system"]["omega"], cfg["bath"]["beta"]
        p = cfg["bath"]["alignment"]
        init = cfg["initial"]["coherence_vector"]
        _, header, rows = read_csv(out.with_suffix(".csv"))
        require(len(rows) == cfg["evolve"]["samples"], "evolve: row count")
        a = augmented(self.ce.coherence_generator(
            self.ce.DegenerateSystem(omega), self.ce.BathSpec(beta=beta, alignment=p)))
        col = {name: k for k, name in enumerate(header)}
        labels = ("22", "21", "20", "12", "11", "10", "02", "01", "00")
        for row in rows:
            t = row[0]
            m = np.array(
                [complex(row[col[f"re_rho{s}"]], row[col[f"im_rho{s}"]]) for s in labels]
            ).reshape(3, 3)
            ref = density(propagate(a, init, t))
            gap = float(np.max(np.abs(m - ref)))
            require(gap <= TRAJECTORY_TOL, f"evolve t={t}: gap {gap:.3e} to reference")
            require_physical(m, f"evolve t={t}")
            require_close(row[col["c_l1"]], l1(m), 1e-12, f"evolve t={t} c_l1")
        summary = json.loads(out.with_suffix(".json").read_text())
        if p == 1.0:
            require(summary["analytic_max_deviation"] <= TRAJECTORY_TOL,
                    "evolve: analytic deviation above tolerance")
        else:
            distance = summary["gibbs_trace_distance"]
            require_close(distance, trace_distance(m, gibbs(omega, beta)), 1e-10,
                          "evolve: gibbs_trace_distance")
            require(summary["gibbs_within_tolerance"] == (distance < 1e-8),
                    "evolve: gibbs_within_tolerance disagrees with the distance")

    def _check_steady(self, op: dict, out: Path) -> None:
        cfg = op["config"]
        omega, beta = cfg["system"]["omega"], cfg["bath"]["beta"]
        a = augmented(self.ce.coherence_generator(
            self.ce.DegenerateSystem(omega),
            self.ce.BathSpec(beta=beta, alignment=cfg["bath"]["alignment"])))
        ref = density(stationary(a, cfg["initial"]["coherence_vector"]))
        summary = json.loads(out.with_suffix(".json").read_text())
        m = np.array([[complex(*z) for z in row] for row in summary["state"]])
        gap = float(np.max(np.abs(m - ref)))
        require(gap <= TRAJECTORY_TOL, f"steady: gap {gap:.3e} to reference")
        require_physical(m, "steady")
        require_close(summary["c_l1"], l1(ref), TRAJECTORY_TOL, "steady c_l1")
        require_close(summary["gibbs_trace_distance"],
                      trace_distance(ref, gibbs(omega, beta)), TRAJECTORY_TOL,
                      "steady gibbs_trace_distance")

    def _charged_state(self, omega: float, beta: float) -> np.ndarray:
        a = augmented(self.ce.coherence_generator(
            self.ce.DegenerateSystem(omega), self.ce.BathSpec(beta=beta)))
        return density(stationary(a, (0.0, 1.0, 0.0, 0.0)))

    def _check_protocol1(self, op: dict, out: Path) -> None:
        cfg = op["config"]
        omega, beta = cfg["system"]["omega"], cfg["bath"]["beta"]
        charged = self._charged_state(omega, beta)
        reference = free_energy_difference(charged, omega, beta)
        ledger = json.loads(Path(f"{out}_ledger.json").read_text())
        _, header, rows = read_csv(Path(f"{out}_rounds.csv"))
        require_close(ledger["fed_initial"], reference, FED_TOL, "protocol1 fed_initial")
        require(ledger["rounds_executed"] == len(rows) >= 1, "protocol1: round count")
        col = {name: k for k, name in enumerate(header)}
        coherence = l1(charged)
        for row in rows:
            require(row[col["net_work"]] >= 0.0, f"protocol1 round {row[0]}: net work < 0")
            require(row[col["coherence_after"]] < coherence,
                    f"protocol1 round {row[0]}: coherence did not fall")
            coherence = row[col["coherence_after"]]
        work = ledger["net_work"]
        require(0.0 < work < reference, f"protocol1: W1 = {work!r} outside (0, FED)")

    def _check_protocol2(self, op: dict, out: Path) -> None:
        cfg = op["config"]
        omega, beta = cfg["system"]["omega"], cfg["bath"]["beta"]
        g = cfg["initial"]["general"]
        reference = free_energy_difference(
            general_state(g["b"], g["n_norm"], g["theta"], g["phi"]), omega, beta)
        ledger = json.loads(Path(f"{out}_ledger.json").read_text())
        read_csv(Path(f"{out}_steps.csv"))
        tol = PROTOCOL2_TOL[cfg["protocol2"]["work_mode"]]
        require_close(ledger["fed"], reference, FED_TOL, "protocol2 fed")
        require_close(ledger["net_work"], reference, tol, "protocol2 net work")
        require(ledger["abs_net_minus_fed"] <= tol, "protocol2: |net - fed| above tolerance")

    def _check_figure_wfed(self, op: dict, out: Path) -> None:
        cfg = op["config"]
        omega, grid = cfg["system"]["omega"], cfg["figure"]["beta_grid"]
        _, header, rows = read_csv(out.with_suffix(".csv"))
        require(header == ["beta", "work_protocol1", "fed"], "figure-wfed: header")
        require([r[0] for r in rows] == grid, "figure-wfed: beta column")
        for beta, work, fed in rows:
            reference = free_energy_difference(self._charged_state(omega, beta), omega, beta)
            require_close(fed, reference, FED_TOL, f"figure-wfed beta={beta} fed")
            require(0.0 < work < fed, f"figure-wfed beta={beta}: W1 outside (0, FED)")
        if "serial_csv" in op:
            require(read_csv(Path(op["serial_csv"]))[2] == rows,
                    "figure-wfed: the job count changed the rows")

    def _check_neardegen_check(self, op: dict, out: Path) -> None:
        cfg = op["config"]
        system = cfg["system"]
        delta = system["omega2"] - system["omega1"]
        nd = self.ce.NearDegenerateSystem(system["omega1"], system["omega2"])
        a = augmented(self.ce.neardegenerate_generator(
            nd, self.ce.BathSpec(beta=cfg["bath"]["beta"], alignment=1.0)))
        init = cfg["initial"]["coherence_vector"]
        _, header, rows = read_csv(out.with_suffix(".csv"))
        require(len(rows) == cfg["neardegen"]["samples"], "neardegen-check: row count")
        col = {name: k for k, name in enumerate(header)}
        worst = 0.0
        for row in rows:
            t = row[0]
            num = np.array(row[1:5])
            gap = float(np.max(np.abs(num - propagate(a, init, t))))
            require(gap <= TRAJECTORY_TOL, f"neardegen-check t={t}: gap {gap:.3e}")
            require_physical(density(num), f"neardegen-check t={t}")
            pert = np.array(row[5:9])
            require_close(row[col["deviation"]], float(np.max(np.abs(num - pert))), 1e-15,
                          f"neardegen-check t={t} deviation")
            worst = max(worst, row[col["deviation"]])
        summary = json.loads(out.with_suffix(".json").read_text())
        require_close(summary["delta"], delta, 1e-15, "neardegen-check delta")
        require(summary["max_perturbative_deviation"] == worst,
                "neardegen-check: summary deviation is not the largest row deviation")
        require(summary["t_final"] <= summary["validity_limit_t"],
                "neardegen-check: horizon outside the validity window")


def make(name: str, ce, env: dict, cwd: Path, in_process: bool = False):
    """The workload `name`; env is the environment of any process it starts."""
    if name == "trajectory":
        return Trajectory(ce)
    if name == "extraction":
        return Extraction(ce)
    return Cli(ce, env, cwd, in_process)
