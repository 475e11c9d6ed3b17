"""Seeded inputs for the benchmark workloads.

Inputs are plain data (numbers, lists and dicts) made from the seed alone;
program objects are built inside the timed ops.  Continuous parameters are
drawn stratified (one uniform draw per equal-width stratum, strata shuffled)
so every seed covers its range evenly and the cost of a pass barely depends
on the seed.  This module imports only numpy, because it runs inside the
measured set-up.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TRAJECTORY_ALIGNMENTS = (1.0, -1.0, 0.5, 0.0, 0.99)
TRAJECTORY_HORIZONS = (50.0, 200.0, 1500.0)
TRAJECTORY_SAMPLES = 11
TRAJECTORY_STATES = 4
NEARDEGEN_SERIES = 20
NEARDEGEN_ALIGNMENTS = (1.0, 0.99, 0.5)
PROTOCOL1_RUNS = 20
PROTOCOL2_RUNS = 12
QUADRATURE_SHARE = 0.25
CLI_ALIGNMENTS = (1.0, 0.99, 0.5, 0.0)
CLI_GRID_POINTS = 15
CLI_JOBS = (1, 2)
CLI_LABELS = ("evolve", "steady", "protocol1", "protocol2", "figure-wfed", "figure-wfed-j2",
              "neardegen-check")


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list:
    """n draws from [lo, hi], one in each of n equal strata, in random order."""
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return [float(lo + (hi - lo) * v) for v in u]


def subspace_state(rng: np.random.Generator) -> list:
    """Random strictly positive state of the coherence subspace.

    Returns (rho22, rho00, Re rho21, Im rho21).  The excited-excited
    coherence is kept inside sqrt(0.95 rho22 rho11), so the state is
    positive definite.
    """
    a, mid, b = (float(w) for w in rng.dirichlet(np.ones(3)))
    radius = math.sqrt(a * mid) * math.sqrt(float(rng.uniform(0.0, 0.95)))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return [a, b, radius * math.cos(angle), radius * math.sin(angle)]


def trajectory(seed: int) -> list:
    """Each (alignment, horizon) pair from several states, then near-degenerate series.

    beta = omega = 1 throughout: the integrator's cost follows the fast
    relaxation rate 2(1 + exp(-beta omega)), so fixing them keeps the cost
    of a pass independent of the seed, which varies the initial states.
    Several states per pair, because at alignment +-1 and t = 1500 the
    step count depends on the state (about 580 or 1370 steps).
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for p in TRAJECTORY_ALIGNMENTS:
        for horizon in TRAJECTORY_HORIZONS:
            ops.extend(
                {
                    "kind": "evolve_trajectory",
                    "alignment": p,
                    "horizon": horizon,
                    "samples": TRAJECTORY_SAMPLES,
                    "beta": 1.0,
                    "omega": 1.0,
                    "init": subspace_state(rng),
                }
                for _ in range(TRAJECTORY_STATES)
            )
    n = NEARDEGEN_SERIES
    deltas = stratified(rng, n, 1e-3, 1e-2)
    horizons = stratified(rng, n, 5.0, 10.0)
    for k in range(n):
        ops.append(
            {
                "kind": "evolve_neardegenerate",
                "alignment": NEARDEGEN_ALIGNMENTS[k % len(NEARDEGEN_ALIGNMENTS)],
                "delta": deltas[k],
                "horizon": horizons[k],
                "samples": TRAJECTORY_SAMPLES,
                "beta": 1.0,
                "omega": 1.0,
                "init": subspace_state(rng),
            }
        )
    return ops


def extraction(seed: int) -> list:
    """Protocol-1 series from the charged state, then protocol-2 cycles."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    betas = stratified(rng, PROTOCOL1_RUNS, 0.2, 3.0)
    omegas = stratified(rng, PROTOCOL1_RUNS, 0.5, 3.0)
    for beta, omega in zip(betas, omegas):
        ops.append({"kind": "run_protocol1", "beta": beta, "omega": omega})
    n = PROTOCOL2_RUNS
    betas = stratified(rng, n, 0.2, 3.0)
    omegas = stratified(rng, n, 0.5, 3.0)
    grounds = stratified(rng, n, 0.05, 0.95)
    norms = stratified(rng, n, 0.0, 0.95)
    quadrature = set(rng.permutation(n)[: round(QUADRATURE_SHARE * n)].tolist())
    for k in range(n):
        ops.append(
            {
                "kind": "protocol2",
                "beta": betas[k],
                "omega": omegas[k],
                "b": grounds[k],
                "n_norm": norms[k],
                "theta": float(rng.uniform(0.0, math.pi)),
                "phi": float(rng.uniform(-math.pi, math.pi)),
                "work_mode": "quadrature" if k in quadrature else "closed",
            }
        )
    return ops


def cli(seed: int) -> list:
    """One call of each subcommand; figure-wfed once per job count."""
    rng = np.random.default_rng([seed, 3])

    def uniform(lo: float, hi: float) -> float:
        return float(rng.uniform(lo, hi))

    def alignment() -> float:
        return CLI_ALIGNMENTS[int(rng.integers(len(CLI_ALIGNMENTS)))]

    ops = [
        {
            "label": "evolve",
            "command": "evolve",
            "config": {
                "system": {"omega": uniform(0.5, 2.0)},
                "bath": {"beta": uniform(0.3, 3.0), "alignment": alignment()},
                "initial": {"coherence_vector": subspace_state(rng)},
                "evolve": {"samples": int(rng.integers(101, 502))},
            },
        },
        {
            "label": "steady",
            "command": "steady",
            "config": {
                "system": {"omega": uniform(0.5, 2.0)},
                "bath": {"beta": uniform(0.3, 3.0), "alignment": alignment()},
                "initial": {"coherence_vector": subspace_state(rng)},
            },
        },
        {
            "label": "protocol1",
            "command": "protocol1",
            "config": {
                "system": {"omega": uniform(0.5, 3.0)},
                "bath": {"beta": uniform(0.2, 3.0)},
            },
        },
        {
            "label": "protocol2",
            "command": "protocol2",
            "config": {
                "system": {"omega": uniform(0.5, 3.0)},
                "bath": {"beta": uniform(0.2, 3.0)},
                "initial": {
                    "general": {
                        "b": uniform(0.05, 0.95),
                        "n_norm": uniform(0.0, 0.95),
                        "theta": uniform(0.0, math.pi),
                        "phi": uniform(-math.pi, math.pi),
                    }
                },
                "protocol2": {
                    "work_mode": "quadrature" if rng.uniform() < QUADRATURE_SHARE else "closed"
                },
            },
        },
    ]
    figure = {
        "system": {"omega": uniform(0.5, 3.0)},
        "bath": {"beta": 1.0},
        "figure": {"beta_grid": sorted(stratified(rng, CLI_GRID_POINTS, 0.2, 3.0))},
    }
    for jobs in CLI_JOBS:
        ops.append(
            {
                "label": "figure-wfed" if jobs == 1 else f"figure-wfed-j{jobs}",
                "command": "figure-wfed",
                "config": figure,
                "jobs": jobs,
            }
        )
    omega1 = uniform(0.5, 2.0)
    ops.append(
        {
            "label": "neardegen-check",
            "command": "neardegen-check",
            "config": {
                "system": {"omega1": omega1, "omega2": omega1 + uniform(1e-3, 1e-2)},
                "bath": {"beta": uniform(0.3, 3.0), "alignment": 1.0},
                "initial": {"coherence_vector": subspace_state(rng)},
                "neardegen": {"t_final": 10.0, "samples": int(rng.integers(11, 32))},
            },
        }
    )
    return ops


GENERATORS = {"trajectory": trajectory, "extraction": extraction, "cli": cli}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)


def write_cli_configs(ops: list, workdir: Path) -> None:
    """Write each cli op's config file and give it an output directory.

    Adds "argv" to every op: the subcommand with its --config, --out and
    --jobs flags.  Output paths are fixed per op, so a rerun of the same
    op must reproduce its files byte for byte.
    """
    for i, op in enumerate(ops):
        config_path = workdir / f"config-{i}.json"
        config_path.write_text(json.dumps(op["config"], sort_keys=True))
        out_dir = workdir / f"op-{i}"
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [op["command"], "--config", str(config_path), "--out", str(out_dir / "out")]
        if "jobs" in op:
            argv += ["--jobs", str(op["jobs"])]
        op["argv"] = argv
        op["out_dir"] = str(out_dir)
    serial = {op["command"]: op["out_dir"] for op in ops if op.get("jobs") == 1}
    for op in ops:
        if op.get("jobs", 1) != 1:
            op["serial_csv"] = str(Path(serial[op["command"]]) / "out.csv")
