"""Command-line front end for the coherence engine.

Runs are described by a JSON config (all fields optional, defaults
below) plus a handful of scalar flag overrides, and emit CSV/JSON files
that embed the tool version and a hash of the effective config, so a
rerun with the same config and version is byte identical.

Subcommands: evolve, steady, protocol1, protocol2, figure-wfed,
neardegen-check.  Exit codes: 0 success, 2 config error, 3 numerical
failure.  Diagnostics go to stderr as single-line JSON.  The env var
COHERENCE_ENGINE_LOG in {error, warn, info, debug} sets log verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .bath import BathSpec, bath_from_json
from .bloch import DensityMatrix, PhysicalityError
from .dynamics import (
    CoherenceVector,
    DegenerateSystem,
    analytic_evolution_aligned,
    evolve_trajectory,
    steady_state,
    trajectory_columns,
    trajectory_rows,
)
from .neardegen import (
    NearDegenerateSystem,
    evolve_neardegenerate,
    perturbative_solution,
    thermalize_independent,
)
from .numerics import NumericsError
from .protocols import (
    GeneralInitialState,
    protocol2,
    protocol_initial_state,
    run_protocol1,
)
from .thermo import HamiltonianSpec, fed, gibbs, l1_coherence, trace_distance

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

GIBBS_TOL = 1e-8

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class ConfigError(ValueError):
    """Configuration rejected before execution."""


def _default_beta_grid() -> List[float]:
    return [round(0.2 * k, 10) for k in range(1, 16)]


def _default_config() -> dict:
    return {
        "system": {"omega": 1.0},
        "bath": {"beta": 1.0, "gamma_plus": 1.0, "alignment": 1.0},
        "initial": None,
        "evolve": {"t_final": 50.0, "samples": 501, "tol": 1e-10},
        "steady": {},
        "protocol1": {"max_rounds": 64, "shift_floor": 1e-06},
        "protocol2": {"work_mode": "closed"},
        "figure": {"beta_grid": _default_beta_grid(), "jobs": 1},
        "neardegen": {"t_final": 10.0, "samples": 101, "tol": 1e-10},
        "out": "coherence_run",
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_keys(section: str, data: dict, allowed: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}")


def _require_number(section: str, key: str, value, positive: bool = False) -> float:
    if not _is_number(value):
        raise ConfigError(f"{section}.{key} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{section}.{key} must be finite")
    if positive and v <= 0.0:
        raise ConfigError(f"{section}.{key} must be positive")
    return v


def _require_int(section: str, key: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer")
    if value < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum}")
    return value


def _merge_config(user: dict) -> dict:
    config = _default_config()
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("config", user, list(config.keys()))
    for key, value in user.items():
        if key in ("initial", "out"):
            config[key] = value
        else:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            if key == "system":
                config["system"] = dict(value)
            else:
                config[key] = {**config[key], **value}
    return config


def _validate_config(config: dict) -> None:
    system = config["system"]
    if set(system) == {"omega"}:
        _require_number("system", "omega", system["omega"], positive=True)
    elif set(system) == {"omega1", "omega2"}:
        _require_number("system", "omega1", system["omega1"], positive=True)
        _require_number("system", "omega2", system["omega2"], positive=True)
    else:
        raise ConfigError(
            "system must provide either {omega} or {omega1, omega2}"
        )

    bath = config["bath"]
    _check_keys("bath", bath, ["beta", "gamma_plus", "alignment"])
    _require_number("bath", "beta", bath.get("beta", 1.0), positive=True)
    if "alignment" in bath:
        _require_number("bath", "alignment", bath["alignment"])
    gp = bath.get("gamma_plus", 1.0)
    if _is_number(gp):
        _require_number("bath", "gamma_plus", gp)
    elif not isinstance(gp, dict):
        raise ConfigError("bath.gamma_plus must be a number or a rate table")
    try:
        _build_bath(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bath is invalid: {exc}") from exc

    section = config["evolve"]
    _check_keys("evolve", section, ["t_final", "samples", "tol"])
    t_final = _require_number("evolve", "t_final", section["t_final"])
    if t_final < 0.0:
        raise ConfigError("evolve.t_final must be non-negative")
    _require_int("evolve", "samples", section["samples"], 1)
    _require_number("evolve", "tol", section["tol"], positive=True)

    _check_keys("steady", config["steady"], [])

    section = config["protocol1"]
    _check_keys("protocol1", section, ["max_rounds", "shift_floor"])
    _require_int("protocol1", "max_rounds", section["max_rounds"], 1)
    floor = _require_number("protocol1", "shift_floor", section["shift_floor"])
    if floor < 0.0:
        raise ConfigError("protocol1.shift_floor must be non-negative")

    section = config["protocol2"]
    _check_keys("protocol2", section, ["work_mode"])
    if section["work_mode"] not in ("closed", "quadrature"):
        raise ConfigError("protocol2.work_mode must be 'closed' or 'quadrature'")

    section = config["figure"]
    _check_keys("figure", section, ["beta_grid", "jobs"])
    grid = section["beta_grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("figure.beta_grid must be a nonempty list")
    for i, b in enumerate(grid):
        _require_number("figure.beta_grid", str(i), b, positive=True)
    _require_int("figure", "jobs", section["jobs"], 1)

    section = config["neardegen"]
    _check_keys("neardegen", section, ["t_final", "samples", "tol"])
    t_final = _require_number("neardegen", "t_final", section["t_final"])
    if t_final < 0.0:
        raise ConfigError("neardegen.t_final must be non-negative")
    _require_int("neardegen", "samples", section["samples"], 1)
    _require_number("neardegen", "tol", section["tol"], positive=True)

    if not isinstance(config["out"], str) or not config["out"]:
        raise ConfigError("out must be a nonempty string")

    initial = config["initial"]
    if initial is None or isinstance(initial, str):
        if isinstance(initial, str) and initial not in (
            "ground",
            "gibbs",
            "coherent-steady",
        ):
            raise ConfigError(f"unknown named initial state {initial!r}")
    elif isinstance(initial, dict):
        _check_keys("initial", initial, ["coherence_vector", "general"])
        if len(initial) != 1:
            raise ConfigError(
                "initial must provide exactly one of coherence_vector|general"
            )
        if "coherence_vector" in initial:
            vec = initial["coherence_vector"]
            if not isinstance(vec, list) or len(vec) != 4:
                raise ConfigError("initial.coherence_vector needs 4 numbers")
            for i, v in enumerate(vec):
                _require_number("initial.coherence_vector", str(i), v)
        else:
            spec = initial["general"]
            if not isinstance(spec, dict):
                raise ConfigError("initial.general must be an object")
            _check_keys("initial.general", spec, ["b", "n_norm", "theta", "phi"])
            for key in ("b", "n_norm", "theta", "phi"):
                if key not in spec:
                    raise ConfigError(f"initial.general missing {key!r}")
                _require_number("initial.general", key, spec[key])
    else:
        raise ConfigError("initial must be a name or an object")


def _apply_overrides(config: dict, args: argparse.Namespace) -> None:
    if args.beta is not None:
        config["bath"]["beta"] = args.beta
    if args.alignment is not None:
        config["bath"]["alignment"] = args.alignment
    if args.omega is not None:
        if set(config["system"]) == {"omega1", "omega2"}:
            raise ConfigError(
                "--omega override applies only to degenerate system configs"
            )
        config["system"]["omega"] = args.omega
    if args.out is not None:
        config["out"] = args.out
    if getattr(args, "jobs", None) is not None:
        config["figure"]["jobs"] = args.jobs


def _config_hash(config: dict) -> str:
    """Digest of the effective config; figure.jobs changes no output."""
    figure = {k: v for k, v in config["figure"].items() if k != "jobs"}
    canonical = json.dumps(
        {**config, "figure": figure}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _resolve_initial(config: dict, command: str) -> None:
    if config["initial"] is None:
        if command in ("protocol1", "protocol2", "figure-wfed"):
            config["initial"] = "coherent-steady"
        else:
            config["initial"] = "ground"


def _build_bath(config: dict) -> BathSpec:
    data = dict(config["bath"])
    data.setdefault("beta", 1.0)
    return bath_from_json(data)


def _degenerate_system(config: dict) -> DegenerateSystem:
    system = config["system"]
    if set(system) != {"omega"}:
        raise ConfigError("this subcommand needs a degenerate system {omega}")
    return DegenerateSystem(omega=float(system["omega"]))


def _neardegenerate_system(config: dict) -> NearDegenerateSystem:
    system = config["system"]
    if set(system) != {"omega1", "omega2"}:
        raise ConfigError(
            "neardegen-check needs a near-degenerate system {omega1, omega2}"
        )
    return NearDegenerateSystem(
        omega1=float(system["omega1"]), omega2=float(system["omega2"])
    )


def _initial_density(config: dict, bath: BathSpec) -> DensityMatrix:
    initial = config["initial"]
    system = config["system"]
    if initial == "ground":
        return CoherenceVector(0.0, 1.0, 0.0, 0.0).to_density()
    if initial == "gibbs":
        if set(system) == {"omega"}:
            ham = HamiltonianSpec.degenerate(float(system["omega"]))
        else:
            ham = HamiltonianSpec(
                e2=float(system["omega2"]), e1=float(system["omega1"])
            )
        return gibbs(ham, bath.beta)
    if initial == "coherent-steady":
        if set(system) != {"omega"}:
            raise ConfigError("coherent-steady initial needs a degenerate system")
        return protocol_initial_state(bath.beta, float(system["omega"]))
    if "coherence_vector" in initial:
        a, b, c, d = (float(v) for v in initial["coherence_vector"])
        try:
            state = CoherenceVector(a, b, c, d).to_density()
            state.validate()
        except (PhysicalityError, ValueError) as exc:
            raise ConfigError(f"initial state is not physical: {exc}") from exc
        return state
    spec = initial["general"]
    try:
        return GeneralInitialState(
            b=float(spec["b"]),
            n_norm=float(spec["n_norm"]),
            theta=float(spec["theta"]),
            phi=float(spec["phi"]),
        ).to_density()
    except ValueError as exc:
        raise ConfigError(f"initial state is not physical: {exc}") from exc


def _format_value(value: float) -> str:
    return "%.17g" % value


def _write_csv(
    path: str, columns: Sequence[str], rows: Sequence[Sequence[float]], digest: str
) -> None:
    lines = [
        f"# coherence-engine {__version__}",
        f"# config-sha256: {digest}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict, digest: str) -> None:
    payload = dict(payload)
    payload["meta"] = {
        "tool": "coherence-engine",
        "version": __version__,
        "config_sha256": digest,
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def cmd_evolve(config: dict, digest: str) -> int:
    bath = _build_bath(config)
    system = _degenerate_system(config)
    rho0 = _initial_density(config, bath)
    section = config["evolve"]
    t_final = float(section["t_final"])
    samples = 1 if t_final == 0.0 else int(section["samples"])
    times = np.linspace(0.0, t_final, samples)
    states = evolve_trajectory(rho0, system, bath, times, tol=float(section["tol"]))
    rows = trajectory_rows(times, states)
    out = config["out"]
    _write_csv(out + ".csv", trajectory_columns(), rows, digest)

    final = states[-1]
    summary = {
        "final_state": final.to_json(),
        "final_c_l1": l1_coherence(final),
        "t_final": t_final,
        "samples": samples,
    }
    if abs(bath.alignment - 1.0) <= 1e-12:
        init = CoherenceVector.from_density(rho0)
        r22, r00, r12 = analytic_evolution_aligned(
            (init.rho22, init.rho00, init.rho_plus, init.rho_minus_im),
            system,
            bath,
            times,
        )
        dev = 0.0
        for k, state in enumerate(states):
            m = state.matrix
            dev = max(
                dev,
                abs(float(m[0, 0].real) - float(r22[k])),
                abs(float(m[2, 2].real) - float(r00[k])),
                abs(float(m[1, 1].real) - float(1.0 - r22[k] - r00[k])),
                abs(complex(m[1, 0]) - complex(r12[k])),
            )
        summary["analytic_max_deviation"] = dev
    elif abs(bath.alignment) < 1.0:
        ham = HamiltonianSpec.degenerate(system.omega)
        dist = trace_distance(final, gibbs(ham, bath.beta))
        summary["gibbs_trace_distance"] = dist
        summary["gibbs_within_tolerance"] = bool(dist < GIBBS_TOL)
    _write_json(out + ".json", summary, digest)
    print(f"final c_l1 = {_format_value(summary['final_c_l1'])}")
    return EXIT_OK


def cmd_steady(config: dict, digest: str) -> int:
    bath = _build_bath(config)
    system = _degenerate_system(config)
    rho0 = _initial_density(config, bath)
    init = CoherenceVector.from_density(rho0)
    state = steady_state(
        system, bath, (init.rho22, init.rho00, init.rho_plus, init.rho_minus_im)
    )
    ham = HamiltonianSpec.degenerate(system.omega)
    payload = {
        "state": state.to_json(),
        "c_l1": l1_coherence(state),
        "gibbs_trace_distance": trace_distance(state, gibbs(ham, bath.beta)),
    }
    _write_json(config["out"] + ".json", payload, digest)
    print(f"steady c_l1 = {_format_value(payload['c_l1'])}")
    return EXIT_OK


def cmd_protocol1(config: dict, digest: str) -> int:
    bath = _build_bath(config)
    system = _degenerate_system(config)
    rho0 = _initial_density(config, bath)
    section = config["protocol1"]
    ledger, rounds = run_protocol1(
        rho0,
        system.omega,
        bath.beta,
        bath,
        max_rounds=int(section["max_rounds"]),
        shift_floor=float(section["shift_floor"]),
    )
    ham = HamiltonianSpec.degenerate(system.omega)
    final = ledger.final_state if ledger.steps else rho0
    payload = {
        "ledger": ledger.to_json_dict(),
        "net_work": ledger.net_work,
        "fed_initial": fed(rho0, ham, bath.beta),
        "rounds_executed": len(rounds),
        "final_gibbs_trace_distance": trace_distance(final, gibbs(ham, bath.beta)),
    }
    out = config["out"]
    _write_json(out + "_ledger.json", payload, digest)

    columns = [
        "round",
        "shift",
        "lifted_level",
        "partition",
        "work_in",
        "work_out",
        "net_work",
        "coherence_after",
        "cumulative_work",
    ]
    rows = []
    cumulative = 0.0
    for r in rounds:
        cumulative += r.net_work
        rows.append(
            [
                float(r.plan.index),
                r.plan.shift,
                r.plan.lifted_level,
                r.plan.partition,
                r.work_in,
                r.work_out,
                r.net_work,
                r.coherence_after,
                cumulative,
            ]
        )
    _write_csv(out + "_rounds.csv", columns, rows, digest)
    print(f"net work = {_format_value(ledger.net_work)}")
    return EXIT_OK


def cmd_protocol2(config: dict, digest: str) -> int:
    bath = _build_bath(config)
    system = _degenerate_system(config)
    rho0 = _initial_density(config, bath)
    init = GeneralInitialState.from_density(rho0)
    if init.b == 0.0:
        raise ConfigError("protocol2 requires a nonzero ground population")
    ledger = protocol2(
        init,
        system.omega,
        bath.beta,
        bath,
        work_mode=config["protocol2"]["work_mode"],
    )
    ham = HamiltonianSpec.degenerate(system.omega)
    fed_value = fed(rho0, ham, bath.beta)
    gap = abs(ledger.net_work - fed_value)
    payload = {
        "ledger": ledger.to_json_dict(),
        "net_work": ledger.net_work,
        "fed": fed_value,
        "abs_net_minus_fed": gap,
        "work_mode": config["protocol2"]["work_mode"],
    }
    out = config["out"]
    _write_json(out + "_ledger.json", payload, digest)
    columns, rows = ledger.csv_rows()
    _write_csv(out + "_steps.csv", columns, rows, digest)
    print(f"|net - fed| = {_format_value(gap)}")
    return EXIT_OK


def cmd_figure_wfed(config: dict, digest: str) -> int:
    bath_json = dict(config["bath"])
    bath_json.setdefault("beta", 1.0)
    system = _degenerate_system(config)
    alignment = float(bath_json.get("alignment", 1.0))
    if abs(alignment - 1.0) > 1e-12:
        raise ConfigError("figure-wfed requires an aligned bath")
    grid = [float(b) for b in config["figure"]["beta_grid"]]
    p1 = config["protocol1"]
    omega = system.omega
    rows = []
    for beta in grid:
        ledger, _rounds = run_protocol1(
            protocol_initial_state(beta, omega),
            omega,
            beta,
            bath_from_json({**bath_json, "beta": beta}),
            max_rounds=int(p1["max_rounds"]),
            shift_floor=float(p1["shift_floor"]),
        )
        x = math.exp(-beta * omega)
        fed_value = math.log((1.0 + 2.0 * x) / (1.0 + x)) / beta
        rows.append([beta, ledger.net_work, fed_value])
    csv_path = config["out"] + ".csv"
    _write_csv(csv_path, ["beta", "work_protocol1", "fed"], rows, digest)
    print(f"wrote {csv_path} with {len(rows)} rows")
    return EXIT_OK


def cmd_neardegen_check(config: dict, digest: str) -> int:
    bath = _build_bath(config)
    system = _neardegenerate_system(config)
    rho0 = _initial_density(config, bath)
    init = CoherenceVector.from_density(rho0)
    init4 = (init.rho22, init.rho00, init.rho_plus, init.rho_minus_im)
    section = config["neardegen"]
    t_final = float(section["t_final"])
    samples = 1 if t_final == 0.0 else int(section["samples"])
    times = np.linspace(0.0, t_final, samples)
    aligned = abs(bath.alignment - 1.0) <= 1e-12

    columns = ["t", "num_rho22", "num_rho00", "num_rho_plus", "num_rho_minus_im"]
    if aligned:
        columns += [
            "pert_rho22",
            "pert_rho00",
            "pert_rho_plus",
            "pert_rho_minus_im",
            "deviation",
        ]
    rows = []
    max_dev = 0.0
    for t in times:
        numeric = evolve_neardegenerate(
            CoherenceVector(*init4), system, bath, float(t), tol=float(section["tol"])
        )
        row = [float(t)] + list(numeric.as_array())
        if aligned:
            pert = perturbative_solution(init4, system, bath, float(t))
            dev = float(np.max(np.abs(numeric.as_array() - pert.as_array())))
            max_dev = max(max_dev, dev)
            row += list(pert.as_array()) + [dev]
        rows.append(row)
    out = config["out"]
    _write_csv(out + ".csv", columns, rows, digest)

    thermal = thermalize_independent(rho0, system, bath)
    summary = {
        "delta": system.delta,
        "t_final": t_final,
        "samples": samples,
        "max_perturbative_deviation": max_dev if aligned else None,
        "validity_limit_t": (math.inf if system.delta == 0.0
                             else 0.3 / system.delta),
        "independent_fixed_point": thermal.to_json(),
    }
    _write_json(out + ".json", summary, digest)
    if aligned:
        print(f"max perturbative deviation = {_format_value(max_dev)}")
    else:
        print("perturbative comparison skipped (bath not aligned)")
    return EXIT_OK


_COMMANDS = {
    "evolve": cmd_evolve,
    "steady": cmd_steady,
    "protocol1": cmd_protocol1,
    "protocol2": cmd_protocol2,
    "figure-wfed": cmd_figure_wfed,
    "neardegen-check": cmd_neardegen_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-engine",
        description="Simulate V-system coherence dynamics and work extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--beta", type=float, help="override bath.beta")
        p.add_argument("--omega", type=float, help="override system.omega")
        p.add_argument("--alignment", type=float, help="override bath.alignment")
        p.add_argument("--out", help="override output path prefix")
        if name == "figure-wfed":
            p.add_argument(
                "--jobs", type=int, help="accepted; the grid runs in-process"
            )
    return parser


def _setup_logging() -> None:
    raw = os.environ.get("COHERENCE_ENGINE_LOG", "warn")
    level = _LOG_LEVELS.get(raw.lower())
    if level is None:
        raise ConfigError(
            f"COHERENCE_ENGINE_LOG must be one of {sorted(_LOG_LEVELS)}, "
            f"got {raw!r}"
        )
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    logging.getLogger("coherence_engine").setLevel(level)


def _diagnostic(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_logging()
        user_config: dict = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    user_config = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        config = _merge_config(user_config)
        _apply_overrides(config, args)
        _resolve_initial(config, args.command)
        _validate_config(config)
        digest = _config_hash(config)
    except (ValueError, PhysicalityError) as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](config, digest)
    except ConfigError as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG
    except (PhysicalityError, ValueError) as exc:
        _diagnostic("numerical", str(exc))
        return EXIT_NUMERICAL
    except NumericsError as exc:
        _diagnostic("numerical", str(exc))
        return EXIT_NUMERICAL
    except OSError as exc:
        _diagnostic("config", f"output failure: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
