"""Command-line front end for the coherence engine.

Runs are described by a JSON config (all fields optional, defaults
below) plus a handful of scalar flag overrides, and emit CSV/JSON files
that embed the tool version and a hash of the effective config, so a
rerun with the same config and version is byte identical.

Subcommands: evolve, steady, protocol1, protocol2, figure-wfed,
neardegen-check.  Exit codes: 0 success, 2 config error, 3 numerical
failure or out of memory.  Diagnostics go to stderr as single-line JSON.
The env var COHERENCE_ENGINE_LOG in {error, warn, info, debug} sets log
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

# One BLAS thread unless the caller chose a number.  Every product here is
# 3x3 to 5x5, below any BLAS threading threshold, so a thread pool would
# only add to start-up.  numpy reads these when it is first imported, so
# they are set before the imports below, and in the command line only: the
# library leaves a user's numpy as it finds it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
from .bath import BathSpec, flat_rate, tabulated_rate
from .bloch import DensityMatrix
from .dynamics import (
    CoherenceVector,
    DegenerateSystem,
    _aligned_rows,
    _sector_states,
    evolve_trajectory,
    steady_state,
    trajectory_columns,
    trajectory_rows,
)
from .neardegen import (
    NearDegenerateSystem,
    _neardegenerate_series,
    _perturbative_series,
    _validity_limit,
    thermalize_independent,
)
from .numerics import NumericsError
from .protocols import (
    GeneralInitialState,
    ProtocolLedger,
    protocol2,
    protocol_initial_state,
    run_protocol1,
)
from .thermo import HamiltonianSpec, fed, gibbs, l1_coherence, trace_distance

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

# The extraction protocols need an aligned bath, and start from
# coherent-steady unless the config names another state.
_PROTOCOL_COMMANDS = ("protocol1", "protocol2", "figure-wfed")


class ConfigError(ValueError):
    """Configuration rejected before execution."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a config error instead of usage text."""

    def error(self, message):
        raise ConfigError(message)


@dataclasses.dataclass(frozen=True)
class _Run:
    """A checked config, its digest and the objects a command runs on."""

    config: dict
    digest: str
    bath: BathSpec
    system: Union[DegenerateSystem, NearDegenerateSystem]
    rho0: DensityMatrix
    paths: Dict[str, str]


def _default_config() -> dict:
    return {
        "system": {"omega": 1.0},
        "bath": {"beta": 1.0, "gamma_plus": 1.0, "alignment": 1.0},
        "initial": None,
        "evolve": {"t_final": 50.0, "samples": 501},
        "steady": {},
        "protocol1": {"max_rounds": 64, "shift_floor": 1e-06},
        "protocol2": {"work_mode": "closed"},
        "figure": {"beta_grid": [round(0.2 * k, 10) for k in range(1, 16)]},
        "neardegen": {"t_final": 10.0, "samples": 101},
        "out": "coherence_run",
    }


def _check_keys(section: str, data: dict, allowed: Iterable[str]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}")


def _number(where: str, value) -> float:
    """A JSON number as a float; the type that takes it checks its range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} must be finite") from None


def _require_number(where: str, value, low: float = -math.inf) -> float:
    """A finite number >= low, for values no type checks."""
    v = _number(where, value)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    if v < low:
        raise ConfigError(f"{where} must be >= {low:g}")
    return v


def _require_int(where: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")


def _built(what: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), with its ValueError reported as a config error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _merge_config(user: dict) -> dict:
    config = _default_config()
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("config", user, config)
    for key, value in user.items():
        if key in ("initial", "out"):
            config[key] = value
        else:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            if key == "system":
                config["system"] = dict(value)
            else:
                _check_keys(key, value, config[key])
                config[key] = {**config[key], **value}
    return config


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
    # --jobs is checked so old command lines run; it changes no output.
    if getattr(args, "jobs", None) is not None:
        _require_int("--jobs", args.jobs, 1)


def _config_hash(config: dict) -> str:
    """Digest of the effective config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_sections(config: dict) -> None:
    """Value rules of the sections that only the command line reads."""
    for name in ("evolve", "neardegen"):
        section = config[name]
        t_final = _require_number(f"{name}.t_final", section["t_final"], low=0.0)
        # A grid from 0 to t_final > 0 needs both of its ends.
        _require_int(f"{name}.samples", section["samples"], 1 if t_final == 0.0 else 2)

    section = config["protocol1"]
    _require_int("protocol1.max_rounds", section["max_rounds"], 1)
    _require_number("protocol1.shift_floor", section["shift_floor"], low=0.0)

    if config["protocol2"]["work_mode"] not in ("closed", "quadrature"):
        raise ConfigError("protocol2.work_mode must be 'closed' or 'quadrature'")

    grid = config["figure"]["beta_grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("figure.beta_grid must be a nonempty list")

    if not isinstance(config["out"], str) or not config["out"]:
        raise ConfigError("out must be a nonempty string")


def _bath(section: dict) -> BathSpec:
    """The bath section's BathSpec; gamma_plus is a number or a rate table."""
    table = section["gamma_plus"]
    if isinstance(table, dict):
        _check_keys("bath.gamma_plus", table, ["kind", "points"])
        if table.get("kind") != "tabulated":
            raise ConfigError("bath is invalid: unsupported rate profile kind: "
                              f"{table.get('kind')!r}")
        points = table.get("points")
        if not isinstance(points, list) or not all(
                isinstance(pt, list) and len(pt) == 2 for pt in points):
            raise ConfigError("bath is invalid: tabulated profile points must be "
                              "[omega, gamma] pairs")
        rate_fn = _built("bath is invalid", tabulated_rate, [
            [_number(f"bath.gamma_plus.points.{i}", v) for v in pt]
            for i, pt in enumerate(points)])
    else:
        rate_fn = _built("bath is invalid", flat_rate, _number("bath.gamma_plus", table))
    return _built("bath is invalid", BathSpec, _number("bath.beta", section["beta"]),
                  rate_fn, _number("bath.alignment", section["alignment"]))


def _system(
    system: dict, command: str
) -> Union[DegenerateSystem, NearDegenerateSystem]:
    """The degenerate system, or the near-degenerate one for neardegen-check."""
    if set(system) == {"omega"}:
        if command == "neardegen-check":
            raise ConfigError(
                "neardegen-check needs a near-degenerate system {omega1, omega2}"
            )
        return _built("system is invalid", DegenerateSystem,
                      _number("system.omega", system["omega"]))
    if set(system) == {"omega1", "omega2"}:
        if command != "neardegen-check":
            raise ConfigError(f"{command} needs a degenerate system {{omega}}")
        return _built("system is invalid", NearDegenerateSystem,
                      _number("system.omega1", system["omega1"]),
                      _number("system.omega2", system["omega2"]))
    raise ConfigError("system must provide either {omega} or {omega1, omega2}")


def _initial_state(initial, system, bath: BathSpec) -> DensityMatrix:
    """The named state, or the physical state an initial object describes."""
    degenerate = isinstance(system, DegenerateSystem)
    if initial == "ground":
        return CoherenceVector(0.0, 1.0, 0.0, 0.0).to_density()
    if initial == "gibbs":
        if degenerate:
            return gibbs(HamiltonianSpec.degenerate(system.omega), bath.beta)
        return gibbs(HamiltonianSpec(e2=system.omega2, e1=system.omega1), bath.beta)
    if initial == "coherent-steady":
        if not degenerate:
            raise ConfigError("coherent-steady initial needs a degenerate system")
        return protocol_initial_state(bath.beta, system.omega)
    if isinstance(initial, str):
        raise ConfigError(f"unknown named initial state {initial!r}")
    if not isinstance(initial, dict):
        raise ConfigError("initial must be a name or an object")
    _check_keys("initial", initial, ["coherence_vector", "general"])
    if len(initial) != 1:
        raise ConfigError(
            "initial must provide exactly one of coherence_vector|general"
        )
    if "coherence_vector" in initial:
        vec = initial["coherence_vector"]
        if not isinstance(vec, list) or len(vec) != 4:
            raise ConfigError("initial.coherence_vector needs 4 numbers")
        values = [_require_number(f"initial.coherence_vector.{i}", v)
                  for i, v in enumerate(vec)]
        return _built("initial state is not physical",
                      lambda: CoherenceVector(*values).to_density().validate())
    spec = initial["general"]
    if not isinstance(spec, dict):
        raise ConfigError("initial.general must be an object")
    _check_keys("initial.general", spec, ["b", "n_norm", "theta", "phi"])
    for key in ("b", "n_norm", "theta", "phi"):
        if key not in spec:
            raise ConfigError(f"initial.general missing {key!r}")
    values = {k: _number(f"initial.general.{k}", v) for k, v in spec.items()}
    return _built("initial state is not physical",
                  lambda: GeneralInitialState(**values).to_density())


def _parse(config: dict, command: str) -> _Run:
    """Check every section and build the bath, system and initial state once.

    Every section is checked for every command.  Rules on numbers that a
    library type owns (finite, positive, in range) are left to that
    type; its ValueError becomes a config error.
    """
    if config["initial"] is None:
        protocol = command in _PROTOCOL_COMMANDS
        config["initial"] = "coherent-steady" if protocol else "ground"
    _check_sections(config)
    bath = _bath(config["bath"])
    # figure-wfed runs a bath at each of these betas.
    for i, beta in enumerate(config["figure"]["beta_grid"]):
        _built(f"figure.beta_grid.{i} is invalid", dataclasses.replace, bath,
               beta=_number(f"figure.beta_grid.{i}", beta))
    if command in _PROTOCOL_COMMANDS and bath.alignment != 1.0:
        raise ConfigError(f"{command} requires an aligned bath (alignment 1)")
    system = _system(config["system"], command)
    rho0 = _initial_state(config["initial"], system, bath)
    paths = {suffix: config["out"] + suffix for suffix in _COMMANDS[command][1]}
    return _Run(config, _config_hash(config), bath, system, rho0, paths)


def _time_grid(section: dict) -> Tuple[float, int, np.ndarray]:
    """(t_final, samples, times) of an evolve or neardegen section."""
    t_final = float(section["t_final"])
    samples = 1 if t_final == 0.0 else section["samples"]
    return t_final, samples, np.linspace(0.0, t_final, samples)


def _format_value(value: float) -> str:
    return "%.17g" % value


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence[float]], digest: str) -> str:
    lines = [
        f"# coherence-engine {__version__}",
        f"# config-sha256: {digest}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict, digest: str) -> str:
    payload = dict(payload)
    payload["meta"] = {
        "tool": "coherence-engine",
        "version": __version__,
        "config_sha256": digest,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _state_json(matrix: np.ndarray) -> list:
    """Rows of [re, im] pairs in basis order (|2>, |1>, |0>)."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _ledger_json(ledger: ProtocolLedger) -> dict:
    """A ledger's steps, each with its state after it, and its net work."""
    c = ledger.coherences.tolist()
    steps = [{"label": label, "work_in": w_in, "work_out": w_out,
              "coherence_before": c[k], "coherence_after": c[k + 1],
              "state": _state_json(ledger.chain[k + 1])}
             for k, (label, w_in, w_out) in enumerate(zip(
                 ledger.labels, ledger.work_in.tolist(), ledger.work_out.tolist()))]
    return {"steps": steps, "net_work": ledger.net_work}


def _write_all(files: Dict[str, str]) -> None:
    """Write every file or, on an OSError, none.

    Each text goes to a temporary file beside its path; the temporaries
    replace their paths only once all are written, and a failure removes
    them.  A path that is a directory fails before any replacement.
    """
    staged = []
    try:
        for path, text in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(f"output path {path!r} is a directory")
            with open(f"{path}.{os.getpid()}.tmp", "x", newline="\n") as fh:
                staged.append((fh.name, path))
                fh.write(text)
        for temporary, path in staged:
            os.replace(temporary, path)
    finally:
        for temporary, _ in staged:
            if os.path.exists(temporary):
                os.remove(temporary)


# A handler's output: its files' texts by out-prefix suffix, and its message.
_Output = Tuple[Dict[str, str], str]


def cmd_evolve(run: _Run) -> _Output:
    bath, system, rho0 = run.bath, run.system, run.rho0
    t_final, samples, times = _time_grid(run.config["evolve"])
    states = evolve_trajectory(rho0, system, bath, times)
    rows = trajectory_rows(times, states)

    final = states[-1]
    summary = {
        "final_state": _state_json(final.matrix),
        "final_c_l1": l1_coherence(final),
        "t_final": t_final,
        "samples": samples,
    }
    if bath.alignment == 1.0:
        init = CoherenceVector.from_density(rho0).as_array()
        closed = _sector_states(*_aligned_rows(init, system.omega, bath, times).T)
        ms = np.array([state.matrix for state in states])
        summary["analytic_max_deviation"] = max(0.0, float(np.abs(ms - closed).max()))
    elif abs(bath.alignment) < 1.0:
        ham = HamiltonianSpec.degenerate(system.omega)
        dist = trace_distance(final, gibbs(ham, bath.beta))
        summary["gibbs_trace_distance"] = dist
        summary["gibbs_within_tolerance"] = bool(dist < GIBBS_TOL)
    files = {".csv": _csv_text(trajectory_columns(), rows, run.digest),
             ".json": _json_text(summary, run.digest)}
    return files, f"final c_l1 = {_format_value(summary['final_c_l1'])}"


def cmd_steady(run: _Run) -> _Output:
    bath, system = run.bath, run.system
    init = CoherenceVector.from_density(run.rho0).as_array()
    state = steady_state(system, bath, init)
    ham = HamiltonianSpec.degenerate(system.omega)
    payload = {
        "state": _state_json(state.matrix),
        "c_l1": l1_coherence(state),
        "gibbs_trace_distance": trace_distance(state, gibbs(ham, bath.beta)),
    }
    files = {".json": _json_text(payload, run.digest)}
    return files, f"steady c_l1 = {_format_value(payload['c_l1'])}"


def cmd_protocol1(run: _Run) -> _Output:
    bath, system, rho0 = run.bath, run.system, run.rho0
    section = run.config["protocol1"]
    ledger, rounds = run_protocol1(
        rho0,
        system.omega,
        bath.beta,
        bath,
        max_rounds=section["max_rounds"],
        shift_floor=float(section["shift_floor"]),
    )
    ham = HamiltonianSpec.degenerate(system.omega)
    final = ledger.final_state
    payload = {
        "ledger": _ledger_json(ledger),
        "net_work": ledger.net_work,
        "fed_initial": fed(rho0, ham, bath.beta),
        "rounds_executed": len(rounds),
        "final_gibbs_trace_distance": trace_distance(final, gibbs(ham, bath.beta)),
    }
    columns = ["round", "shift", "lifted_level", "partition", "work_in", "work_out",
               "net_work", "coherence_after", "cumulative_work"]
    rows, cumulative = [], 0.0
    for r in rounds:
        cumulative += r.net_work
        rows.append([float(r.index), r.shift, r.lifted_level, r.partition, r.work_in,
                     r.work_out, r.net_work, r.coherence_after, cumulative])
    files = {"_ledger.json": _json_text(payload, run.digest),
             "_rounds.csv": _csv_text(columns, rows, run.digest)}
    return files, f"net work = {_format_value(ledger.net_work)}"


def cmd_protocol2(run: _Run) -> _Output:
    bath, system, rho0 = run.bath, run.system, run.rho0
    work_mode = run.config["protocol2"]["work_mode"]
    init = GeneralInitialState.from_density(rho0)
    if not init.b >= sys.float_info.min:
        raise ConfigError(f"protocol2 needs a ground population >= {sys.float_info.min!r}")
    ledger = protocol2(init, system.omega, bath.beta, bath, work_mode=work_mode)
    ham = HamiltonianSpec.degenerate(system.omega)
    fed_value = fed(rho0, ham, bath.beta)
    gap = abs(ledger.net_work - fed_value)
    payload = {
        "ledger": _ledger_json(ledger),
        "net_work": ledger.net_work,
        "fed": fed_value,
        "abs_net_minus_fed": gap,
        "work_mode": work_mode,
    }
    columns = ["step", "work_in", "work_out", "coherence_before", "coherence_after"]
    rows = [[float(k), s["work_in"], s["work_out"], s["coherence_before"],
             s["coherence_after"]] for k, s in enumerate(payload["ledger"]["steps"])]
    files = {"_ledger.json": _json_text(payload, run.digest),
             "_steps.csv": _csv_text(columns, rows, run.digest)}
    return files, f"|net - fed| = {_format_value(gap)}"


def cmd_figure_wfed(run: _Run) -> _Output:
    p1 = run.config["protocol1"]
    omega = run.system.omega
    rows = []
    for beta in map(float, run.config["figure"]["beta_grid"]):
        ledger, _rounds = run_protocol1(
            protocol_initial_state(beta, omega),
            omega,
            beta,
            dataclasses.replace(run.bath, beta=beta),
            max_rounds=p1["max_rounds"],
            shift_floor=float(p1["shift_floor"]),
        )
        x = math.exp(-beta * omega)
        # ln((1 + 2x)/(1 + x)) / beta, in a form that keeps its digits as x -> 0
        fed_value = math.log1p(x / (1.0 + x)) / beta
        rows.append([beta, ledger.net_work, fed_value])
    files = {".csv": _csv_text(["beta", "work_protocol1", "fed"], rows, run.digest)}
    return files, f"wrote {run.paths['.csv']} with {len(rows)} rows"


def cmd_neardegen_check(run: _Run) -> _Output:
    bath, system = run.bath, run.system
    init = CoherenceVector.from_density(run.rho0)
    t_final, samples, times = _time_grid(run.config["neardegen"])
    aligned = bath.alignment == 1.0

    columns = ["t", "num_rho22", "num_rho00", "num_rho_plus", "num_rho_minus_im"]
    series = _neardegenerate_series(init, system, bath, times)
    table, max_dev = [times[:, None], series], None
    if aligned:  # the exact series above gave this grid's window warning
        perturbative = _perturbative_series(init.as_array(), system, bath, times,
                                            warn=False)
        deviation = np.abs(series - perturbative).max(axis=1)
        max_dev = float(deviation.max())
        table += [perturbative, deviation[:, None]]
        columns += [name.replace("num", "pert") for name in columns[1:]] + ["deviation"]
    rows = np.hstack(table).tolist()

    thermal = thermalize_independent(run.rho0, system, bath)
    summary = {
        "delta": system.delta,
        "t_final": t_final,
        "samples": samples,
        "max_perturbative_deviation": max_dev,
        "validity_limit_t": _validity_limit(system),
        "independent_fixed_point": _state_json(thermal.matrix),
    }
    files = {".csv": _csv_text(columns, rows, run.digest),
             ".json": _json_text(summary, run.digest)}
    if aligned:
        return files, f"max perturbative deviation = {_format_value(max_dev)}"
    return files, "perturbative comparison skipped (bath not aligned)"


# Each command's handler and the files it writes, as suffixes of the out
# prefix.  main writes a handler's files to _Run.paths, which is built from
# this table alone.
_COMMANDS = {
    "evolve": (cmd_evolve, (".csv", ".json")),
    "steady": (cmd_steady, (".json",)),
    "protocol1": (cmd_protocol1, ("_ledger.json", "_rounds.csv")),
    "protocol2": (cmd_protocol2, ("_ledger.json", "_steps.csv")),
    "figure-wfed": (cmd_figure_wfed, (".csv",)),
    "neardegen-check": (cmd_neardegen_check, (".csv", ".json")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            p.add_argument("--jobs", type=int, help="accepted; changes nothing")
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


def _refuse_overwrite(paths, config_path: str) -> None:
    """Raise ConfigError when an output path is the config file itself."""
    for path in paths:
        if os.path.exists(path) and os.path.samefile(path, config_path):
            raise ConfigError(f"output {path!r} would overwrite the config file")


def _diagnostic(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _setup_logging()
        user_config: dict = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    user_config = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except ValueError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        config = _merge_config(user_config)
        _apply_overrides(config, args)
        run = _parse(config, args.command)
        if args.config:
            _refuse_overwrite(run.paths.values(), args.config)
        files, message = _COMMANDS[args.command][0](run)
        _write_all({run.paths[suffix]: text for suffix, text in files.items()})
        print(message)
        return EXIT_OK
    except ConfigError as exc:
        _diagnostic("config", str(exc))
        return EXIT_CONFIG
    except (ValueError, NumericsError) as exc:
        _diagnostic("numerical", str(exc))
        return EXIT_NUMERICAL
    except MemoryError as exc:
        _diagnostic("numerical", f"out of memory: {exc}")
        return EXIT_NUMERICAL
    except OSError as exc:
        _diagnostic("config", f"output failure: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
