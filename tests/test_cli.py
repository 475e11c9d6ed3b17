import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import coherence_engine
import coherence_engine.cli as cli
import coherence_engine.neardegen as neardegen
from coherence_engine import __version__
from coherence_engine.bath import BathSpec, flat_rate
from coherence_engine.bloch import DensityMatrix
from coherence_engine.cli import main
from coherence_engine.dynamics import (
    CoherenceVector,
    DegenerateSystem,
    evolve_trajectory,
    steady_state,
    trajectory_columns,
    trajectory_rows,
)
from coherence_engine.numerics import NumericsError
from coherence_engine.protocols import GeneralInitialState
from coherence_engine.thermo import l1_coherence


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _run(tmp_path, command, config, extra=()):
    return main([command, "--config", _write_config(tmp_path, config), *extra])


def _read_lines(path):
    return path.read_text().splitlines()


def test_evolve_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    config = {
        "evolve": {"t_final": 2.0, "samples": 11},
        "out": str(out),
    }
    assert _run(tmp_path, "evolve", config) == 0
    assert "final c_l1 = " in capsys.readouterr().out

    lines = _read_lines(tmp_path / "run.csv")
    assert lines[0] == f"# coherence-engine {__version__}"
    assert lines[1].startswith("# config-sha256: ")
    digest = lines[1].split(": ")[1]
    assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
    assert lines[2] == ",".join(trajectory_columns())
    assert len(lines) == 3 + 11

    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["meta"]["tool"] == "coherence-engine"
    assert summary["meta"]["version"] == __version__
    assert summary["meta"]["config_sha256"] == digest
    assert summary["samples"] == 11
    assert summary["analytic_max_deviation"] < 1e-8


def test_evolve_partial_alignment_reaches_gibbs(tmp_path):
    config = {
        "bath": {"alignment": 0.5},
        "evolve": {"t_final": 60.0, "samples": 13},
        "out": str(tmp_path / "mid"),
    }
    assert _run(tmp_path, "evolve", config) == 0
    summary = json.loads((tmp_path / "mid.json").read_text())
    assert summary["gibbs_within_tolerance"] is True
    assert summary["gibbs_trace_distance"] < 1e-8
    assert "analytic_max_deviation" not in summary


def test_evolve_long_horizon(tmp_path):
    config = {
        "bath": {"alignment": 0.5},
        "evolve": {"t_final": 1e6, "samples": 3},
        "out": str(tmp_path / "long"),
    }
    assert _run(tmp_path, "evolve", config) == 0
    summary = json.loads((tmp_path / "long.json").read_text())
    assert summary["gibbs_within_tolerance"] is True
    assert summary["final_c_l1"] < 1e-12


def _summary(tmp_path, command, config, name, extra=()):
    """Run command with config written to name; return its JSON summary."""
    config = {**config, "out": str(tmp_path / name)}
    assert _run(tmp_path, command, config, extra) == 0
    return json.loads((tmp_path / f"{name}.json").read_text())


def test_aligned_evolution_at_1e16_ends_in_its_closed_form_limit(tmp_path):
    """A zero eigenvalue rounded off its null space must not move the limit."""
    init = [0.2, 0.5, 0.1, 0.05]
    config = {"initial": {"coherence_vector": init},
              "evolve": {"t_final": 1e16, "samples": 3}}
    summary = _summary(tmp_path, "evolve", config, "far", ("--beta", "30"))
    limit = steady_state(DegenerateSystem(1.0), BathSpec(beta=30.0), init)
    assert summary["analytic_max_deviation"] <= 1e-15
    assert summary["final_c_l1"] == pytest.approx(l1_coherence(limit), abs=1e-15)
    assert summary["final_c_l1"] == pytest.approx(0.15, abs=1e-12)


def test_slow_relaxation_reaches_gibbs_at_the_longest_horizon(tmp_path):
    config = {"bath": {"alignment": 0.999999999},
              "evolve": {"t_final": 1e308, "samples": 5}}
    summary = _summary(tmp_path, "evolve", config, "slow")
    assert summary["gibbs_within_tolerance"] is True
    assert summary["gibbs_trace_distance"] <= 1e-15


@pytest.mark.parametrize("beta, alignment", [(0.05, 1.0 - 1e-11), (10.0, 1.0 - 2e-12)])
def test_steady_state_just_short_of_alignment_is_gibbs(tmp_path, beta, alignment):
    """|alignment| < 1 beyond ALIGNED_TOL: the closed-form Gibbs state, no solve."""
    config = {"bath": {"beta": beta, "alignment": alignment}}
    summary = _summary(tmp_path, "steady", config, "near")
    assert summary["gibbs_trace_distance"] <= 1e-15
    assert summary["c_l1"] == 0.0


def test_extreme_horizons_end_in_the_limit_or_in_exit_3(tmp_path, capsys, monkeypatch):
    """t_final up to 1e308: the limit state and exit 0, or exit 3 and no files.

    Runs in-process under warnings-as-errors, so a numpy warning would
    escape main as a traceback.
    """
    monkeypatch.setenv("COHERENCE_ENGINE_LOG", "error")
    cases = [
        ({"system": {"omega": 3.0}, "bath": {"alignment": 0.3}}, 1e308),
        ({"bath": {"alignment": 1.0, "beta": 2.0},
          "initial": {"coherence_vector": [0.3, 0.2, 0.1, 0.05]}}, 1e20),
        ({"system": {"omega": 3.0}, "bath": {"alignment": -1.0},
          "initial": {"coherence_vector": [0.3, 0.2, -0.1, 0.05]}}, 1e308),
        ({"system": {"omega": 3.0}, "bath": {"gamma_plus": 0.0}}, 1e308),
    ]
    for k, (config, t_final) in enumerate(cases):
        config = {**config, "evolve": {"t_final": t_final, "samples": 5}}
        summary = _summary(tmp_path, "evolve", config, f"far{k}")
        assert capsys.readouterr().err == ""
        rows = [[float(v) for v in line.split(",")]
                for line in _read_lines(tmp_path / f"far{k}.csv")[3:]]
        assert all(math.isfinite(v) for row in rows for v in row)
        assert min(row[-1] for row in rows) >= -1e-15
        assert summary.get("gibbs_trace_distance", 0.0) <= 1e-15
        assert summary.get("analytic_max_deviation", 0.0) <= 1e-15
    # Damped and split: the splitting correction's exponents overflow to
    # -inf, where its kernel takes the exact limits.
    for k, (omega1, omega2) in enumerate(((1.0, 1.005), (1e-3, 1.005e-3), (50.0, 54.5))):
        config = {"system": {"omega1": omega1, "omega2": omega2},
                  "neardegen": {"t_final": 1e308, "samples": 3},
                  "out": str(tmp_path / f"split{k}")}
        assert _run(tmp_path, "neardegen-check", config) == 0
        assert capsys.readouterr().err == ""
        rows = [[float(v) for v in line.split(",")]
                for line in _read_lines(tmp_path / f"split{k}.csv")[3:]]
        assert len(rows) == 3 and all(math.isfinite(v) for row in rows for v in row)
    # No damping and a splitting of 1.9: the phase 1.9 t overflows.
    config = {"system": {"omega1": 20.0, "omega2": 21.9},
              "bath": {"gamma_plus": 0.0, "alignment": 0.5},
              "initial": {"coherence_vector": [0.3, 0.2, 0.1, 0.05]},
              "neardegen": {"t_final": 1e308, "samples": 3},
              "out": str(tmp_path / "undamped")}
    assert _run(tmp_path, "neardegen-check", config) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "numerical"
    assert "1e+308" in json.loads(err[0])["message"]
    assert not list(tmp_path.glob("undamped*"))


def test_reruns_are_byte_identical(tmp_path):
    config = {
        "evolve": {"t_final": 1.0, "samples": 7},
        "out": str(tmp_path / "twice"),
    }
    assert _run(tmp_path, "evolve", config) == 0
    first_csv = (tmp_path / "twice.csv").read_bytes()
    first_json = (tmp_path / "twice.json").read_bytes()
    assert _run(tmp_path, "evolve", config) == 0
    assert (tmp_path / "twice.csv").read_bytes() == first_csv
    assert (tmp_path / "twice.json").read_bytes() == first_json
    assert b"\r" not in first_csv


def test_csv_floats_roundtrip_to_full_precision(tmp_path, capsys):
    config = {"out": str(tmp_path / "fix")}
    assert _run(tmp_path, "steady", config) == 0
    printed = capsys.readouterr().out.strip().split(" = ")[1]
    payload = json.loads((tmp_path / "fix.json").read_text())
    assert float(printed) == payload["c_l1"]
    # ground-start stationary coherence at beta = omega = 1
    assert payload["c_l1"] == pytest.approx(0.2689414213699951, abs=5e-16)
    assert payload["gibbs_trace_distance"] > 0.01


def test_protocol1_outputs(tmp_path, capsys):
    out = tmp_path / "p1"
    config = {"out": str(out)}
    assert _run(tmp_path, "protocol1", config) == 0
    assert "net work = " in capsys.readouterr().out
    payload = json.loads((tmp_path / "p1_ledger.json").read_text())
    assert payload["rounds_executed"] == 8
    assert payload["net_work"] == pytest.approx(0.09398875002322407, abs=1e-10)
    assert payload["net_work"] < payload["fed_initial"]
    assert payload["final_gibbs_trace_distance"] < 1e-5
    lines = _read_lines(tmp_path / "p1_rounds.csv")
    assert lines[2].startswith("round,shift,")
    assert lines[2].endswith(",cumulative_work")
    assert len(lines) == 3 + 8
    last = [float(v) for v in lines[-1].split(",")]
    assert last[-1] == pytest.approx(payload["net_work"], abs=1e-14)


def test_protocol2_outputs(tmp_path, capsys):
    out = tmp_path / "p2"
    config = {"out": str(out)}
    assert _run(tmp_path, "protocol2", config) == 0
    printed = capsys.readouterr().out
    assert "|net - fed| = " in printed
    payload = json.loads((tmp_path / "p2_ledger.json").read_text())
    assert payload["abs_net_minus_fed"] < 1e-12
    assert payload["fed"] == pytest.approx(0.23818302641382832, abs=1e-13)
    assert payload["work_mode"] == "closed"
    lines = _read_lines(tmp_path / "p2_steps.csv")
    assert len(lines) == 3 + 5
    assert lines[2] == "step,work_in,work_out,coherence_before,coherence_after"
    steps = payload["ledger"]["steps"]
    assert payload["ledger"]["net_work"] == payload["net_work"]
    assert payload["net_work"] == math.fsum(s["work_out"] - s["work_in"] for s in steps)
    for k, (line, step) in enumerate(zip(lines[3:], steps)):
        assert sorted(step) == ["coherence_after", "coherence_before", "label",
                                "state", "work_in", "work_out"]
        assert [float(v) for v in line.split(",")] == [
            k, step["work_in"], step["work_out"],
            step["coherence_before"], step["coherence_after"]]


def test_protocol2_quadrature_mode(tmp_path):
    config = {
        "protocol2": {"work_mode": "quadrature"},
        "out": str(tmp_path / "q"),
    }
    assert _run(tmp_path, "protocol2", config) == 0
    payload = json.loads((tmp_path / "q_ledger.json").read_text())
    assert payload["abs_net_minus_fed"] < 1e-8


def test_figure_wfed_serial_and_parallel(tmp_path):
    grid = [0.5, 1.0, 2.0, 20.0, 40.0]
    serial = {
        "figure": {"beta_grid": grid},
        "out": str(tmp_path / "serial"),
    }
    assert _run(tmp_path, "figure-wfed", serial) == 0
    serial_lines = _read_lines(tmp_path / "serial.csv")
    assert serial_lines[2] == "beta,work_protocol1,fed"
    assert len(serial_lines) == 3 + len(grid)
    row = [float(v) for v in serial_lines[4].split(",")]
    assert row[0] == 1.0
    assert row[1] == pytest.approx(0.09398875002322407, abs=1e-9)
    assert row[2] == pytest.approx(0.23818302641382832, abs=1e-13)
    assert all(0.0 < r1 < r2 for _, r1, r2 in
               ([float(v) for v in line.split(",")] for line in serial_lines[3:]))
    # fed = ln(1 + u)/beta, u = x/(1 + x) ~ 2e-9: u - u^2/2 is exact to rounding
    beta, _work, fed_cold = (float(v) for v in serial_lines[6].split(","))
    assert beta == 20.0
    u = math.exp(-beta) / (1.0 + math.exp(-beta))
    assert fed_cold == pytest.approx((u - 0.5 * u * u) / beta, rel=1e-15, abs=0.0)

    parallel = {
        "figure": {"beta_grid": grid},
        "out": str(tmp_path / "parallel"),
    }
    assert main(["figure-wfed", "--config",
                 _write_config(tmp_path, parallel, "par.json"), "--jobs", "2"]) == 0
    parallel_lines = _read_lines(tmp_path / "parallel.csv")
    assert parallel_lines[3:] == serial_lines[3:]
    assert not list(tmp_path.glob("*.part-*"))
    # --jobs changes no output and stays out of the config hash
    assert _run(tmp_path, "figure-wfed", {**parallel, "out": serial["out"]},
                ("--jobs", "2")) == 0
    assert _read_lines(tmp_path / "serial.csv") == serial_lines


def test_state_json_layout(tmp_path):
    """Rows in basis order (|2>, |1>, |0>), each entry a [re, im] pair of floats."""
    general = {"b": 0.3, "n_norm": 0.7, "theta": 1.1, "phi": -0.4}
    rho_general = GeneralInitialState(**general).to_density()
    for initial, rho in (({"general": general}, rho_general),
                         ("ground", DensityMatrix.ground())):
        config = {"initial": initial, "evolve": {"t_final": 0.0, "samples": 1},
                  "out": str(tmp_path / "s")}
        assert _run(tmp_path, "evolve", config) == 0
        data = json.loads((tmp_path / "s.json").read_text())["final_state"]
        assert len(data) == 3 and all(len(row) == 3 for row in data)
        for i, row in enumerate(data):
            for j, pair in enumerate(row):
                assert all(type(v) is float for v in pair)
                assert pair == [rho.matrix[i, j].real, rho.matrix[i, j].imag]
    assert data[2][2] == [1.0, 0.0]


def test_bath_section_builds_the_bath(tmp_path, capsys):
    """beta, a flat or tabulated gamma_plus and the alignment reach the runs."""
    times = np.linspace(0.0, 1.0, 3)
    ground = DensityMatrix.ground()
    table = {"kind": "tabulated", "points": [[1.0, 1.0], [2.0, 2.0]]}
    for system, section, bath in (
        (1.0, {"beta": 2.0, "gamma_plus": 0.5, "alignment": 0.3},
         BathSpec(2.0, flat_rate(0.5), 0.3)),
        # the table's rate at omega = 1.5 is 1.5
        (1.5, {"beta": 1.0, "gamma_plus": table}, BathSpec(1.0, flat_rate(1.5))),
    ):
        config = {"system": {"omega": system}, "bath": section,
                  "evolve": {"t_final": 1.0, "samples": 3}, "out": str(tmp_path / "b")}
        assert _run(tmp_path, "evolve", config) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in _read_lines(tmp_path / "b.csv")[3:]]
        states = evolve_trajectory(ground, DegenerateSystem(system), bath, times)
        assert rows == trajectory_rows(times, states)
    config = {"bath": {"beta": 1.0, "temperature": 300.0}, "out": str(tmp_path / "t")}
    assert _run(tmp_path, "evolve", config) == 2
    assert "unknown keys" in _config_error(capsys)


def test_bath_section_rejects_non_numbers(tmp_path, capsys):
    table = {"kind": "tabulated", "points": [[1.0, 1.0], [2.0, 2.0]]}
    for section, word in (
        ({"beta": True}, "number"),
        ({"beta": "1.0"}, "number"),
        ({"beta": None}, "number"),
        ({"beta": 1.0, "alignment": False}, "number"),
        ({"beta": 1.0, "gamma_plus": "1.0"}, "number"),
        ({"gamma_plus": {**table, "points": [[1.0, "1.0"], [2.0, 2.0]]}}, "number"),
        ({"gamma_plus": {**table, "points": [[1.0, True], [2.0, 2.0]]}}, "number"),
        ({"gamma_plus": {"kind": "tabulated"}}, "pairs"),
        ({"gamma_plus": {**table, "points": [[1.0, 1.0, 1.0], [2.0, 2.0]]}}, "pairs"),
        ({"beta": 10 ** 400}, "finite"),
    ):
        config = {"bath": section, "out": str(tmp_path / "x")}
        assert _run(tmp_path, "steady", config) == 2
        assert word in _one_config_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_neardegen_check_outputs(tmp_path, capsys):
    config = {
        "system": {"omega1": 1.0, "omega2": 1.005},
        "neardegen": {"t_final": 2.0, "samples": 5},
        "out": str(tmp_path / "nd"),
    }
    assert _run(tmp_path, "neardegen-check", config) == 0
    assert "max perturbative deviation = " in capsys.readouterr().out
    lines = _read_lines(tmp_path / "nd.csv")
    assert lines[2].split(",")[:2] == ["t", "num_rho22"]
    assert "deviation" in lines[2]
    summary = json.loads((tmp_path / "nd.json").read_text())
    assert summary["delta"] == pytest.approx(0.005)
    assert summary["max_perturbative_deviation"] < 1e-4
    assert summary["validity_limit_t"] == pytest.approx(0.3 / 0.005)


def test_neardegen_check_warns_only_past_the_reported_limit(tmp_path, caplog):
    """validity_limit_t is the warning's own limit: a grid ending on it is inside.

    At omega = (1, 1.075), t * delta at the reported limit rounds to above
    0.3, so a test on that product would warn there.
    """
    config = {"system": {"omega1": 1.0, "omega2": 1.075},
              "neardegen": {"t_final": 1.0, "samples": 3},
              "out": str(tmp_path / "nd")}
    assert _run(tmp_path, "neardegen-check", config) == 0
    limit = json.loads((tmp_path / "nd.json").read_text())["validity_limit_t"]
    assert limit * (1.075 - 1.0) > 0.3
    for t_final, warnings in ((limit, 0), (math.nextafter(limit, math.inf), 1)):
        config["neardegen"]["t_final"] = t_final
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="coherence_engine.neardegen"):
            assert _run(tmp_path, "neardegen-check", config) == 0
        assert len(caplog.records) == warnings, t_final
        assert json.loads((tmp_path / "nd.json").read_text())["validity_limit_t"] == limit


def test_neardegen_check_without_emission_exits_3(tmp_path, capsys):
    """A split system whose bath emits nothing at omega1 has no correction."""
    config = {"system": {"omega1": 1.0, "omega2": 1.005},
              "bath": {"gamma_plus": 0.0},
              "out": str(tmp_path / "dark")}
    assert _run(tmp_path, "neardegen-check", config) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "numerical"
    assert "emission rate" in json.loads(err[0])["message"]
    assert not list(tmp_path.glob("dark*"))


@pytest.mark.parametrize("gamma_plus", [1e-300, 1e-160])
def test_neardegen_check_at_tiny_emission_rates(tmp_path, gamma_plus):
    """Emission rates near the bottom of the double range still compare exactly."""
    config = {"system": {"omega1": 1.0, "omega2": 1.005},
              "bath": {"gamma_plus": gamma_plus},
              "out": str(tmp_path / "faint")}
    assert _run(tmp_path, "neardegen-check", config) == 0
    summary = json.loads((tmp_path / "faint.json").read_text())
    assert 0.0 <= summary["max_perturbative_deviation"] <= 1e-15


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_every_written_json_file_is_strict_json(tmp_path):
    """No NaN or +-Infinity in any output; at delta = 0 the limit is null.

    So is it at a subnormal splitting, where 0.3 / delta overflows.
    """
    split = _write_config(tmp_path, {"system": {"omega1": 1.0, "omega2": 1.005}},
                          "split.json")
    degenerate = _write_config(tmp_path, {"system": {"omega1": 1.0, "omega2": 1.0}},
                               "degenerate.json")
    cases = [[command] for command in ("evolve", "steady", "protocol1", "protocol2",
                                       "figure-wfed")]
    subnormal = _write_config(tmp_path, {"system": {"omega1": 1e-309,
                                                    "omega2": 1e-309 + 1.5e-323}},
                              "subnormal.json")
    cases += [["neardegen-check", "--config", split],
              ["neardegen-check", "--config", degenerate],
              ["neardegen-check", "--config", subnormal]]
    for k, args in enumerate(cases):
        out = tmp_path / f"run{k}"
        out.mkdir()
        assert main(args + ["--out", str(out / "out")]) == 0
        for path in out.glob("*.json"):
            _strict_json(path)
    split_limit = _strict_json(tmp_path / "run5" / "out.json")["validity_limit_t"]
    assert split_limit == pytest.approx(0.3 / 0.005)
    assert _strict_json(tmp_path / "run6" / "out.json")["validity_limit_t"] is None
    assert _strict_json(tmp_path / "run7" / "out.json")["delta"] == 1.5e-323
    assert _strict_json(tmp_path / "run7" / "out.json")["validity_limit_t"] is None


def test_neardegen_check_decomposes_once(tmp_path, monkeypatch):
    """One propagation for the whole grid, equal to the per-sample route."""
    calls = []
    propagate = neardegen.propagate_affine
    monkeypatch.setattr(neardegen, "propagate_affine",
                        lambda *args: calls.append(args) or propagate(*args))
    config = {
        "system": {"omega1": 1.0, "omega2": 1.005},
        "neardegen": {"t_final": 10.0, "samples": 21},
        "initial": {"coherence_vector": [0.3, 0.2, 0.1, 0.05]},
        "out": str(tmp_path / "nd"),
    }
    assert _run(tmp_path, "neardegen-check", config) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    rows = [[float(v) for v in line.split(",")[:5]]
            for line in _read_lines(tmp_path / "nd.csv")[3:]]
    assert len(rows) == 21
    system = neardegen.NearDegenerateSystem(1.0, 1.005)
    pi0 = CoherenceVector(0.3, 0.2, 0.1, 0.05)
    for t, *numeric in rows:
        single = neardegen.evolve_neardegenerate(pi0, system, BathSpec(beta=1.0), t)
        np.testing.assert_allclose(numeric, single.as_array(), rtol=0.0, atol=1e-13)


def test_neardegen_check_warns_once(tmp_path, caplog):
    """One validity-window warning per run; perturbative columns unchanged."""
    config = {
        "system": {"omega1": 1.0, "omega2": 1.005},
        "neardegen": {"t_final": 100.0, "samples": 101},
        "initial": {"coherence_vector": [0.3, 0.2, 0.1, 0.05]},
        "out": str(tmp_path / "nd"),
    }
    with caplog.at_level(logging.WARNING, logger="coherence_engine.neardegen"):
        assert _run(tmp_path, "neardegen-check", config) == 0
    assert ["validity window" in r.message for r in caplog.records] == [True]
    rows = [[float(v) for v in line.split(",")]
            for line in _read_lines(tmp_path / "nd.csv")[3:]]
    assert len(rows) == 101
    system = neardegen.NearDegenerateSystem(1.0, 1.005)
    bath = BathSpec(beta=1.0, alignment=1.0)
    for t, *_numeric, p22, p00, pp, pd, _dev in rows:
        single = neardegen.perturbative_solution(
            (0.3, 0.2, 0.1, 0.05), system, bath, t
        )
        assert single.as_array().tolist() == [p22, p00, pp, pd]


def test_neardegen_check_reports_its_largest_deviation(tmp_path):
    """The summary's deviation is the largest one in the CSV, and it is not 0."""
    config = {"system": {"omega1": 1.0, "omega2": 1.05}, "out": str(tmp_path / "nd")}
    assert _run(tmp_path, "neardegen-check", config) == 0
    lines = _read_lines(tmp_path / "nd.csv")[2:]
    column = lines[0].split(",").index("deviation")
    largest = max(float(line.split(",")[column]) for line in lines[1:])
    summary = json.loads((tmp_path / "nd.json").read_text())
    assert summary["max_perturbative_deviation"] == largest > 0.0
    assert largest == pytest.approx(0.001965032039448311, rel=1e-12)


def test_log_level_env_sets_what_reaches_stderr(tmp_path):
    """error silences the window warning; warn writes it as one formatted line.

    A subprocess, because in-process logging.basicConfig does nothing once a
    handler is installed, as pytest's log capture does.  The last case
    configures logging before main runs, as a host program would: the level
    still holds there.
    """
    config = _write_config(tmp_path, {"system": {"omega1": 1.0, "omega2": 1.05}})
    argv = ["neardegen-check", "--config", config, "--out", str(tmp_path / "nd")]
    run_main = ("import sys; from coherence_engine.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
    host = "import logging, sys; logging.basicConfig(stream=sys.stderr); " + run_main
    prefix = "WARNING coherence_engine.neardegen: reduced dynamics used outside"
    for code, level, count in ((run_main, "error", 0), (run_main, "warn", 1),
                               (host, "error", 0)):
        env = dict(os.environ, COHERENCE_ENGINE_LOG=level,
                   PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == count, (level, proc.stderr)
        assert all(line.startswith(prefix) for line in lines), proc.stderr


@pytest.mark.parametrize("command, config, suffix", [
    ("neardegen-check", {"system": {"omega1": 1.0, "omega2": 1.005}}, ".json"),
    ("steady", {}, ".json"),
    ("protocol1", {"protocol1": {"max_rounds": 2}}, "_ledger.json"),
])
def test_output_onto_config_exits_2_and_writes_nothing(
    tmp_path, capsys, command, config, suffix
):
    path = pathlib.Path(_write_config(tmp_path, config, name="run" + suffix))
    before = path.read_bytes()
    prefix = str(tmp_path / "sub" / ".." / "run")
    (tmp_path / "sub").mkdir()
    assert main([command, "--config", str(path), "--out", prefix]) == 2
    assert "overwrite the config" in _config_error(capsys)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run" + suffix, "sub"]
    # any other prefix runs, and the config still parses
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 0
    assert path.read_bytes() == before


def test_flag_overrides_change_hash_and_values(tmp_path, capsys):
    config = {"out": str(tmp_path / "a")}
    assert _run(tmp_path, "steady", config) == 0
    base = json.loads((tmp_path / "a.json").read_text())
    x = math.exp(-2.0)
    for flag, out in (("--beta", "b"), ("--omega", "c")):
        assert _run(tmp_path, "steady", config,
                    extra=[flag, "2.0", "--out", str(tmp_path / out)]) == 0
        assert "steady c_l1" in capsys.readouterr().out
        changed = json.loads((tmp_path / f"{out}.json").read_text())
        assert changed["meta"]["config_sha256"] != base["meta"]["config_sha256"]
        # beta omega = 2 either way
        assert changed["c_l1"] == pytest.approx(x / (1.0 + x), abs=1e-15)
    # a Gibbs start, on the degenerate and on the split system
    split = {"system": {"omega1": 1.0, "omega2": 1.005}, "initial": "gibbs",
             "out": str(tmp_path / "d")}
    assert _run(tmp_path, "steady", {**config, "initial": "gibbs"}) == 0
    assert "steady c_l1" in capsys.readouterr().out
    assert _run(tmp_path, "neardegen-check", split) == 0
    assert "max perturbative deviation" in capsys.readouterr().out
    # an unaligned bath skips the perturbative comparison
    assert _run(tmp_path, "neardegen-check", {**split, "initial": "ground"},
                extra=["--alignment", "0.5"]) == 0
    assert "comparison skipped" in capsys.readouterr().out
    summary = json.loads((tmp_path / "d.json").read_text())
    assert summary["max_perturbative_deviation"] is None
    header = _read_lines(tmp_path / "d.csv")[2].split(",")
    assert header[0] == "t" and all(name.startswith("num_") for name in header[1:])


def _config_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    blob = json.loads(err)
    assert blob["error"] == "config"
    return blob["message"]


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    assert _run(tmp_path, "evolve", {"evolvee": {}}) == 2
    assert "unknown keys" in _config_error(capsys)
    assert _run(tmp_path, "evolve", {"evolve": {"dt": 0.1}}) == 2
    assert "unknown keys" in _config_error(capsys)
    assert _run(tmp_path, "evolve", {"bath": {"beta": -1.0}}) == 2
    _config_error(capsys)


@pytest.mark.parametrize("command, config", [
    ("evolve", {"evolve": {"tol": 1e-10}}),
    ("neardegen-check", {"system": {"omega1": 1.0, "omega2": 1.005},
                         "neardegen": {"tol": 1e-10}}),
    ("figure-wfed", {"figure": {"jobs": 2}}),
])
def test_keys_that_change_nothing_are_unknown(tmp_path, capsys, command, config):
    """evolve.tol, neardegen.tol and figure.jobs are gone from the config."""
    assert _run(tmp_path, command, {**config, "out": str(tmp_path / "x")}) == 2
    assert "unknown keys" in _config_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("argv", [
    ["evolve", "--beta", "abc"],
    ["figure-wfed", "--jobs", "1.5"],
    ["figure-wfed", "--jobs", "0"],
    ["no-such-command"],
])
def test_bad_flags_exit_2_with_one_json_line(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "config"
    assert not list(tmp_path.iterdir())


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure-wfed", "--help"])
    assert exc.value.code == 0
    assert "--jobs" in capsys.readouterr().out


def test_readme_config_block_names_the_default_keys():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("defaults shown:\n\n```json\n")[1].split("```")[0]
    documented, defaults = json.loads(block), cli._default_config()
    assert list(documented) == list(defaults)
    for name, section in defaults.items():
        if isinstance(section, dict):
            assert sorted(documented[name]) == sorted(section), name


def test_bad_values_exit_2(tmp_path, capsys):
    assert _run(tmp_path, "evolve", {"initial": "excited"}) == 2
    _config_error(capsys)
    assert _run(tmp_path, "evolve", {"figure": {"beta_grid": []}}) == 2
    _config_error(capsys)
    assert _run(tmp_path, "evolve",
                {"evolve": {"samples": 2.5}}) == 2
    _config_error(capsys)
    bad_path = str(tmp_path / "missing.json")
    assert main(["evolve", "--config", bad_path, "--out", str(tmp_path / "m")]) == 2
    assert "cannot read config file" in _config_error(capsys)
    assert not list(tmp_path.glob("m*"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["evolve", "--config", str(broken)]) == 2
    assert "not valid JSON" in _config_error(capsys)
    out = str(tmp_path / "x")
    assert _run(tmp_path, "evolve", {"bath": {"beta": math.nan}, "out": out}) == 2
    assert "finite" in _config_error(capsys)
    assert _run(tmp_path, "evolve",
                {"bath": {"alignment": -math.inf}, "out": out}) == 2
    assert "finite" in _config_error(capsys)
    one_point = {"kind": "tabulated", "points": [[1.0, 1.0]]}
    assert _run(tmp_path, "steady",
                {"bath": {"gamma_plus": one_point}, "out": out}) == 2
    assert "two points" in _config_error(capsys)
    nan_table = {"kind": "tabulated", "points": [[0.5, math.nan], [2.0, 1.0]]}
    for command in ("steady", "evolve"):
        assert _run(tmp_path, command, {"bath": {"gamma_plus": nan_table,
                                                 "alignment": 0.5}, "out": out}) == 2
        assert "finite" in _config_error(capsys)
    table = {"kind": "tabulated", "points": [[0.5, 1], [2, 1]]}
    for config, word in (
        ({"bath": {"gamma_plus": {**table, "foo": 3}}}, "foo"),
        ({"bath": {"gamma_plus": {**table, "kind": "lorentzian"}}}, "kind"),
        ({"system": {"omega": "1"}}, "number"),
        ({"evolve": {"t_final": -1}}, ">= 0"),
        ({"evolve": {"t_final": math.inf}}, "finite"),
        ({"evolve": 3}, "object"),
        ({"protocol2": {"work_mode": "open"}}, "work_mode"),
        ({"out": ""}, "out"),
    ):
        assert _run(tmp_path, "evolve", {"out": out, **config}) == 2
        assert word in _config_error(capsys)
    assert main(["evolve", "--config", _write_config(tmp_path, [1]), "--out", out]) == 2
    assert "root" in _config_error(capsys)
    assert not list(tmp_path.glob("x*"))


def _one_config_error(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    blob = json.loads(lines[0])
    assert blob["error"] == "config"
    return blob["message"]


_SPLIT = {"system": {"omega1": 1.0, "omega2": 1.005}}


@pytest.mark.parametrize("command, config, word", [
    *[(command, {"protocol1": rule}, name)
      for command in ("evolve", "protocol1", "figure-wfed")
      for rule, name in (({"max_rounds": 0}, "protocol1.max_rounds"),
                         ({"shift_floor": -1}, "protocol1.shift_floor"))],
    ("evolve", {"initial": {"vector": [0.3, 0.2, 0.2, 0.1]}}, "vector"),
    ("evolve", {"initial": {"general": {"b": 0.5, "n_norm": 0.5, "theta": 0.0,
                                        "phi": 0.0, "psi": 0.0}}}, "psi"),
    *[(command, _SPLIT, "needs a degenerate system")
      for command in ("evolve", "steady", "protocol1", "protocol2", "figure-wfed")],
    ("evolve", {"initial": "excited"}, "'excited'"),
])
def test_config_contracts_exit_2_and_write_nothing(tmp_path, capsys, command, config,
                                                   word):
    """Each rule holds for every command that reads the config, not only its owner."""
    assert _run(tmp_path, command, {**config, "out": str(tmp_path / "x")}) == 2
    assert word in _one_config_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_subnormal_beta_exits_2_and_writes_nothing(tmp_path, capsys):
    """Below the smallest normal float the runs ended in NaN with exit 0."""
    out = str(tmp_path / "sub")
    for command in ("protocol1", "protocol2"):
        assert main([command, "--beta", "1e-320", "--out", out]) == 2
        assert "beta" in _one_config_error(capsys)
    config = {"figure": {"beta_grid": [1e-320, 1e-310]}, "out": out}
    assert _run(tmp_path, "figure-wfed", config) == 2
    assert "figure.beta_grid.0" in _one_config_error(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command, config", [
    ("evolve", {}),
    ("protocol1", {"protocol1": {"max_rounds": 2}}),
    ("protocol2", {}),
    ("neardegen-check", {"system": {"omega1": 1.0, "omega2": 1.005}}),
])
def test_an_output_path_that_is_a_directory_exits_2_and_writes_nothing(
    tmp_path, capsys, command, config
):
    """Each output in turn is a directory; the other one keeps its old bytes."""
    suffixes = cli._COMMANDS[command][1]
    for blocked in suffixes:
        root = tmp_path / blocked.strip("._")
        root.mkdir()
        (root / ("run" + blocked)).mkdir()
        others = [root / ("run" + suffix) for suffix in suffixes if suffix != blocked]
        for path in others:
            path.write_text("old\n")
        assert _run(root, command, config, ["--out", str(root / "run")]) == 2
        assert "directory" in _one_config_error(capsys)
        assert [path.read_text() for path in others] == ["old\n"] * len(others)
        names = sorted(p.name for p in root.iterdir())
        assert names == sorted(["config.json"] + ["run" + suffix for suffix in suffixes])


def test_smallest_normal_beta_gives_finite_strict_json(tmp_path, capsys):
    """Every subcommand at beta = sys.float_info.min, warnings as errors."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    beta = sys.float_info.min
    split = {"system": {"omega1": 1.0, "omega2": 1.005}}
    for command, config in (("evolve", {}), ("steady", {}), ("protocol1", {}),
                            ("protocol2", {}), ("figure-wfed", {}),
                            ("neardegen-check", split)):
        config = {**config, "bath": {"beta": beta}, "figure": {"beta_grid": [beta]},
                  "out": str(tmp_path / command)}
        assert _run(tmp_path, command, config) == 0, capsys.readouterr().err
        for path in tmp_path.glob(f"{command}*.json"):
            json.loads(path.read_text(), parse_constant=reject)
        for path in tmp_path.glob(f"{command}*.csv"):
            values = [float(v) for line in _read_lines(path)[3:] for v in line.split(",")]
            assert values and all(math.isfinite(v) for v in values), path.name
    assert capsys.readouterr().err == ""


def test_one_sample_is_a_grid_only_at_t_final_zero(tmp_path, capsys):
    """samples 1 at t_final > 0 reported the initial state as the final one."""
    split = {"system": {"omega1": 1.0, "omega2": 1.005}}
    for command, system, section in (("evolve", {}, "evolve"),
                                      ("neardegen-check", split, "neardegen")):
        out = tmp_path / command
        config = {**system, section: {"samples": 1}, "out": str(out)}
        assert _run(tmp_path, command, config) == 2
        assert f"{section}.samples" in _one_config_error(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        config[section]["t_final"] = 0.0
        assert _run(tmp_path, command, config) == 0
        assert len(_read_lines(tmp_path / f"{command}.csv")) == 3 + 1
        for path in tmp_path.glob(f"{command}.*"):
            path.unlink()


def test_unphysical_initial_state_exit_2(tmp_path, capsys):
    config = {
        "initial": {"coherence_vector": [0.9, 0.9, 0.0, 0.0]},
        "out": str(tmp_path / "x"),
    }
    assert _run(tmp_path, "evolve", config) == 2
    assert "not physical" in _config_error(capsys)
    config["initial"] = {"general": {"b": 0.5, "n_norm": 1.5, "theta": 0, "phi": 0}}
    assert _run(tmp_path, "evolve", config) == 2
    assert "not physical" in _config_error(capsys)
    general = {"b": 0.5, "n_norm": 0.5, "theta": 0, "phi": 0}
    for initial, word in (
        (3, "name or an object"),
        ({"coherence_vector": [0.3, 0.2, 0.2, 0.1], "general": general}, "exactly one"),
        ({"coherence_vector": [0.3, 0.2, 0.2]}, "4 numbers"),
        ({"general": 3}, "object"),
        ({"general": {k: general[k] for k in ("b", "n_norm", "theta")}}, "phi"),
    ):
        config["initial"] = initial
        assert _run(tmp_path, "evolve", config) == 2
        assert word in _config_error(capsys)
    config["initial"] = {"general": {**general, "b": 0.0}}
    assert _run(tmp_path, "protocol2", config) == 2
    assert "ground population" in _config_error(capsys)
    # a subnormal ground population: 1/b overflows in the matching
    config["initial"] = {"general": {"b": 5.563e-309, "n_norm": 1, "theta": 0, "phi": 0}}
    for mode in ("closed", "quadrature"):
        config["protocol2"] = {"work_mode": mode}
        assert _run(tmp_path, "protocol2", config) == 2
        assert "ground population" in _config_error(capsys)
        assert not list(tmp_path.glob("x_*"))


def test_system_shape_mismatches_exit_2(tmp_path, capsys):
    two = {"system": {"omega1": 1.0, "omega2": 1.01}, "out": str(tmp_path / "x")}
    assert _run(tmp_path, "protocol1", two) == 2
    _config_error(capsys)
    assert _run(tmp_path, "neardegen-check",
                {"out": str(tmp_path / "y")}) == 2
    _config_error(capsys)
    assert _run(tmp_path, "evolve", dict(two), extra=["--omega", "2.0"]) == 2
    assert "--omega" in _config_error(capsys)
    assert _run(tmp_path, "evolve", {"system": {"omega": 1.0, "omega2": 2.0}}) == 2
    _config_error(capsys)
    assert _run(tmp_path, "neardegen-check", {**two, "initial": "coherent-steady"}) == 2
    assert "degenerate system" in _config_error(capsys)


def test_rule_breaking_configs_exit_2(tmp_path, capsys):
    """Protocols need an aligned bath; neardegen-check omega2 >= omega1, close."""
    out = str(tmp_path / "x")
    for command in ("protocol1", "protocol2", "figure-wfed"):
        assert _run(tmp_path, command, {"out": out}, extra=["--alignment", "0.5"]) == 2
        assert "aligned" in _config_error(capsys)
    for omega2 in (0.5, 1.5):
        config = {"system": {"omega1": 1.0, "omega2": omega2}, "out": out}
        assert _run(tmp_path, "neardegen-check", config) == 2
        assert "system" in _config_error(capsys)
    table = {"kind": "tabulated", "points": [[0.5, "1"], [2.0, 1.0]]}
    assert _run(tmp_path, "steady", {"bath": {"gamma_plus": table}, "out": out}) == 2
    assert "number" in _config_error(capsys)


def test_bad_log_env_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COHERENCE_ENGINE_LOG", "verbose")
    assert _run(tmp_path, "steady", {"out": str(tmp_path / "s")}) == 2
    assert "COHERENCE_ENGINE_LOG" in _config_error(capsys)
    monkeypatch.setenv("COHERENCE_ENGINE_LOG", "debug")
    assert _run(tmp_path, "steady", {"out": str(tmp_path / "s")}) == 0


def test_numerical_failure_exit_3(tmp_path, capsys, monkeypatch):
    def blow_up(*args, **kwargs):
        raise NumericsError("integrator diverged")

    monkeypatch.setattr(cli, "evolve_trajectory", blow_up)
    assert _run(tmp_path, "evolve", {"out": str(tmp_path / "z")}) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "numerical"
    assert "diverged" in err["message"]


def test_out_of_memory_exit_3(tmp_path, capsys, monkeypatch):
    """A time grid too large to allocate is a numerical failure, not a traceback."""
    real_linspace = np.linspace

    def linspace(start, stop, num=50, **kwargs):
        if num > 10**9:  # what numpy raises, without allocating
            raise MemoryError(f"Unable to allocate {num * 8} bytes")
        return real_linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(cli.np, "linspace", linspace)
    for command, system, section in (
        ("evolve", {"omega": 1.0}, "evolve"),
        ("neardegen-check", {"omega1": 1.0, "omega2": 1.005}, "neardegen"),
    ):
        out = tmp_path / command
        config = {"system": system, section: {"samples": 10**15}, "out": str(out)}
        assert _run(tmp_path, command, config) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numerical"
        assert "out of memory" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_runtime_value_error_exit_3(tmp_path, capsys, monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("state drifted")

    monkeypatch.setattr(cli, "steady_state", reject)
    assert _run(tmp_path, "steady", {"out": str(tmp_path / "z")}) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "numerical"


def test_package_import_loads_no_scipy():
    """`import coherence_engine` loads no scipy, no numpy and no submodule.

    Each public name is its home module's very object, resolved on first use,
    and dir() lists every public name before any home module is imported.
    """
    # The tests import these themselves, so only a fresh interpreter can tell.
    code = ("import coherence_engine as ce, sys; "
            "print([m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'numpy', 'coherence_engine')]); "
            "print(set(ce.__all__) <= set(dir(ce))); "
            "print(ce.BathSpec is sys.modules['coherence_engine.bath'].BathSpec)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["['coherence_engine']", "True", "True"], proc.stdout
    # The test modules have imported every home module, and each such import
    # binds the module's names here: a tool that patches the names it finds in
    # vars(coherence_engine) finds them all.
    for name in coherence_engine.__all__:
        value = vars(coherence_engine)[name]
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert coherence_engine.dynamics is sys.modules["coherence_engine.dynamics"]
    assert coherence_engine.numerics is sys.modules["coherence_engine.numerics"]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        coherence_engine.no_such_name
    names = {}
    exec("from coherence_engine import *", names)
    assert sorted(set(names) - {"__builtins__"}) == coherence_engine.__all__
    assert len(coherence_engine.__all__) == 44


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_blas_threads(**extra):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).parents[1])
    return {**env, **extra}


def test_cli_pins_blas_to_one_thread_unless_the_caller_chose():
    code = ("import os, coherence_engine.cli; "
            f"print([os.environ[v] for v in {_BLAS_THREAD_VARS!r}])")
    for extra, expected in (({}, ["1", "1", "1"]),
                            ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env_without_blas_threads(**extra), timeout=60, check=True)
        assert proc.stdout.strip() == repr(expected), (extra, proc.stdout)


def test_blas_thread_count_changes_no_output(tmp_path):
    code = ("from coherence_engine.cli import main; "
            "assert [main([c, '--out', c]) for c in ('steady', 'evolve', 'protocol1')] "
            "== [0, 0, 0]")
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        subprocess.run([sys.executable, "-c", code], cwd=tmp_path / threads,
                       env=_env_without_blas_threads(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, timeout=120, check=True)
    written = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "2").iterdir())
    assert len(written) == 5, written
    for name in written:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_cli_module_runs_as_a_script(tmp_path):
    """`python -m coherence_engine.cli` runs main and exits with its code."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "coherence_engine.cli", "steady"]
    proc = subprocess.run(argv + ["--out", str(tmp_path / "s")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "state" in json.loads((tmp_path / "s.json").read_text())
    proc = subprocess.run(argv + ["--beta", "-1"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr


def test_cli_runs_with_scipy_blocked(tmp_path):
    """The runtime needs numpy only: every subcommand, scipy made unimportable.

    Covers the default config of each subcommand (neardegen-check needs a
    split system), a splitting of 1e-12 and a cold aligned bath, in a
    fresh interpreter where `import scipy` fails.
    """
    split = _write_config(tmp_path, {"system": {"omega1": 1.0, "omega2": 1.005}},
                          "split.json")
    tiny = _write_config(tmp_path, {"system": {"omega1": 1.0, "omega2": 1.0 + 1e-12}},
                         "tiny.json")
    cases = [[command] for command in ("evolve", "steady", "protocol1", "protocol2",
                                       "figure-wfed")]
    cases += [["neardegen-check", "--config", split],
              ["neardegen-check", "--config", tiny],
              ["evolve", "--alignment", "1", "--beta", "100"]]
    cases = [args + ["--out", str(tmp_path / f"run{k}")]
             for k, args in enumerate(cases)]
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "from coherence_engine.cli import main; "
            "print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(cases)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * len(cases)


def test_package_all_resolves_unique_and_sorted():
    names = coherence_engine.__all__
    assert all(hasattr(coherence_engine, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    # The README's Library API list holds exactly these names, by home module.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = [(name, module) for module, text in
              re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", section, re.M | re.S)
              for name in re.findall(r"`(\w+)`", text)]
    assert sorted(name for name, _ in listed) == names
    for name, module in listed:
        assert getattr(coherence_engine, name).__module__ == f"coherence_engine.{module}"
