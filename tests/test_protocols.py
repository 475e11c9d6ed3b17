import dataclasses
import math

import numpy as np
import pytest

from coherence_engine import protocols, thermo
from coherence_engine.bath import BathSpec, flat_rate
from coherence_engine.bloch import DensityMatrix, PhysicalityError
from coherence_engine.dynamics import DegenerateSystem, steady_state
from coherence_engine.protocols import (
    ROUND_ROTATION,
    GeneralInitialState,
    ProtocolLedger,
    ProtocolStep,
    RoundResult,
    coherence_unitary,
    discretized_quasistatic,
    optimal_shift_round1,
    protocol1_round,
    protocol2,
    protocol_initial_state,
    quasistatic_work,
    quasistatic_work_quadrature,
    run_protocol1,
)
from coherence_engine.thermo import (
    HamiltonianSpec,
    fed_subspace,
    gibbs,
    l1_coherence,
    trace_distance,
)
from reference import maximize_scalar, protocol1_decimal

BATH = BathSpec(beta=1.0, alignment=1.0)


def _dummy_step(work_in=0.0, work_out=0.0):
    state = DensityMatrix.ground()
    return ProtocolStep(
        label="noop",
        work_in=work_in,
        work_out=work_out,
        coherence_before=0.0,
        coherence_after=0.0,
        state_after=state,
    )


def test_protocol_step_work_sign_convention():
    step = _dummy_step(work_in=0.2, work_out=0.5)
    assert step.net_work == pytest.approx(0.3)
    with pytest.raises(ValueError):
        _dummy_step(work_in=-0.1)
    with pytest.raises(ValueError):
        _dummy_step(work_out=-0.1)


def test_ledger_accumulation_and_export():
    with pytest.raises(ValueError):
        ProtocolLedger().final_state
    ledger = ProtocolLedger([_dummy_step(work_in=0.2), _dummy_step(work_out=0.7)])
    assert ledger.net_work == pytest.approx(0.5)
    assert ledger.final_state is ledger.steps[-1].state_after
    header, rows = ledger.csv_rows()
    assert header == [
        "step",
        "work_in",
        "work_out",
        "coherence_before",
        "coherence_after",
    ]
    assert len(rows) == 2 and rows[1][2] == pytest.approx(0.7)
    blob = ledger.to_json_dict()
    assert blob["net_work"] == pytest.approx(0.5)
    assert len(blob["steps"]) == 2


def test_general_initial_state_roundtrip(rng):
    for _ in range(15):
        init = GeneralInitialState(
            b=float(rng.uniform(0.05, 0.95)),
            n_norm=float(rng.uniform(0.0, 1.0)),
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(-math.pi, math.pi)),
        )
        back = GeneralInitialState.from_density(init.to_density())
        assert back.b == pytest.approx(init.b, abs=1e-12)
        assert back.n_norm == pytest.approx(init.n_norm, abs=1e-12)
        np.testing.assert_allclose(
            back.bloch_vector(), init.bloch_vector(), atol=1e-12
        )


def test_general_initial_state_validation():
    with pytest.raises(ValueError):
        GeneralInitialState(b=-0.1, n_norm=0.5, theta=0.0, phi=0.0)
    with pytest.raises(ValueError):
        GeneralInitialState(b=0.5, n_norm=1.2, theta=0.0, phi=0.0)
    m = np.diag([0.4, 0.3, 0.3]).astype(complex)
    m[0, 2] = m[2, 0] = 0.05
    with pytest.raises(ValueError):
        GeneralInitialState.from_density(DensityMatrix(m))
    pure_ground = GeneralInitialState.from_density(DensityMatrix.ground())
    assert pure_ground.b == 1.0 and pure_ground.n_norm == 0.0


def test_general_initial_state_rejects_non_finite_angles():
    for theta, phi in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            GeneralInitialState(b=0.5, n_norm=0.5, theta=theta, phi=phi)


def test_stationary_state_decomposition():
    beta = omega = 1.0
    x = math.exp(-beta * omega)
    rho0 = protocol_initial_state(beta, omega)
    init = GeneralInitialState.from_density(rho0)
    assert init.b == pytest.approx(1.0 / (1.0 + x), abs=1e-14)
    assert init.n_norm == pytest.approx(1.0, abs=1e-12)
    assert init.theta == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert init.phi == pytest.approx(0.0, abs=1e-12)
    assert l1_coherence(rho0) == pytest.approx(x / (1.0 + x), abs=1e-15)


def test_coherence_unitary_properties(rng):
    h_free = np.diag([1.0, 1.0, 0.0])
    for _ in range(8):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        u = coherence_unitary(theta, phi)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(u @ h_free, h_free @ u, atol=1e-14)
        # conjugation diagonalizes a state with Bloch angles (theta, phi)
        init = GeneralInitialState(b=0.3, n_norm=0.8, theta=theta, phi=phi)
        rotated = u @ init.to_density().matrix @ u.conj().T
        assert abs(rotated[0, 1]) < 1e-14
        assert rotated[1, 1].real >= rotated[0, 0].real


def test_coherence_unitary_edge_angles():
    swap = coherence_unitary(0.0, 0.0)
    np.testing.assert_allclose(
        swap, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex), atol=1e-15
    )
    mirror = coherence_unitary(math.pi, 0.0)
    np.testing.assert_allclose(mirror, np.diag([-1.0, 1.0, 1.0]), atol=1e-15)


def test_round_rotation_sorts_superpositions():
    np.testing.assert_allclose(
        ROUND_ROTATION @ ROUND_ROTATION.conj().T, np.eye(3), atol=1e-15
    )
    s = 1.0 / math.sqrt(2.0)
    symmetric = np.array([s, s, 0.0])
    antisymmetric = np.array([s, -s, 0.0])
    np.testing.assert_allclose(ROUND_ROTATION @ symmetric, [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(ROUND_ROTATION @ antisymmetric, [1, 0, 0], atol=1e-15)


def test_protocol1_first_round_ledger():
    beta = omega = 1.0
    x = math.exp(-beta * omega)
    shift = optimal_shift_round1(beta, omega)
    rho0 = protocol_initial_state(beta, omega)
    ledger, final = protocol1_round(rho0, omega, beta, shift, BATH)
    labels = [s.label for s in ledger.steps]
    assert labels == ["rotate", "lift", "thermalize-split", "extract",
                      "rebuild-coherence"]
    # rotation moves all coherence into populations
    assert ledger.steps[0].coherence_after == pytest.approx(0.0, abs=1e-15)
    # the lifted level is empty on the first round, so lifting is free
    assert ledger.steps[1].work_in == 0.0
    u = math.exp(-beta * shift)
    z = 1.0 + x + x * u
    thermal = ledger.steps[2].state_after
    np.testing.assert_allclose(
        thermal.matrix, np.diag([x * u, x, 1.0]).astype(complex) / z, atol=1e-15
    )
    assert ledger.steps[3].work_out == pytest.approx(shift * x * u / z, abs=1e-15)
    assert ledger.net_work == pytest.approx(0.09038750894956336, abs=1e-12)
    # the rebuilt stationary population in closed form
    expected_top = (1.0 + u + 2.0 * z) / (4.0 * (1.0 + math.exp(beta * omega)) * z)
    assert final.matrix[0, 0].real == pytest.approx(expected_top, abs=1e-14)
    # coherence reset factor relative to the charged state
    expected_c = l1_coherence(rho0) * (1.0 - u) / (2.0 * z)
    assert l1_coherence(final) == pytest.approx(expected_c, abs=1e-14)


def test_protocol1_round_rejections():
    rho0 = protocol_initial_state(1.0, 1.0)
    with pytest.raises(ValueError):
        protocol1_round(rho0, 1.0, 1.0, 0.0, BATH)
    with pytest.raises(ValueError):
        protocol1_round(rho0, 1.0, 1.0, 0.5, BathSpec(beta=1.0, alignment=0.5))


def test_protocols_reject_a_bath_at_another_beta():
    # The physics runs on the bath, so a beta argument that differs from
    # it would silently give the ledger of the bath's temperature.
    rho0 = protocol_initial_state(1.0, 1.0)
    with pytest.raises(ValueError, match="beta"):
        protocol1_round(rho0, 1.0, 5.0, 0.5, BATH)
    with pytest.raises(ValueError, match="beta"):
        run_protocol1(rho0, 1.0, 5.0, BATH)
    init = GeneralInitialState(b=0.4, n_norm=0.5, theta=0.3, phi=0.2)
    with pytest.raises(ValueError, match="beta"):
        protocol2(init, 1.0, 5.0, BATH)
    assert run_protocol1(rho0, 1.0, 1.0, BATH)[0].net_work > 0.0


def test_optimal_shift_round1_closed_form():
    assert optimal_shift_round1(1.0, 1.0) == pytest.approx(
        1.0903875089495634, abs=1e-13
    )
    # cold limit: the Lambert argument collapses and the shift tends to 1/beta
    assert optimal_shift_round1(1.0, 40.0) == pytest.approx(1.0, abs=1e-12)
    assert optimal_shift_round1(2.0, 40.0) == pytest.approx(0.5, abs=1e-12)
    # e^{beta omega} overflows a float here; the shift is 1/beta
    assert optimal_shift_round1(800.0, 1.0) == pytest.approx(1.0 / 800.0, abs=1e-15)
    with pytest.raises(ValueError):
        optimal_shift_round1(0.0, 1.0)
    with pytest.raises(ValueError):
        optimal_shift_round1(1.0, -1.0)


def test_optimal_shift_round1_maximizes_executed_round():
    rho0 = protocol_initial_state(1.0, 1.0)

    def round_net(shift):
        ledger, _ = protocol1_round(rho0, 1.0, 1.0, shift, BATH)
        return ledger.net_work

    found = maximize_scalar(round_net, (0.5, 2.0))
    assert not found.at_boundary
    assert found.argmax == pytest.approx(optimal_shift_round1(1.0, 1.0), abs=1e-7)


def test_optimal_shift_next_maximizes_executed_round():
    beta = omega = 1.0
    shift1 = optimal_shift_round1(beta, omega)
    rho0 = protocol_initial_state(beta, omega)
    _, state1 = protocol1_round(rho0, omega, beta, shift1, BATH)
    shift2 = run_protocol1(rho0, omega, beta, BATH)[1][1].shift
    assert 0.0 < shift2 < shift1

    def round_net(shift):
        ledger, _ = protocol1_round(state1, omega, beta, shift, BATH)
        return ledger.net_work

    found = maximize_scalar(round_net, (0.01, 1.0))
    assert found.argmax == pytest.approx(shift2, abs=1e-7)
    assert round_net(shift2) > 0.0


def test_run_protocol1_full_series():
    beta = omega = 1.0
    rho0 = protocol_initial_state(beta, omega)
    ledger, rounds = run_protocol1(rho0, omega, beta, BATH)
    assert len(rounds) == 8
    shifts = [r.shift for r in rounds]
    assert shifts[0] == pytest.approx(optimal_shift_round1(beta, omega), abs=1e-12)
    assert all(s2 < s1 for s1, s2 in zip(shifts, shifts[1:]))
    assert all(r.net_work > 0.0 for r in rounds)
    coherences = [r.coherence_after for r in rounds]
    assert all(c2 < c1 for c1, c2 in zip(coherences, coherences[1:]))
    assert ledger.net_work == pytest.approx(0.09398875002322407, abs=1e-10)
    assert ledger.net_work == pytest.approx(
        math.fsum(r.net_work for r in rounds), abs=1e-14
    )
    assert ledger.steps[0].label == "round 1: rotate"
    # extraction cannot beat the free-energy difference of the charged state
    assert ledger.net_work < fed_subspace(rho0, omega, beta)
    # the series drains the state toward the thermal one
    final = ledger.final_state
    target = gibbs(HamiltonianSpec.degenerate(omega), beta)
    assert trace_distance(final, target) < 1e-6


def test_run_protocol1_rejects_a_non_finite_rate_profile():
    """A NaN or inf rate raises instead of booking the flat-rate work."""
    rho0 = protocol_initial_state(1.0, 1.0)
    for bad in (math.nan, math.inf):
        bath = BathSpec(beta=1.0, rate_fn=lambda omega, bad=bad: bad)
        with pytest.raises(ValueError, match="non-finite"):
            run_protocol1(rho0, 1.0, 1.0, bath)


def test_run_protocol1_exhausted_inputs():
    beta = omega = 1.0
    thermal = gibbs(HamiltonianSpec.degenerate(omega), beta)
    ledger, rounds = run_protocol1(thermal, omega, beta, BATH)
    assert rounds == [] and ledger.steps == []
    half = DensityMatrix(np.diag([0.5, 0.5, 0.0]).astype(complex))
    ledger, rounds = run_protocol1(half, omega, beta, BATH)
    assert rounds == []


def test_run_protocol1_runs_the_full_series_at_low_temperature():
    # e^{-beta omega} is below machine epsilon, yet every round's pre-lift
    # population x(1 + u)/(2Z) keeps its digits, so the series runs as long
    # as the 50-digit model's.
    for beta, omega in ((40.0, 1.0), (8.0, 5.0)):
        bath = BathSpec(beta=beta, alignment=1.0)
        rho0 = protocol_initial_state(beta, omega)
        ledger, rounds = run_protocol1(rho0, omega, beta, bath)
        x = math.exp(-beta * omega)
        assert len(rounds) == len(protocol1_decimal(beta, omega)[0]) > 1
        assert 0.0 <= ledger.net_work <= math.log1p(x / (1.0 + x)) / beta
    warm = BathSpec(beta=3.0, alignment=1.0)
    _, rounds = run_protocol1(protocol_initial_state(3.0, 1.0), 1.0, 3.0, warm)
    assert len(rounds) == 9


def test_run_protocol1_shift_floor_cuts_series():
    rho0 = protocol_initial_state(1.0, 1.0)
    _, rounds = run_protocol1(rho0, 1.0, 1.0, BATH, shift_floor=0.2)
    assert len(rounds) == 1
    _, capped = run_protocol1(rho0, 1.0, 1.0, BATH, max_rounds=3)
    assert len(capped) == 3
    with pytest.raises(ValueError):
        run_protocol1(rho0, 1.0, 1.0, BATH, max_rounds=0)


def test_run_protocol1_first_shift_of_the_charged_state_is_the_closed_form():
    # The charged state's pre-lift population is 0 exactly and computes to
    # within eps of 0 either side, so round 1 takes the Lambert form, bit
    # for bit, whatever the sign of the residue.
    for omega in (0.5, 1.0, 3.0):
        for beta in np.linspace(0.05, 40.0, 400).tolist():
            bath = BathSpec(beta=beta, alignment=1.0)
            rho0 = protocol_initial_state(beta, omega)
            _, rounds = run_protocol1(rho0, omega, beta, bath, max_rounds=1)
            assert rounds[0].shift == optimal_shift_round1(beta, omega), (beta, omega)


def _assert_matches_decimal_model(ledger, rounds, beta, omega, max_rounds=64):
    """Every shift and the total work to 1e-12 relative, the round count exactly."""
    shifts, work = protocol1_decimal(beta, omega, max_rounds)
    assert len(rounds) == len(shifts), (beta, omega)
    for r, shift in zip(rounds, shifts):
        assert r.shift == pytest.approx(float(shift), rel=1e-12, abs=0.0)
    assert ledger.net_work == pytest.approx(float(work), rel=1e-12, abs=0.0)


def test_run_protocol1_agrees_with_a_50_digit_model():
    # From high temperature to x = e^{-700}.
    for omega in (0.5, 1.0, 3.0):
        for beta_omega in np.geomspace(0.05, 700.0, 15).tolist():
            beta = beta_omega / omega
            bath = BathSpec(beta=beta, alignment=1.0)
            rho0 = protocol_initial_state(beta, omega)
            ledger, rounds = run_protocol1(rho0, omega, beta, bath)
            _assert_matches_decimal_model(ledger, rounds, beta, omega)


def _per_round_states(rho0, omega, beta, bath, rounds):
    """Ledger states of the given rounds, each built from its own matrices.

    The rotation is a conjugation, the split thermal state a Gibbs state
    of the lifted levels and the rebuilt state dynamics.steady_state of
    it: an independent route to the recurrence's closed forms.
    """
    states, state = [], rho0.matrix
    for r in rounds:
        rotated = ROUND_ROTATION @ state @ ROUND_ROTATION.conj().T
        weights = np.exp(-beta * np.array([omega + r.shift, omega, 0.0]))
        thermal = np.diag(weights / weights.sum()).astype(complex)
        top, ground = thermal[0, 0].real, thermal[2, 2].real
        state = steady_state(
            DegenerateSystem(omega), bath, (top, ground, 0.0, 0.0)
        ).matrix
        states += [rotated, rotated, thermal, thermal, state]
    return states


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_run_protocol1_states_match_the_per_round_matrix_route(gamma):
    # Without emission (gamma_plus = 0) the aligned bath leaves each
    # round's thermal state as it is; with it, the state relaxes to the
    # aligned fixed point.
    for beta, omega in ((0.2, 1.0), (1.0, 1.5), (3.0, 0.7)):
        bath = BathSpec(beta=beta, rate_fn=flat_rate(gamma), alignment=1.0)
        rho0 = protocol_initial_state(beta, omega)
        ledger, rounds = run_protocol1(rho0, omega, beta, bath)
        assert len(rounds) > 5
        expected = _per_round_states(rho0, omega, beta, bath, rounds)
        assert len(ledger.steps) == len(expected)
        for step, matrix in zip(ledger.steps, expected):
            np.testing.assert_allclose(
                step.state_after.matrix, matrix, rtol=0.0, atol=1e-15
            )
        if gamma == 0.0:
            for thermal, final in zip(ledger.steps[3::5], ledger.steps[4::5]):
                assert np.array_equal(
                    final.state_after.matrix, thermal.state_after.matrix
                )



@pytest.mark.parametrize("beta, omega, max_rounds", [
    (1.0, 1.5, 64), (0.2, 1.0, 64), (3.0, 0.7, 64), (40.0, 1.0, 64), (0.5, 2.0, 3),
])
def test_protocol1_round_series_equals_run_protocol1(beta, omega, max_rounds):
    # The public single round, given the shifts run_protocol1 chose, gives
    # run_protocol1's ledger and series to rounding: it rotates the state
    # it is given by the matrix route and books the lift from it, where
    # the series takes its populations from the scalar recurrence.  At
    # beta = 40, x = e^{-beta omega} is below eps and the matrix route has
    # lost its digits, so there the series is checked against the
    # 50-digit model instead.
    bath = BathSpec(beta=beta, alignment=1.0)
    rho0 = protocol_initial_state(beta, omega)
    ledger, rounds = run_protocol1(rho0, omega, beta, bath, max_rounds=max_rounds)
    assert rounds
    if beta > 3.0:
        _assert_matches_decimal_model(ledger, rounds, beta, omega, max_rounds)
        return
    steps, expected_rounds, state = [], [], rho0
    for r in rounds:
        round_ledger, state = protocol1_round(state, omega, beta, r.shift, bath)
        steps += [
            dataclasses.replace(s, label=f"round {r.index}: {s.label}")
            for s in round_ledger.steps
        ]
        lifted = omega + r.shift
        expected_rounds.append(RoundResult(
            index=r.index,
            shift=r.shift,
            lifted_level=lifted,
            partition=1.0 + math.exp(-beta * omega) + math.exp(-beta * lifted),
            work_in=math.fsum(s.work_in for s in round_ledger.steps),
            work_out=math.fsum(s.work_out for s in round_ledger.steps),
            coherence_after=round_ledger.steps[-1].coherence_after,
        ))

    def numbers(s):
        return [s.work_in, s.work_out, s.coherence_before, s.coherence_after]

    assert [s.label for s in ledger.steps] == [s.label for s in steps]
    for got, want in zip(ledger.steps, steps):
        np.testing.assert_allclose(numbers(got), numbers(want), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            got.state_after.matrix, want.state_after.matrix, rtol=0.0, atol=1e-15
        )
    assert len(rounds) == len(expected_rounds)
    for got, want in zip(rounds, expected_rounds):
        assert (got.index, got.shift, got.lifted_level) == (
            want.index, want.shift, want.lifted_level
        )
        np.testing.assert_allclose(
            [got.partition, got.work_in, got.work_out, got.coherence_after],
            [want.partition, want.work_in, want.work_out, want.coherence_after],
            rtol=0.0,
            atol=1e-15,
        )
    assert ledger.final_state is ledger.steps[-1].state_after
    np.testing.assert_allclose(
        ledger.final_state.matrix, state.matrix, rtol=0.0, atol=1e-15
    )


def _with_negative_eigenvalue(m, value):
    """A unit-trace state with the given eigenvalue and m's pre-lift population."""
    u = ROUND_ROTATION
    top = (u @ m @ u.conj().T)[0, 0].real
    return u.conj().T @ np.diag([top, value, 1.0 - top - value]) @ u


@pytest.mark.parametrize("where", ["inner", "last"])
def test_run_protocol1_raises_first_unphysical_state(monkeypatch, where):
    beta, omega = 1.0, 1.5
    bath = BathSpec(beta=beta, alignment=1.0)
    rho0 = protocol_initial_state(beta, omega)
    n_rounds = len(run_protocol1(rho0, omega, beta, bath)[1])
    assert n_rounds > 4
    # inner: a second, later unphysical state must not mask the first one.
    # Round k's final state is the input of round k + 1.
    inject = {2: -1e-9, 4: -2e-9} if where == "inner" else {n_rounds: -1e-9}
    injected = []
    real_round_states = protocols._round_states

    def round_states(*args):
        thermal, final = real_round_states(*args)
        final = final.copy()
        for index, value in inject.items():
            final[index - 1] = _with_negative_eigenvalue(final[index - 1], value)
            injected.append(DensityMatrix(final[index - 1]))
        return thermal, final

    monkeypatch.setattr(protocols, "_round_states", round_states)
    with pytest.raises(PhysicalityError) as raised:
        run_protocol1(rho0, omega, beta, bath)
    with pytest.raises(PhysicalityError) as expected:
        injected[0].validate()
    assert str(raised.value) == str(expected.value)
    assert "negative eigenvalue -1.0" in str(raised.value)


def test_protocol_runs_check_and_measure_once(monkeypatch):
    # Per-run counts of eigvalsh and stacked l1 passes must not grow with
    # the number of rounds: one up-front validate, one stacked check, one
    # ledger pass.
    counts = {"eigvalsh": 0, "l1": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    l1 = counted("l1", thermo._l1_coherences)
    monkeypatch.setattr(thermo, "_l1_coherences", l1)
    monkeypatch.setattr(protocols, "_l1_coherences", l1)
    beta = omega = 0.2
    bath = BathSpec(beta=beta, alignment=1.0)
    rho0 = protocol_initial_state(beta, omega)
    n_rounds = []
    for max_rounds in (1, 3, 64):
        counts.update(eigvalsh=0, l1=0)
        _, rounds = run_protocol1(rho0, omega, beta, bath, max_rounds=max_rounds)
        n_rounds.append(len(rounds))
        assert counts == {"eigvalsh": 2, "l1": 1}
    assert n_rounds[0] == 1 and n_rounds[-1] > 5
    counts.update(eigvalsh=0, l1=0)
    protocol2(GeneralInitialState(b=0.4, n_norm=0.6, theta=1.0, phi=0.3),
              omega, beta, bath)
    assert counts == {"eigvalsh": 0, "l1": 1}

def test_quasistatic_work_values():
    w = quasistatic_work(1.0, 2.0, 1.0, 1.0)
    assert w == pytest.approx(0.14383874948767067, abs=1e-15)
    assert quasistatic_work(1.0, 1.5, 1.5, 1.0) == 0.0
    assert quasistatic_work(1.0, 1.0, 2.0, 1.0) == pytest.approx(-w, abs=1e-15)
    both = quasistatic_work(0.8, 2.0, 0.5, 0.0, "both-levels-sweep")
    expected = (
        math.log(1.0 + 2.0 * math.exp(-0.4)) - math.log(1.0 + 2.0 * math.exp(-1.6))
    ) / 0.8
    assert both == pytest.approx(expected, abs=1e-15)
    assert quasistatic_work(1.0, math.inf, math.inf, 1.0) == 0.0
    with pytest.raises(ValueError):
        quasistatic_work(0.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        quasistatic_work(1.0, 2.0, 1.0, 1.0, mode="sideways")


def test_quasistatic_quadrature_route_agrees():
    cases = [
        (1.0, 2.0, 1.0, 1.0, "single-level-sweep"),
        (0.7, 3.0, 0.5, 1.2, "single-level-sweep"),
        (1.0, 2.0, 0.8, 0.0, "both-levels-sweep"),
        (1.0, math.inf, 1.0, 1.0, "single-level-sweep"),
    ]
    for beta, w_from, w_to, fixed, mode in cases:
        closed = quasistatic_work(beta, w_from, w_to, fixed, mode)
        quad = quasistatic_work_quadrature(beta, w_from, w_to, fixed, mode)
        assert quad == pytest.approx(closed, abs=1e-9)


def test_discretized_quasistatic_convergence():
    beta, w_from, w_to, fixed = 1.0, 2.0, 1.0, 1.0
    target = quasistatic_work(beta, w_from, w_to, fixed)
    one = discretized_quasistatic(beta, w_from, w_to, fixed, 1)
    x2 = math.exp(-beta * w_from)
    assert one == pytest.approx(x2 / (1.0 + math.exp(-beta * fixed) + x2), abs=1e-15)
    fine = discretized_quasistatic(beta, w_from, w_to, fixed, 1000)
    assert abs(fine - target) < 1e-3 * abs(target)
    err64 = abs(discretized_quasistatic(beta, w_from, w_to, fixed, 64) - target)
    err128 = abs(discretized_quasistatic(beta, w_from, w_to, fixed, 128) - target)
    assert 1.8 < err64 / err128 < 2.2
    with pytest.raises(ValueError):
        discretized_quasistatic(beta, w_from, w_to, fixed, 0)


def test_protocol2_saturates_free_energy_difference(rng):
    beta = omega = 1.0
    for _ in range(20):
        init = GeneralInitialState(
            b=float(rng.uniform(0.05, 0.95)),
            n_norm=float(rng.uniform(0.0, 1.0)),
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(-math.pi, math.pi)),
        )
        ledger = protocol2(init, omega, beta, BATH)
        target = fed_subspace(init.to_density(), omega, beta)
        assert ledger.net_work == pytest.approx(target, abs=5e-13)
        # the first step removes all coherence, the rest never recreate it
        assert ledger.steps[0].coherence_after < 1e-12
        final = ledger.final_state
        assert trace_distance(
            final, gibbs(HamiltonianSpec.degenerate(omega), beta)
        ) < 1e-15


def test_protocol2_on_charged_stationary_state():
    beta = omega = 1.0
    rho0 = protocol_initial_state(beta, omega)
    init = GeneralInitialState.from_density(rho0)
    ledger = protocol2(init, omega, beta, BATH)
    assert ledger.net_work == pytest.approx(0.23818302641382832, abs=1e-12)
    labels = [s.label for s in ledger.steps]
    assert labels == [
        "rotate",
        "match-middle-level",
        "match-top-level",
        "sweep-to-common-level",
        "sweep-to-physical-level",
    ]


def test_protocol2_quadrature_mode_agrees(rng):
    beta = omega = 1.0
    for _ in range(5):
        init = GeneralInitialState(
            b=float(rng.uniform(0.1, 0.9)),
            n_norm=float(rng.uniform(0.0, 1.0)),
            theta=float(rng.uniform(0.0, math.pi)),
            phi=0.0,
        )
        closed = protocol2(init, omega, beta, BATH).net_work
        quad = protocol2(init, omega, beta, BATH, work_mode="quadrature").net_work
        assert quad == pytest.approx(closed, abs=1e-9)


def test_protocol2_thermal_input_yields_no_work():
    beta = omega = 1.0
    x = math.exp(-beta * omega)
    thermal = GeneralInitialState.from_density(
        gibbs(HamiltonianSpec.degenerate(omega), beta)
    )
    assert thermal.b == pytest.approx(1.0 / (1.0 + 2.0 * x), abs=1e-14)
    assert thermal.n_norm == pytest.approx(0.0, abs=1e-14)
    ledger = protocol2(thermal, omega, beta, BATH)
    assert ledger.net_work == pytest.approx(0.0, abs=1e-14)


def test_protocol2_extreme_states():
    beta = omega = 1.0
    # fully polarized excited block: one effective level sits at infinity
    pure = GeneralInitialState(b=0.4, n_norm=1.0, theta=0.9, phi=0.3)
    ledger = protocol2(pure, omega, beta, BATH)
    target = fed_subspace(pure.to_density(), omega, beta)
    assert ledger.net_work == pytest.approx(target, abs=5e-13)
    quad = protocol2(pure, omega, beta, BATH, work_mode="quadrature")
    assert quad.net_work == pytest.approx(target, abs=1e-9)
    # pure ground state: both effective levels start at infinity
    ground = GeneralInitialState(b=1.0, n_norm=0.0, theta=0.0, phi=0.0)
    ledger = protocol2(ground, omega, beta, BATH)
    x = math.exp(-beta * omega)
    assert ledger.net_work == pytest.approx(math.log(1.0 + 2.0 * x), abs=1e-14)


def test_protocol2_rejections():
    init = GeneralInitialState(b=0.5, n_norm=0.5, theta=1.0, phi=0.0)
    with pytest.raises(ValueError):
        protocol2(GeneralInitialState(b=0.0, n_norm=1.0, theta=1.0, phi=0.0),
                  1.0, 1.0, BATH)
    with pytest.raises(ValueError):
        protocol2(init, 1.0, 1.0, BATH, work_mode="open")
    with pytest.raises(ValueError):
        protocol2(init, 1.0, -1.0, BATH)
    with pytest.raises(ValueError):
        protocol2(init, 1.0, 1.0, BathSpec(beta=1.0, alignment=0.0))
