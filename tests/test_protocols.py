import math
import sys

import numpy as np
import pytest

from coherence_engine import protocols, thermo
from coherence_engine.bath import BathSpec, flat_rate
from coherence_engine.bloch import DensityMatrix, PhysicalityError
from coherence_engine.protocols import (
    ROUND_ROTATION,
    GeneralInitialState,
    ProtocolLedger,
    RoundResult,
    coherence_unitary,
    optimal_shift_round1,
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
from reference import (
    discretized_quasistatic,
    maximize_scalar,
    protocol1_decimal,
    round_by_matrices,
)

BATH = BathSpec(beta=1.0, alignment=1.0)


def test_protocol_step_work_sign_convention():
    # a step's net work is work_out - work_in: positive means extracted
    chain = np.stack([DensityMatrix.ground().matrix] * 3)
    ledger = ProtocolLedger(["lift", "extract"], [0.2, 0.0], [0.0, 0.5], chain)
    assert (ledger.work_out - ledger.work_in).tolist() == [-0.2, 0.5]
    assert ledger.net_work == pytest.approx(0.3)


def test_ledger_checks_its_columns_when_it_is_built():
    ground = DensityMatrix.ground().matrix
    # NaN >= 0 is False, so a NaN work fails the same check as a negative one
    for w_in, w_out in ((math.nan, 0.0), (0.0, math.nan), (-0.1, 0.0)):
        with pytest.raises(ValueError, match="non-negative"):
            ProtocolLedger(["x"], [w_in], [w_out], np.stack([ground] * 2))
    with pytest.raises(ValueError, match="one work_in and one work_out per label"):
        ProtocolLedger(["a", "b"], [0.0], [0.0, 0.0], np.stack([ground] * 3))
    with pytest.raises(ValueError, match="work entries must be numbers"):
        ProtocolLedger(["a"], [[0.0, 0.1]], [[0.0, 0.2]], np.stack([ground] * 2))
    with pytest.raises(ValueError, match="shape"):
        ProtocolLedger(["a"], [0.0], [0.0], np.stack([ground] * 3))
    with pytest.raises(TypeError):
        ProtocolLedger(["a"], [0.0], [0.0])


def test_ledger_accumulation():
    ground = DensityMatrix.ground().matrix
    # a ledger without steps holds its first state, which is its final state
    empty = ProtocolLedger((), (), (), ground[None])
    assert empty.net_work == 0.0 and empty.coherences.tolist() == [0.0]
    assert empty.final_state.matrix.tobytes() == ground.tobytes()
    chain = np.stack([ground] * 3)
    ledger = ProtocolLedger(["noop", "noop"], [0.2, 0.0], [0.0, 0.7], chain)
    assert ledger.net_work == pytest.approx(0.5)
    assert np.shares_memory(ledger.final_state.matrix, ledger.chain[-1])
    # a chain given as nested lists of real numbers is stored as a complex stack
    listed = ProtocolLedger(["noop"], [0.0], [0.0], [ground.real.tolist()] * 2)
    assert listed.chain.dtype == complex
    assert listed.chain.tobytes() == np.stack([ground] * 2).tobytes()


def test_ledger_keeps_a_read_only_copy_of_its_chain():
    # the caller's array keeps its flags, and a later write to it does not
    # reach the ledger
    chain = np.stack([DensityMatrix.ground().matrix] * 2)
    ledger = ProtocolLedger(["noop"], [0.0], [0.0], chain)
    assert chain.flags.writeable and not ledger.chain.flags.writeable
    assert not np.shares_memory(chain, ledger.chain)
    kept = ledger.chain.tobytes()
    chain[1] = np.eye(3) / 3.0
    assert ledger.chain.tobytes() == kept
    assert ledger.final_state.matrix.tobytes() == DensityMatrix.ground().matrix.tobytes()


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
    # an excited block with a negative eigenvalue has a Bloch vector longer
    # than 1, which the fields would clip to 1: the state is rejected instead
    m = np.diag([0.5, 0.2, 0.3]).astype(complex)
    m[0, 1] = m[1, 0] = 0.4
    with pytest.raises(PhysicalityError, match="negative eigenvalue"):
        GeneralInitialState.from_density(DensityMatrix(m))


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
    # run_protocol1 rotates by an adjoint taken from it once, at import
    with pytest.raises(ValueError):
        ROUND_ROTATION[0, 0] = 1.0


def test_protocol1_first_round_ledger():
    beta = omega = 1.0
    x = math.exp(-beta * omega)
    shift = optimal_shift_round1(beta, omega)
    rho0 = protocol_initial_state(beta, omega)
    ledger, _ = run_protocol1(rho0, omega, beta, BATH, max_rounds=1)
    final = ledger.final_state
    assert list(ledger.labels) == ["round 1: " + label for label in (
        "rotate", "lift", "thermalize-split", "extract", "rebuild-coherence")]
    # rotation moves all coherence into populations
    assert ledger.coherences[1] == pytest.approx(0.0, abs=1e-15)
    # the lifted level is empty on the first round, so lifting is free
    assert ledger.work_in[1] == 0.0
    u = math.exp(-beta * shift)
    z = 1.0 + x + x * u
    thermal = ledger.chain[3]
    np.testing.assert_allclose(
        thermal, np.diag([x * u, x, 1.0]).astype(complex) / z, atol=1e-15
    )
    assert ledger.work_out[3] == pytest.approx(shift * x * u / z, abs=1e-15)
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
        run_protocol1(rho0, 1.0, 1.0, BathSpec(beta=1.0, alignment=0.5))


def test_protocols_reject_a_bath_at_another_beta():
    # The physics runs on the bath, so a beta argument that differs from
    # it would silently give the ledger of the bath's temperature.
    rho0 = protocol_initial_state(1.0, 1.0)
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
        work_in, work_out, *_ = round_by_matrices(rho0, 1.0, 1.0, shift, BATH)
        return work_out - work_in

    found = maximize_scalar(round_net, (0.5, 2.0))
    assert not found.at_boundary
    assert found.argmax == pytest.approx(optimal_shift_round1(1.0, 1.0), abs=1e-7)


def test_optimal_shift_next_maximizes_executed_round():
    beta = omega = 1.0
    shift1 = optimal_shift_round1(beta, omega)
    rho0 = protocol_initial_state(beta, omega)
    state1 = round_by_matrices(rho0, omega, beta, shift1, BATH)[-1]
    shift2 = run_protocol1(rho0, omega, beta, BATH)[1][1].shift
    assert 0.0 < shift2 < shift1

    def round_net(shift):
        work_in, work_out, *_ = round_by_matrices(state1, omega, beta, shift, BATH)
        return work_out - work_in

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
    assert ledger.labels[0] == "round 1: rotate"
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
    assert rounds == [] and ledger.labels == ()
    # the ledger holds the input alone, so its final state is the input
    assert ledger.chain.shape == (1, 3, 3)
    assert ledger.final_state.matrix.tobytes() == thermal.matrix.tobytes()
    # no positive-work shift exists, so even a zero floor books no round
    assert run_protocol1(thermal, omega, beta, BATH, shift_floor=0.0)[1] == []
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
    # x = e^{-746} rounds to 0, so round 1 leaves no population to lift
    # and the series stops after it, with no zero-work rounds booked
    cold = BathSpec(beta=746.0, alignment=1.0)
    _, rounds = run_protocol1(protocol_initial_state(746.0, 1.0), 1.0, 746.0, cold)
    assert len(rounds) == 1


def test_run_protocol1_shift_floor_cuts_series():
    rho0 = protocol_initial_state(1.0, 1.0)
    _, rounds = run_protocol1(rho0, 1.0, 1.0, BATH, shift_floor=0.2)
    assert len(rounds) == 1
    _, capped = run_protocol1(rho0, 1.0, 1.0, BATH, max_rounds=3)
    assert len(capped) == 3
    with pytest.raises(ValueError):
        run_protocol1(rho0, 1.0, 1.0, BATH, max_rounds=0)
    # NaN compares False with everything: as a floor it would cut no round
    # (64 rounds, the last shift 2.5e-47), as a round cap it would run none.
    for floor in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="shift floor must be finite and non-neg"):
            run_protocol1(rho0, 1.0, 1.0, BATH, shift_floor=floor)
    for rounds in (math.nan, 3.0, True):
        with pytest.raises(ValueError, match="max_rounds must be an integer"):
            run_protocol1(rho0, 1.0, 1.0, BATH, max_rounds=rounds)


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


def test_round_shifts_take_a_few_newton_steps(monkeypatch):
    """Each later round's shift is Newton's root in a few steps, not a bisection.

    A converged step returns at once; the bracket only catches a step
    that leaves it.  A bisection to the same tolerance takes ~50 steps.
    """
    calls = {"shifts": 0, "steps": 0}

    def counted(name, key):
        inner = getattr(protocols, name)

        def wrapper(*args):
            calls[key] += 1
            return inner(*args)

        monkeypatch.setattr(protocols, name, wrapper)

    counted("_optimal_shift", "shifts")
    counted("_stationarity", "steps")
    for beta, omega in ((1.0, 1.0), (0.2, 0.5), (3.0, 3.0), (40.0, 1.0)):
        bath = BathSpec(beta=beta, alignment=1.0)
        run_protocol1(protocol_initial_state(beta, omega), omega, beta, bath)
    assert calls["shifts"] >= 30
    assert calls["steps"] <= 5 * calls["shifts"]


def test_run_protocol1_agrees_with_a_50_digit_model():
    # From high temperature to x = e^{-700}.
    for omega in (0.5, 1.0, 3.0):
        for beta_omega in np.geomspace(0.05, 700.0, 15).tolist():
            beta = beta_omega / omega
            bath = BathSpec(beta=beta, alignment=1.0)
            rho0 = protocol_initial_state(beta, omega)
            ledger, rounds = run_protocol1(rho0, omega, beta, bath)
            _assert_matches_decimal_model(ledger, rounds, beta, omega)


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
        expected, state = [], rho0
        for r in rounds:
            _, _, rotated, thermal, state = round_by_matrices(
                state, omega, beta, r.shift, bath
            )
            expected += [rotated, rotated, thermal, thermal, state]
        assert len(ledger.labels) == len(expected)
        for after, want in zip(ledger.chain[1:], expected):
            np.testing.assert_allclose(after, want.matrix, rtol=0.0, atol=1e-15)
        # the lift and the extract move no state: each repeats the row before it
        assert ledger.chain[1::5].tobytes() == ledger.chain[2::5].tobytes()
        assert ledger.chain[3::5].tobytes() == ledger.chain[4::5].tobytes()
        if gamma == 0.0:
            for thermal, final in zip(ledger.chain[4::5], ledger.chain[5::5]):
                assert np.array_equal(final, thermal)



@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_run_protocol1_rows_are_the_recurrences_numbers(gamma):
    # Every round's thermal row is diag(xu, x, 1)/Z and its extract earns
    # shift * xu/Z, bit for bit, with u = e^{-beta shift} from math and Z the
    # round's partition column; the final coherence is x(1 - u)/(4(1 + x)Z).
    for beta in np.linspace(0.2, 3.0, 8).tolist():
        for omega in np.linspace(0.5, 3.0, 6).tolist():
            bath = BathSpec(beta=beta, rate_fn=flat_rate(gamma), alignment=1.0)
            rho0 = protocol_initial_state(beta, omega)
            ledger, rounds = run_protocol1(rho0, omega, beta, bath)
            assert rounds
            x = math.exp(-beta * omega)
            for k, r in enumerate(rounds):
                u, z = math.exp(-beta * r.shift), r.partition
                thermal = np.diag([x * u / z, x / z, 1.0 / z]).astype(complex)
                assert ledger.chain[5 * k + 3].tobytes() == thermal.tobytes()
                assert r.work_out == r.shift * (x * u / z) == ledger.work_out[5 * k + 3]
                if gamma:
                    e = -math.expm1(-beta * r.shift)
                    assert ledger.chain[5 * k + 5, 0, 1] == x * e / (4.0 * (1.0 + x) * z)


def _hermitian_unit_trace_not_positive(beta, omega):
    """The charged state with an eigenvalue of -1e-9 and its pre-lift population."""
    charged = protocol_initial_state(beta, omega).matrix
    return DensityMatrix(_with_negative_eigenvalue(charged, -1e-9))


@pytest.mark.parametrize("shift_floor", [1e-6, 10.0])
def test_run_protocol1_checks_its_input_with_its_rows(monkeypatch, shift_floor):
    # The input is the first row of the one stacked check, in a run with
    # rounds and in a run the floor cuts to none, and fails with validate()'s
    # message.
    beta, omega = 1.0, 1.5
    bath = BathSpec(beta=beta, alignment=1.0)
    bad = _hermitian_unit_trace_not_positive(beta, omega)
    checked = []
    real_validate_all = protocols._validate_all

    def validate_all(ms):
        checked.append(ms.copy())
        real_validate_all(ms)

    monkeypatch.setattr(protocols, "_validate_all", validate_all)
    with pytest.raises(PhysicalityError) as raised:
        run_protocol1(bad, omega, beta, bath, shift_floor=shift_floor)
    with pytest.raises(PhysicalityError) as expected:
        bad.validate()
    assert str(raised.value) == str(expected.value)
    assert "negative eigenvalue" in str(raised.value)
    assert len(checked) == 1 and checked[0][0].tobytes() == bad.matrix.tobytes()
    n_rounds = (len(checked[0]) - 1) // 2
    assert (n_rounds > 4) if shift_floor < 1.0 else (n_rounds == 0)


@pytest.mark.parametrize("where, value, message", [
    ((0, 1), math.nan, "not all finite"),
    ((0, 1), 0.3, "not Hermitian"),
    ((2, 2), 0.0, "trace differs"),
])
def test_run_protocol1_reads_no_unchecked_input(monkeypatch, where, value, message):
    # A non-finite, non-Hermitian or non-unit-trace input raises before the
    # recurrence picks a shift.
    beta, omega = 1.0, 1.5
    m = protocol_initial_state(beta, omega).matrix.copy()
    m[where] = value
    calls = []
    monkeypatch.setattr(protocols, "_optimal_shift", lambda *args: calls.append(args))
    with pytest.raises(PhysicalityError, match=message):
        run_protocol1(DensityMatrix(m), omega, beta, BathSpec(beta=beta, alignment=1.0))
    assert calls == []


@pytest.mark.parametrize("beta, omega, max_rounds", [
    (1.0, 1.5, 64), (0.2, 1.0, 64), (3.0, 0.7, 64), (40.0, 1.0, 64), (0.5, 2.0, 3),
])
def test_protocol1_round_series_equals_run_protocol1(beta, omega, max_rounds):
    # One round at a time by the matrix route, given the shifts run_protocol1
    # chose, gives run_protocol1's ledger and series to rounding: it rotates
    # the state it is given and books the lift from it, where the series
    # takes its populations from the scalar recurrence.  At beta = 40,
    # x = e^{-beta omega} is below eps and the matrix route has lost its
    # digits, so there the series is checked against the 50-digit model
    # instead.
    bath = BathSpec(beta=beta, alignment=1.0)
    rho0 = protocol_initial_state(beta, omega)
    ledger, rounds = run_protocol1(rho0, omega, beta, bath, max_rounds=max_rounds)
    assert rounds
    if beta > 3.0:
        _assert_matches_decimal_model(ledger, rounds, beta, omega, max_rounds)
        return
    labels = ("rotate", "lift", "thermalize-split", "extract", "rebuild-coherence")
    steps, expected_rounds, state = [], [], rho0
    for r in rounds:
        work_in, work_out, rotated, thermal, final = round_by_matrices(
            state, omega, beta, r.shift, bath
        )
        chain = [state, rotated, rotated, thermal, thermal, final]
        works = [(0.0, 0.0), (work_in, 0.0), (0.0, 0.0), (0.0, work_out), (0.0, 0.0)]
        for label, (w_in, w_out), before, after in zip(labels, works, chain, chain[1:]):
            numbers = [w_in, w_out, l1_coherence(before), l1_coherence(after)]
            steps.append((f"round {r.index}: {label}", numbers, after))
        lifted = omega + r.shift
        expected_rounds.append(RoundResult(
            index=r.index,
            shift=r.shift,
            lifted_level=lifted,
            partition=1.0 + math.exp(-beta * omega) + math.exp(-beta * lifted),
            work_in=work_in,
            work_out=work_out,
            coherence_after=l1_coherence(final),
        ))
        state = final

    assert list(ledger.labels) == [label for label, _, _ in steps]
    c = ledger.coherences
    for k, (_, numbers, after) in enumerate(steps):
        np.testing.assert_allclose(
            [ledger.work_in[k], ledger.work_out[k], c[k], c[k + 1]],
            numbers, rtol=0.0, atol=1e-15,
        )
        np.testing.assert_allclose(
            ledger.chain[k + 1], after.matrix, rtol=0.0, atol=1e-15
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
    assert np.shares_memory(ledger.final_state.matrix, ledger.chain[-1])
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

    def round_states(x, u, e, z, emits, rounds):
        real_round_states(x, u, e, z, emits, rounds)
        # step 4 of each round holds its final state
        for index, value in inject.items():
            final = _with_negative_eigenvalue(rounds[index - 1, 4], value)
            rounds[index - 1, 4] = final
            injected.append(DensityMatrix(final))

    monkeypatch.setattr(protocols, "_round_states", round_states)
    with pytest.raises(PhysicalityError) as raised:
        run_protocol1(rho0, omega, beta, bath)
    with pytest.raises(PhysicalityError) as expected:
        injected[0].validate()
    assert str(raised.value) == str(expected.value)
    assert "negative eigenvalue -1.0" in str(raised.value)


def test_protocol_runs_check_and_measure_once(monkeypatch):
    # Per-run counts of eigvalsh and stacked l1 passes must not grow with
    # the number of rounds: one stacked check, input included, and one
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
        assert counts == {"eigvalsh": 1, "l1": 1}
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
    # a sweep that does not move does no work, where the partition-function
    # difference would be inf - inf
    assert quasistatic_work(1.0, -math.inf, -math.inf, 0.0) == 0.0
    assert quasistatic_work(1.0, 2.0, 2.0, -math.inf) == 0.0
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



def test_quasistatic_work_past_the_exponential_overflow():
    """Levels with beta w below about -709.8 give finite works, not OverflowError.

    Only where the plain partition sum overflows does the log-sum-exp form
    take over; the quadrature route agrees to its 1e-6.
    """
    cases = [
        (1.0, -800.0, -700.0, 0.0, "single-level-sweep", -100.0),
        (1.0, -710.0, -709.0, 0.0, "single-level-sweep", -1.0),
        (2.0, -400.0, -350.0, 0.0, "both-levels-sweep", -50.0),
        # a fixed level at -800 holds the weight: Z = e^800 (2 or 1 + e^-10)
        (1.0, -800.0, -790.0, -800.0, "single-level-sweep",
         math.log1p(math.exp(-10.0)) - math.log(2.0)),
        (1.0, 2.0, 1.0, -800.0, "single-level-sweep", 0.0),
    ]
    for beta, w_from, w_to, fixed, mode, expected in cases:
        closed = quasistatic_work(beta, w_from, w_to, fixed, mode)
        assert closed == pytest.approx(expected, rel=1e-12, abs=1e-300)
        quad = quasistatic_work_quadrature(beta, w_from, w_to, fixed, mode)
        assert quad == pytest.approx(closed, rel=1e-6, abs=1e-12)

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
        assert ledger.coherences[1] < 1e-12
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
    assert list(ledger.labels) == [
        "rotate",
        "match-middle-level",
        "match-top-level",
        "sweep-to-common-level",
        "sweep-to-physical-level",
    ]


def test_protocol2_ledger_pins_its_intermediate_states():
    # Rotated and matched: rho11 = p1, rho22 = p2, rho00 = p0, nothing else;
    # merged at omega1: diag(u1, u1, 1)/z1 with u1 = p1/p0; swept to the
    # physical level: the Gibbs state itself.  Basis order is (|2>, |1>, |0>).
    for beta, omega, init in (
        (1.0, 1.0, GeneralInitialState(b=0.3, n_norm=0.7, theta=1.1, phi=-0.4)),
        (0.4, 2.0, GeneralInitialState(b=0.6, n_norm=0.2, theta=2.5, phi=1.0)),
        (3.0, 0.5, GeneralInitialState(b=0.5, n_norm=1.0, theta=0.2, phi=3.0)),
    ):
        ledger = protocol2(init, omega, beta, BathSpec(beta=beta, alignment=1.0))
        p0 = init.b
        p1 = 0.5 * (1.0 - init.b) * (1.0 + init.n_norm)
        p2 = 0.5 * (1.0 - init.b) * (1.0 - init.n_norm)
        for after in ledger.chain[1:4]:
            np.testing.assert_allclose(
                after, np.diag([p2, p1, p0]), rtol=0.0, atol=1e-15
            )
        u1 = p1 / p0
        np.testing.assert_allclose(
            ledger.chain[4],
            np.diag([u1, u1, 1.0]) / (1.0 + 2.0 * u1),
            rtol=0.0,
            atol=1e-15,
        )
        target = gibbs(HamiltonianSpec.degenerate(omega), beta).matrix
        assert ledger.chain[5].tobytes() == target.tobytes()


def _charged_protocol1(beta, omega):
    bath = BathSpec(beta=beta, alignment=1.0)
    rho0 = protocol_initial_state(beta, omega)
    return run_protocol1(rho0, omega, beta, bath)[0], rho0


def _general_protocol2(beta, omega):
    init = GeneralInitialState(b=0.3, n_norm=0.7, theta=1.1, phi=-0.4)
    bath = BathSpec(beta=beta, alignment=1.0)
    return protocol2(init, omega, beta, bath), init.to_density()


@pytest.mark.parametrize("run", [_charged_protocol1, _general_protocol2])
@pytest.mark.parametrize("beta, omega", [(1.0, 1.0), (0.2, 3.0), (40.0, 1.0)])
def test_ledger_steps_chain_over_read_only_views_of_one_stack(run, beta, omega):
    ledger, first = run(beta, omega)
    n = len(ledger.labels)
    assert n >= 5
    assert ledger.chain.shape == (n + 1, 3, 3) and ledger.coherences.shape == (n + 1,)
    assert ledger.chain[0].tobytes() == first.matrix.tobytes()
    assert ledger.coherences[0] == l1_coherence(first)
    for column in (ledger.chain, ledger.work_in, ledger.work_out, ledger.coherences):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.5
    final = ledger.final_state.matrix
    assert np.shares_memory(final, ledger.chain[-1]) and not final.flags.writeable


@pytest.mark.parametrize("beta, omega", [(1.3, 1.7), (0.2, 3.0), (40.0, 1.0)])
def test_ledger_columns_match_an_eager_rebuild(beta, omega):
    bath = BathSpec(beta=beta, alignment=1.0)
    rho0 = protocol_initial_state(beta, omega)
    ledger, rounds = run_protocol1(rho0, omega, beta, bath)
    init = GeneralInitialState(b=0.3, n_norm=0.7, theta=1.1, phi=-0.4)
    single = protocol2(init, omega, beta, bath)
    for run in (ledger, single):
        # an eager rebuild, state by state, from copies of the chain's rows
        states = [DensityMatrix(row) for row in run.chain]
        assert len(run.labels) == len(run.work_in) == len(run.work_out) == len(states) - 1
        assert run.coherences.tolist() == [l1_coherence(s) for s in states]
        assert run.final_state.matrix.tobytes() == states[-1].matrix.tobytes()

    # protocol 1's labels and works follow from its round series alone
    names = ("rotate", "lift", "thermalize-split", "extract", "rebuild-coherence")
    expected = [
        (f"round {r.index}: {name}", w_in, w_out)
        for r in rounds
        for name, w_in, w_out in zip(
            names, (0.0, r.work_in, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, r.work_out, 0.0))
    ]
    assert list(zip(ledger.labels, ledger.work_in.tolist(),
                    ledger.work_out.tolist())) == expected
    assert [r.coherence_after for r in rounds] == ledger.coherences[5::5].tolist()


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
    # below the smallest normal float the matched partition function overflows
    for b in (5.563e-309, 1e-308, math.nextafter(sys.float_info.min, 0.0)):
        for mode in ("closed", "quadrature"):
            with pytest.raises(ValueError, match="ground population"):
                protocol2(GeneralInitialState(b=b, n_norm=1.0, theta=0.0, phi=0.0),
                          1.0, 1.0, BATH, work_mode=mode)
    with pytest.raises(ValueError):
        protocol2(init, 1.0, 1.0, BATH, work_mode="open")
    with pytest.raises(ValueError):
        protocol2(init, 1.0, -1.0, BATH)
    with pytest.raises(ValueError, match="frequency must be positive"):
        protocol2(init, 0.0, 1.0, BATH)
    with pytest.raises(ValueError):
        protocol2(init, 1.0, 1.0, BathSpec(beta=1.0, alignment=0.0))
