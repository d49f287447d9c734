"""End-to-end acceptance checks, one test per headline claim.

Each test computes its verdict, reports it to the shared scoreboard in
conftest.py, then asserts it; a full pytest run therefore ends with one
PASS or FAIL line per claim. Reference values come from test-local linear
algebra or from the brute-force oracle module, never from the code path
under test.
"""
import numpy as np

from conftest import CRITERIA, record

from teleportsim.adversary import (
    message_conditioned_density,
    pair_interception_analysis,
    trace_distance,
)
from teleportsim.bell import (
    BELL_ORDER,
    CHANNEL_EXPANSIONS,
    CORRECTIONS,
    SUPERDENSE_ENCODING,
    SYNDROME_TO_BELL,
    TwoBitMessage,
    apply_qnd_circuit,
    decode_superdense,
    qnd_bell_measure,
    syndrome_probabilities,
)
from teleportsim.core import (
    BELL_AMPLITUDES,
    BellLabel,
    PauliOp,
    apply_pauli,
    extend,
    new_register,
    phase_normalized,
    prepare_bell,
    reduced_density,
)
from teleportsim.oracle import dual_run, op_run, single_experiment
from teleportsim.protocol import (
    Approach,
    InputSpec,
    Ledger,
    run_op_baseline,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

TOL = 1e-12
SQ2 = 1.0 / np.sqrt(2.0)

# Test-local Bell vectors and Pauli matrices, independent of the engine.
LOCAL_BELL = {
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * SQ2,
    BellLabel.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * SQ2,
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * SQ2,
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * SQ2,
}
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
LOCAL_PAULI = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.X: _X,
    PauliOp.Z: _Z,
    PauliOp.XZ: _X @ _Z,
}


def haar_amplitudes(rng):
    u = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    theta = np.arccos(u)
    return complex(np.cos(theta / 2.0)), np.exp(1j * phi) * np.sin(theta / 2.0)


def receiver_branch(channel, result, alpha, beta):
    """Project |channel>_AB (x) (a,b)_C onto a Bell state of (A, C), by hand."""
    composite = np.kron(LOCAL_BELL[channel], [alpha, beta]).reshape(2, 2, 2)
    projector = LOCAL_BELL[result].reshape(2, 2).conj()
    return np.einsum("ac,abc->b", projector, composite)


def test_corrections_fix_every_cell():
    rng = np.random.default_rng(101)
    worst = 1.0
    for channel in BELL_ORDER:
        for result in BELL_ORDER:
            gate = LOCAL_PAULI[CORRECTIONS[channel, result]]
            for _ in range(25):
                alpha, beta = haar_amplitudes(rng)
                repaired = gate @ receiver_branch(channel, result, alpha, beta)
                repaired = repaired / np.linalg.norm(repaired)
                fid = abs(np.vdot([alpha, beta], repaired)) ** 2
                worst = min(worst, fid)
    ok = worst >= 1.0 - TOL
    record(CRITERIA[0], ok)
    assert ok, f"worst teleportation fidelity {worst!r}"


def test_circuit_branches_match_expansion_table():
    alpha, beta = 0.8, 0.6 * np.exp(0.7j)
    state = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PSI_MINUS)
    state = extend(state, "C", (alpha, beta))
    state = extend(state, "D")
    state = extend(state, "E")
    state = apply_qnd_circuit(state, "A", "C", "D", "E")
    t = state.tensor()  # axes (A, B, C, D, E)
    expansion = CHANNEL_EXPANSIONS[BellLabel.PSI_MINUS]

    ok = SYNDROME_TO_BELL == {
        (1, 0): BellLabel.PSI_PLUS,
        (1, 1): BellLabel.PSI_MINUS,
        (0, 0): BellLabel.PHI_PLUS,
        (0, 1): BellLabel.PHI_MINUS,
    }
    p_d1 = 0.0
    for (d, e), label in SYNDROME_TO_BELL.items():
        branch = t[:, :, :, d, e]
        weight = float(np.sum(np.abs(branch) ** 2))
        ok = ok and abs(weight - 0.25) <= TOL
        if d == 1:
            p_d1 += weight
        descriptor = expansion[label]
        expected = 0.5 * np.einsum(
            "ac,b->abc",
            BELL_AMPLITUDES[label].reshape(2, 2),
            descriptor.vector(alpha, beta),
        )
        got = phase_normalized(branch.reshape(-1))
        want = phase_normalized(expected.reshape(-1))
        ok = ok and bool(np.allclose(got, want, rtol=0.0, atol=TOL))
    ok = ok and abs(p_d1 - 0.5) <= TOL
    record(CRITERIA[1], ok)
    assert ok


def test_resource_totals_for_hundred_runs():
    inputs = [InputSpec.haar()] * 100

    restore_ledger = Ledger()
    restore_reports = run_single_channel_aqt(
        inputs,
        Approach.RESTORE_CHANNEL,
        BellLabel.PSI_MINUS,
        np.random.default_rng(np.random.SeedSequence([120])),
        restore_ledger,
    )
    track_ledger = Ledger()
    track_reports = run_single_channel_aqt(
        inputs,
        Approach.TRACK_CHANNEL,
        BellLabel.PSI_MINUS,
        np.random.default_rng(np.random.SeedSequence([121])),
        track_ledger,
    )
    op_ledger = Ledger()
    op_reports = [
        run_op_baseline(
            InputSpec.haar(),
            BellLabel.PSI_MINUS,
            np.random.default_rng(np.random.SeedSequence([12, i])),
            op_ledger,
            i,
        )
        for i in range(100)
    ]

    observed = {
        "restore": restore_ledger.as_dict(),
        "track": track_ledger.as_dict(),
        "op": op_ledger.as_dict(),
    }
    ok = (
        len(restore_reports) == 100
        and len(track_reports) == 100
        and restore_ledger.epr_pairs_created == 1
        and restore_ledger.classical_bits_transmitted == 0
        and restore_ledger.qubits_transmitted == 300
        and track_ledger.epr_pairs_created == 1
        and track_ledger.classical_bits_transmitted == 0
        and track_ledger.qubits_transmitted == 300
        and op_ledger.epr_pairs_created == 100
        and op_ledger.classical_bits_transmitted == 200
        and op_ledger.qubits_transmitted == 0
        and all(r.fidelity >= 1.0 - TOL for r in restore_reports)
        and all(r.fidelity >= 1.0 - TOL for r in track_reports)
        and all(r.fidelity >= 1.0 - TOL for r in op_reports)
    )
    record(CRITERIA[2], ok)
    assert ok, f"resource totals: {observed}"


def test_receiver_rereads_label_without_damage():
    ok = True
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([21, i]))
        channel = BELL_ORDER[i % 4]
        state = prepare_bell(new_register(("A", "B")), "A", "B", channel)
        alpha, beta = haar_amplitudes(rng)
        state = extend(state, "C", (alpha, beta))

        sender, state = qnd_bell_measure(state, "A", "C", rng)
        # The rereads use unrelated generators: only the collapsed pair state
        # can make them agree with the sender.
        again, state = qnd_bell_measure(
            state, "A", "C", np.random.default_rng(np.random.SeedSequence([999]))
        )
        third, state = qnd_bell_measure(
            state, "A", "C", np.random.default_rng(np.random.SeedSequence([31, i]))
        )
        ok = ok and sender is again is third

        rho = reduced_density(state, ("A", "C"))
        vec = LOCAL_BELL[sender]
        pair_fid = float(np.real(vec.conj() @ rho @ vec))
        ok = ok and pair_fid >= 1.0 - TOL
    record(CRITERIA[3], ok)
    assert ok


def test_superdense_roundtrip_and_cost():
    ok = True
    for index in range(4):
        msg = TwoBitMessage.from_index(index)
        state = prepare_bell(new_register(("MA", "MB")), "MA", "MB", BellLabel.PHI_PLUS)
        state = apply_pauli(state, SUPERDENSE_ENCODING[msg], "MA")
        decoded, _ = decode_superdense(
            state, "MA", "MB", np.random.default_rng(np.random.SeedSequence([41, index]))
        )
        ok = ok and decoded == msg

    for i in range(5):
        report = run_two_channel_aqt(
            InputSpec.haar(),
            BellLabel.PSI_MINUS,
            np.random.default_rng(np.random.SeedSequence([42, i])),
            None,
            i,
        )
        delta = report.ledger_delta
        ok = ok and (
            delta.epr_pairs_created == 2
            and delta.qubits_transmitted == 1
            and delta.classical_bits_transmitted == 0
            and report.fidelity >= 1.0 - TOL
        )
    record(CRITERIA[4], ok)
    assert ok


def test_interception_yields_nothing():
    ok = True
    for approach, seed in ((Approach.RESTORE_CHANNEL, 61), (Approach.TRACK_CHANNEL, 62)):
        leaks = pair_interception_analysis(
            InputSpec.explicit(0.6, 0.8),
            InputSpec.explicit(1.0, 0.0),
            approach,
            BellLabel.PSI_MINUS,
            seed,
            runs=4,
        )
        for leak in leaks:
            ok = ok and leak.disturbance <= TOL
            ok = ok and leak.distinguishability <= TOL

    half = np.eye(2, dtype=complex) / 2.0
    for index in range(4):
        rho = message_conditioned_density(TwoBitMessage.from_index(index))
        ok = ok and trace_distance(rho, half) <= TOL
    record(CRITERIA[5], ok)
    assert ok


def test_engine_matches_brute_force_oracle():
    meta = np.random.default_rng(2024)
    checks = 0
    worst = 1.0
    labels_ok = True

    def overlap(engine_state, oracle_vec):
        return abs(np.vdot(engine_state.amplitudes, oracle_vec)) ** 2

    for i in range(12):
        alpha, beta = haar_amplitudes(meta)
        channel = BELL_ORDER[i % 4]
        report = run_op_baseline(
            InputSpec.explicit(alpha, beta),
            channel,
            np.random.default_rng(np.random.SeedSequence([71, i])),
            None,
            i,
        )
        vec, label = op_run(
            channel, alpha, beta, np.random.default_rng(np.random.SeedSequence([71, i]))
        )
        worst = min(worst, overlap(report.final_state, vec))
        labels_ok = labels_ok and report.alice_result is label
        checks += 1

    for approach, seed, count in (
        (Approach.RESTORE_CHANNEL, 72, 12),
        (Approach.TRACK_CHANNEL, 73, 14),
    ):
        pairs = [haar_amplitudes(meta) for _ in range(count)]
        specs = [InputSpec.explicit(a, b) for a, b in pairs]
        reports = run_single_channel_aqt(
            specs,
            approach,
            BellLabel.PSI_MINUS,
            np.random.default_rng(np.random.SeedSequence([seed])),
        )
        oracle = single_experiment(
            BellLabel.PSI_MINUS,
            pairs,
            approach,
            np.random.default_rng(np.random.SeedSequence([seed])),
        )
        for report, (vec, label) in zip(reports, oracle):
            worst = min(worst, overlap(report.final_state, vec))
            labels_ok = labels_ok and report.alice_result is label
            checks += 1

    for i in range(12):
        alpha, beta = haar_amplitudes(meta)
        channel = BELL_ORDER[i % 4]
        report = run_two_channel_aqt(
            InputSpec.explicit(alpha, beta),
            channel,
            np.random.default_rng(np.random.SeedSequence([74, i])),
            None,
            i,
        )
        vec, label = dual_run(
            channel, alpha, beta, np.random.default_rng(np.random.SeedSequence([74, i]))
        )
        worst = min(worst, overlap(report.final_state, vec))
        labels_ok = labels_ok and report.alice_result is label
        checks += 1

    ok = checks == 50 and labels_ok and worst >= 1.0 - TOL
    record(CRITERIA[6], ok)
    assert ok, f"checks={checks} labels_ok={labels_ok} worst={worst!r}"


def test_syndrome_distribution_is_uniform():
    rng = np.random.default_rng(81)
    ok = True
    for channel in BELL_ORDER:
        for _ in range(20):
            alpha, beta = haar_amplitudes(rng)
            state = prepare_bell(new_register(("A", "B")), "A", "B", channel)
            state = extend(state, "C", (alpha, beta))
            probs = syndrome_probabilities(state, "A", "C")
            ok = ok and set(probs) == set(BELL_ORDER)
            ok = ok and all(abs(p - 0.25) <= TOL for p in probs.values())
    record(CRITERIA[7], ok)
    assert ok
