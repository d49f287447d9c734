"""Bell combinatorics tests: syndrome map, expansions, corrections, restores
and the superdense coding convention.

The expansion and correction tables are re-derived here by direct projection
of channel-times-input composites onto the Bell basis, a route that never
touches the ancilla circuit, so circuit and table bugs cannot mask each other.
"""

import numpy as np
import pytest

from teleportsim.bell import (
    BELL_ORDER,
    CHANNEL_EXPANSIONS,
    CORRECTIONS,
    MESSAGE_CHANNEL,
    SUPERDENSE_DECODING,
    SUPERDENSE_ENCODING,
    SYNDROME_TO_BELL,
    TwoBitMessage,
    apply_qnd_circuit,
    decode_superdense,
    label_to_message,
    message_to_label,
    qnd_bell_measure,
    syndrome_probabilities,
    syndrome_to_bell,
)
from teleportsim.core import (
    BELL_AMPLITUDES,
    BellLabel,
    Gate,
    PauliOp,
    apply_gate,
    apply_pauli,
    extend,
    fidelity,
    new_register,
    phase_normalized,
    prepare_bell,
    reduced_density,
    StateVector,
)

TOL = 1e-12

PAULI_MATRICES = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.XZ: np.array([[0, -1], [1, 0]], dtype=complex),
}


def channel_composite(channel, alpha, beta):
    """|channel>_AB (x) (alpha|0> + beta|1>)_C on register (A, B, C)."""
    state = prepare_bell(new_register(("A", "B")), "A", "B", channel)
    return extend(state, "C", (alpha, beta))


def project_pair(state, result):
    """Unnormalized receiver qubit after projecting (A, C) onto a Bell state."""
    t = state.tensor()  # axes (A, B, C)
    bell = BELL_AMPLITUDES[result].reshape(2, 2)  # (A, C)
    return np.einsum("ac,abc->b", bell.conj(), t)


class TestSyndromeMap:
    def test_pinned_mapping(self):
        assert syndrome_to_bell(1, 0) is BellLabel.PSI_PLUS
        assert syndrome_to_bell(1, 1) is BellLabel.PSI_MINUS
        assert syndrome_to_bell(0, 0) is BellLabel.PHI_PLUS
        assert syndrome_to_bell(0, 1) is BellLabel.PHI_MINUS

    def test_bijection(self):
        assert sorted(l.value for l in SYNDROME_TO_BELL.values()) == sorted(
            l.value for l in BellLabel
        )
        assert set(SYNDROME_TO_BELL) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError, match="syndrome"):
            syndrome_to_bell(2, 0)


class TestExpansions:
    def test_descriptor_examples(self):
        alpha, beta = 0.8, 0.6
        np.testing.assert_allclose(
            CHANNEL_EXPANSIONS[BellLabel.PSI_MINUS][BellLabel.PSI_PLUS].vector(alpha, beta),
            [0.8, -0.6],
            atol=TOL,
        )
        np.testing.assert_allclose(
            CHANNEL_EXPANSIONS[BellLabel.PHI_PLUS][BellLabel.PHI_PLUS].vector(alpha, beta),
            [0.8, 0.6],
            atol=TOL,
        )
        # -alpha|1> + beta|0> reads (beta, -alpha) in ket order.
        np.testing.assert_allclose(
            CHANNEL_EXPANSIONS[BellLabel.PHI_MINUS][BellLabel.PSI_PLUS].vector(alpha, beta),
            [0.6, -0.8],
            atol=TOL,
        )

    @pytest.mark.parametrize("channel", BELL_ORDER)
    def test_descriptors_match_direct_projection(self, channel):
        rng = np.random.default_rng(21)
        for _ in range(10):
            raw = rng.normal(size=4)
            alpha = complex(raw[0], raw[1])
            beta = complex(raw[2], raw[3])
            nrm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            alpha, beta = alpha / nrm, beta / nrm
            state = channel_composite(channel, alpha, beta)
            for result, desc in CHANNEL_EXPANSIONS[channel].items():
                branch = project_pair(state, result)
                # Every branch carries weight 1/2.
                assert abs(np.linalg.norm(branch) - 0.5) < TOL
                np.testing.assert_allclose(
                    phase_normalized(branch / np.linalg.norm(branch)),
                    phase_normalized(desc.vector(alpha, beta)),
                    atol=1e-11,
                )


class TestCorrections:
    def test_pinned_examples(self):
        assert CORRECTIONS[BellLabel.PSI_MINUS, BellLabel.PSI_MINUS] is PauliOp.I
        assert CORRECTIONS[BellLabel.PSI_MINUS, BellLabel.PHI_PLUS] is PauliOp.XZ
        assert CORRECTIONS[BellLabel.PHI_PLUS, BellLabel.PSI_PLUS] is PauliOp.X

    def test_table_is_total(self):
        assert len(CORRECTIONS) == 16
        for channel in BELL_ORDER:
            ops = [CORRECTIONS[channel, result] for result in BELL_ORDER]
            assert sorted(op.value for op in ops) == ["I", "X", "XZ", "Z"]

    @pytest.mark.parametrize("channel", BELL_ORDER)
    def test_corrections_repair_projected_states(self, channel):
        """Projection route: correcting any branch must hand back the input."""
        alpha, beta = 0.8, 0.6 * np.exp(1.1j)
        chi = np.array([alpha, beta])
        state = channel_composite(channel, alpha, beta)
        for result in BELL_ORDER:
            branch = project_pair(state, result)
            branch /= np.linalg.norm(branch)
            corrected = PAULI_MATRICES[CORRECTIONS[channel, result]] @ branch
            assert abs(np.vdot(chi, corrected)) ** 2 >= 1 - TOL

    def test_corrections_are_unique_repairs(self):
        """At generic amplitudes only one operator per cell restores the input."""
        alpha, beta = 0.8, 0.6 * np.exp(1.1j)
        chi = np.array([alpha, beta])
        for channel in BELL_ORDER:
            state = channel_composite(channel, alpha, beta)
            for result in BELL_ORDER:
                branch = project_pair(state, result)
                branch /= np.linalg.norm(branch)
                working = [
                    op
                    for op, mat in PAULI_MATRICES.items()
                    if abs(np.vdot(chi, mat @ branch)) ** 2 >= 1 - TOL
                ]
                assert working == [CORRECTIONS[channel, result]]


class TestQndMeasurement:
    @pytest.mark.parametrize("label", BELL_ORDER)
    def test_exact_bell_pair_is_undisturbed(self, label):
        state = prepare_bell(new_register(("A", "B")), "A", "B", label)
        for seed in (0, 1, 2):
            measured, after = qnd_bell_measure(state, "A", "B", np.random.default_rng(seed))
            assert measured is label
            assert fidelity(after, state) >= 1 - TOL

    def test_repeat_measurement_agrees(self):
        state = channel_composite(BellLabel.PSI_MINUS, 0.8, 0.6)
        rng = np.random.default_rng(22)
        first, state = qnd_bell_measure(state, "A", "C", rng)
        second, _ = qnd_bell_measure(state, "A", "C", np.random.default_rng(999))
        assert second is first

    def test_pair_collapses_onto_reported_state(self):
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(40):
            state = channel_composite(BellLabel.PHI_PLUS, 0.8, 0.6 * np.exp(0.4j))
            label, after = qnd_bell_measure(state, "A", "C", rng)
            seen.add(label)
            rho = reduced_density(after, ("A", "C"))
            bell = BELL_AMPLITUDES[label]
            assert np.real(bell.conj() @ rho @ bell) >= 1 - TOL
        assert seen == set(BELL_ORDER)

    def test_receiver_state_matches_expansion(self):
        alpha, beta = 0.8, 0.6 * np.exp(0.9j)
        rng = np.random.default_rng(24)
        for _ in range(20):
            state = channel_composite(BellLabel.PSI_PLUS, alpha, beta)
            label, after = qnd_bell_measure(state, "A", "C", rng)
            desc = CHANNEL_EXPANSIONS[BellLabel.PSI_PLUS][label]
            rho = reduced_density(after, ("B",))
            vec = desc.vector(alpha, beta)
            assert np.real(vec.conj() @ rho @ vec) >= 1 - TOL

    def test_unentangled_zero_pair_splits_between_phi_states(self):
        # |00> = (phi+ + phi-)/sqrt(2): the first ancilla is always 0.
        probs = syndrome_probabilities(new_register(("A", "B")), "A", "B")
        assert abs(probs[BellLabel.PHI_PLUS] - 0.5) < TOL
        assert abs(probs[BellLabel.PHI_MINUS] - 0.5) < TOL
        assert probs[BellLabel.PSI_PLUS] < TOL and probs[BellLabel.PSI_MINUS] < TOL
        rng = np.random.default_rng(25)
        labels = {
            qnd_bell_measure(new_register(("A", "B")), "A", "B", rng)[0] for _ in range(30)
        }
        assert labels == {BellLabel.PHI_PLUS, BellLabel.PHI_MINUS}

    def test_circuit_first_ancilla_reads_pair_parity(self):
        alpha, beta = 0.8, 0.6
        state = channel_composite(BellLabel.PSI_MINUS, alpha, beta)
        state = extend(extend(state, "D"), "E")
        state = apply_qnd_circuit(state, "A", "C", "D", "E")
        probs = np.abs(state.tensor()) ** 2
        d_axis = state.axis("D")
        p_d1 = probs.sum(axis=tuple(i for i in range(state.n_qubits) if i != d_axis))[1]
        assert abs(p_d1 - 0.5) < TOL


class TestRestores:
    def test_pinned_examples(self):
        assert CORRECTIONS[BellLabel.PSI_PLUS, BellLabel.PSI_MINUS] is PauliOp.Z
        assert CORRECTIONS[BellLabel.PSI_MINUS, BellLabel.PSI_MINUS] is PauliOp.I
        assert CORRECTIONS[BellLabel.PHI_PLUS, BellLabel.PSI_MINUS] is PauliOp.XZ

    def test_all_sixteen_by_state_evolution(self):
        assert len(CORRECTIONS) == 16
        for measured in BELL_ORDER:
            for target in BELL_ORDER:
                state = prepare_bell(new_register(("A", "B")), "A", "B", measured)
                moved = apply_pauli(state, CORRECTIONS[measured, target], "A")
                want = StateVector(("A", "B"), BELL_AMPLITUDES[target])
                assert fidelity(moved, want) >= 1 - TOL

    def test_restores_are_unique(self):
        for measured in BELL_ORDER:
            for target in BELL_ORDER:
                state = prepare_bell(new_register(("A", "B")), "A", "B", measured)
                want = StateVector(("A", "B"), BELL_AMPLITUDES[target])
                working = [
                    op
                    for op in PauliOp
                    if fidelity(apply_pauli(state, op, "A"), want) >= 1 - TOL
                ]
                assert working == [CORRECTIONS[measured, target]]


class TestSuperdense:
    def test_message_channel_is_phi_plus(self):
        assert MESSAGE_CHANNEL is BellLabel.PHI_PLUS

    def test_encoding_moves_channel_to_decodable_state(self):
        bits_to_label = {msg: label for label, msg in SUPERDENSE_DECODING.items()}
        for msg, op in SUPERDENSE_ENCODING.items():
            state = prepare_bell(new_register(("MA", "MB")), "MA", "MB", MESSAGE_CHANNEL)
            encoded = apply_pauli(state, op, "MA")
            expected = bits_to_label[msg]
            want = StateVector(("MA", "MB"), BELL_AMPLITUDES[expected])
            assert fidelity(encoded, want) >= 1 - TOL

    @pytest.mark.parametrize("label", BELL_ORDER)
    def test_decode_is_deterministic_per_bell_state(self, label):
        for seed in (0, 7):
            state = prepare_bell(new_register(("MA", "MB")), "MA", "MB", label)
            msg, _ = decode_superdense(state, "MA", "MB", np.random.default_rng(seed))
            assert msg == SUPERDENSE_DECODING[label]

    def test_decode_derivation_for_phi_plus(self):
        # CNOT sends (|00>+|11>)/sqrt2 to (|00>+|10>)/sqrt2; H on the first
        # qubit then leaves exactly |00>.
        state = prepare_bell(new_register(("MA", "MB")), "MA", "MB", BellLabel.PHI_PLUS)
        state = apply_gate(state, Gate.cnot("MA", "MB"))
        state = apply_gate(state, Gate.h("MA"))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=TOL)


class TestMessageEnumeration:
    def test_serialization_order_enumeration(self):
        assert str(label_to_message(BellLabel.PSI_PLUS)) == "00"
        assert str(label_to_message(BellLabel.PSI_MINUS)) == "01"
        assert str(label_to_message(BellLabel.PHI_PLUS)) == "10"
        assert str(label_to_message(BellLabel.PHI_MINUS)) == "11"

    def test_roundtrip_with_labels(self):
        for label in BELL_ORDER:
            assert message_to_label(label_to_message(label)) is label

    def test_two_bit_message_validation(self):
        with pytest.raises(ValueError):
            TwoBitMessage(2, 0)
        with pytest.raises(ValueError):
            TwoBitMessage.from_index(4)
