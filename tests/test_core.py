"""State-vector engine tests: registers, gates, measurement, density tools.

Exact algebra is pinned at 1e-12; the one sampling test uses a 5 sigma band
over 2 * 10^4 seeded draws.
"""

import copy
import pickle
import re
import warnings

import numpy as np
import pytest

from conftest import phase_normalized

from teleportsim.core import (
    BELL_AMPLITUDES,
    BellLabel,
    GateKind,
    PauliOp,
    StateVector,
    apply_gate,
    apply_pauli,
    drop_qubit,
    extend,
    fidelity,
    measure_qubit,
    new_register,
    prepare_bell,
    reduced_density,
    relabel,
)

SQ2 = 1.0 / np.sqrt(2.0)


def random_state(labels, rng):
    """Normalized random register, for property-style checks."""
    amps = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return StateVector(tuple(labels), amps / np.linalg.norm(amps))


class TestRegisters:
    def test_ground_state_amplitudes(self):
        np.testing.assert_allclose(new_register(("A",)).amplitudes, [1, 0], atol=0)
        np.testing.assert_allclose(new_register(("A", "B")).amplitudes, [1, 0, 0, 0], atol=0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            new_register(("A", "A"))

    def test_empty_register_rejected(self):
        with pytest.raises(ValueError):
            new_register(())

    @pytest.mark.parametrize("bad", [1, 1.0, True, None, b"B", ("B",)])
    @pytest.mark.parametrize("position", [0, 1])
    def test_new_register_takes_only_str_labels(self, bad, position):
        # (1, "B") once made a register whose qubit 1 measure_qubit(s, True, rng) measured.
        labels = [bad, "A"] if position == 0 else ["A", bad]
        with pytest.raises(ValueError, match=f"^qubit label must be a str, got {re.escape(repr(bad))}$"):
            new_register(labels)

    def test_size_cap(self):
        labels = tuple(f"q{i}" for i in range(13))
        with pytest.raises(ValueError, match="capped"):
            new_register(labels)

    def test_extend_appends_least_significant_qubit(self):
        state = extend(new_register(("A",)), "B", (0.6, 0.8))
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8, 0, 0], atol=1e-15)
        assert state.labels == ("A", "B")

    def test_extend_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="not normalized"):
            extend(new_register(("A",)), "B", (1.0, 1.0))

    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (1.0, complex(0.0, -np.inf))])
    def test_extend_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            extend(new_register(("A",)), "B", bad)

    @pytest.mark.parametrize("bad", [(1e200, 1e200), (1e308j, 0), (np.nan, 1e200), (0, 1e300j)])
    def test_extend_rejects_huge_parts_before_squaring(self, bad):
        # Squaring such a part overflows; it must be rejected with no numpy warning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds 2"):
                extend(new_register(("A",)), "B", bad)

    @pytest.mark.parametrize("bad", [1.0, (1.0, 0.0, 0.0), [[1.0, 0.0]]])
    def test_extend_rejects_anything_but_one_pair(self, bad):
        with pytest.raises(ValueError, match="one pair"):
            extend(new_register(("A",)), "B", bad)

    def test_extend_rejects_existing_label(self):
        with pytest.raises(ValueError, match="already"):
            extend(new_register(("A",)), "A")

    @pytest.mark.parametrize("bad", [1, 1.0, True, None, ("B",), ["B"]])
    def test_extend_takes_only_str_labels(self, bad):
        with pytest.raises(ValueError, match="must be a str"):
            extend(new_register(("A",)), bad)


@pytest.mark.parametrize("enum_type", [BellLabel, PauliOp, GateKind])
def test_enum_members_are_singletons_that_key_dicts(enum_type):
    """Members key the memos and tables, so each must stay one object: looked
    up by value, copied or unpickled, a member is itself and finds its dict entry."""
    assert BellLabel("psi+") is BellLabel.PSI_PLUS
    table = {member: i for i, member in enumerate(enum_type)}
    for i, member in enumerate(enum_type):
        for same in (enum_type(member.value), copy.deepcopy(member), pickle.loads(pickle.dumps(member))):
            assert same is member
            assert table[same] == i


class TestGates:
    def test_x_flips_ground_state(self):
        state = apply_pauli(new_register(("A",)), PauliOp.X, "A")
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)

    def test_z_flips_phase(self):
        plus = StateVector(("A",), np.array([SQ2, SQ2], dtype=complex))
        state = apply_pauli(plus, PauliOp.Z, "A")
        np.testing.assert_allclose(state.amplitudes, [SQ2, -SQ2], atol=1e-15)

    def test_hadamard_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = random_state(("A", "B"), rng)
            twice = apply_gate(apply_gate(state, GateKind.HADAMARD, "A"), GateKind.HADAMARD, "A")
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_cnot_truth_table(self):
        # |10> -> |11> and |11> -> |10>; the control is the most significant bit.
        for src, dst in (((0, 0, 1, 0), (0, 0, 0, 1)), ((0, 0, 0, 1), (0, 0, 1, 0))):
            state = StateVector(("A", "B"), np.array(src, dtype=complex))
            out = apply_gate(state, GateKind.CNOT, "A", "B")
            np.testing.assert_allclose(out.amplitudes, dst, atol=1e-15)

    def test_cnot_leaves_control_zero_branch(self):
        state = StateVector(("A", "B"), np.array([0, 1, 0, 0], dtype=complex))
        out = apply_gate(state, GateKind.CNOT, "A", "B")
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            apply_gate(new_register(("A",)), GateKind.HADAMARD, "Q")

    def test_gate_arity_validated(self):
        """A HADAMARD takes one label and a CNOT two different ones; nothing else is a gate."""
        state = new_register(("A", "B"))
        for kind, targets in [
            (GateKind.HADAMARD, ("A", "B")), (GateKind.HADAMARD, ()), (GateKind.CNOT, ("A",)),
            (GateKind.CNOT, ("A", "B", "A")), ("H", ("A",)), (PauliOp.X, ("A",)), (None, ("A", "B")),
        ]:
            with pytest.raises(ValueError, match="^a HADAMARD takes 1 label and a CNOT 2"):
                apply_gate(state, kind, *targets)
        with pytest.raises(ValueError, match="differ"):
            apply_gate(state, GateKind.CNOT, "A", "A")
        with pytest.raises(ValueError, match="unknown"):  # one label per argument, not a tuple of them
            apply_gate(state, GateKind.HADAMARD, ("A",))


class TestPauliCorrections:
    def test_xz_on_one(self):
        # Z turns |1> into -|1>, then X moves it to -|0>.
        one = StateVector(("A",), np.array([0, 1], dtype=complex))
        out = apply_pauli(one, PauliOp.XZ, "A")
        np.testing.assert_allclose(out.amplitudes, [-1, 0], atol=1e-15)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(5)
        state = random_state(("A", "B"), rng)
        out = apply_pauli(state, PauliOp.I, "B")
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)

    def test_x_on_first_member_of_singlet(self):
        state = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PSI_MINUS)
        out = apply_pauli(state, PauliOp.X, "A")
        np.testing.assert_allclose(out.amplitudes, np.array([-1, 0, 0, 1]) * SQ2, atol=1e-12)

    def test_xz_equals_z_then_x_gates(self):
        rng = np.random.default_rng(6)
        state = random_state(("A", "B"), rng)
        via_op = apply_pauli(state, PauliOp.XZ, "A")
        via_gates = apply_pauli(apply_pauli(state, PauliOp.Z, "A"), PauliOp.X, "A")
        np.testing.assert_allclose(via_op.amplitudes, via_gates.amplitudes, atol=1e-12)


class TestBellPreparation:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_prepared_amplitudes_match_convention(self, label):
        state = prepare_bell(new_register(("A", "B")), "A", "B", label)
        np.testing.assert_allclose(state.amplitudes, BELL_AMPLITUDES[label], atol=1e-12)

    def test_rejects_non_ground_qubits(self):
        state = apply_pauli(new_register(("A", "B")), PauliOp.X, "A")
        with pytest.raises(ValueError, match="unentangled"):
            prepare_bell(state, "A", "B", BellLabel.PHI_PLUS)

    def test_rejects_same_qubit_twice(self):
        with pytest.raises(ValueError):
            prepare_bell(new_register(("A", "B")), "A", "A", BellLabel.PHI_PLUS)

    def test_other_qubits_untouched(self):
        state = extend(new_register(("A", "B")), "C", (0.6, 0.8))
        state = prepare_bell(state, "A", "B", BellLabel.PSI_PLUS)
        expected = np.kron(BELL_AMPLITUDES[BellLabel.PSI_PLUS], [0.6, 0.8])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


class TestMeasurement:
    def test_exactly_one_draw_consumed(self):
        plus = StateVector(("A",), np.array([SQ2, SQ2], dtype=complex))
        rng = np.random.default_rng(7)
        shadow = np.random.default_rng(7)
        outcome, _ = measure_qubit(plus, "A", rng)
        assert outcome == (1 if shadow.random() < 0.5 else 0)
        # The streams stay aligned afterwards, so exactly one draw was used.
        assert rng.random() == shadow.random()

    def test_collapse_renormalizes(self):
        state = StateVector(("A", "B"), np.array([0.6, 0, 0, 0.8], dtype=complex))
        rng = np.random.default_rng(9)
        outcome, out = measure_qubit(state, "A", rng)
        expected = [1, 0, 0, 0] if outcome == 0 else [0, 0, 0, 1]
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_collapsed_qubit_is_deterministic(self):
        state = StateVector(("A",), np.array([SQ2, SQ2], dtype=complex))
        first, state = measure_qubit(state, "A", np.random.default_rng(10))
        for seed in range(20):
            again, _ = measure_qubit(state, "A", np.random.default_rng(seed))
            assert again == first

    def test_entangled_partner_collapses_too(self):
        state = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PSI_PLUS)
        outcome, out = measure_qubit(state, "A", np.random.default_rng(11))
        partner, _ = measure_qubit(out, "B", np.random.default_rng(12))
        assert partner == 1 - outcome


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(13)
        state = random_state(("A", "B"), rng)
        assert abs(fidelity(state, state) - 1.0) < 1e-12

    def test_global_phase_ignored(self):
        rng = np.random.default_rng(14)
        state = random_state(("A",), rng)
        rotated = StateVector(state.labels, state.amplitudes * np.exp(1.37j))
        assert abs(fidelity(state, rotated) - 1.0) < 1e-12

    def test_label_order_aligned(self):
        # The same physical state written with swapped label order.
        amps = np.array([0.1, 0.5, 0.7, 0.2], dtype=complex)
        amps /= np.linalg.norm(amps)
        ab = StateVector(("A", "B"), amps)
        ba = StateVector(("B", "A"), amps.reshape(2, 2).T.reshape(-1))
        assert abs(fidelity(ab, ba) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        zero = new_register(("A",))
        one = apply_pauli(zero, PauliOp.X, "A")
        assert fidelity(zero, one) < 1e-12

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValueError, match="label sets"):
            fidelity(new_register(("A",)), new_register(("B",)))


class TestReducedDensity:
    def test_bell_half_is_maximally_mixed(self):
        state = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PHI_MINUS)
        rho = reduced_density(state, ("A",))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_product_factor_recovered(self):
        state = extend(new_register(("A",)), "B", (0.6, 0.8j))
        rho = reduced_density(state, ("B",))
        vec = np.array([0.6, 0.8j])
        np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)

    def test_trace_and_hermiticity(self):
        rng = np.random.default_rng(15)
        state = random_state(("A", "B", "C"), rng)
        rho = reduced_density(state, ("B", "C"))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_keep_validation(self):
        state = new_register(("A", "B"))
        with pytest.raises(ValueError):
            reduced_density(state, ())
        with pytest.raises(ValueError, match="duplicate"):
            reduced_density(state, ("A", "A"))


class TestRegisterEditing:
    def test_drop_collapsed_qubit(self):
        state = extend(new_register(("A",)), "B", (0.6, 0.8))
        state = apply_pauli(state, PauliOp.X, "A")
        out = drop_qubit(state, "A")
        assert out.labels == ("B",)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0.8], atol=1e-12)

    def test_drop_separable_superposed_qubit(self):
        state = extend(new_register(("A",)), "B", (0.6, 0.8))
        state = apply_gate(state, GateKind.HADAMARD, "A")
        out = drop_qubit(state, "A")
        np.testing.assert_allclose(np.abs(out.amplitudes), [0.6, 0.8], atol=1e-12)

    def test_drop_entangled_qubit_rejected(self):
        state = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PHI_PLUS)
        with pytest.raises(ValueError, match="entangled"):
            drop_qubit(state, "A")

    def test_drop_last_qubit_rejected(self):
        with pytest.raises(ValueError, match="last"):
            drop_qubit(new_register(("A",)), "A")

    def test_relabel_keeps_amplitudes(self):
        rng = np.random.default_rng(16)
        state = random_state(("A", "B"), rng)
        out = relabel(state, "A", "Q")
        assert out.labels == ("Q", "B")
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)

    def test_relabel_validation(self):
        state = new_register(("A", "B"))
        with pytest.raises(ValueError, match="unknown"):
            relabel(state, "Q", "R")
        with pytest.raises(ValueError, match="already"):
            relabel(state, "A", "B")

    @pytest.mark.parametrize("bad", [1, 1.0, True, None, ("B",), ["B"]])
    def test_relabel_takes_only_str_labels(self, bad):
        # True would be found by labels.index(1): the key confusion extend's rule prevents.
        with pytest.raises(ValueError, match="must be a str"):
            relabel(new_register(("A", "B")), "B", bad)


class TestPhaseNormalization:
    def test_leading_amplitude_made_real_positive(self):
        vec = np.array([-1j * 0.6, 0.8], dtype=complex)
        out = phase_normalized(vec)
        assert abs(out[0].imag) < 1e-12 and out[0].real > 0
        np.testing.assert_allclose(np.abs(out), np.abs(vec), atol=1e-12)

    def test_skips_negligible_leading_entries(self):
        vec = np.array([0, -0.5, 0.5], dtype=complex)
        out = phase_normalized(vec)
        np.testing.assert_allclose(out, [0, 0.5, -0.5], atol=1e-12)

    def test_equal_phases_compare_equal(self):
        rng = np.random.default_rng(17)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        spun = vec * np.exp(2.1j)
        np.testing.assert_allclose(phase_normalized(vec), phase_normalized(spun), atol=1e-12)
