"""Protocol driver tests: baseline, reusable-channel and two-pair variants,
plus custody bookkeeping and the resource ledger.
"""

import numpy as np
import pytest

from teleportsim.bell import CORRECTIONS
from teleportsim.core import BELL_AMPLITUDES, BellLabel, PauliOp
from teleportsim.protocol import (
    Approach,
    Custody,
    InFlight,
    InputSpec,
    Ledger,
    Party,
    ProtocolError,
    RunReport,
    Variant,
    run_op_baseline,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

TOL = 1e-12
ALL_CHANNELS = tuple(BellLabel)


def seeded(*words):
    return np.random.default_rng(np.random.SeedSequence(list(words)))


class TestOpBaseline:
    @pytest.mark.parametrize("channel", ALL_CHANNELS)
    def test_perfect_fidelity_on_every_channel(self, channel):
        for i in range(10):
            report = run_op_baseline(InputSpec.haar(), channel, seeded(41, i), run_index=i)
            assert report.fidelity >= 1 - TOL
            assert report.variant is Variant.OP
            assert report.channel_before is channel
            assert report.channel_after is None
            assert report.correction is CORRECTIONS[channel, report.alice_result]

    def test_per_run_resources(self):
        ledger = Ledger()
        report = run_op_baseline(InputSpec.haar(), BellLabel.PSI_MINUS, seeded(42), ledger)
        assert report.ledger_delta.as_dict() == {
            "epr_pairs_created": 1,
            "qubits_transmitted": 0,
            "classical_bits_transmitted": 2,
        }
        assert ledger.classical_bits_transmitted == 2

    def test_pair_is_consumed(self):
        report = run_op_baseline(InputSpec.haar(), BellLabel.PHI_MINUS, seeded(43))
        assert report.final_state is not None
        assert report.final_state.labels == ("B",)


class TestSingleChannel:
    def test_restore_resources_scale_with_runs(self):
        ledger = Ledger()
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 10,
            Approach.RESTORE_CHANNEL,
            BellLabel.PSI_MINUS,
            seeded(44),
            ledger,
        )
        assert len(reports) == 10
        assert ledger.epr_pairs_created == 1
        assert ledger.qubits_transmitted == 30
        assert ledger.classical_bits_transmitted == 0
        assert all(r.fidelity >= 1 - TOL for r in reports)

    def test_restore_resets_channel_every_run(self):
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 12,
            Approach.RESTORE_CHANNEL,
            BellLabel.PHI_PLUS,
            seeded(45),
        )
        assert all(r.channel_before is BellLabel.PHI_PLUS for r in reports)
        assert all(r.channel_after is BellLabel.PHI_PLUS for r in reports)
        assert {r.alice_result for r in reports} == set(ALL_CHANNELS)

    def test_track_follows_measured_labels(self):
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 12,
            Approach.TRACK_CHANNEL,
            BellLabel.PSI_MINUS,
            seeded(46),
        )
        assert all(r.fidelity >= 1 - TOL for r in reports)
        for r in reports:
            assert r.channel_after is r.alice_result
        for prev, nxt in zip(reports, reports[1:]):
            assert nxt.channel_before is prev.channel_after

    def test_track_correction_uses_tracked_channel(self):
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 8,
            Approach.TRACK_CHANNEL,
            BellLabel.PHI_MINUS,
            seeded(47),
        )
        for r in reports:
            assert r.correction is CORRECTIONS[r.channel_before, r.alice_result]

    def test_snapshot_layout_and_variants(self):
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 2,
            Approach.RESTORE_CHANNEL,
            BellLabel.PSI_MINUS,
            seeded(49),
        )
        assert all(r.variant is Variant.SINGLE_CHANNEL_RESTORE for r in reports)
        for r in reports:
            assert r.final_state is not None
            assert r.final_state.labels == ("A", "out", "B")

    def test_ledger_deltas_partition_totals(self):
        ledger = Ledger()
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 6,
            Approach.TRACK_CHANNEL,
            BellLabel.PHI_PLUS,
            seeded(50),
            ledger,
        )
        totals = Ledger()
        for r in reports:
            totals.epr_pairs_created += r.ledger_delta.epr_pairs_created
            totals.qubits_transmitted += r.ledger_delta.qubits_transmitted
            totals.classical_bits_transmitted += r.ledger_delta.classical_bits_transmitted
        assert totals.as_dict() == ledger.as_dict()
        # The pair is created once, before the first run.
        assert reports[0].ledger_delta.epr_pairs_created == 1
        assert all(r.ledger_delta.epr_pairs_created == 0 for r in reports[1:])

    def test_empty_input_sequence_yields_no_reports(self):
        ledger = Ledger()
        reports = run_single_channel_aqt(
            [], Approach.RESTORE_CHANNEL, BellLabel.PSI_MINUS, seeded(51), ledger
        )
        assert reports == []
        assert ledger.epr_pairs_created == 1


class TestTwoChannel:
    @pytest.mark.parametrize("channel", ALL_CHANNELS)
    def test_perfect_fidelity_on_every_channel(self, channel):
        for i in range(8):
            report = run_two_channel_aqt(InputSpec.haar(), channel, seeded(52, i), run_index=i)
            assert report is not None
            assert report.fidelity >= 1 - TOL
            assert report.variant is Variant.TWO_CHANNEL
            assert report.correction is CORRECTIONS[channel, report.alice_result]

    def test_per_run_resources(self):
        report = run_two_channel_aqt(InputSpec.haar(), BellLabel.PSI_MINUS, seeded(53))
        assert report is not None
        assert report.ledger_delta.as_dict() == {
            "epr_pairs_created": 2,
            "qubits_transmitted": 1,
            "classical_bits_transmitted": 0,
        }

    def test_identity_correction_when_result_matches_channel(self):
        for i in range(40):
            report = run_two_channel_aqt(
                InputSpec.haar(), BellLabel.PSI_MINUS, seeded(54, i), run_index=i
            )
            assert report is not None
            if report.alice_result is BellLabel.PSI_MINUS:
                assert report.correction is PauliOp.I
                return
        pytest.fail("seeded runs never produced the identity case")

    def test_message_enumeration_reaches_all_corrections(self):
        seen = {}
        for i in range(60):
            report = run_two_channel_aqt(
                InputSpec.haar(), BellLabel.PSI_MINUS, seeded(55, i), run_index=i
            )
            assert report is not None
            seen[report.alice_result] = report.correction
            if len(seen) == 4:
                break
        assert seen == {
            BellLabel.PSI_MINUS: PauliOp.I,
            BellLabel.PSI_PLUS: PauliOp.Z,
            BellLabel.PHI_PLUS: PauliOp.XZ,
            BellLabel.PHI_MINUS: PauliOp.X,
        }

    def test_final_register_holds_only_receiver_qubit(self):
        report = run_two_channel_aqt(InputSpec.haar(), BellLabel.PHI_PLUS, seeded(56))
        assert report is not None
        assert report.final_state is not None
        assert report.final_state.labels == ("B",)

    def test_interceptor_aborts_run(self):
        calls = []

        def grab(state, custody, qm):
            calls.append(qm)
            assert isinstance(custody.holder(qm), InFlight)

        report = run_two_channel_aqt(
            InputSpec.haar(), BellLabel.PSI_MINUS, seeded(57), message_interceptor=grab
        )
        assert report is None
        assert calls == ["MA"]


class TestCustody:
    def test_send_requires_current_holder(self):
        custody = Custody({"A": Party.ALICE, "B": Party.BOB})
        with pytest.raises(ProtocolError, match="cannot send"):
            custody.send(("B",), Party.ALICE, Party.BOB, Ledger())

    def test_deliver_requires_matching_flight(self):
        custody = Custody({"A": Party.ALICE})
        with pytest.raises(ProtocolError, match="in flight"):
            custody.deliver(("A",), Party.BOB)
        ledger = Ledger()
        custody.send(("A",), Party.ALICE, Party.BOB, ledger)
        with pytest.raises(ProtocolError, match="in flight"):
            custody.deliver(("A",), Party.ALICE)
        custody.deliver(("A",), Party.BOB)
        assert custody.holder("A") is Party.BOB
        assert ledger.qubits_transmitted == 1

    def test_send_and_deliver_accept_one_shot_iterables(self):
        custody = Custody({"A": Party.ALICE, "C": Party.ALICE})
        ledger = Ledger()
        custody.send((label for label in ("A", "C")), Party.ALICE, Party.BOB, ledger)
        custody.deliver((label for label in ("A", "C")), Party.BOB)
        assert custody.holder("A") is Party.BOB and custody.holder("C") is Party.BOB
        assert ledger.qubits_transmitted == 2

    def test_require_flags_wrong_holder(self):
        custody = Custody({"A": Party.BOB})
        with pytest.raises(ProtocolError, match="does not hold"):
            custody.require(Party.ALICE, ("A",))

    def test_assign_and_rename_collisions(self):
        custody = Custody({"A": Party.ALICE, "B": Party.BOB})
        with pytest.raises(ValueError, match="already"):
            custody.assign("A", Party.BOB)
        with pytest.raises(ValueError, match="already"):
            custody.rename("A", "B")
        with pytest.raises(ValueError, match="no custody record"):
            custody.holder("Q")

    def test_protocol_error_is_runtime_error(self):
        assert issubclass(ProtocolError, RuntimeError)


class TestInputSpec:
    def test_explicit_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            InputSpec.explicit(1.0, 1.0)

    @pytest.mark.parametrize(
        "alpha, beta", [(np.nan, 0.0), (np.inf, 0.0), (0.0, complex(np.nan, 1.0)), (1.0, -np.inf)]
    )
    def test_non_finite_amplitudes_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="not normalized"):
            InputSpec.explicit(alpha, beta)

    @pytest.mark.parametrize(
        "alpha, beta", [(1e200, 1e200), (1e308j, 0.0), (np.nan, 1e200)]
    )
    def test_amplitudes_that_never_normalize_rejected_without_overflow(self, alpha, beta):
        with pytest.raises(ValueError, match="not normalized"):
            InputSpec.explicit(alpha, beta)

    def test_explicit_resolve_returns_amplitudes(self):
        alpha, beta = InputSpec.explicit(0.6, 0.8j).resolve(seeded(58))
        assert alpha == 0.6 and beta == 0.8j

    def test_haar_resolve_is_normalized_and_seeded(self):
        spec = InputSpec.haar()
        a1, b1 = spec.resolve(seeded(59))
        a2, b2 = spec.resolve(seeded(59))
        assert (a1, b1) == (a2, b2)
        assert abs(abs(a1) ** 2 + abs(b1) ** 2 - 1.0) < TOL

    def test_haar_draw_order_is_pinned(self):
        rng = seeded(60)
        shadow = seeded(60)
        alpha, beta = InputSpec.haar().resolve(rng)
        u = shadow.uniform(-1.0, 1.0)
        phi = shadow.uniform(0.0, 2.0 * np.pi)
        theta = np.arccos(u)
        assert abs(alpha - np.cos(theta / 2.0)) < TOL
        assert abs(beta - np.exp(1j * phi) * np.sin(theta / 2.0)) < TOL


class TestReports:
    def test_as_dict_round_trips_values(self):
        report = run_op_baseline(InputSpec.explicit(0.6, 0.8), BellLabel.PSI_PLUS, seeded(61))
        payload = report.as_dict()
        assert payload["variant"] == "op"
        assert payload["channel_before"] == "psi+"
        assert payload["channel_after"] is None
        assert payload["input_amplitudes"] == [[0.6, 0.0], [0.8, 0.0]]
        assert isinstance(payload["ledger_delta"], dict)
        assert payload["fidelity"] >= 1 - TOL

    def test_run_report_is_plain_data(self):
        report = RunReport(
            run_index=0,
            variant=Variant.OP,
            channel_before=BellLabel.PSI_MINUS,
            alice_result=BellLabel.PSI_MINUS,
            correction=PauliOp.I,
            fidelity=1.0,
            channel_after=None,
            ledger_delta=Ledger(1, 0, 2),
            input_amplitudes=(1.0, 0.0),
        )
        assert report.final_state is None
        assert report.as_dict()["correction"] == "I"


class TestChannelStateAcrossRuns:
    def test_restored_pair_matches_initial_bell_state(self):
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 5,
            Approach.RESTORE_CHANNEL,
            BellLabel.PSI_MINUS,
            seeded(62),
        )
        bell = BELL_AMPLITUDES[BellLabel.PSI_MINUS]
        for r in reports:
            state = r.final_state
            assert state is not None
            # Pair lives on (A, B) of the (A, out, B) snapshot.
            rho = np.einsum("aob,cod->abcd", state.tensor(), state.tensor().conj())
            rho = rho.reshape(4, 4)
            assert np.real(bell.conj() @ rho @ bell) >= 1 - TOL

    def test_tracked_pair_matches_reported_label(self):
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 5,
            Approach.TRACK_CHANNEL,
            BellLabel.PHI_MINUS,
            seeded(63),
        )
        for r in reports:
            state = r.final_state
            assert state is not None and r.channel_after is not None
            bell = BELL_AMPLITUDES[r.channel_after]
            rho = np.einsum("aob,cod->abcd", state.tensor(), state.tensor().conj())
            rho = rho.reshape(4, 4)
            assert np.real(bell.conj() @ rho @ bell) >= 1 - TOL
