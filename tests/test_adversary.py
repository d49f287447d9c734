"""Eavesdropper analysis tests: distance metrics, interception hooks, and the
leakage reports for the pair and message-qubit attack surfaces.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teleportsim import adversary
from teleportsim.adversary import (
    MAXIMALLY_MIXED,
    LeakageReport,
    PairObserver,
    analytic_label_distribution,
    message_interception_report,
    pair_interception_analysis,
    total_variation,
    trace_distance,
)
from teleportsim.bell import BELL_ORDER
from teleportsim.core import (
    BELL_AMPLITUDES,
    BellLabel,
    new_register,
    prepare_bell,
    reduced_density,
)
from teleportsim.protocol import (
    Approach,
    Custody,
    InputSpec,
    Ledger,
    Party,
    ProtocolError,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

TOL = 1e-12
# Label distributions with some labels left out, whose terms are 0.
_DISTRIBUTIONS = st.dictionaries(st.sampled_from(BELL_ORDER), st.floats(0.0, 1.0))


def seeded(*words):
    return np.random.default_rng(np.random.SeedSequence(list(words)))


class TestDistanceMetrics:
    def test_trace_distance_of_identical_states_is_zero(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        assert trace_distance(rho, rho) < TOL

    def test_trace_distance_of_orthogonal_pure_states_is_one(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(zero, one) - 1.0) < TOL

    def test_trace_distance_accepts_reduced_densities(self):
        state = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PHI_PLUS)
        rho = reduced_density(state, ("A",))
        assert trace_distance(rho, MAXIMALLY_MIXED) < TOL

    def test_total_variation(self):
        p = {label: 0.25 for label in BELL_ORDER}
        q = dict(p)
        q[BellLabel.PSI_PLUS], q[BellLabel.PSI_MINUS] = 0.5, 0.0
        assert total_variation(p, p) < TOL
        assert abs(total_variation(p, q) - 0.25) < TOL

    @given(p=_DISTRIBUTIONS, q=_DISTRIBUTIONS)
    def test_total_variation_sums_in_bell_order(self, p, q):
        """The terms are summed in BELL_ORDER whatever the dicts' order, so no
        hash seed or insertion order can move the result's bits."""
        want = 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in BELL_ORDER)
        assert total_variation(p, q) == want
        assert total_variation(dict(reversed(p.items())), dict(reversed(q.items()))) == want


def _message_pair(in_flight):
    """A phi+ message pair whose MA half is on the wire, or still with Alice."""
    state = prepare_bell(new_register(("MA", "MB")), "MA", "MB", BellLabel.PHI_PLUS)
    custody = Custody({"MA": Party.ALICE, "MB": Party.BOB})
    if in_flight:
        custody.send(("MA",), Party.ALICE, Party.BOB, Ledger())
    return state, custody


def _stub_dual_run(monkeypatch, in_flight):
    """Replace the dual run with one that hands Eve the message pair and aborts."""

    def run(*args, message_interceptor, **kwargs):
        message_interceptor(*_message_pair(in_flight), "MA")
        return None

    monkeypatch.setattr(adversary, "run_two_channel_aqt", run)


class TestInterceptionHooks:
    def test_pair_interception_requires_in_flight_qubits(self):
        state = prepare_bell(new_register(("A", "C")), "A", "C", BellLabel.PSI_MINUS)
        custody = Custody({"A": Party.ALICE, "C": Party.ALICE})
        observer = PairObserver()
        with pytest.raises(ValueError, match="not in flight"):
            observer(state, custody, "A", "C", seeded(70))
        assert observer.labels == [] and observer.pair_states == []

    def test_pair_interception_matches_collapsed_state(self):
        state = prepare_bell(new_register(("A", "C")), "A", "C", BellLabel.PHI_MINUS)
        custody = Custody({"A": Party.ALICE, "C": Party.ALICE})
        custody.send(("A", "C"), Party.ALICE, Party.BOB, Ledger())
        observer = PairObserver()
        after = observer(state, custody, "A", "C", seeded(71))
        assert observer.labels == [BellLabel.PHI_MINUS]
        np.testing.assert_allclose(
            np.abs(after.amplitudes), np.abs(BELL_AMPLITUDES[BellLabel.PHI_MINUS]), atol=TOL
        )
        np.testing.assert_allclose(observer.pair_states[0], reduced_density(after, ("A", "C")), atol=TOL)

    def test_message_interception_requires_in_flight_qubit(self, monkeypatch):
        _stub_dual_run(monkeypatch, in_flight=False)
        with pytest.raises(ValueError, match="not in flight"):
            message_interception_report(InputSpec.haar(), BellLabel.PSI_MINUS, seeded(77))

    def test_message_interception_sees_maximally_mixed_qubit(self, monkeypatch):
        _stub_dual_run(monkeypatch, in_flight=True)
        leak = message_interception_report(InputSpec.haar(), BellLabel.PSI_MINUS, seeded(78))
        assert leak.distinguishability < TOL


class TestPairAttack:
    def test_observer_sees_sender_labels_without_disturbing_runs(self):
        observer = PairObserver()
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 12,
            Approach.RESTORE_CHANNEL,
            BellLabel.PSI_MINUS,
            seeded(72),
            pair_interceptor=observer,
        )
        assert observer.labels == [r.alice_result for r in reports]
        assert all(r.fidelity >= 1 - TOL for r in reports)
        for label, rho in zip(observer.labels, observer.pair_states):
            bell = BELL_AMPLITUDES[label]
            assert np.real(bell.conj() @ rho @ bell) >= 1 - TOL

    def test_analysis_reports_no_leakage_for_distinct_inputs(self):
        leaks = pair_interception_analysis(
            InputSpec.explicit(0.6, 0.8),
            InputSpec.explicit(1.0, 0.0),
            Approach.RESTORE_CHANNEL,
            BellLabel.PSI_MINUS,
            seed=9,
            runs=8,
        )
        assert len(leaks) == 8
        for leak in leaks:
            assert leak.eve_observation in BELL_ORDER
            assert leak.disturbance <= TOL
            assert leak.distinguishability <= TOL

    def test_analysis_covers_tracking_approach(self):
        leaks = pair_interception_analysis(
            InputSpec.haar(),
            InputSpec.haar(),
            Approach.TRACK_CHANNEL,
            BellLabel.PHI_PLUS,
            seed=10,
            runs=6,
        )
        assert all(l.disturbance <= TOL and l.distinguishability <= TOL for l in leaks)

    @pytest.mark.parametrize("approach", list(Approach))
    def test_analysis_compares_each_runs_own_distributions(self, monkeypatch, approach):
        """Distributions are computed once per channel and amplitude bytes, yet
        each run's total variation compares that run's own two distributions,
        which differ in their last bits from input to input."""
        compared = []

        def spy(p, q):
            compared.append((p, q))
            return total_variation(p, q)

        monkeypatch.setattr(adversary, "total_variation", spy)
        inputs = (InputSpec.haar(), InputSpec.explicit(1.0, 0.0))
        pair_interception_analysis(*inputs, approach, BellLabel.PSI_MINUS, seed=5, runs=30)
        want = []
        for spec in inputs:  # the replay pair_interception_analysis makes, without its cache
            input_rng = np.random.default_rng(np.random.SeedSequence([5, 1]))
            specs = [InputSpec.explicit(*spec.resolve(input_rng)) for _ in range(30)]
            rng = np.random.default_rng(np.random.SeedSequence([5]))
            reports = run_single_channel_aqt(specs, approach, BellLabel.PSI_MINUS, rng, Ledger(), PairObserver())
            want.append([analytic_label_distribution(r.channel_before, *r.input_amplitudes) for r in reports])
        assert len({tuple(d.values()) for d in want[0]}) > 1
        assert compared == list(zip(*want))

    def test_label_distribution_is_input_independent(self):
        rng = np.random.default_rng(73)
        uniform = {label: 0.25 for label in BELL_ORDER}
        for channel in BELL_ORDER:
            raw = rng.normal(size=4)
            alpha, beta = complex(raw[0], raw[1]), complex(raw[2], raw[3])
            nrm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            dist = analytic_label_distribution(channel, alpha / nrm, beta / nrm)
            assert total_variation(dist, uniform) < TOL


class TestMessageAttack:
    def test_interception_aborts_and_reveals_nothing(self):
        ledger = Ledger()
        leak = message_interception_report(
            InputSpec.haar(), BellLabel.PSI_MINUS, seeded(74), ledger=ledger
        )
        assert isinstance(leak, LeakageReport)
        assert leak.eve_observation is None
        assert leak.disturbance == 1.0
        assert leak.distinguishability <= TOL
        # The stolen qubit still counts as transmitted.
        assert ledger.qubits_transmitted == 1
        assert ledger.epr_pairs_created == 2

    def test_completed_run_under_interception_raises(self, monkeypatch):
        # An interceptor that never fires lets the run finish with a report.
        def run_without_interceptor(*args, message_interceptor, **kwargs):
            return run_two_channel_aqt(*args, **kwargs)

        monkeypatch.setattr(adversary, "run_two_channel_aqt", run_without_interceptor)
        with pytest.raises(ProtocolError, match="did not capture"):
            message_interception_report(InputSpec.haar(), BellLabel.PSI_MINUS, seeded(75))

    def test_aborted_run_without_capture_raises(self, monkeypatch):
        monkeypatch.setattr(adversary, "run_two_channel_aqt", lambda *args, **kwargs: None)
        with pytest.raises(ProtocolError, match="did not capture"):
            message_interception_report(InputSpec.haar(), BellLabel.PSI_MINUS, seeded(76))
