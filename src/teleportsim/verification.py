"""Runnable invariant suite behind the ``verify`` subcommand.

``CHECKS`` is the package's one list of invariants: ``verify`` prints one
line per entry, and pytest runs each entry as a test named by its label. Each
check re-derives one documented invariant from scratch and reports a
pass/fail with a short detail string. The whole suite is deterministic and
finishes in seconds, and it ships with the package so an installed copy can
vouch for itself.
"""
from __future__ import annotations

from dataclasses import asdict
from typing import Callable

import numpy as np

from . import cli, oracle
from .adversary import (
    PairObserver,
    message_conditioned_density,
    message_interception_report,
    pair_interception_analysis,
    trace_distance,
    MAXIMALLY_MIXED,
)
from .bell import (
    BELL_ORDER,
    CHANNEL_EXPANSIONS,
    CORRECTIONS,
    SUPERDENSE_ENCODING,
    TwoBitMessage,
    decode_superdense,
    label_to_message,
    message_to_label,
    qnd_bell_measure,
    syndrome_probabilities,
    syndrome_to_bell,
)
from .core import (
    BELL_AMPLITUDES,
    BellLabel,
    GateKind,
    PauliOp,
    StateVector,
    apply_gate,
    apply_pauli,
    extend,
    fidelity,
    measure_qubit,
    new_register,
    prepare_bell,
    reduced_density,
    _shared,
)
from .protocol import (
    Approach,
    InputSpec,
    Ledger,
    RunReport,
    Variant,
    run_op_baseline,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

TOL = 1e-12

CheckResult = tuple[bool, str]
Check = tuple[str, Callable[[], CheckResult]]


def _random_state(labels: tuple[str, ...], rng: np.random.Generator) -> StateVector:
    vec = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return StateVector(tuple(labels), vec / np.linalg.norm(vec))


def _haar_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    return InputSpec.haar().resolve(rng)


def _snapshot_labels(report: RunReport | None) -> tuple[str, ...] | None:
    return None if report is None or report.final_state is None else report.final_state.labels


def _overlap2(target: tuple[complex, complex], vec: np.ndarray) -> float:
    t = np.array(target, dtype=complex)
    return float(np.abs(np.vdot(t, vec)) ** 2)


def check_unitarity() -> CheckResult:
    rng = np.random.default_rng(7)
    labels = ("A", "B", "C", "D")
    worst = 0.0
    for _ in range(30):
        state = _random_state(labels, rng)
        for _ in range(20):
            kind = rng.integers(0, 4)
            if kind == 3:
                c, t = rng.choice(4, size=2, replace=False)
                state = apply_gate(state, GateKind.CNOT, labels[c], labels[t])
            else:
                q = labels[rng.integers(0, 4)]
                if kind == 0:
                    state = apply_gate(state, GateKind.HADAMARD, q)
                else:
                    state = apply_pauli(state, (PauliOp.X, PauliOp.Z)[kind - 1], q)
        worst = max(worst, abs(float(np.linalg.norm(state.amplitudes)) - 1.0))
    return worst < TOL, f"max norm drift {worst:.2e}"


def check_involutions() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 1.0
    for _ in range(20):
        state = _random_state(("A", "B", "C"), rng)
        for step in (
            lambda s: apply_gate(s, GateKind.HADAMARD, "A"),
            lambda s: apply_pauli(s, PauliOp.X, "B"),
            lambda s: apply_pauli(s, PauliOp.Z, "C"),
            lambda s: apply_gate(s, GateKind.CNOT, "A", "C"),
        ):
            worst = min(worst, fidelity(state, step(step(state))))
    return worst >= 1.0 - TOL, f"min involution fidelity {worst:.15f}"


def check_hadamard_bell_action() -> CheckResult:
    # H (x) H permutes the Bell basis: psi+ <-> phi-, phi+ and psi- fixed,
    # psi- only up to the sign -1, which this check pins on raw amplitudes.
    expected = {
        BellLabel.PSI_PLUS: (BellLabel.PHI_MINUS, 1.0),
        BellLabel.PHI_MINUS: (BellLabel.PSI_PLUS, 1.0),
        BellLabel.PHI_PLUS: (BellLabel.PHI_PLUS, 1.0),
        BellLabel.PSI_MINUS: (BellLabel.PSI_MINUS, -1.0),
    }
    for label, (target, sign) in expected.items():
        state = prepare_bell(new_register(("A", "B")), "A", "B", label)
        state = apply_gate(apply_gate(state, GateKind.HADAMARD, "A"), GateKind.HADAMARD, "B")
        if not np.allclose(state.amplitudes, sign * BELL_AMPLITUDES[target], rtol=0.0, atol=TOL):
            return False, f"H(x)H on {label.value} missed {sign:+.0f}|{target.value}>"
    return True, "psi+ <-> phi-, phi+ fixed, psi- -> -psi-"


def check_measurement_statistics() -> CheckResult:
    rng = np.random.default_rng(13)
    trials = 20000
    alpha, beta = np.cos(0.4), np.sin(0.4) * np.exp(0.9j)
    # Shared states memoize P(1) and both branches, so the trials only draw.
    base = _shared(extend(new_register(("A",)), "Q", (alpha, beta)))
    p1 = abs(beta) ** 2
    ones = sum(measure_qubit(base, "Q", rng)[0] for _ in range(trials))
    bound = 5.0 * np.sqrt(p1 * (1.0 - p1) / trials)
    dev = abs(ones / trials - p1)
    if not dev < bound:
        return False, f"single-qubit frequency off by {dev:.4f} (>= {bound:.4f})"
    pair = _shared(prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PHI_PLUS))
    ones = sum(measure_qubit(pair, "A", rng)[0] for _ in range(trials))
    dev = abs(ones / trials - 0.5)
    bound = 5.0 * np.sqrt(0.25 / trials)
    return dev < bound, f"max deviation within 5 sigma ({dev:.4f} vs {bound:.4f})"


def check_reduced_density() -> CheckResult:
    rng = np.random.default_rng(17)
    pair = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PSI_MINUS)
    rho = reduced_density(pair, ("A",))
    if not np.allclose(rho, np.eye(2) / 2.0, atol=TOL):
        return False, "half of psi- is not maximally mixed"
    alpha, beta = _haar_pair(rng)
    prod = extend(pair, "C", (alpha, beta))
    rho_c = reduced_density(prod, ("C",))
    chi = np.array([alpha, beta])
    if not np.allclose(rho_c, np.outer(chi, chi.conj()), atol=TOL):
        return False, "product qubit density is not the projector"
    evals = np.linalg.eigvalsh(rho_c)
    ok = abs(np.trace(rho_c).real - 1.0) <= TOL and evals.min() >= -TOL
    return ok, f"trace 1, eigenvalues >= {evals.min():.2e}"


def check_table_consistency() -> CheckResult:
    rng = np.random.default_rng(19)
    worst = 1.0
    for channel in BELL_ORDER:
        for result, descriptor in CHANNEL_EXPANSIONS[channel].items():
            for _ in range(20):
                alpha, beta = _haar_pair(rng)
                vec = descriptor.vector(alpha, beta)
                state = StateVector(("B",), vec / np.linalg.norm(vec))
                fixed = apply_pauli(state, CORRECTIONS[channel, result], "B")
                worst = min(worst, _overlap2((alpha, beta), fixed.amplitudes))
    if worst < 1.0 - TOL:
        return False, f"correction left fidelity {worst:.15f}"
    # Re-derive the table: for a generic input exactly one operator works.
    alpha, beta = 0.8, 0.6 * np.exp(1.1j)
    for channel in BELL_ORDER:
        for result, descriptor in CHANNEL_EXPANSIONS[channel].items():
            vec = descriptor.vector(alpha, beta)
            state = StateVector(("B",), vec / np.linalg.norm(vec))
            winners = [
                op
                for op in PauliOp
                if _overlap2((alpha, beta), apply_pauli(state, op, "B").amplitudes) >= 1.0 - TOL
            ]
            if winners != [CORRECTIONS[channel, result]]:
                return False, f"derived {winners} for ({channel.value}, {result.value})"
    return True, "all 16 corrections re-derived from the expansions"


def check_syndrome_bijection() -> CheckResult:
    labels = {syndrome_to_bell(d, e) for d in (0, 1) for e in (0, 1)}
    if len(labels) != 4:
        return False, "syndrome map is not a bijection"
    for label in BELL_ORDER:
        if message_to_label(label_to_message(label)) is not label:
            return False, f"label enumeration broke on {label.value}"
    return True, "4 syndromes <-> 4 labels, enumeration round-trips"


def check_qnd_idempotence() -> CheckResult:
    rng = np.random.default_rng(23)
    for i in range(10):
        channel = BELL_ORDER[i % 4]
        state = prepare_bell(new_register(("A", "B")), "A", "B", channel)
        state = extend(state, "C", _haar_pair(rng))
        first, state1 = qnd_bell_measure(state, "A", "C", rng)
        second, state2 = qnd_bell_measure(state1, "A", "C", rng)
        if second is not first:
            return False, f"repeat returned {second.value} after {first.value}"
        if fidelity(state1, state2) < 1.0 - TOL:
            return False, "repeat disturbed the collapsed state"
    return True, "repeat measurement is a no-op with the same label"


def check_uniform_syndromes() -> CheckResult:
    rng = np.random.default_rng(29)
    worst = 0.0
    for channel in BELL_ORDER:
        for _ in range(10):
            state = prepare_bell(new_register(("A", "B")), "A", "B", channel)
            state = extend(state, "C", _haar_pair(rng))
            probs = syndrome_probabilities(state, "A", "C")
            worst = max(worst, max(abs(p - 0.25) for p in probs.values()))
    return worst < TOL, f"max deviation from 1/4: {worst:.2e}"


def check_superdense_roundtrip() -> CheckResult:
    for index in range(4):
        msg = TwoBitMessage.from_index(index)
        for seed in (0, 1):
            state = prepare_bell(new_register(("MA", "MB")), "MA", "MB", BellLabel.PHI_PLUS)
            state = apply_pauli(state, SUPERDENSE_ENCODING[msg], "MA")
            decoded, _ = decode_superdense(state, "MA", "MB", np.random.default_rng(seed))
            if decoded != msg:
                return False, f"{msg} decoded as {decoded}"
    return True, "all four messages round-trip deterministically"


def check_restore_correctness() -> CheckResult:
    for measured in BELL_ORDER:
        for target in BELL_ORDER:
            state = prepare_bell(new_register(("A", "C")), "A", "C", measured)
            state = apply_pauli(state, CORRECTIONS[measured, target], "A")
            want = prepare_bell(new_register(("A", "C")), "A", "C", target)
            if fidelity(want, state) < 1.0 - TOL:
                return False, f"restore {measured.value} -> {target.value} failed"
    return True, "all 16 restore operators verified by state evolution"


def check_perfect_teleportation() -> CheckResult:
    worst = 1.0
    for c_idx, channel in enumerate(BELL_ORDER):
        for approach in Approach:
            rng = np.random.default_rng(100 + c_idx)
            reports = run_single_channel_aqt([InputSpec.haar()] * 25, approach, channel, rng)
            worst = min(worst, min(r.fidelity for r in reports))
        for i in range(5):
            rng = np.random.default_rng(200 + 10 * c_idx + i)
            worst = min(worst, run_op_baseline(InputSpec.haar(), channel, rng).fidelity)
            rng = np.random.default_rng(300 + 10 * c_idx + i)
            report = run_two_channel_aqt(InputSpec.haar(), channel, rng)
            if report is None:
                return False, f"two-channel run on {channel.value} returned no report"
            worst = min(worst, report.fidelity)
    return worst >= 1.0 - TOL, f"min fidelity {worst:.15f} over 240 runs"


def check_bob_qnd_determinism() -> CheckResult:
    # The engine raises if the receiver's syndrome ever disagrees with the
    # sender's, so completing a long experiment is itself the check.
    rng = np.random.default_rng(31)
    reports = run_single_channel_aqt(
        [InputSpec.haar()] * 50, Approach.TRACK_CHANNEL, BellLabel.PSI_MINUS, rng
    )
    seen = {r.alice_result for r in reports}
    return len(seen) >= 3, f"50 runs, {len(seen)} distinct syndromes, no disagreement"


def check_resource_claims() -> CheckResult:
    for approach in Approach:
        ledger = Ledger()
        reports = run_single_channel_aqt(
            [InputSpec.haar()] * 10,
            approach,
            BellLabel.PSI_MINUS,
            np.random.default_rng(37),
            ledger,
        )
        if (ledger.epr_pairs_created, ledger.qubits_transmitted, ledger.classical_bits_transmitted) != (1, 30, 0):
            return False, f"single-channel ledger off: {asdict(ledger)}"
        total = Ledger()
        for r in reports:
            total.epr_pairs_created += r.ledger_delta.epr_pairs_created
            total.qubits_transmitted += r.ledger_delta.qubits_transmitted
            total.classical_bits_transmitted += r.ledger_delta.classical_bits_transmitted
        if total != ledger:
            return False, "per-run deltas do not partition the totals"
    ledger = Ledger()
    for i in range(5):
        run_op_baseline(InputSpec.haar(), BellLabel.PSI_MINUS, np.random.default_rng(i), ledger, i)
    if (ledger.epr_pairs_created, ledger.qubits_transmitted, ledger.classical_bits_transmitted) != (5, 0, 10):
        return False, f"baseline ledger off: {asdict(ledger)}"
    ledger = Ledger()
    for i in range(3):
        run_two_channel_aqt(InputSpec.haar(), BellLabel.PSI_MINUS, np.random.default_rng(i), ledger, i)
    ok = (ledger.epr_pairs_created, ledger.qubits_transmitted, ledger.classical_bits_transmitted) == (6, 3, 0)
    return ok, f"two-channel ledger {asdict(ledger)}"


def check_approach_equivalence() -> CheckResult:
    runs = 20

    def _go(approach: Approach):
        rng = np.random.default_rng(np.random.SeedSequence([41]))
        return run_single_channel_aqt([InputSpec.haar()] * runs, approach, BellLabel.PSI_MINUS, rng)

    restore = _go(Approach.RESTORE_CHANNEL)
    track = _go(Approach.TRACK_CHANNEL)
    for a, b in zip(restore, track):
        if a.alice_result is not b.alice_result:
            return False, f"run {a.run_index}: syndromes diverged"
        if not abs(a.fidelity - b.fidelity) < TOL:
            return False, f"run {a.run_index}: fidelities diverged"
        if a.channel_after is not BellLabel.PSI_MINUS or b.channel_after is not b.alice_result:
            return False, f"run {a.run_index}: channel bookkeeping wrong"
    return True, f"{runs} seeded runs agree syndrome-for-syndrome"


def check_oracle_equivalence() -> CheckResult:
    meta = np.random.default_rng(999)
    worst = 1.0
    count = 0
    for i in range(12):
        channel = BELL_ORDER[i % 4]
        alpha, beta = _haar_pair(meta)
        seed = np.random.SeedSequence([33, i])
        report = run_op_baseline(
            InputSpec.explicit(alpha, beta), channel, np.random.default_rng(seed)
        )
        ref, ref_label = oracle.op_run(channel, alpha, beta, np.random.default_rng(seed))
        if _snapshot_labels(report) != ("B",):
            return False, f"baseline run {i}: unexpected snapshot labels {_snapshot_labels(report)}"
        if ref_label is not report.alice_result:
            return False, f"baseline run {i}: oracle syndrome diverged"
        worst = min(worst, float(np.abs(np.vdot(ref, report.final_state.amplitudes)) ** 2))
        count += 1
    for approach, seed_key in ((Approach.RESTORE_CHANNEL, 44), (Approach.TRACK_CHANNEL, 45)):
        pairs = [_haar_pair(meta) for _ in range(12)]
        specs = [InputSpec.explicit(a, b) for a, b in pairs]
        reports = run_single_channel_aqt(
            specs, approach, BellLabel.PSI_MINUS,
            np.random.default_rng(np.random.SeedSequence([seed_key])),
        )
        refs = oracle.single_experiment(
            BellLabel.PSI_MINUS, pairs, approach,
            np.random.default_rng(np.random.SeedSequence([seed_key])),
        )
        for report, (ref, ref_label) in zip(reports, refs):
            if _snapshot_labels(report) != ("A", "out", "B"):
                return False, f"unexpected snapshot labels {_snapshot_labels(report)}"
            if ref_label is not report.alice_result:
                return False, f"single-channel run {report.run_index}: syndrome diverged"
            worst = min(worst, float(np.abs(np.vdot(ref, report.final_state.amplitudes)) ** 2))
            count += 1
    for i in range(14):
        channel = BELL_ORDER[(i + 1) % 4]
        alpha, beta = _haar_pair(meta)
        seed = np.random.SeedSequence([46, i])
        report = run_two_channel_aqt(
            InputSpec.explicit(alpha, beta), channel, np.random.default_rng(seed)
        )
        if _snapshot_labels(report) != ("B",):
            return False, f"two-channel run {i}: unexpected snapshot labels {_snapshot_labels(report)}"
        ref, ref_label = oracle.dual_run(channel, alpha, beta, np.random.default_rng(seed))
        if ref_label is not report.alice_result:
            return False, f"two-channel run {i}: oracle syndrome diverged"
        worst = min(worst, float(np.abs(np.vdot(ref, report.final_state.amplitudes)) ** 2))
        count += 1
    return worst >= 1.0 - TOL, f"{count} runs vs brute force, min fidelity {worst:.15f}"


def check_zero_leakage() -> CheckResult:
    meta = np.random.default_rng(53)
    worst = 0.0
    for i in range(20):
        spec_a = InputSpec.explicit(*_haar_pair(meta))
        spec_b = InputSpec.explicit(*_haar_pair(meta))
        reports = pair_interception_analysis(
            spec_a, spec_b, Approach.RESTORE_CHANNEL, BELL_ORDER[i % 4], seed=i, runs=1
        )
        worst = max(worst, max(r.distinguishability for r in reports))
    return worst <= TOL, f"max distinguishability {worst:.2e} over 20 input pairs"


def check_non_disturbance() -> CheckResult:
    worst = 0.0
    for seed in range(10):
        def _go(intercept: bool):
            rng = np.random.default_rng(np.random.SeedSequence([seed]))
            observer = PairObserver() if intercept else None
            return run_single_channel_aqt(
                [InputSpec.haar()] * 3, Approach.TRACK_CHANNEL, BellLabel.PSI_PLUS, rng,
                pair_interceptor=observer,
            )
        with_eve = _go(True)
        without = _go(False)
        for a, b in zip(with_eve, without):
            worst = max(worst, abs(a.fidelity - b.fidelity))
    return worst <= TOL, f"max fidelity shift under interception {worst:.2e}"


def check_message_secrecy() -> CheckResult:
    densities = [message_conditioned_density(TwoBitMessage.from_index(i)) for i in range(4)]
    worst = 0.0
    for i in range(4):
        worst = max(worst, trace_distance(densities[i], MAXIMALLY_MIXED))
        for j in range(i + 1, 4):
            worst = max(worst, trace_distance(densities[i], densities[j]))
    for seed in range(4):
        leak = message_interception_report(
            InputSpec.haar(), BellLabel.PSI_MINUS, np.random.default_rng(seed)
        )
        worst = max(worst, leak.distinguishability)
        if leak.eve_observation is not None:
            return False, "message interception should not reveal a label"
    return worst < TOL, f"max trace distance {worst:.2e} across messages"


def check_reproducibility() -> CheckResult:
    for variant in (Variant.SINGLE_CHANNEL_RESTORE, Variant.TWO_CHANNEL):
        config = cli.ExperimentConfig(
            variant=variant,
            runs=3,
            channel=BellLabel.PSI_MINUS,
            input_spec=InputSpec.haar(),
            seed=1,
            eve=cli.EveMode.NONE,
        )
        first = cli.render_json(config, cli.run_experiment(config))
        second = cli.render_json(config, cli.run_experiment(config))
        if first != second:
            return False, f"{variant.value} report not byte-identical across replays"
    return True, "replayed reports are byte-identical"


CHECKS: list[Check] = [
    ("core/unitarity", check_unitarity),
    ("core/involutions", check_involutions),
    ("core/hadamard-bell-action", check_hadamard_bell_action),
    ("core/measurement-statistics", check_measurement_statistics),
    ("core/reduced-density", check_reduced_density),
    ("bell/table-consistency", check_table_consistency),
    ("bell/syndrome-bijection", check_syndrome_bijection),
    ("bell/qnd-idempotence", check_qnd_idempotence),
    ("bell/uniform-syndromes", check_uniform_syndromes),
    ("bell/superdense-roundtrip", check_superdense_roundtrip),
    ("bell/restore-correctness", check_restore_correctness),
    ("protocol/perfect-teleportation", check_perfect_teleportation),
    ("protocol/receiver-determinism", check_bob_qnd_determinism),
    ("protocol/resource-claims", check_resource_claims),
    ("protocol/approach-equivalence", check_approach_equivalence),
    ("protocol/oracle-equivalence", check_oracle_equivalence),
    ("adversary/zero-leakage", check_zero_leakage),
    ("adversary/non-disturbance", check_non_disturbance),
    ("adversary/message-secrecy", check_message_secrecy),
    ("cli/reproducibility", check_reproducibility),
]


def run_checks() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
