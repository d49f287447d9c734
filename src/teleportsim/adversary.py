"""Eavesdropper models and leakage metrics.

Two interception points exist. On the single-channel protocol Eve can grab
the measured pair while it is in flight and run her own nondemolition Bell
measurement; she learns the syndrome label and forwards the pair untouched.
On the two-channel protocol she can grab the superdense message qubit, which
is destructive, so the run aborts and she is left with a reduced density
matrix. The metrics quantify what either observation reveals about the
teleported input: nothing, which is the point of the analysis.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bell import BELL_ORDER, MESSAGE_CHANNEL, SUPERDENSE_ENCODING, TwoBitMessage, qnd_bell_measure, syndrome_probabilities
from .core import (
    BellLabel,
    StateVector,
    apply_pauli,
    extend,
    new_register,
    prepare_bell,
    reduced_density,
)
from .protocol import (
    Approach,
    Custody,
    InFlight,
    InputSpec,
    Ledger,
    ProtocolError,
    RunReport,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

MAXIMALLY_MIXED = np.eye(2, dtype=complex) / 2.0


@dataclass(frozen=True)
class LeakageReport:
    """What one interception yielded and how much it could reveal."""

    eve_observation: BellLabel | None
    disturbance: float
    distinguishability: float


def _require_in_flight(custody: Custody, labels: tuple[str, ...]) -> None:
    for label in labels:
        if not isinstance(custody.holder(label), InFlight):
            raise ValueError(f"{label!r} is not in flight; Eve cannot reach it")


def _square(m: object) -> np.ndarray:
    """m as a complex square matrix of finite entries, else ValueError."""
    try:
        out = np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        out = None
    # cmath.isfinite over the entries: np.isfinite(out).all() costs twice as much on a 2x2 or 4x4.
    if out is None or out.ndim != 2 or out.shape[0] != out.shape[1] or not all(map(cmath.isfinite, out.flat)):
        raise ValueError(f"not a square matrix of finite numbers: {m!r}")
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two density matrices."""
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise ValueError(f"density matrices differ in shape: {a.shape} vs {b.shape}")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def total_variation(p: dict[BellLabel, float], q: dict[BellLabel, float]) -> float:
    """Total variation distance between two label distributions; a missing label
    has probability 0. The terms are summed in BELL_ORDER, so no hash can move
    the result's bits."""
    try:
        ok = set(p).union(q).issubset(BELL_ORDER)
        tv = float(0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in BELL_ORDER))
    except (AttributeError, TypeError, ValueError):  # not mappings, or values that are not numbers
        ok = False
    if not (ok and math.isfinite(tv)):
        raise ValueError(f"not two distributions over Bell labels: {p!r}, {q!r}")
    return tv


class PairObserver:
    """Pair interceptor: Eve nondemolition-measures the in-flight pair and records her
    label and her view of it. The pair has already collapsed, so her label matches the
    sender's and the state she forwards is the state she received."""

    def __init__(self) -> None:
        self.labels: list[BellLabel] = []
        self.pair_states: list[np.ndarray] = []

    def __call__(
        self, state: StateVector, custody: Custody, q1: str, q2: str, rng: np.random.Generator
    ) -> StateVector:
        _require_in_flight(custody, (q1, q2))
        label, state = qnd_bell_measure(state, q1, q2, rng)
        self.labels.append(label)
        self.pair_states.append(reduced_density(state, (q1, q2)))
        return state


def analytic_label_distribution(
    channel: BellLabel, alpha: complex, beta: complex
) -> dict[BellLabel, float]:
    """Syndrome distribution of the sender's measurement, computed without sampling."""
    state = prepare_bell(new_register(("A", "B")), "A", "B", channel)
    state = extend(state, "C", (alpha, beta))
    return syndrome_probabilities(state, "A", "C")


def pair_interception_analysis(
    input_a: InputSpec,
    input_b: InputSpec,
    approach: Approach,
    channel: BellLabel,
    seed: int,
    runs: int = 1,
) -> list[LeakageReport]:
    """Replay one seeded experiment for two different inputs and compare Eve's view.

    Per run the distinguishability is the larger of the total variation
    between the two analytic label distributions and the trace distance
    between Eve's reduced pair states. Both vanish: the labels are uniform
    regardless of input and the forwarded pair is a bare Bell state.

    Inputs are resolved to concrete amplitudes before the replay, on a
    generator separate from the protocol stream. Both replays therefore
    consume identical protocol draws whether a spec is explicit or random,
    which keeps the comparison controlled: any difference Eve sees would
    have to come from the inputs themselves.
    """
    if not isinstance(approach, Approach):
        raise ValueError(f"not an Approach: {approach!r}")

    def _capture(spec: InputSpec) -> tuple[list[RunReport], PairObserver]:
        input_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        specs = [InputSpec.explicit(*spec.resolve(input_rng)) for _ in range(runs)]
        observer = PairObserver()
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        reports = run_single_channel_aqt(
            specs, approach, channel, rng, Ledger(), pair_interceptor=observer
        )
        return reports, observer

    dists: dict[tuple[BellLabel, bytes], dict[BellLabel, float]] = {}

    def _distribution(r: RunReport) -> dict[BellLabel, float]:
        """r's analytic label distribution, computed once per channel and
        amplitude bytes (0.0 and -0.0 differ): an explicit input needs at most four."""
        key = (r.channel_before, np.array(r.input_amplitudes).tobytes())
        dist = dists.get(key)
        if dist is None:
            dist = dists[key] = analytic_label_distribution(r.channel_before, *r.input_amplitudes)
        return dist

    reports_a, obs_a = _capture(input_a)
    reports_b, obs_b = _capture(input_b)

    out: list[LeakageReport] = []
    for i in range(runs):
        ra = reports_a[i]
        tv = total_variation(_distribution(ra), _distribution(reports_b[i]))
        td = trace_distance(obs_a.pair_states[i], obs_b.pair_states[i])
        out.append(
            LeakageReport(
                eve_observation=obs_a.labels[i],
                disturbance=1.0 - ra.fidelity,
                distinguishability=max(tv, td),
            )
        )
    return out


def message_conditioned_density(msg: TwoBitMessage) -> np.ndarray:
    """Reduced state of the encoded message qubit, conditioned on the message."""
    state = prepare_bell(new_register(("MA", "MB")), "MA", "MB", MESSAGE_CHANNEL)
    state = apply_pauli(state, SUPERDENSE_ENCODING[msg], "MA")
    return reduced_density(state, ("MA",))


def message_interception_report(
    input_spec: InputSpec,
    teleport_channel: BellLabel,
    rng: np.random.Generator,
    run_index: int = 0,
    ledger: Ledger | None = None,
) -> LeakageReport:
    """Run the two-channel protocol with Eve on the wire; the run aborts.

    Disturbance is 1 by construction (the input is lost with the aborted run);
    distinguishability is the trace distance between what Eve holds and the
    maximally mixed qubit.
    """
    captured: list[np.ndarray] = []

    def capture(state: StateVector, custody: Custody, qm: str) -> None:
        # Eve keeps the in-flight message qubit; all she has is its reduced state.
        _require_in_flight(custody, (qm,))
        captured.append(reduced_density(state, (qm,)))

    report = run_two_channel_aqt(
        input_spec,
        teleport_channel,
        rng,
        ledger=ledger,
        run_index=run_index,
        message_interceptor=capture,
    )
    if report is not None or not captured:
        raise ProtocolError(f"run {run_index}: the message interceptor did not capture the qubit in flight")
    return LeakageReport(
        eve_observation=None,
        disturbance=1.0,
        distinguishability=trace_distance(captured[0], MAXIMALLY_MIXED),
    )
