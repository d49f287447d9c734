"""Bell-basis combinatorics shared by every protocol variant.

This module owns the syndrome map of the nondemolition Bell measurement, the
expansion of channel-times-input composites over the Bell basis, the sixteen
Pauli corrections (which also restore a collapsed channel), and the superdense
encode/decode convention. The tables are the API: callers index them directly.

All but the expansions come from one Pauli frame: each Bell label carries the
(x, z) bits of the Pauli X^x Z^z that takes phi+ to it, and Paulis compose by
XOR of those bits, up to phase. The expansions stay hand-written, as do the
oracle's tables and the test suite's, so they check the derivation from an
independent route.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    BellLabel,
    Gate,
    PauliOp,
    StateVector,
    apply_gate,
    extend,
    drop_qubit,
    measure_qubit,
)

# Fixed serialization order; also fixes the label <-> two-bit enumeration.
BELL_ORDER: tuple[BellLabel, ...] = (
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
)

# The message pair used for superdense signalling is always prepared as phi+.
MESSAGE_CHANNEL = BellLabel.PHI_PLUS


@dataclass(frozen=True)
class TwoBitMessage:
    """Two classical bits, most significant first."""

    hi: int
    lo: int

    def __post_init__(self) -> None:
        if self.hi not in (0, 1) or self.lo not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got ({self.hi}, {self.lo})")

    @property
    def index(self) -> int:
        return self.hi * 2 + self.lo

    @classmethod
    def from_index(cls, index: int) -> "TwoBitMessage":
        if index not in range(4):
            raise ValueError(f"message index out of range: {index}")
        return cls(index >> 1, index & 1)

    def __str__(self) -> str:
        return f"{self.hi}{self.lo}"


# The Pauli frame: (x, z) bits of the Pauli on the first pair member that
# takes phi+ to each label, up to phase. Every table below is derived from it.
_XZ_BITS: dict[BellLabel, tuple[int, int]] = {
    BellLabel.PHI_PLUS: (0, 0),
    BellLabel.PSI_PLUS: (1, 0),
    BellLabel.PHI_MINUS: (0, 1),
    BellLabel.PSI_MINUS: (1, 1),
}


def _pauli(x: int, z: int) -> PauliOp:
    """X^x Z^z; the name reads X before Z because XZ applies Z first."""
    return PauliOp("X" * x + "Z" * z or "I")


# Ancilla syndrome (d, e) -> collapsed Bell state of the measured pair: d is
# the computational parity (the x bit), e the Hadamard-frame parity (the z bit).
SYNDROME_TO_BELL: dict[tuple[int, int], BellLabel] = {_XZ_BITS[l]: l for l in BELL_ORDER}


def syndrome_to_bell(d: int, e: int) -> BellLabel:
    try:
        return SYNDROME_TO_BELL[(d, e)]
    except KeyError:
        raise ValueError(f"syndrome bits must be 0 or 1, got ({d}, {e})") from None


@dataclass(frozen=True)
class BobState:
    """Receiver-side qubit descriptor for one branch of a channel expansion.

    The branch reads branch_sign/2 * |result> (alpha_sign*a |alpha_ket> +
    beta_sign*b |1-alpha_ket>) for input a|0> + b|1>.
    """

    alpha_ket: int
    alpha_sign: int
    beta_sign: int
    branch_sign: int

    def vector(self, alpha: complex, beta: complex) -> np.ndarray:
        out = np.zeros(2, dtype=complex)
        out[self.alpha_ket] = self.alpha_sign * alpha
        out[1 - self.alpha_ket] = self.beta_sign * beta
        return out


# Expansion of |channel>_AB (x) (a|0> + b|1>)_C over the Bell basis of (A, C),
# one entry per measurement result. Branch signs are part of the expansion,
# not of the receiver state; all comparisons downstream are phase-normalized.
CHANNEL_EXPANSIONS: dict[BellLabel, dict[BellLabel, BobState]] = {
    BellLabel.PSI_MINUS: {
        BellLabel.PSI_PLUS: BobState(0, +1, -1, +1),
        BellLabel.PSI_MINUS: BobState(0, +1, +1, +1),
        BellLabel.PHI_PLUS: BobState(1, -1, +1, +1),
        BellLabel.PHI_MINUS: BobState(1, +1, +1, -1),
    },
    BellLabel.PSI_PLUS: {
        BellLabel.PSI_PLUS: BobState(0, +1, +1, +1),
        BellLabel.PSI_MINUS: BobState(0, +1, -1, -1),
        BellLabel.PHI_PLUS: BobState(1, +1, +1, +1),
        BellLabel.PHI_MINUS: BobState(1, +1, -1, +1),
    },
    BellLabel.PHI_MINUS: {
        BellLabel.PSI_PLUS: BobState(1, -1, +1, +1),
        BellLabel.PSI_MINUS: BobState(1, +1, +1, -1),
        BellLabel.PHI_PLUS: BobState(0, +1, -1, +1),
        BellLabel.PHI_MINUS: BobState(0, +1, +1, +1),
    },
    BellLabel.PHI_PLUS: {
        BellLabel.PSI_PLUS: BobState(1, +1, +1, +1),
        BellLabel.PSI_MINUS: BobState(1, +1, -1, -1),
        BellLabel.PHI_PLUS: BobState(0, +1, +1, +1),
        BellLabel.PHI_MINUS: BobState(0, +1, -1, +1),
    },
}


# (a, b) -> the Pauli whose bits are the XOR of a's and b's. Read as (channel,
# measurement result), it is the receiver's correction: the receiver's qubit
# holds the input under the Paulis of both labels, so the correction is their
# product. Read as (measured, target), it is the operator on the first pair
# member that restores a collapsed pair |measured> to |target>, up to phase.
CORRECTIONS: dict[tuple[BellLabel, BellLabel], PauliOp] = {
    (a, b): _pauli(_XZ_BITS[a][0] ^ _XZ_BITS[b][0], _XZ_BITS[a][1] ^ _XZ_BITS[b][1])
    for a in BELL_ORDER
    for b in BELL_ORDER
}


def _fresh(state: StateVector, base: str) -> str:
    if base not in state.labels:
        return base
    i = 1
    while f"{base}{i}" in state.labels:
        i += 1
    return f"{base}{i}"


def apply_qnd_circuit(state: StateVector, q1: str, q2: str, d: str, e: str) -> StateVector:
    """Unitary part of the nondemolition Bell measurement.

    Ancilla d picks up the computational parity of the pair, e the parity in
    the Hadamard-rotated frame; the trailing Hadamards rotate the pair back so
    it ends in the same Bell state the syndrome names.
    """
    out = state
    for gate in _qnd_gates(q1, q2, d, e):
        out = apply_gate(out, gate)
    return out


# Callers choose the labels, so the cache is bounded; the protocols use a handful.
@functools.lru_cache(maxsize=256)
def _qnd_gates(q1: str, q2: str, d: str, e: str) -> tuple[Gate, ...]:
    """The eight gates of the QND circuit; they depend only on the four labels."""
    return (
        Gate.cnot(q1, d),
        Gate.cnot(q2, d),
        Gate.h(q1),
        Gate.h(q2),
        Gate.cnot(q1, e),
        Gate.cnot(q2, e),
        Gate.h(q1),
        Gate.h(q2),
    )


def _with_syndrome(state: StateVector, q1: str, q2: str) -> tuple[StateVector, str, str]:
    """Allocate two fresh |0> ancillas d and e and run the parity circuit onto them."""
    d = _fresh(state, "D")
    out = extend(state, d)
    e = _fresh(out, "E")
    out = extend(out, e)
    return apply_qnd_circuit(out, q1, q2, d, e), d, e


def qnd_bell_measure(
    state: StateVector, q1: str, q2: str, rng: np.random.Generator
) -> tuple[BellLabel, StateVector]:
    """Measure which Bell state the pair (q1, q2) is in without destroying it.

    Allocates two fresh |0> ancillas, runs the parity circuit, measures the
    ancillas (d first, then e) and discards them. The pair collapses onto the
    reported Bell state and stays there, so a repeat on the same pair returns
    the same label deterministically.
    """
    out, d, e = _with_syndrome(state, q1, q2)
    d_bit, out = measure_qubit(out, d, rng)
    e_bit, out = measure_qubit(out, e, rng)
    out = drop_qubit(out, d)
    out = drop_qubit(out, e)
    return syndrome_to_bell(d_bit, e_bit), out


def syndrome_probabilities(state: StateVector, q1: str, q2: str) -> dict[BellLabel, float]:
    """Analytic ancilla-syndrome distribution, without sampling anything."""
    out, d, e = _with_syndrome(state, q1, q2)
    probs = np.abs(out.tensor()) ** 2
    axes = tuple(i for i in range(out.n_qubits) if i not in (out.axis(d), out.axis(e)))
    joint = probs.sum(axis=axes)
    return {label: float(joint[bits]) for bits, label in SYNDROME_TO_BELL.items()}


# Message (hi, lo) -> operator on the sender's half of a phi+ pair: x = lo and
# z = hi, so the pair lands on the label whose bits decoding reads back. Keyed
# hi-major, so it iterates 00, 01, 10, 11.
SUPERDENSE_ENCODING: dict[TwoBitMessage, PauliOp] = {
    TwoBitMessage(hi, lo): _pauli(lo, hi) for hi in (0, 1) for lo in (0, 1)
}

# Bell state of the transmitted pair -> decoded bits (hi, lo) = (z, x).
SUPERDENSE_DECODING: dict[BellLabel, TwoBitMessage] = {
    label: TwoBitMessage(z, x) for label, (x, z) in _XZ_BITS.items()
}


def decode_superdense(
    state: StateVector, qa: str, qb: str, rng: np.random.Generator
) -> tuple[TwoBitMessage, StateVector]:
    """Read two bits out of a Bell pair: CNOT(qa -> qb), H on qa, measure both.

    qa is the transmitted qubit, qb the resident one. Deterministic for exact
    Bell inputs; the measured qubits stay in the register for the caller to
    discard.
    """
    out = apply_gate(state, Gate.cnot(qa, qb))
    out = apply_gate(out, Gate.h(qa))
    hi, out = measure_qubit(out, qa, rng)
    lo, out = measure_qubit(out, qb, rng)
    return TwoBitMessage(hi, lo), out


def label_to_message(label: BellLabel) -> TwoBitMessage:
    """Fixed enumeration of Bell labels as two bits, in serialization order."""
    return TwoBitMessage.from_index(BELL_ORDER.index(label))


def message_to_label(msg: TwoBitMessage) -> BellLabel:
    return BELL_ORDER[msg.index]
