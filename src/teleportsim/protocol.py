"""Protocol drivers: baseline teleportation and its two quantum-only variants.

Three experiments share one register/custody vocabulary:

* ``run_op_baseline``: destructive Bell measurement plus two classical bits,
  one fresh pair per run.
* ``run_single_channel_aqt``: nondemolition Bell measurement, the measured
  pair travels to the receiver and one half returns, the entangled channel
  survives and is reused across runs. Approach RESTORE_CHANNEL pushes the
  channel back to its initial Bell state after every run; TRACK_CHANNEL
  leaves it collapsed and tracks the label instead.
* ``run_two_channel_aqt``: destructive measurement whose result rides to the
  receiver inside one superdense-coded qubit of a second pair.

All randomness flows through the numpy Generator handed in; a run consumes
draws only for Haar input sampling and projective measurements, in a fixed
order, so seeded runs replay exactly.

Runs of one explicit input share registers: its baseline and two-channel
runs evolve one state until the first measurement, and its single-channel
streams cycle through a few registers. So an explicit InputSpec keeps one
table of them, on whose registers the core primitives memoize each branch
(see _registers and core), and a report's final_state may be shared by many
runs, read-only. A Haar input never repeats a state, so it keeps no table.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .bell import (
    CORRECTIONS,
    SUPERDENSE_ENCODING,
    decode_superdense,
    label_to_message,
    message_to_label,
    qnd_bell_measure,
    MESSAGE_CHANNEL,
)
from .core import (
    BellLabel,
    PauliOp,
    StateVector,
    apply_pauli,
    drop_qubit,
    extend,
    measure_qubit,
    new_register,
    prepare_bell,
    reduced_density,
    relabel,
    _shared,
)


class ProtocolError(RuntimeError):
    """An internal protocol invariant failed; this is a bug, not noise."""


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


@dataclass(frozen=True)
class InFlight:
    """Custody marker for a qubit on the wire toward ``dest``."""

    dest: Party


# Frozen, so one marker per destination serves every send.
_IN_FLIGHT = {party: InFlight(party) for party in Party}


class Variant(enum.Enum):
    OP = "op"
    SINGLE_CHANNEL_RESTORE = "single-i"
    SINGLE_CHANNEL_TRACK = "single-ii"
    TWO_CHANNEL = "dual"


class Approach(enum.Enum):
    RESTORE_CHANNEL = "restore"
    TRACK_CHANNEL = "track"


_APPROACH_VARIANT = {
    Approach.RESTORE_CHANNEL: Variant.SINGLE_CHANNEL_RESTORE,
    Approach.TRACK_CHANNEL: Variant.SINGLE_CHANNEL_TRACK,
}

# The members the drivers read on every run, bound once: a member lookup on an
# enum class costs about ten local reads.
_ALICE, _BOB = Party.ALICE, Party.BOB
_OP, _DUAL, _RESTORE = Variant.OP, Variant.TWO_CHANNEL, Approach.RESTORE_CHANNEL


@dataclass
class Ledger:
    """Monotonic resource counters for one experiment."""

    epr_pairs_created: int = 0
    qubits_transmitted: int = 0
    classical_bits_transmitted: int = 0

    def copy(self) -> "Ledger":
        """A snapshot; the plain constructor, cheaper than dataclasses.replace."""
        return Ledger(self.epr_pairs_created, self.qubits_transmitted, self.classical_bits_transmitted)

    def delta(self, since: "Ledger") -> "Ledger":
        return Ledger(
            self.epr_pairs_created - since.epr_pairs_created,
            self.qubits_transmitted - since.qubits_transmitted,
            self.classical_bits_transmitted - since.classical_bits_transmitted,
        )


def _check_party(role: str, party: object) -> None:
    """ValueError unless party is a Party. Party has members, so it has no
    subclasses and a class test is exact."""
    if party.__class__ is not Party:
        raise ValueError(f"{role} must be a Party, got {party!r}")


class Custody:
    """Who currently holds each labeled qubit.

    Every label in the register has exactly one custodian; transmission is a
    two-step send/deliver so an eavesdropper can act while a qubit is in
    flight. A party argument that is no Party raises ValueError: the
    constructor and assign check it, and send, deliver and require check it
    only once a label fails, so a passing call pays nothing.
    """

    def __init__(self, holders: dict[str, Party] | None = None) -> None:
        self._holders: dict[str, Party | InFlight] = dict(holders or {})
        for label, party in self._holders.items():
            if party.__class__ is not Party:  # _check_party's test, inlined on this per-run path
                _check_party(f"the custodian of {label!r}", party)

    def holder(self, label: str) -> Party | InFlight:
        try:
            return self._holders[label]
        except (KeyError, TypeError):  # TypeError: an unhashable stray
            raise ValueError(f"no custody record for {label!r}") from None

    def assign(self, label: str, party: Party) -> None:
        _check_party("party", party)
        if label in self._holders:
            raise ValueError(f"{label!r} already has a custodian")
        self._holders[label] = party

    def require(self, party: Party, labels: Iterable[str]) -> None:
        for label in labels:
            if self.holder(label) is not party:
                _check_party("party", party)
                raise ProtocolError(f"{party.value} does not hold {label!r}")

    def send(self, labels: Iterable[str], sender: Party, dest: Party, ledger: Ledger) -> None:
        try:
            flight = _IN_FLIGHT[dest]
        except (KeyError, TypeError):  # TypeError: an unhashable stray
            raise ValueError(f"dest must be a Party, got {dest!r}") from None
        labels = tuple(labels)
        for label in labels:
            if self.holder(label) is not sender:
                _check_party("sender", sender)
                raise ProtocolError(
                    f"{sender.value} cannot send {label!r} held by {self.holder(label)}"
                )
        for label in labels:
            self._holders[label] = flight
        ledger.qubits_transmitted += len(labels)

    def deliver(self, labels: Iterable[str], dest: Party) -> None:
        labels = tuple(labels)
        for label in labels:
            holder = self.holder(label)
            if not isinstance(holder, InFlight) or holder.dest is not dest:
                _check_party("dest", dest)
                raise ProtocolError(f"{label!r} is not in flight toward {dest.value}")
        for label in labels:
            self._holders[label] = dest

    def rename(self, old: str, new: str) -> None:
        if new in self._holders:
            raise ValueError(f"label {new!r} already has a custodian")
        self._holders[new] = self._holders.pop(old)

    def drop(self, label: str) -> None:
        self._holders.pop(label)


@dataclass(frozen=True)
class InputSpec:
    """The input qubit Charles hands to Alice: explicit amplitudes, checked once here
    and stored as complex, or Haar random."""

    alpha: complex = 1.0
    beta: complex = 0.0
    random: bool = False

    def __post_init__(self) -> None:
        if not self.random:
            try:
                parts = (self.alpha.real, self.alpha.imag, self.beta.real, self.beta.imag)
            except AttributeError:
                parts = None
            # An array, even of one element, passes the attribute test but is no amplitude.
            if parts is None or getattr(self.alpha, "ndim", 0) or getattr(self.beta, "ndim", 0):
                raise ValueError(f"input amplitudes must be scalar numbers, got ({self.alpha!r}, {self.beta!r})")
            try:
                # A part above 2 can never normalize; rejected before squaring, which
                # overflows, and before complex(), which overflows on a huge int.
                if any(abs(p) > 2.0 for p in parts):
                    raise ValueError(f"input amplitudes not normalized: a part of ({self.alpha}, {self.beta}) exceeds 2")
                alpha, beta = complex(self.alpha), complex(self.beta)
            except TypeError:  # numpy strings and dates have .real too, and are no numbers
                raise ValueError(f"input amplitudes must be scalar numbers, got ({self.alpha!r}, {self.beta!r})") from None
            nrm2 = abs(alpha) ** 2 + abs(beta) ** 2
            if not abs(nrm2 - 1.0) <= 1e-9:  # also rejects NaN and inf
                raise ValueError(f"input amplitudes not normalized: |a|^2+|b|^2 = {nrm2:.3e}")
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "beta", beta)

    @classmethod
    def explicit(cls, alpha: complex, beta: complex) -> "InputSpec":
        return cls(alpha, beta)

    @classmethod
    def haar(cls) -> "InputSpec":
        return cls(random=True)

    def resolve(self, rng: np.random.Generator) -> tuple[complex, complex]:
        """Concrete (alpha, beta), normalized, with alpha real nonnegative when random.

        Haar sampling draws u uniform on [-1, 1] then phi uniform on [0, 2*pi)
        and returns (cos(theta/2), e^{i phi} sin(theta/2)) with theta = arccos(u);
        exactly two uniform draws per call, in that order.
        """
        if not self.random:
            nrm = np.sqrt(abs(self.alpha) ** 2 + abs(self.beta) ** 2)
            return self.alpha / nrm, self.beta / nrm
        u = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        theta = np.arccos(u)
        return complex(np.cos(theta / 2.0)), np.exp(1j * phi) * np.sin(theta / 2.0)


@dataclass
class RunReport:
    """Everything observable about one teleportation run."""

    run_index: int
    variant: Variant
    channel_before: BellLabel
    alice_result: BellLabel
    correction: PauliOp
    fidelity: float
    channel_after: BellLabel | None
    ledger_delta: Ledger
    input_amplitudes: tuple[complex, complex]
    final_state: StateVector | None = field(default=None, repr=False, compare=False)


# A spec's table records no new stream register once it holds this many keys;
# explicit streams reached 4 to 65 distinct registers in 2000 runs.
_STREAM_KEYS = 1024


def _registers(spec: object) -> dict | None:
    """The table of registers an explicit spec's runs share, kept in its __dict__
    outside the dataclass fields, so it lives as long as the spec and eq, repr
    and replace never see it; None for a Haar input or a stand-in.

    Under an empty register's labels it holds the root of a run tree, made on
    first use: op and dual differ in labels, and channels branch at
    prepare_bell's memo key. Under labels and amplitude bytes (so 0.0 and -0.0
    differ) it holds a register a stream reached, which relabel made without
    basis records, so the key determines it. The first sight records the key,
    the second makes the register a shared node, and every later sight
    continues from that node, whose memo answers the run's repeated primitive
    calls. At _STREAM_KEYS keys no new register key is recorded.
    """
    if isinstance(spec, InputSpec) and not spec.random:
        return spec.__dict__.setdefault("_registers", {})
    return None


def _start(spec: InputSpec, labels: tuple[str, ...]) -> StateVector:
    """The empty register an independent run starts from: its run tree's root, or a fresh register."""
    table = _registers(spec)
    if table is None:
        return new_register(labels)
    if (root := table.get(labels)) is None:
        root = table[labels] = _shared(new_register(labels))
    return root


def _revisit(spec: InputSpec, state: StateVector) -> StateVector:
    """The register a stream continues from after a run of spec."""
    table = _registers(spec)
    if table is not None:
        key = (state.labels, state.amplitudes.tobytes())
        if (node := table.get(key)) is not None:
            return node
        if key in table:
            table[key] = _shared(state)
        elif len(table) < _STREAM_KEYS:
            table[key] = None
    return state


PairInterceptor = Callable[[StateVector, Custody, str, str, np.random.Generator], StateVector]
MessageInterceptor = Callable[[StateVector, Custody, str], None]


def _check_args(specs: Iterable[object], channel: object, rng: object, ledger: object, run_index: object = 0) -> None:
    """Before a run changes its ledger, a state, its generator or a spec's table;
    stand-ins are taken by their methods."""
    for spec in specs:
        if not callable(getattr(spec, "resolve", None)):
            raise ValueError(f"input must be an InputSpec, got {spec!r}")
    if not isinstance(channel, BellLabel):
        raise ValueError(f"not a BellLabel: {channel!r}")
    if not (callable(getattr(rng, "random", None)) and callable(getattr(rng, "uniform", None))):
        raise ValueError(f"rng must be a numpy Generator or have random and uniform methods, got {rng!r}")
    if ledger is not None and not isinstance(ledger, Ledger):
        raise ValueError(f"ledger must be a Ledger or None, got {ledger!r}")
    if not isinstance(run_index, int) or isinstance(run_index, bool):
        raise ValueError(f"run_index must be an int and no bool, got {run_index!r}")


def _alice_measures(
    state: StateVector, custody: Custody, spec: InputSpec, rng: np.random.Generator
) -> tuple[tuple[complex, complex], BellLabel, StateVector]:
    """Charles hands Alice the input as C; she Bell-measures (A, C) without destroying it.

    Returns the resolved input amplitudes, her result and the register.
    """
    amplitudes = spec.resolve(rng)
    # Charles is a state-preparation step; his handoff is not a counted transmission.
    state = extend(state, "C", amplitudes)
    custody.assign("C", _ALICE)
    custody.require(_ALICE, ("A", "C"))
    result, state = qnd_bell_measure(state, "A", "C", rng)
    return amplitudes, result, state


def _bob_corrects(
    state: StateVector, channel: BellLabel, result: BellLabel, target: tuple[complex, complex]
) -> tuple[PauliOp, StateVector, float]:
    """Bob corrects B for (channel, result); returns the correction, the register
    and B's fidelity with the target input."""
    correction = CORRECTIONS[channel, result]
    state = apply_pauli(state, correction, "B")
    rho = reduced_density(state, ("B",))
    vec = np.array(target, dtype=complex)
    return correction, state, float(np.real(vec.conj() @ rho @ vec))


def _destructive_readout(state: StateVector, custody: Custody, rng: np.random.Generator) -> StateVector:
    """Measure A, then C, and discard both: the measured pair is consumed."""
    _, state = measure_qubit(state, "A", rng)
    _, state = measure_qubit(state, "C", rng)
    state = drop_qubit(state, "A")
    state = drop_qubit(state, "C")
    custody.drop("A")
    custody.drop("C")
    return state


def run_op_baseline(
    input_spec: InputSpec,
    channel: BellLabel,
    rng: np.random.Generator,
    ledger: Ledger | None = None,
    run_index: int = 0,
) -> RunReport:
    """One run of the baseline protocol: destroy the pair, send two bits."""
    _check_args((input_spec,), channel, rng, ledger, run_index)
    ledger = ledger if ledger is not None else Ledger()
    before = ledger.copy()

    state = prepare_bell(_start(input_spec, ("A", "B")), "A", "B", channel)
    ledger.epr_pairs_created += 1
    custody = Custody({"A": _ALICE, "B": _BOB})

    amplitudes, result, state = _alice_measures(state, custody, input_spec, rng)
    state = _destructive_readout(state, custody, rng)
    ledger.classical_bits_transmitted += 2

    correction, state, fid = _bob_corrects(state, channel, result, amplitudes)

    return RunReport(
        run_index=run_index,
        variant=_OP,
        channel_before=channel,
        alice_result=result,
        correction=correction,
        fidelity=fid,
        channel_after=None,
        ledger_delta=ledger.delta(before),
        input_amplitudes=amplitudes,
        final_state=state,
    )


def run_single_channel_aqt(
    inputs: Sequence[InputSpec],
    approach: Approach,
    initial_channel: BellLabel,
    rng: np.random.Generator,
    ledger: Ledger | None = None,
    pair_interceptor: PairInterceptor | None = None,
) -> list[RunReport]:
    """Teleport a sequence of inputs through one reusable entangled channel.

    Per run: Alice nondemolition-measures (A, C), both travel to Bob, Bob
    repeats the measurement (same label, deterministically), corrects B, then
    either restores the pair to the initial channel or starts tracking the
    collapsed label. A returns to Alice and the old input qubit becomes the
    new channel half B. No classical bits are ever sent. A stray input
    anywhere in the sequence raises ValueError before the pair is made.
    """
    if not isinstance(approach, Approach):
        raise ValueError(f"not an Approach: {approach!r}")
    try:
        inputs = list(inputs)
    except TypeError:
        raise ValueError(f"inputs must be a sequence of InputSpecs, got {inputs!r}") from None
    _check_args(inputs, initial_channel, rng, ledger)
    ledger = ledger if ledger is not None else Ledger()
    before = ledger.copy()
    variant = _APPROACH_VARIANT[approach]

    state = prepare_bell(new_register(("A", "B")), "A", "B", initial_channel)
    ledger.epr_pairs_created += 1
    custody = Custody({"A": _ALICE, "B": _BOB})

    channel = initial_channel
    reports: list[RunReport] = []
    for i, spec in enumerate(inputs):
        amplitudes, result, state = _alice_measures(state, custody, spec, rng)

        custody.send(("A", "C"), _ALICE, _BOB, ledger)
        if pair_interceptor is not None:
            state = pair_interceptor(state, custody, "A", "C", rng)
        custody.deliver(("A", "C"), _BOB)

        bob_result, state = qnd_bell_measure(state, "A", "C", rng)
        if bob_result is not result:
            raise ProtocolError(
                f"run {i}: receiver syndrome {bob_result.value} != sender {result.value}"
            )

        correction, state, fid = _bob_corrects(state, channel, result, amplitudes)

        if approach is _RESTORE:
            state = apply_pauli(state, CORRECTIONS[result, initial_channel], "A")
            channel_after = initial_channel
        else:
            channel_after = result

        custody.send(("A",), _BOB, _ALICE, ledger)
        custody.deliver(("A",), _ALICE)

        state = relabel(state, "B", "out")
        custody.rename("B", "out")
        state = relabel(state, "C", "B")
        custody.rename("C", "B")
        state = _revisit(spec, state)

        reports.append(
            RunReport(
                run_index=i,
                variant=variant,
                channel_before=channel,
                alice_result=result,
                correction=correction,
                fidelity=fid,
                channel_after=channel_after,
                ledger_delta=ledger.delta(before),
                input_amplitudes=amplitudes,
                final_state=state,
            )
        )
        # The delivered output leaves the protocol's working register.
        state = drop_qubit(state, "out")
        custody.drop("out")
        channel = channel_after
        before = ledger.copy()
    return reports


def run_two_channel_aqt(
    input_spec: InputSpec,
    teleport_channel: BellLabel,
    rng: np.random.Generator,
    ledger: Ledger | None = None,
    run_index: int = 0,
    message_interceptor: MessageInterceptor | None = None,
) -> RunReport | None:
    """One run with two pairs: the Bell result rides inside a superdense qubit.

    Alice measures (A, C) destructively, encodes the result's two-bit label on
    her half of a phi+ message pair and sends that single qubit. Returns None
    if a message interceptor grabs the qubit in flight (that interception is
    destructive, so the run aborts).
    """
    _check_args((input_spec,), teleport_channel, rng, ledger, run_index)
    ledger = ledger if ledger is not None else Ledger()
    before = ledger.copy()

    state = _start(input_spec, ("A", "B", "MA", "MB"))
    state = prepare_bell(state, "A", "B", teleport_channel)
    state = prepare_bell(state, "MA", "MB", MESSAGE_CHANNEL)
    ledger.epr_pairs_created += 2
    custody = Custody({"A": _ALICE, "B": _BOB, "MA": _ALICE, "MB": _BOB})

    amplitudes, result, state = _alice_measures(state, custody, input_spec, rng)
    state = _destructive_readout(state, custody, rng)

    message = label_to_message(result)
    state = apply_pauli(state, SUPERDENSE_ENCODING[message], "MA")
    custody.send(("MA",), _ALICE, _BOB, ledger)
    if message_interceptor is not None:
        message_interceptor(state, custody, "MA")
        return None
    custody.deliver(("MA",), _BOB)

    decoded, state = decode_superdense(state, "MA", "MB", rng)
    state = drop_qubit(state, "MA")
    state = drop_qubit(state, "MB")
    custody.drop("MA")
    custody.drop("MB")
    if decoded != message:
        raise ProtocolError(f"decoded message {decoded} != encoded {message}")

    correction, state, fid = _bob_corrects(state, teleport_channel, message_to_label(decoded), amplitudes)

    return RunReport(
        run_index=run_index,
        variant=_DUAL,
        channel_before=teleport_channel,
        alice_result=result,
        correction=correction,
        fidelity=fid,
        channel_after=None,
        ledger_delta=ledger.delta(before),
        input_amplitudes=amplitudes,
        final_state=state,
    )
