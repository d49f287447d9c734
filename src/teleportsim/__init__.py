"""Simulator for teleportation protocols that replace the classical channel
with quantum resources: a reusable nondemolition-measured channel, or a
superdense-coded message qubit, benchmarked against the classical-bit
baseline with full resource accounting and eavesdropper analysis."""

from .core import (
    BELL_AMPLITUDES,
    BellLabel,
    Gate,
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
    phase_normalized,
    prepare_bell,
    reduced_density,
    relabel,
)
from .bell import (
    BELL_ORDER,
    BobState,
    TwoBitMessage,
    decode_superdense,
    label_to_message,
    message_to_label,
    qnd_bell_measure,
    syndrome_probabilities,
    syndrome_to_bell,
)
from .protocol import (
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
from .adversary import (
    LeakageReport,
    total_variation,
    trace_distance,
)

__version__ = "0.1.0"
