"""Library constructors either return a result or raise ValueError.

Hypothesis drives ``InputSpec.explicit`` and ``extend`` over complex floats
(NaN, infinities, huge values and subnormals included), ``prepare_bell``
and ``apply_pauli`` over their enum members and stray values such as the
members' string values, the other enum, None and unhashable values, the
single-channel drivers over stray ``approach`` values, and the Bell-layer
conversions (syndrome bits, two-bit messages, labels) over stray bits,
indices, labels and messages. ``Gate`` and ``apply_gate`` get stray gate
kinds, targets and gates; ``measure_qubit``, ``drop_qubit``,
``reduced_density``, ``Custody.holder`` and the QND primitives stray labels;
``new_register`` stray label sequences; ``InputSpec`` and
``InputSpec.explicit`` stray amplitudes (the two agree, and every number type
complex() takes is stored as a complex) and the single-channel drivers stray
input sequences, and the leakage metrics ``trace_distance`` and
``total_variation`` stray matrices and distributions. Any other exception, or any numpy RuntimeWarning, fails the
property. A QND measurement of a qubit with itself or of a stray label is
rejected before any draw, and stray arguments fail on a node of a shared run
tree exactly as on an unshared copy of it.
"""

import math
import warnings
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from teleportsim.adversary import MAXIMALLY_MIXED, pair_interception_analysis, total_variation, trace_distance
from teleportsim.bell import (
    SYNDROME_TO_BELL,
    TwoBitMessage,
    apply_qnd_circuit,
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
    GateKind,
    PauliOp,
    StateVector,
    apply_gate,
    apply_pauli,
    drop_qubit,
    extend,
    measure_qubit,
    new_register,
    prepare_bell,
    reduced_density,
)
from teleportsim.protocol import Approach, Custody, InputSpec, Party, run_op_baseline, run_single_channel_aqt

_PARTS = st.floats() | st.sampled_from([1e308, -1e308, 5e-324, 2.2250738585072014e-308, 2.0, 1.0])
_COMPLEX = st.builds(complex, _PARTS, _PARTS)


@st.composite
def _unit_pairs(draw):
    """A normalized pair, optionally nudged off the unit sphere by a tiny factor."""
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    scale = draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-10, 1.0 + 1e-8]))
    phase = complex(math.cos(phi), math.sin(phi))
    return complex(math.cos(theta / 2) * scale), complex(math.sin(theta / 2) * scale) * phase


_PAIRS = st.tuples(_COMPLEX, _COMPLEX) | _unit_pairs()

_VALUES = st.sampled_from(
    [label.value for label in BellLabel] + [op.value for op in PauliOp] + [a.value for a in Approach]
)
# Unhashable strays reach the kernel caches, whose lookup raises TypeError before any check runs.
_UNHASHABLE = (
    st.lists(_VALUES | st.integers(), max_size=2)
    | st.dictionaries(_VALUES, st.integers(), max_size=2)
    | st.builds(np.array, st.lists(st.floats(allow_nan=False), max_size=2))
)
_STRAYS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | _VALUES
    | _UNHASHABLE
)


def _strict(call, *args):
    """call(*args) with numpy warnings raised; None if it raised ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except ValueError:
            return None


def _is_unit(a, b):
    finite = all(map(math.isfinite, (a.real, a.imag, b.real, b.imag)))
    return finite and abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-9


@given(pair=_PAIRS)
@example(pair=(complex(1e308, 0), 0j))
@example(pair=(complex("nan"), 1 + 0j))
@example(pair=(complex(5e-324, -5e-324), 1 + 0j))
@example(pair=(complex("inf"), complex("-inf")))
def test_input_spec_explicit_returns_or_raises_value_error(pair):
    spec = _strict(InputSpec.explicit, *pair)
    if spec is not None:
        assert _is_unit(*_strict(spec.resolve, None))


@given(pair=_PAIRS)
@example(pair=(complex(1e308, 0), 0j))
@example(pair=(complex("nan"), 1 + 0j))
@example(pair=(complex(5e-324, -5e-324), 1 + 0j))
@example(pair=(0j, complex(0, 1e300)))
def test_extend_returns_or_raises_value_error(pair):
    state = _strict(extend, new_register(("A",)), "C", pair)
    if state is not None:
        assert state.labels == ("A", "C")
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9


@given(label=st.sampled_from(BellLabel) | st.sampled_from(PauliOp) | _STRAYS, first=st.booleans())
@example(label=["psi-"], first=True)
@example(label={"psi-": 0}, first=False)
@example(label=np.zeros(2), first=True)
def test_prepare_bell_takes_only_bell_labels(label, first):
    q1, q2 = ("A", "B") if first else ("B", "A")
    state = _strict(prepare_bell, new_register(("A", "B")), q1, q2, label)
    assert (state is not None) == isinstance(label, BellLabel)
    if state is not None:
        want = BELL_AMPLITUDES[label].reshape(2, 2)
        assert np.array_equal(state.amplitudes.reshape(2, 2), want if first else want.T)


@given(op=st.sampled_from(PauliOp) | st.sampled_from(BellLabel) | _STRAYS, n=st.integers(1, 4))
@example(op=["X"], n=1)
@example(op={"X": 1}, n=2)
@example(op=np.zeros(2), n=3)
def test_apply_pauli_takes_only_pauli_ops(op, n):
    labels = tuple("ABCD"[:n])
    state = _strict(apply_pauli, new_register(labels), op, labels[-1])
    assert (state is not None) == isinstance(op, PauliOp)
    if state is not None:
        flipped = op in (PauliOp.X, PauliOp.XZ)
        assert abs(state.amplitudes[1 if flipped else 0]) == 1.0


@given(approach=st.sampled_from(Approach) | st.sampled_from(BellLabel) | _STRAYS)
@example(approach="restore")
@example(approach=None)
@example(approach=["restore"])
def test_single_channel_drivers_take_only_approaches(approach):
    """A stray approach raises ValueError before a draw is taken."""
    rng = np.random.default_rng(3)
    untouched = rng.bit_generator.state
    spec = InputSpec.explicit(0.6, 0.8)
    reports = _strict(run_single_channel_aqt, [spec], approach, BellLabel.PSI_MINUS, rng)
    assert (reports is not None) == isinstance(approach, Approach)
    if reports is None:
        assert rng.bit_generator.state == untouched
    else:
        assert reports[0].fidelity > 1.0 - 1e-12
    leaks = _strict(pair_interception_analysis, spec, InputSpec.haar(), approach, BellLabel.PSI_MINUS, 0)
    assert (leaks is not None) == isinstance(approach, Approach)


@given(kind=st.sampled_from(GateKind) | st.sampled_from(PauliOp) | _STRAYS, targets=_STRAYS | st.just(("A", "B")))
@example(kind="X", targets=("A",))
@example(kind="CNOT", targets=("A", "B"))
@example(kind=GateKind.HADAMARD, targets=5)
@example(kind=GateKind.CNOT, targets={"A": 0, "B": 1})
def test_gate_takes_only_gate_kinds(kind, targets):
    gate = _strict(Gate, kind, targets)
    if not isinstance(kind, GateKind):
        assert gate is None


@given(gate=st.sampled_from([Gate.h("A"), Gate.cnot("A", "B")]) | st.sampled_from(GateKind) | _STRAYS)
@example(gate="H")
@example(gate=GateKind.HADAMARD)
@example(gate=["H"])
@example(gate=SimpleNamespace(kind=GateKind.HADAMARD, targets=("A",)))
@example(gate=SimpleNamespace(kind="drop", targets="A"))
def test_apply_gate_takes_only_gates(gate):
    state = _strict(apply_gate, new_register(("A", "B")), gate)
    assert (state is not None) == isinstance(gate, Gate)


@given(label=st.sampled_from(["A", "B"]) | _STRAYS)
@example(label=["A"])
@example(label={"A": 0})
@example(label=np.zeros(2))
def test_label_lookups_take_only_register_labels(label):
    """A label outside the register, unhashable ones included, raises ValueError."""
    valid = isinstance(label, str) and label in ("A", "B")
    state = prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PSI_MINUS)
    _, measured = measure_qubit(state, "A", np.random.default_rng(0))
    assert (_strict(measure_qubit, state, label, np.random.default_rng(0)) is not None) == valid
    assert (_strict(drop_qubit, measured, label) is not None) == valid
    assert (_strict(reduced_density, state, [label]) is not None) == valid
    assert (_strict(Custody({"A": Party.ALICE, "B": Party.BOB}).holder, label) is not None) == valid


_DISTRIBUTION = {label: 0.25 for label in BellLabel}


@given(stray=_STRAYS, position=st.integers(0, 1))
@example(stray=None, position=0)
@example(stray=[[1.0, 0.0], [0.0, 0.0]], position=1)
@example(stray=[[1.0, 0.0]], position=0)
@example(stray=np.full((2, 2), np.inf), position=1)
@example(stray=10**400, position=0)
@example(stray={"psi+": 1}, position=1)
@example(stray={BellLabel.PSI_PLUS: "1"}, position=0)
@example(stray="psi+", position=1)
@example(stray={BellLabel.PSI_PLUS: np.ones(2)}, position=0)
@example(stray={BellLabel.PSI_PLUS: math.nan}, position=1)
@example(stray={BellLabel.PHI_MINUS: math.inf}, position=0)
def test_leakage_metrics_take_only_matrices_and_distributions(stray, position):
    """trace_distance takes two square matrices of one shape and finite entries,
    total_variation two mappings from Bell labels to finite numbers (an empty
    one has every label at 0); any other argument in either position raises
    ValueError."""
    cases = (
        (trace_distance, MAXIMALLY_MIXED, isinstance(stray, list) and stray == [[1.0, 0.0], [0.0, 0.0]]),
        (total_variation, _DISTRIBUTION, isinstance(stray, dict) and stray == {}),
    )
    for metric, valid, taken in cases:
        args = [valid, valid]
        args[position] = stray
        assert (_strict(metric, *args) is not None) == taken
    for shape in ((4, 4), (1, 1), (2, 1)):  # (1, 1) would broadcast against (2, 2)
        assert _strict(trace_distance, MAXIMALLY_MIXED, np.ones(shape)) is None


@given(keep=_STRAYS)
@example(keep=[["A"]])
@example(keep=5)
@example(keep=None)
def test_reduced_density_takes_only_label_sequences(keep):
    _strict(reduced_density, new_register(("A", "B")), keep)


@given(alpha=_STRAYS, beta=_STRAYS | st.just(0))
@example(alpha="x", beta=0)
@example(alpha=None, beta=0)
@example(alpha=[1.0], beta=0)
def test_input_spec_takes_only_numbers(alpha, beta):
    _strict(InputSpec, alpha, beta)


@given(alpha=_STRAYS, beta=_STRAYS | st.just(0))
@example(alpha="1", beta=0)
@example(alpha=10**400, beta=0)
@example(alpha=0.6, beta=[0.8])
def test_input_spec_explicit_takes_only_numbers(alpha, beta):
    """A stray amplitude gives a unit spec or ValueError, never complex()'s TypeError;
    explicit and the constructor run the one check, so strings fail both."""
    spec = _strict(InputSpec.explicit, alpha, beta)
    assert spec == _strict(InputSpec, alpha, beta)
    if isinstance(alpha, str) or isinstance(beta, str):
        assert spec is None
    if spec is not None:
        assert _is_unit(*_strict(spec.resolve, None))


@pytest.mark.parametrize(
    "alpha,beta",
    [(1, 0), (True, False), (Fraction(3, 5), Fraction(4, 5)), (Decimal("0.6"), Decimal("0.8")),
     (np.float64(0.6), np.complex128(0.8j)), (np.array(0.6), 0.8)],
    ids=["int", "bool", "Fraction", "Decimal", "numpy scalars", "0-d array"],
)
def test_input_spec_stores_complex_amplitudes(alpha, beta):
    """Every number type complex() takes gives the spec of its complex value."""
    spec = InputSpec(alpha, beta)
    assert type(spec.alpha) is complex and type(spec.beta) is complex
    assert spec == InputSpec.explicit(alpha, beta) == InputSpec(complex(alpha), complex(beta))


class _PartsOnly:
    """Has a real and an imaginary part, but complex() does not take it."""

    real, imag = 1.0, 0.0


@pytest.mark.parametrize(
    "stray",
    [None, [1.0], np.array([1.0]), object(), "1", np.str_("1"),
     np.datetime64("2020"), np.timedelta64(1), _PartsOnly()],
)
def test_input_spec_explicit_names_a_non_number(stray):
    with pytest.raises(ValueError, match=r"^input amplitudes must be scalar numbers, got \(") as info:
        InputSpec.explicit(stray, 0)
    assert repr(stray) in str(info.value)


_NUMPY_AMPLITUDES = (
    st.builds(np.complex128, _COMPLEX)
    | st.builds(np.float64, _PARTS)
    | st.builds(np.array, _COMPLEX)
    | st.builds(np.array, st.lists(_COMPLEX | _PARTS, max_size=3))
    | st.builds(lambda z: np.full((1, 1), z), _COMPLEX)
)


@given(alpha=_NUMPY_AMPLITUDES | _COMPLEX, beta=_NUMPY_AMPLITUDES | _COMPLEX)
@example(alpha=np.array([1.0]), beta=0.0)
@example(alpha=np.array([0.6, 0.8]), beta=0.0)
@example(alpha=0.6, beta=np.array([0.8j]))
@example(alpha=np.array(0.6), beta=np.complex128(0.8j))
@example(alpha=np.float64(1.0), beta=np.array(0j))
def test_input_spec_rejects_arrays_and_takes_numpy_scalars(alpha, beta):
    """An array of any shape but () is rejected up front, naming the input; a
    numpy scalar or 0-d array is taken exactly when its complex value is."""
    if np.ndim(alpha) or np.ndim(beta):
        with pytest.raises(ValueError, match=r"^input amplitudes must be scalar numbers, got \(") as info:
            InputSpec(alpha, beta)
        assert repr(alpha) in str(info.value) and repr(beta) in str(info.value)
        return
    plain = _strict(InputSpec, complex(alpha), complex(beta))
    spec = _strict(InputSpec, alpha, beta)
    assert (spec is None) == (plain is None)
    if spec is not None:
        got, want = _strict(spec.resolve, None), plain.resolve(None)
        assert all(np.ndim(z) == 0 and abs(complex(z) - w) <= 1e-15 for z, w in zip(got, want))


@given(inputs=_STRAYS | st.lists(_STRAYS, min_size=1, max_size=2))
@example(inputs="ab")
@example(inputs=["psi-"])
@example(inputs=5)
def test_single_channel_drivers_take_only_input_specs(inputs):
    reports = _strict(run_single_channel_aqt, inputs, Approach.RESTORE_CHANNEL, BellLabel.PSI_MINUS, np.random.default_rng(3))
    assert reports is None or reports == []


_BITS = st.sampled_from([0, 1])


def _is_bit(x):
    return type(x) is int and x in (0, 1)


@given(d=_BITS | _STRAYS, e=_BITS | _STRAYS)
@example(d=[0], e=1)
@example(d=0, e={"psi-": 0})
@example(d=2, e=0)
def test_syndrome_to_bell_takes_only_bits(d, e):
    label = _strict(syndrome_to_bell, d, e)
    # True and 1.0 hash and compare as 1, so they name a syndrome too.
    try:
        want = SYNDROME_TO_BELL.get((d, e))
    except TypeError:
        want = None
    assert label is want


@given(hi=_BITS | _STRAYS, lo=_BITS | _STRAYS)
@example(hi=True, lo=0)
@example(hi=1.0, lo=0)
@example(hi=0, lo=[1])
def test_two_bit_message_takes_only_int_bits(hi, lo):
    msg = _strict(TwoBitMessage, hi, lo)
    assert (msg is not None) == (_is_bit(hi) and _is_bit(lo))
    if msg is not None:
        assert str(msg) == f"{hi}{lo}"


@given(index=st.integers(-2, 5) | _STRAYS)
@example(index=1.0)
@example(index=True)
@example(index=[1])
def test_message_from_index_takes_only_ints(index):
    msg = _strict(TwoBitMessage.from_index, index)
    assert (msg is not None) == (type(index) is int and 0 <= index < 4)
    if msg is not None:
        assert msg.index == index


@given(label=st.sampled_from(BellLabel) | st.sampled_from(PauliOp) | _STRAYS)
@example(label=["psi-"])
@example(label="psi-")
@example(label=np.zeros(2))
def test_label_to_message_takes_only_bell_labels(label):
    msg = _strict(label_to_message, label)
    assert (msg is not None) == isinstance(label, BellLabel)
    if msg is not None:
        assert message_to_label(msg) is label


@given(msg=st.builds(TwoBitMessage, _BITS, _BITS) | _STRAYS)
@example(msg="01")
@example(msg=(0, 1))
@example(msg=[0, 1])
def test_message_to_label_takes_only_messages(msg):
    label = _strict(message_to_label, msg)
    assert (label is not None) == isinstance(msg, TwoBitMessage)
    if label is not None:
        assert label_to_message(label) == msg


@given(stray=_STRAYS | st.sampled_from(["A", "B", "C", "D", "E"]), position=st.integers(0, 1))
@example(stray=["A"], position=0)
@example(stray=["C"], position=1)
@example(stray={"A": 0}, position=0)
@example(stray=np.zeros(2), position=1)
@example(stray=None, position=0)
def test_qnd_takes_only_register_labels(stray, position):
    """A stray pair member, unhashable ones included, raises ValueError before any draw."""
    state = extend(prepare_bell(new_register(("A", "B")), "A", "B", BellLabel.PSI_MINUS), "C", (0.6, 0.8j))
    q1, q2 = (stray, "C") if position == 0 else ("A", stray)
    other = "C" if position == 0 else "A"
    valid = isinstance(stray, str) and stray in ("A", "B", "C") and stray != other
    rng = np.random.default_rng(3)
    untouched = rng.bit_generator.state
    assert (_strict(qnd_bell_measure, state, q1, q2, rng) is not None) == valid
    if not valid:
        assert rng.bit_generator.state == untouched
    assert (_strict(syndrome_probabilities, state, q1, q2) is not None) == valid
    _strict(apply_qnd_circuit, extend(extend(state, "D"), "E"), q1, q2, "D", "E")
    for d, e in ((stray, "E"), ("D", stray)):
        _strict(apply_qnd_circuit, extend(extend(state, "D"), "E"), "A", "C", d, e)


@given(labels=_STRAYS | st.lists(_STRAYS, max_size=3))
@example(labels=None)
@example(labels=5)
@example(labels=[["A"]])
@example(labels=["A", np.zeros(2)])
def test_new_register_takes_only_label_sequences(labels):
    state = _strict(new_register, labels)
    if state is not None:
        assert state.labels == tuple(labels) and state.amplitudes[0] == 1.0


@pytest.mark.parametrize("label", list(BellLabel))
@pytest.mark.parametrize("q", ["A", "B", "C"])
def test_qnd_of_a_qubit_with_itself_is_rejected_before_any_draw(label, q):
    state = extend(prepare_bell(new_register(("A", "B")), "A", "B", label), "C", (0.6, 0.8j))
    rng = np.random.default_rng(3)
    untouched = rng.bit_generator.state
    assert _strict(qnd_bell_measure, state, q, q, rng) is None
    assert rng.bit_generator.state == untouched
    assert _strict(syndrome_probabilities, state, q, q) is None
    assert _strict(apply_qnd_circuit, extend(extend(state, "D"), "E"), q, q, "D", "E") is None


def _outcome(call, *args):
    """("ok", result) of call(*args), or the type and message of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", call(*args)
        except Exception as exc:  # compared, not swallowed
            return type(exc), str(exc)


def _same(a, b):
    if a[0] != "ok" or b[0] != "ok":
        return a == b
    a, b = a[1], b[1]
    if isinstance(a, tuple):  # (outcome, state) of a measurement
        return a[0] == b[0] and _same(("ok", a[1]), ("ok", b[1]))
    if isinstance(a, StateVector):
        return a.labels == b.labels and np.array_equal(a.amplitudes, b.amplitudes)
    return np.array_equal(a, b)


def _stray_calls(stray, seed):
    """Each primitive with the stray in each argument position, the others valid,
    as functions of the state; measurements get a fresh generator on every call."""

    def rng():
        return np.random.default_rng(seed)

    def fresh_pair(s):
        return extend(extend(s, "P"), "Q")

    return {
        "extend label": lambda s: extend(s, stray),
        "extend amplitudes": lambda s: extend(s, "R", stray),
        "apply_pauli op": lambda s: apply_pauli(s, stray, "B"),
        "apply_pauli target": lambda s: apply_pauli(s, PauliOp.XZ, stray),
        "apply_gate gate": lambda s: apply_gate(s, stray),
        "apply_gate target": lambda s: apply_gate(s, Gate(GateKind.HADAMARD, (stray,))),
        "drop_qubit": lambda s: drop_qubit(s, stray),
        "reduced_density keep": lambda s: reduced_density(s, stray),
        "reduced_density label": lambda s: reduced_density(s, ("B", stray)),
        "prepare_bell qubit": lambda s: prepare_bell(fresh_pair(s), stray, "Q", BellLabel.PHI_PLUS),
        "prepare_bell label": lambda s: prepare_bell(fresh_pair(s), "P", "Q", stray),
        "measure_qubit": lambda s: measure_qubit(s, stray, rng()),
        "qnd_bell_measure q2": lambda s: qnd_bell_measure(fresh_pair(s), "B", stray, rng()),
        "qnd_bell_measure q1": lambda s: qnd_bell_measure(fresh_pair(s), stray, "Q", rng()),
    }


@given(stray=_STRAYS, seed=st.integers(0, 3))
@example(stray=["B"], seed=0)
@example(stray="B", seed=1)
@example(stray=np.zeros(2), seed=2)
@example(stray=None, seed=3)
@example(stray=SimpleNamespace(kind="measure", targets="B"), seed=0)
@example(stray=SimpleNamespace(kind="drop", targets="B"), seed=1)
@example(stray=SimpleNamespace(kind="rho", targets=("B",)), seed=2)
def test_strays_fail_on_a_shared_state_as_on_an_unshared_copy(stray, seed):
    """A shared run tree's memo never changes an error: an unhashable memo key
    would raise TypeError before the primitive's own check, and a stored result
    must never answer a call that fails on an unshared state, nor a call of
    another primitive, such as a gate look-alike whose fields spell a
    measurement's memo key."""
    spec = InputSpec.explicit(0.6, 0.8j)
    for i in range(4):
        report = run_op_baseline(spec, BellLabel.PSI_MINUS, np.random.default_rng(i), run_index=i)
    # A one-qubit final state and a three-qubit node grown from it, both shared.
    shared = extend(report.final_state, "C", (0.6, 0.8))
    shared = apply_gate(extend(shared, "A"), Gate.cnot("C", "A"))
    assert "_memo" in shared.__dict__
    for node in (report.final_state, shared):
        for label in node.labels:  # a memo entry of each kind the node can hold
            _outcome(measure_qubit, node, label, np.random.default_rng(seed))
            _outcome(drop_qubit, node, label)
            _outcome(reduced_density, node, (label,))
        fresh = StateVector(node.labels, node.amplitudes.copy())
        for name, call in _stray_calls(stray, seed).items():
            want = _outcome(call, fresh)
            for _ in range(2):  # the second call meets what the first stored
                assert _same(_outcome(call, node), want), name
