"""Bit-exactness of the core kernels against the tensordot formulation.

The reference functions below are the earlier bodies of the core primitives:
dense 2x2 matrices contracted with np.tensordot/np.moveaxis, np.kron for
extend, np.take plus index lists for measurement and dropping, and the
H/CNOT/Z/X gate sequence for preparing a Bell pair. The kernels must return
amplitudes equal under np.array_equal (which equates signed zeros), so every
seeded report stays byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teleportsim.core import (
    NORM_TOL,
    PROB_CLAMP,
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
    prepare_bell,
    reduced_density,
)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = {PauliOp.I: np.eye(2, dtype=complex), PauliOp.Z: _Z, PauliOp.X: _X, PauliOp.XZ: _X @ _Z}

QUBIT_COUNTS = range(1, 8)
SEEDS = st.integers(0, 2**32 - 1)


def ref_apply_gate(state, gate):
    arr = state.tensor()
    if gate.kind is GateKind.CNOT:
        c = state.axis(gate.targets[0])
        t = state.axis(gate.targets[1])
        out = arr.copy()
        i10 = [slice(None)] * state.n_qubits
        i11 = [slice(None)] * state.n_qubits
        i10[c], i10[t] = 1, 0
        i11[c], i11[t] = 1, 1
        out[tuple(i10)] = arr[tuple(i11)]
        out[tuple(i11)] = arr[tuple(i10)]
    else:
        k = state.axis(gate.targets[0])
        out = np.moveaxis(np.tensordot(arr, _H, axes=([k], [1])), -1, k)
    return out.reshape(-1)


def ref_apply_pauli(state, op, target):
    k = state.axis(target)
    out = np.moveaxis(np.tensordot(state.tensor(), _PAULIS[op], axes=([k], [1])), -1, k)
    return out.reshape(-1)


def ref_extend(state, amplitudes):
    vec = np.asarray(amplitudes, dtype=complex)
    return np.kron(state.amplitudes, vec / np.linalg.norm(vec))


def ref_p1(state, target):
    k = state.axis(target)
    return float(np.sum(np.abs(state.tensor().take(1, axis=k)) ** 2))


def ref_measure_qubit(state, target, rng):
    k = state.axis(target)
    arr = state.tensor()
    p1 = ref_p1(state, target)
    p1_eff = 1.0 if p1 > 1.0 - PROB_CLAMP else (0.0 if p1 < PROB_CLAMP else p1)
    outcome = 1 if rng.random() < p1_eff else 0
    out = arr.copy()
    idx = [slice(None)] * state.n_qubits
    idx[k] = 1 - outcome
    out[tuple(idx)] = 0.0
    nrm = np.linalg.norm(out)
    if nrm < NORM_TOL:
        raise ValueError("degenerate")
    return outcome, out.reshape(-1) / nrm


class FixedDraw:
    """A generator stand-in whose next uniform draw is a chosen double."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def ref_drop_qubit(state, label):
    k = state.axis(label)
    arr = state.tensor()
    for bit in (0, 1):
        if np.sum(np.abs(arr.take(1 - bit, axis=k)) ** 2) < NORM_TOL**2:
            rest = arr.take(bit, axis=k).reshape(-1)
            return rest / np.linalg.norm(rest)
    rho = reduced_density(state, (label,))
    evals, evecs = np.linalg.eigh(rho)
    if evals[-1] < 1.0 - 1e-9:
        raise ValueError("entangled")
    rest = np.tensordot(arr, evecs[:, -1].conj(), axes=([k], [0])).reshape(-1)
    return rest / np.linalg.norm(rest)


def ref_prepare_bell(state, q1, q2, label):
    out = apply_gate(state, Gate.h(q1))
    out = apply_gate(out, Gate.cnot(q1, q2))  # now phi+
    if label in (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS):
        out = apply_pauli(out, PauliOp.Z, q1)
    if label in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS):
        out = apply_pauli(out, PauliOp.X, q2)
    return out.amplitudes


def labels_for(n):
    return tuple(f"q{i}" for i in range(n))


def random_amplitudes(size, rng, sparse):
    """Normalized complex vector; sparse ones have about half their entries exactly 0."""
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    if sparse:
        amps[rng.random(size) < 0.5] = 0.0
        amps[rng.integers(size)] = rng.normal() + 1j * rng.normal()
    return amps / np.linalg.norm(amps)


def random_state(n, seed, sparse):
    return StateVector(labels_for(n), random_amplitudes(2**n, np.random.default_rng(seed), sparse))


def product_state(n, k, seed, collapsed):
    """n >= 2 qubits with qubit k unentangled: a basis state if collapsed, else random."""
    rng = np.random.default_rng(seed)
    qubit = np.eye(2, dtype=complex)[rng.integers(2)] if collapsed else random_amplitudes(2, rng, False)
    rest = random_amplitudes(2 ** (n - 1), rng, False).reshape(2**k, 1, -1)
    amps = (rest * qubit.reshape(1, 2, 1)).reshape(-1)
    return StateVector(labels_for(n), amps)


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", QUBIT_COUNTS)
@given(seed=SEEDS, sparse=st.booleans())
def test_single_qubit_gates_match_reference(n, seed, sparse):
    state = random_state(n, seed, sparse)
    # H is the one single-qubit gate; test_paulis_match_reference covers X and Z.
    for label in state.labels:
        gate = Gate.h(label)
        assert np.array_equal(apply_gate(state, gate).amplitudes, ref_apply_gate(state, gate))


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, sparse=st.booleans())
def test_cnot_matches_reference_on_every_ordered_pair(n, seed, sparse):
    state = random_state(n, seed, sparse)
    for control in state.labels:
        for target in state.labels:
            if control != target:
                gate = Gate.cnot(control, target)
                assert np.array_equal(apply_gate(state, gate).amplitudes, ref_apply_gate(state, gate))


@pytest.mark.parametrize("n", QUBIT_COUNTS)
@given(seed=SEEDS, sparse=st.booleans())
def test_paulis_match_reference(n, seed, sparse):
    state = random_state(n, seed, sparse)
    for label in state.labels:
        for op in PauliOp:
            out = apply_pauli(state, op, label)
            assert out.labels == state.labels
            assert np.array_equal(out.amplitudes, ref_apply_pauli(state, op, label))


@pytest.mark.parametrize("n", QUBIT_COUNTS[:-1])
@given(seed=SEEDS, sparse=st.booleans(), basis=st.booleans())
def test_extend_matches_reference(n, seed, sparse, basis):
    state = random_state(n, seed, sparse)
    rng = np.random.default_rng(seed + 1)
    qubit = (1.0, 0.0) if basis else tuple(random_amplitudes(2, rng, False))
    out = extend(state, "new", qubit)
    assert out.labels == state.labels + ("new",)
    assert np.array_equal(out.amplitudes, ref_extend(state, qubit))


@pytest.mark.parametrize("n", QUBIT_COUNTS)
@given(seed=SEEDS, sparse=st.booleans(), draw_seed=SEEDS)
def test_measure_matches_reference_draw_for_draw(n, seed, sparse, draw_seed):
    state = random_state(n, seed, sparse)
    for label in state.labels:
        rng, ref_rng = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        got = outcome_or_error(measure_qubit, state, label, rng)
        want = outcome_or_error(ref_measure_qubit, state, label, ref_rng)
        if isinstance(want, str):
            assert got == want
            continue
        assert got[0] == want[0]
        assert got[1].labels == state.labels
        assert np.array_equal(got[1].amplitudes, want[1])
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n", QUBIT_COUNTS)
@given(seed=SEEDS, sparse=st.booleans())
def test_measure_threshold_is_the_reference_probability(n, seed, sparse):
    # Outcome 1 iff draw < P(1): a draw equal to the reference P(1) must give 0 and
    # the next double below it must give 1, so P(1) agrees to the last bit.
    state = random_state(n, seed, sparse)
    for label in state.labels:
        p1 = ref_p1(state, label)
        if not PROB_CLAMP <= p1 <= 1.0 - PROB_CLAMP:
            continue
        assert measure_qubit(state, label, FixedDraw(p1))[0] == 0
        assert measure_qubit(state, label, FixedDraw(np.nextafter(p1, 0.0)))[0] == 1


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, collapsed=st.booleans(), entangled=st.booleans())
def test_drop_matches_reference(n, seed, collapsed, entangled):
    for k in range(n):
        state = random_state(n, seed, False) if entangled else product_state(n, k, seed, collapsed)
        label = state.labels[k]
        got = outcome_or_error(lambda: drop_qubit(state, label).amplitudes)
        want = outcome_or_error(ref_drop_qubit, state, label)
        assert_same(got, want)


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, sparse=st.booleans())
def test_prepare_bell_matches_gate_sequence(n, seed, sparse):
    # Qubits p1 < p2 are fresh |0>; the other n - 2 carry random amplitudes.
    others = random_amplitudes(2 ** (n - 2), np.random.default_rng(seed), sparse)
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            amps = np.zeros((2**p1, 2, 2 ** (p2 - p1 - 1), 2, 2 ** (n - 1 - p2)), dtype=complex)
            amps[:, 0, :, 0, :] = others.reshape(2**p1, 2 ** (p2 - p1 - 1), -1)
            state = StateVector(labels_for(n), amps.reshape(-1))
            for q1, q2 in ((state.labels[p1], state.labels[p2]), (state.labels[p2], state.labels[p1])):
                for label in BellLabel:
                    out = prepare_bell(state, q1, q2, label)
                    assert out.labels == state.labels
                    assert np.array_equal(out.amplitudes, ref_prepare_bell(state, q1, q2, label))


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, scale=st.sampled_from([0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-11]))
def test_drop_near_basis_state_matches_reference(n, seed, scale):
    # A collapsed qubit plus residue of the given size in the other branch: below
    # the fast path's mass threshold, at it and above it, where eigh takes over.
    rng = np.random.default_rng(seed)
    for k in range(n):
        state = product_state(n, k, seed, collapsed=True)
        view = state.amplitudes.reshape(2**k, 2, -1).copy()
        empty = 0 if np.abs(view[:, 0]).sum() == 0 else 1
        view[:, empty] = scale * random_amplitudes(view[:, empty].size, rng, False).reshape(2**k, -1)
        state = StateVector(state.labels, view.reshape(-1))
        got = outcome_or_error(lambda: drop_qubit(state, state.labels[k]).amplitudes)
        assert_same(got, outcome_or_error(ref_drop_qubit, state, state.labels[k]))
