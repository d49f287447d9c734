"""Bit-exactness of the core kernels against the tensordot formulation.

The reference functions below are the earlier bodies of the core primitives:
dense 2x2 matrices contracted with np.tensordot/np.moveaxis, np.kron for
extend, np.take plus index lists for measurement and dropping, and the
H/CNOT/Z/X gate sequence for preparing a Bell pair. The kernels must return
amplitudes equal under np.array_equal (which equates signed zeros), so every
seeded report stays byte-identical.

old_drop_qubit is drop_qubit as it was before measurements recorded their
targets: the basis-state search in its old order, then eigh. Dropping a
recorded qubit, and the rho-first decision on an unrecorded one, must equal it
byte for byte, sign bits and NaN included.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teleportsim.core import (
    NORM_TOL,
    PROB_CLAMP,
    BellLabel,
    GateKind,
    PauliOp,
    StateVector,
    _shared,
    apply_gate,
    apply_pauli,
    drop_qubit,
    extend,
    measure_qubit,
    new_register,
    prepare_bell,
    reduced_density,
    relabel,
)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = {PauliOp.I: np.eye(2, dtype=complex), PauliOp.Z: _Z, PauliOp.X: _X, PauliOp.XZ: _X @ _Z}

QUBIT_COUNTS = range(1, 8)
SEEDS = st.integers(0, 2**32 - 1)
REPEATS = 8  # measurements of one state object per target


def ref_apply_gate(state, kind, *targets):
    arr = state.tensor()
    if kind is GateKind.CNOT:
        c = state.axis(targets[0])
        t = state.axis(targets[1])
        out = arr.copy()
        i10 = [slice(None)] * state.n_qubits
        i11 = [slice(None)] * state.n_qubits
        i10[c], i10[t] = 1, 0
        i11[c], i11[t] = 1, 1
        out[tuple(i10)] = arr[tuple(i11)]
        out[tuple(i11)] = arr[tuple(i10)]
    else:
        k = state.axis(targets[0])
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


class LeadDraws:
    """A seeded generator stand-in whose first 2 * width draws are fixed: width
    times 0.0, which gives outcome 1, then width times the largest double below
    1, which gives outcome 0, whenever the clamped P(1) lies strictly between 0
    and 1. So the first two rounds over width targets reach both branches of
    each target. draws counts the draws taken."""

    def __init__(self, seed, width):
        self._lead = [0.0] * width + [float(np.nextafter(1.0, 0.0))] * width
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._lead.pop(0) if self._lead else self._rng.random()


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


def old_drop_qubit(state, label):
    if state.n_qubits == 1:
        raise ValueError("cannot drop the last qubit of a register")
    k = state.axis(label)
    view = state.amplitudes.reshape(2**k, 2, -1)
    labels = state.labels[:k] + state.labels[k + 1 :]
    for bit in (0, 1):
        other = view[:, 1 - bit]
        if not other.any() or (np.abs(other) ** 2).sum() < NORM_TOL**2:
            rest = view[:, bit].reshape(-1)
            break
    else:
        psi = view.transpose(1, 0, 2).reshape(2, -1)
        evals, evecs = np.linalg.eigh(psi @ psi.conj().T)
        if evals[-1] < 1.0 - 1e-9:
            raise ValueError(f"qubit {label!r} is still entangled (purity {evals[-1]:.6f})")
        rest = np.dot(view.transpose(0, 2, 1).reshape(-1, 2), evecs[:, -1].conj().reshape(2, 1)).reshape(-1)
    flat = rest.reshape(-1)
    return StateVector(labels, rest / np.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag)))


def ref_prepare_bell(state, q1, q2, label):
    out = apply_gate(state, GateKind.HADAMARD, q1)
    out = apply_gate(out, GateKind.CNOT, q1, q2)  # now phi+
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
        want = ref_apply_gate(state, GateKind.HADAMARD, label)
        assert np.array_equal(apply_gate(state, GateKind.HADAMARD, label).amplitudes, want)


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, sparse=st.booleans())
def test_cnot_matches_reference_on_every_ordered_pair(n, seed, sparse):
    state = random_state(n, seed, sparse)
    for control in state.labels:
        for target in state.labels:
            if control != target:
                want = ref_apply_gate(state, GateKind.CNOT, control, target)
                assert np.array_equal(apply_gate(state, GateKind.CNOT, control, target).amplitudes, want)


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


def assert_repeated_measurements_match_reference(state, draw_seed):
    """REPEATS rounds over every target of one state object, each call against a
    fresh reference call on an equally seeded draw stream; returns the outcomes
    seen per target, "ValueError" standing for a degenerate branch.

    Every call takes one draw and returns read-only amplitudes. On a node of a
    shared run tree each (target, outcome) returns one branch object, itself a
    node. An unshared state returns a new branch on every call, and keeps no
    memo and nothing else in its __dict__."""
    shared = state._memo is not None
    before = set(state.__dict__)
    rng, ref_rng = LeadDraws(draw_seed, state.n_qubits), LeadDraws(draw_seed, state.n_qubits)
    seen = {label: [] for label in state.labels}
    returned = {}  # (target, outcome) -> every branch returned for it
    for _ in range(REPEATS):
        for label in state.labels:
            got = outcome_or_error(measure_qubit, state, label, rng)
            want = outcome_or_error(ref_measure_qubit, state, label, ref_rng)
            assert rng.draws == ref_rng.draws
            if isinstance(want, str):
                assert got == want
                seen[label].append(want)
                continue
            assert got[0] == want[0]
            assert got[1].labels == state.labels
            assert np.array_equal(got[1].amplitudes, want[1])
            assert not got[1].amplitudes.flags.writeable
            assert (got[1]._memo is not None) == shared
            returned.setdefault((label, got[0]), []).append(got[1])
            seen[label].append(want[0])
    assert rng.random() == ref_rng.random()
    for branches in returned.values():
        assert len({id(b) for b in branches}) == (1 if shared else len(branches))
    assert set(state.__dict__) == before
    assert (state._memo is not None) == shared
    return seen


SHARING = pytest.mark.parametrize("share", [lambda s: s, _shared], ids=["unshared", "shared"])


@SHARING
@pytest.mark.parametrize("n", QUBIT_COUNTS)
@given(seed=SEEDS, sparse=st.booleans(), draw_seed=SEEDS)
def test_repeated_measurement_of_one_state_matches_fresh_reference_calls(share, n, seed, sparse, draw_seed):
    # Targets are interleaved, so a memo entry shared between targets would show.
    state = share(random_state(n, seed, sparse))
    seen = assert_repeated_measurements_match_reference(state, draw_seed)
    for label, outcomes in seen.items():
        p1 = ref_p1(state, label)
        if PROB_CLAMP <= p1 <= 1.0 - PROB_CLAMP:
            assert set(outcomes) == {0, 1}


@SHARING
@pytest.mark.parametrize("n", QUBIT_COUNTS)
@given(seed=SEEDS, draw_seed=SEEDS)
def test_degenerate_branch_raises_on_every_call_that_draws_it(share, n, seed, draw_seed):
    # Qubit k holds all the mass in |1> and the register's norm is 1/sqrt(2), so
    # P(1) is about 1/2 and outcome 0 has nothing to renormalize.
    for k in range(n):
        view = random_state(n, seed, False).amplitudes.reshape(2**k, 2, -1).copy()
        view[:, 0] = 0.0
        view /= np.linalg.norm(view) * np.sqrt(2.0)
        state = share(StateVector(labels_for(n), view.reshape(-1)))
        outcomes = assert_repeated_measurements_match_reference(state, draw_seed)[state.labels[k]]
        assert set(outcomes) == {"ValueError", 1}


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, sparse=st.booleans())
def test_measurement_branches_are_per_target_and_per_instance(n, seed, sparse):
    """A node of a shared run tree keeps one branch per target and outcome; a
    renamed or replaced register starts without the node's memo."""
    state = _shared(random_state(n, seed, sparse))
    branches = {label: measure_qubit(state, label, FixedDraw(0.0))[1] for label in state.labels}
    assert len({id(b) for b in branches.values()}) == n
    for label in state.labels:
        assert measure_qubit(state, label, FixedDraw(0.0))[1] is branches[label]
    renamed = relabel(state, state.labels[0], "r")
    assert renamed._memo is None
    _, got = measure_qubit(renamed, "r", FixedDraw(0.0))
    _, want = ref_measure_qubit(renamed, "r", FixedDraw(0.0))
    assert got is not branches[state.labels[0]] and np.array_equal(got.amplitudes, want)
    assert measure_qubit(renamed, "r", FixedDraw(0.0))[1] is not got
    with pytest.raises(ValueError, match="unknown"):
        measure_qubit(renamed, state.labels[0], FixedDraw(0.0))
    other = dataclasses.replace(state, amplitudes=random_state(n, seed + 1, sparse).amplitudes)
    assert other._memo is None
    for label in state.labels:
        got = outcome_or_error(measure_qubit, other, label, FixedDraw(0.0))
        want = outcome_or_error(ref_measure_qubit, other, label, FixedDraw(0.0))
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0] and np.array_equal(got[1].amplitudes, want[1])


def signed_zeros(amps, rng):
    """amps with every zero part given a random sign."""
    amps = amps.copy()
    for part in (amps.real, amps.imag):
        zero = part == 0.0
        part[zero] = np.where(rng.random(amps.shape) < 0.5, -0.0, 0.0)[zero]
    return amps


def drop_bits(drop, state, label):
    """drop(state, label) as comparable bytes, or the type and message of what it
    raised; numpy's warnings are silenced so that NaN results compare too."""
    with np.errstate(all="ignore"):
        try:
            out = drop(state, label)
        except (ValueError, np.linalg.LinAlgError) as exc:
            return type(exc), str(exc)
    return out.labels, out.amplitudes.tobytes()


def assert_drop_matches_old(state, label):
    assert drop_bits(drop_qubit, state, label) == drop_bits(old_drop_qubit, state, label)


def assert_records_hold(state):
    """Every recorded qubit sits in its recorded bit with an exactly zero other
    half, and dropping it equals the old search byte for byte."""
    for label, bit in (state._basis or {}).items():
        view = state.amplitudes.reshape(2 ** state.labels.index(label), 2, -1)
        assert not view[:, 1 - bit].any()
        if len(state.labels) > 1:
            assert_drop_matches_old(state, label)


# One step of a walk: measure the qubit at an index, or drop the recorded qubit at an index.
STEPS = st.lists(st.tuples(st.sampled_from(["measure", "drop"]), st.integers(0, 6)), min_size=1, max_size=10)


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, sparse=st.booleans(), draw_seed=SEEDS, steps=STEPS)
def test_recorded_drops_match_old_drop(n, seed, sparse, draw_seed, steps):
    """Along a random walk of measurements and drops, every recorded qubit of
    every state sits in its recorded bit with an exactly zero other half, and
    dropping it equals the old search byte for byte."""
    rng = np.random.default_rng(draw_seed)
    state = StateVector(labels_for(n), signed_zeros(random_amplitudes(2**n, rng, sparse), rng))
    want = {}
    for kind, i in steps:
        if kind == "measure":
            label = state.labels[i % len(state.labels)]
            try:
                outcome, state = measure_qubit(state, label, rng)
            except ValueError:
                return
            want[label] = outcome
        elif want and len(state.labels) > 1:
            label = sorted(want)[i % len(want)]
            assert_drop_matches_old(state, label)
            state = drop_qubit(state, label)
            del want[label]
        assert (state._basis or {}) == want
        assert_records_hold(state)


@pytest.mark.parametrize("n", QUBIT_COUNTS)
def test_new_registers_record_every_qubit_in_zero(n):
    state = new_register(labels_for(n))
    assert state._basis == dict.fromkeys(state.labels, 0)
    assert_records_hold(state)


def bell_bits(state, q1, q2, label):
    """prepare_bell's result as comparable bytes, or the type and message of what it raised."""
    try:
        out = prepare_bell(state, q1, q2, label)
    except ValueError as exc:
        return type(exc), str(exc)
    return out.labels, out.amplitudes.tobytes()


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, sparse=st.booleans(), draws=st.lists(st.sampled_from([0.0, 0.5, 0.99]), min_size=3, max_size=3))
def test_prepare_bell_on_records_matches_the_scan(n, seed, sparse, draws):
    """On two qubits recorded by measurements, prepare_bell returns the bytes its
    scan gives on an unrecorded copy, or raises the scan's ValueError when one
    sits in |1>. It hands on the other qubits' records, which hold."""
    state = random_state(n, seed, sparse)
    for label, draw in zip(state.labels, draws):
        try:
            _, state = measure_qubit(state, label, FixedDraw(draw))
        except ValueError:
            return
    fresh = StateVector(state.labels, state.amplitudes.copy())
    q1, q2 = state.labels[:2]
    for a, b in ((q1, q2), (q2, q1)):
        for label in BellLabel:
            got = bell_bits(state, a, b, label)
            assert got == bell_bits(fresh, a, b, label)
            if got[0] is not ValueError:
                out = prepare_bell(state, a, b, label)
                assert (out._basis or {}) == {q: bit for q, bit in state._basis.items() if q not in (a, b)}
                assert_records_hold(out)


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(
    seed=SEEDS,
    residue=st.floats(1e-25, 4e-24) | st.sampled_from(["zeros", "nan", "nan in the full half"]),
)
def test_rho_first_decision_matches_old_check_order(n, seed, residue):
    """An unrecorded qubit in a basis state plus residue whose mass straddles
    NORM_TOL**2 and 2 * NORM_TOL**2, signed zeros or NaN: the drop decides as
    the old check order did and returns the same bytes."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        state = product_state(n, k, seed, collapsed=True)
        view = state.amplitudes.reshape(2**k, 2, -1).copy()
        empty = 0 if np.abs(view[:, 0]).sum() == 0 else 1
        if residue == "zeros":
            view = signed_zeros(view, rng)
        elif residue == "nan":
            view[:, empty].flat[rng.integers(view[:, empty].size)] = complex(math.nan, 0.0)
        elif residue == "nan in the full half":
            view[:, 1 - empty].flat[rng.integers(view[:, empty].size)] = complex(0.0, math.nan)
        else:
            part = random_amplitudes(view[:, empty].size, rng, False).reshape(2**k, -1)
            view[:, empty] = part * math.sqrt(residue)
        state = StateVector(state.labels, view.reshape(-1))
        assert state._basis is None
        assert_drop_matches_old(state, state.labels[k])


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:4])
@given(seed=SEEDS, sparse=st.booleans())
def test_only_registers_measurements_drops_and_recorded_pairs_make_records(n, seed, sparse):
    """Every other primitive returns a state without records, even from a
    recorded one: its amplitudes no longer keep the recorded zeros. So does
    prepare_bell on a pair it had to scan, since a passing scan bounds the rest
    only to NORM_TOL, even when other qubits have records."""
    state = random_state(n, seed, sparse)
    for label in state.labels:
        try:
            _, state = measure_qubit(state, label, FixedDraw(0.5))
        except ValueError:
            return
    assert state._basis is not None and len(state._basis) == n
    q = state.labels[0]
    results = [apply_gate(state, GateKind.HADAMARD, q), extend(state, "new"), extend(state, "new", (0.6, 0.8j))]
    results += [apply_pauli(state, op, q) for op in PauliOp]
    results += [relabel(state, q, "renamed"), dataclasses.replace(state)]
    results += [dataclasses.replace(state, amplitudes=state.amplitudes.copy())]
    results += [prepare_bell(extend(extend(state, "P"), "Q"), "P", "Q", label) for label in BellLabel]
    # P, R and S recorded, Q not: the pair is scanned.
    pair = StateVector(("P", "Q", "R", "S"), np.eye(16, dtype=complex)[0])
    for label in ("P", "R", "S"):
        _, pair = measure_qubit(pair, label, FixedDraw(0.5))
    assert pair._basis == {"P": 0, "R": 0, "S": 0}
    results += [prepare_bell(pair, "P", "Q", label) for label in BellLabel]
    if n > 1:
        results += [apply_gate(state, GateKind.CNOT, q, state.labels[1])]
    for out in results:
        assert out._basis is None and "_basis" not in out.__dict__


@pytest.mark.parametrize("n", QUBIT_COUNTS[1:])
@given(seed=SEEDS, bad=st.sampled_from([1e200, math.inf, math.nan]))
def test_branches_with_a_non_finite_norm_record_nothing(n, seed, bad):
    """A branch divided by an infinite or NaN norm may not keep its zeros zero,
    so it records nothing, and dropping from it is the old search."""
    amps = random_amplitudes(2**n, np.random.default_rng(seed), False) * 1e200
    amps[seed % 2**n] = bad
    state = StateVector(labels_for(n), amps)
    for label in state.labels:
        for draw in (0.0, 0.99):
            with np.errstate(all="ignore"):
                try:
                    _, branch = measure_qubit(state, label, FixedDraw(draw))
                except ValueError:
                    continue
            assert branch._basis is None
            assert_drop_matches_old(branch, label)
