"""Explicit-input runs share one run tree per spec, variant and channel.

The shared runs must be indistinguishable from unshared ones: every report
field, every final state bit for bit and every generator's next draw equal
those of the same run on a fresh ``InputSpec.explicit``, and every primitive
called on a shared state equals the same call on an unshared copy. The tree
must stay bounded by the measurement paths and be freed with its spec.

A single-channel stream of one explicit input shares the registers it
revisits. It must equal the same stream run without sharing in every
report, final state, Eve pair state, next draw and primitive call count,
and its revisit table must stop at its cap.
"""

import cmath
import gc
import math
import weakref
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_hand_counts import calls  # noqa: F401  (the fixture that counts primitive calls)

from teleportsim import protocol
from teleportsim.adversary import PairObserver, message_interception_report
from teleportsim.core import (
    BellLabel,
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
from teleportsim.protocol import (
    Approach,
    InputSpec,
    Ledger,
    Variant,
    run_op_baseline,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

CASES = {
    "op": run_op_baseline,
    "dual": run_two_channel_aqt,
    "dual.eve-qubit": message_interception_report,
}
# Each parameter runs its cases in turn on one spec; the last mixes variants on one tree.
PLANS = [("op",), ("dual",), ("dual.eve-qubit",), ("op", "dual.eve-qubit", "dual")]

_S = 1.0 / math.sqrt(2.0)
# Basis states, signed zeros in every part, and equal superpositions.
_SPECIAL = [
    (1.0, 0.0),
    (0.0, 1.0),
    (-1.0, -0.0),
    (complex(-0.0, -0.0), complex(0.0, -1.0)),
    (complex(0.0, -0.0), complex(-0.0, 1.0)),
    (_S, _S),
    (_S, complex(-0.0, -_S)),
    (complex(-_S, 0.0), complex(_S, -0.0)),
    (0.6, 0.8j),
]


@st.composite
def _unit_pairs(draw):
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    return complex(math.cos(theta / 2)), math.sin(theta / 2) * cmath.exp(1j * phi)


_INPUTS = st.sampled_from(_SPECIAL) | _unit_pairs()
# Inputs equal under == that differ in the sign of a zero part.
_ZERO_SIGNS = [(1.0, 0.0), (1.0, -0.0), (complex(1.0, -0.0), 0.0), (1.0, complex(-0.0, -0.0))]


def _rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


@pytest.mark.parametrize("channel", list(BellLabel))
@pytest.mark.parametrize("plan", PLANS, ids="+".join)
@given(pair=_INPUTS, runs=st.integers(1, 30), seed=st.integers(0, 2**64 - 1))
def test_shared_tree_runs_equal_unshared_runs(plan, channel, pair, runs, seed):
    shared = InputSpec.explicit(*pair)
    ledgers = Ledger(), Ledger()
    for i in range(runs):
        run = CASES[plan[i % len(plan)]]
        rngs = _rng(seed, i), _rng(seed, i)
        got = run(shared, channel, rngs[0], run_index=i, ledger=ledgers[0])
        want = run(InputSpec.explicit(*pair), channel, rngs[1], run_index=i, ledger=ledgers[1])
        # repr shows every field, signed zeros included; final_state is compared below.
        assert repr(got) == repr(want)
        assert got == want
        if plan[i % len(plan)] != "dual.eve-qubit":
            a, b = got.final_state, want.final_state
            assert a.labels == b.labels
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
            assert not a.amplitudes.flags.writeable  # shared with other runs
        assert rngs[0].random() == rngs[1].random()
    assert ledgers[0] == ledgers[1]
    variants = {Variant.OP if plan[i % len(plan)] == "op" else Variant.TWO_CHANNEL for i in range(runs)}
    assert set(shared.__dict__["_roots"]) == {(v, channel) for v in variants}


def _branches(node):
    """The measured branches memoized on a node: entries [P(1), view, branch 0, branch 1]."""
    return [b for e in node._memo.values() if isinstance(e, list) for b in e[2:] if b is not None]


def _nodes(root):
    """Every state of a run tree: the memoized results, measured branches included."""
    seen = {}
    stack = [root]
    while stack:
        s = stack.pop()
        if id(s) not in seen:
            seen[id(s)] = s
            stack += [v for v in s._memo.values() if isinstance(v, StateVector)] + _branches(s)
    return list(seen.values())


# States of one tree once every measurement path was taken. op: the empty
# register, the pair, the input, two ancillas and 8 gates (13); the two
# ancilla measurements (2 + 4) and drops (4 + 4); then on each of the 8 paths
# A and C measured and dropped and B corrected (8 x 5). dual adds the message
# pair before the measurements (14), encodes where op corrects, and on each
# path adds decoding's 2 gates, 2 measurements, 2 drops and B's correction
# (8 x 7).
TREE_STATES = {Variant.OP: 13 + 14 + 8 * 5, Variant.TWO_CHANNEL: 14 + 14 + 8 * 5 + 8 * 7}


@pytest.mark.parametrize("channel", list(BellLabel))
def test_run_tree_is_bounded_and_freed_with_its_spec(channel):
    spec = InputSpec.explicit(0.6, 0.8j)
    counts = []
    for block in range(2):
        for i in range(150 * block, 150 * (block + 1)):
            for run in CASES.values():
                run(spec, channel, _rng(5, i), run_index=i)
        roots = spec.__dict__["_roots"]
        assert set(roots) == {(Variant.OP, channel), (Variant.TWO_CHANNEL, channel)}
        counts.append({key[0]: len(_nodes(root)) for key, root in roots.items()})
    assert counts == [TREE_STATES, TREE_STATES]
    for root in roots.values():
        assert all(not s.amplitudes.flags.writeable for s in _nodes(root))
    refs = [weakref.ref(s) for root in roots.values() for s in _nodes(root)]
    del spec, roots, root
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("channel", list(BellLabel))
def test_recorded_drops_on_a_tree_are_memoized_and_equal_unshared_drops(channel):
    """Every measured branch of a full tree records its targets. Dropping a
    recorded qubit from a tree node returns one memoized node, equal byte for
    byte to dropping it from an unshared, unrecorded copy."""
    spec = InputSpec.explicit(0.6, 0.8j)
    for i in range(150):
        for run in CASES.values():
            run(spec, channel, _rng(5, i), run_index=i)
    roots = spec.__dict__["_roots"]
    assert {key[0]: len(_nodes(root)) for key, root in roots.items()} == TREE_STATES
    recorded = [s for root in roots.values() for s in _nodes(root) if s._basis]
    branches = [b for root in roots.values() for s in _nodes(root) for b in _branches(s)]
    assert branches and all(b._basis for b in branches)
    for node in recorded:
        fresh = StateVector(node.labels, node.amplitudes.copy())
        for label in node._basis:
            got = drop_qubit(node, label)
            assert drop_qubit(node, label) is got
            want = drop_qubit(fresh, label)
            assert got.labels == want.labels
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert not got.amplitudes.flags.writeable


def _register_keys(reports):
    """The revisit key of each run's final register: its labels and amplitude bytes."""
    return [(r.final_state.labels, r.final_state.amplitudes.tobytes()) for r in reports]


def test_haar_inputs_and_fresh_specs_share_nothing_and_explicit_streams_share_their_revisits():
    haar = InputSpec.haar()
    a = run_op_baseline(haar, BellLabel.PSI_MINUS, _rng(1, 0))
    assert "_roots" not in haar.__dict__
    assert "_memo" not in a.final_state.__dict__
    # A Haar stream never repeats a register, so it shares nothing.
    reports = run_single_channel_aqt([haar] * 40, Approach.RESTORE_CHANNEL, BellLabel.PSI_MINUS, _rng(1, 0))
    assert not any("_memo" in r.final_state.__dict__ for r in reports)
    # An explicit stream shares exactly the registers it revisits, from the
    # second sight on, as one read-only node.
    spec = InputSpec.explicit(0.6, 0.8)
    reports = run_single_channel_aqt([spec] * 18, Approach.RESTORE_CHANNEL, BellLabel.PSI_MINUS, _rng(1, 0))
    assert "_roots" not in spec.__dict__
    keys = _register_keys(reports)
    assert len(set(keys)) < len(keys)
    nodes = {}
    for i, (key, r) in enumerate(zip(keys, reports)):
        assert ("_memo" in r.final_state.__dict__) == (key in keys[:i])
        if key in keys[:i]:
            assert nodes.setdefault(key, r.final_state) is r.final_state
            assert not r.final_state.amplitudes.flags.writeable
    # Trees live on the instance: equal specs do not share one.
    b = run_op_baseline(InputSpec.explicit(0.6, 0.8), BellLabel.PSI_MINUS, _rng(1, 0))
    c = run_op_baseline(InputSpec.explicit(0.6, 0.8), BellLabel.PSI_MINUS, _rng(1, 0))
    assert b.final_state is not c.final_state
    assert np.array_equal(b.final_state.amplitudes, c.final_state.amplitudes)


class _Unshared:
    """Resolves as an explicit InputSpec does, but is none, so a stream of it
    never revisits a shared register: the reference for shared streams."""

    def __init__(self, spec):
        self._spec = spec

    def resolve(self, rng):
        return self._spec.resolve(rng)


def _stream(spec, approach, channel, seed, runs, eve):
    observer = PairObserver() if eve else None
    rng = _rng(seed, 0)
    reports = run_single_channel_aqt([spec] * runs, approach, channel, rng, Ledger(), observer)
    return reports, observer, rng.random()


@pytest.mark.parametrize("channel", list(BellLabel))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pair=_INPUTS | st.sampled_from(_ZERO_SIGNS),
    approach=st.sampled_from(Approach),
    eve=st.booleans(),
    runs=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)
def test_explicit_streams_equal_unshared_streams(calls, channel, pair, approach, eve, runs, seed):
    """A stream of one explicit input, which continues from shared registers
    where it revisits them, equals the unshared stream bit for bit: reports,
    final states, Eve's pair states, the next draw and every primitive call."""
    calls.clear()
    want = _stream(_Unshared(InputSpec.explicit(*pair)), approach, channel, seed, runs, eve)
    unshared = Counter(calls)
    calls.clear()
    got = _stream(InputSpec.explicit(*pair), approach, channel, seed, runs, eve)
    assert calls == unshared
    assert not any("_memo" in r.final_state.__dict__ for r in want[0])
    assert [repr(r) for r in got[0]] == [repr(r) for r in want[0]]
    assert _register_keys(got[0]) == _register_keys(want[0])
    if eve:
        assert got[1].labels == want[1].labels
        assert [rho.tobytes() for rho in got[1].pair_states] == [rho.tobytes() for rho in want[1].pair_states]
    assert got[2] == want[2]


def test_haar_streams_skip_the_revisit_table(monkeypatch):
    """A Haar register never repeats, so a Haar stream neither keys its
    registers nor keeps a table."""
    looked_up = []
    monkeypatch.setattr(protocol, "_revisit", lambda seen, state: looked_up.append(state) or state)
    for approach in Approach:
        run_single_channel_aqt([InputSpec.haar()] * 20, approach, BellLabel.PSI_MINUS, _rng(2, 0))
    assert looked_up == []


def test_a_long_generic_stream_shares_only_revisits_and_keeps_at_most_the_cap(monkeypatch):
    """A generic input's registers do not repeat, so a 2000-run stream shares
    nothing, and its revisit table stops growing at _STREAM_KEYS."""
    sizes = []

    def spy(seen, state):
        out = revisit(seen, state)
        sizes.append(len(seen))
        return out

    revisit = protocol._revisit
    monkeypatch.setattr(protocol, "_revisit", spy)
    spec = InputSpec.explicit(math.cos(0.3), math.sin(0.3) * cmath.exp(0.7j))
    reports = run_single_channel_aqt([spec] * 2000, Approach.TRACK_CHANNEL, BellLabel.PSI_MINUS, _rng(7, 0))
    assert len(set(_register_keys(reports))) == 2000
    assert not any("_memo" in r.final_state.__dict__ for r in reports)
    assert sizes == [min(i + 1, protocol._STREAM_KEYS) for i in range(2000)]


def _result(call, state):
    try:
        return "ok", call(state)
    except ValueError as exc:
        return ValueError, str(exc)


def _bits(result):
    """A result as comparable bytes: labels and amplitude bytes, signed zeros included."""
    kind, value = result
    if kind != "ok":
        return result
    if isinstance(value, tuple):  # (outcome, state) of a measurement
        return value[0], _bits(("ok", value[1]))
    if isinstance(value, StateVector):
        return value.labels, value.amplitudes.tobytes()
    return value.tobytes()


def _every_call(labels, rng):
    """Each primitive over every argument it takes on this register, amplitudes
    that differ only in signed zeros included."""
    calls = [lambda s, op=op, q=q: apply_pauli(s, op, q) for op in PauliOp for q in labels]
    calls += [lambda s, q=q: apply_gate(s, GateKind.HADAMARD, q) for q in labels]
    calls += [lambda s, c=c, t=t: apply_gate(s, GateKind.CNOT, c, t) for c in labels for t in labels if c != t]
    calls += [lambda s, q=q: drop_qubit(s, q) for q in labels]
    calls += [lambda s, q=q: measure_qubit(s, q, rng(q)) for q in labels]
    calls += [lambda s, keep=keep: reduced_density(s, keep) for keep in permutations(labels, 2)]
    calls += [lambda s, amps=amps: extend(s, "Z", amps) for amps in _SPECIAL + _ZERO_SIGNS]
    calls += [lambda s: extend(s, "Z")]
    calls += [
        lambda s, q=q, label=label: prepare_bell(extend(extend(s, "P"), "Q"), *q, label)
        for q in (("P", "Q"), ("Q", "P"))
        for label in BellLabel
    ]
    return calls


@given(pair=_INPUTS, seed=st.integers(0, 2**32 - 1))
def test_memo_tells_every_argument_apart(pair, seed):
    """Every call on a shared state, made twice, equals the same call on an
    unshared copy bit for bit: no memo key leaves out an argument or equates
    0.0 with -0.0."""
    spec = InputSpec.explicit(*pair)
    report = run_op_baseline(spec, BellLabel.PSI_MINUS, _rng(seed, 0))
    node = extend(extend(report.final_state, "C", (0.6, 0.8j)), "A", (_S, complex(-0.0, _S)))
    node = apply_gate(node, GateKind.CNOT, "C", "A")
    assert "_memo" in node.__dict__
    fresh = StateVector(node.labels, node.amplitudes.copy())

    def rng(q):
        return _rng(seed, ord(q))

    for _ in range(2):
        for call in _every_call(node.labels, rng):
            assert _bits(_result(call, node)) == _bits(_result(call, fresh))
