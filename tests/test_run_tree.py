"""Each explicit input keeps one table of the registers its runs share.

The table holds one run-tree root per register labels, which the channels
branch off at prepare_bell, and the registers the spec's single-channel
streams revisit. Shared runs must be indistinguishable from unshared ones:
every report field, every final state bit for bit, every Eve pair state,
every primitive call count and every generator's next draw equal those of
the same call without sharing, and every primitive called on a shared state
equals the same call on an unshared copy. Each channel's subtree must stay
bounded by the measurement paths, the table must stop recording at its cap,
and everything must be freed with its spec. An explicit ``--eve pair``
analysis replays its printed stream from the nodes that stream made.
"""

import cmath
import dataclasses
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

from teleportsim import adversary, cli, core, protocol
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
# Each parameter runs its cases in turn on one spec; the last mixes variants on one table.
PLANS = [("op",), ("dual",), ("dual.eve-qubit",), ("op", "dual.eve-qubit", "dual")]
# The key of each variant's root in a spec's table: the labels of its empty register.
ROOTS = {Variant.OP: ("A", "B"), Variant.TWO_CHANNEL: ("A", "B", "MA", "MB")}
_FIELDS = {f.name for f in dataclasses.fields(InputSpec)}

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
    table = protocol._registers(shared)
    assert set(table) == {ROOTS[v] for v in variants}
    assert all(set(root._memo) == {("bell", "A", "B", channel)} for root in table.values())


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


def _play(spec, channel, runs):
    for i in runs:
        for run in CASES.values():
            run(spec, channel, _rng(5, i), run_index=i)


@pytest.mark.parametrize("channel", list(BellLabel))
def test_run_tree_is_bounded_and_freed_with_its_spec(channel):
    spec = InputSpec.explicit(0.6, 0.8j)
    counts = []
    for block in range(2):
        _play(spec, channel, range(150 * block, 150 * (block + 1)))
        table = protocol._registers(spec)
        assert set(table) == set(ROOTS.values())
        counts.append({v: len(_nodes(table[labels])) for v, labels in ROOTS.items()})
    assert counts == [TREE_STATES, TREE_STATES]
    # The other channels branch off the same roots, each into a full subtree of its own.
    for other in BellLabel:
        _play(spec, other, range(150))
    assert set(table) == set(ROOTS.values())
    for v, labels in ROOTS.items():
        root = table[labels]
        assert set(root._memo) == {("bell", "A", "B", label) for label in BellLabel}
        for label in BellLabel:
            assert 1 + len(_nodes(root._memo["bell", "A", "B", label])) == TREE_STATES[v]
        assert len(_nodes(root)) == 1 + 4 * (TREE_STATES[v] - 1)
        assert all(not s.amplitudes.flags.writeable for s in _nodes(root))
    refs = [weakref.ref(s) for root in table.values() for s in _nodes(root)]
    del spec, table, root
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("channel", list(BellLabel))
def test_recorded_drops_on_a_tree_are_memoized_and_equal_unshared_drops(channel):
    """Every measured branch of a full tree records its targets. Dropping a
    recorded qubit from a tree node returns one memoized node, equal byte for
    byte to dropping it from an unshared, unrecorded copy."""
    spec = InputSpec.explicit(0.6, 0.8j)
    _play(spec, channel, range(150))
    roots = protocol._registers(spec)
    assert {v: len(_nodes(roots[labels])) for v, labels in ROOTS.items()} == TREE_STATES
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
    assert protocol._registers(haar) is None
    assert vars(haar).keys() == _FIELDS  # no table under any name
    assert "_memo" not in a.final_state.__dict__
    # A Haar stream never repeats a register, so it shares nothing.
    reports = run_single_channel_aqt([haar] * 40, Approach.RESTORE_CHANNEL, BellLabel.PSI_MINUS, _rng(1, 0))
    assert vars(haar).keys() == _FIELDS
    assert not any("_memo" in r.final_state.__dict__ for r in reports)
    # An explicit stream shares exactly the registers it revisits, from the
    # second sight on, as one read-only node, and its table holds their keys
    # and no root.
    spec = InputSpec.explicit(0.6, 0.8)
    reports = run_single_channel_aqt([spec] * 18, Approach.RESTORE_CHANNEL, BellLabel.PSI_MINUS, _rng(1, 0))
    keys = _register_keys(reports)
    assert len(set(keys)) < len(keys)
    table = protocol._registers(spec)
    assert set(table) == set(keys)
    for i, (key, r) in enumerate(zip(keys, reports)):
        assert ("_memo" in r.final_state.__dict__) == (key in keys[:i])
        if key in keys[:i]:
            assert table[key] is r.final_state
            assert not r.final_state.amplitudes.flags.writeable
    assert all((table[key] is None) == (keys.count(key) == 1) for key in keys)
    # Tables live on the instance: equal specs do not share one.
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
    found = []
    registers = protocol._registers
    monkeypatch.setattr(protocol, "_registers", lambda spec: found.append(registers(spec)) or found[-1])
    nodes = []
    for approach in Approach:
        haar = InputSpec.haar()
        reports = run_single_channel_aqt([haar] * 20, approach, BellLabel.PSI_MINUS, _rng(2, 0))
        assert vars(haar).keys() == _FIELDS
        nodes += [r.final_state for r in reports if "_memo" in r.final_state.__dict__]
    assert found == [None] * 40
    assert nodes == []


def test_a_long_generic_stream_shares_only_revisits_and_keeps_at_most_the_cap(monkeypatch):
    """A generic input's registers do not repeat, so a 2000-run stream shares
    nothing, and its spec's table stops growing at _STREAM_KEYS."""
    sizes = []

    def spy(spec, state):
        out = revisit(spec, state)
        sizes.append(len(protocol._registers(spec)))
        return out

    revisit = protocol._revisit
    monkeypatch.setattr(protocol, "_revisit", spy)
    spec = InputSpec.explicit(math.cos(0.3), math.sin(0.3) * cmath.exp(0.7j))
    reports = run_single_channel_aqt([spec] * 2000, Approach.TRACK_CHANNEL, BellLabel.PSI_MINUS, _rng(7, 0))
    assert len(set(_register_keys(reports))) == 2000
    assert not any("_memo" in r.final_state.__dict__ for r in reports)
    assert sizes == [min(i + 1, protocol._STREAM_KEYS) for i in range(2000)]
    # A root is made on first use, past the cap too: runs never lose their tree.
    run_op_baseline(spec, BellLabel.PSI_MINUS, _rng(7, 1))
    assert len(protocol._registers(spec)) == protocol._STREAM_KEYS + 1
    assert "_memo" in protocol._registers(spec)[ROOTS[Variant.OP]].__dict__


_STREAMS = {"single-i": Approach.RESTORE_CHANNEL, "single-ii": Approach.TRACK_CHANNEL}
# A plan of calls on one spec: (case, channel, seed, runs, Eve on a stream).
_PLANS = st.lists(
    st.tuples(
        st.sampled_from([*CASES, *_STREAMS]),
        st.sampled_from(BellLabel),
        st.integers(0, 2**64 - 1),
        st.integers(1, 12),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


def _drive(case, spec, channel, seed, runs, eve):
    """One call of a plan as comparable values: report reprs, final-register
    keys, Eve's labels and pair-state bytes, and each generator's next draw."""
    if case in _STREAMS:
        reports, observer, draw = _stream(spec, _STREAMS[case], channel, seed, runs, eve)
        seen = observer and (observer.labels, [rho.tobytes() for rho in observer.pair_states])
        return [repr(r) for r in reports], _register_keys(reports), seen, [draw]
    rngs = [_rng(seed, i) for i in range(runs)]
    reports = [CASES[case](spec, channel, rng, run_index=i) for i, rng in enumerate(rngs)]
    finals = [] if case == "dual.eve-qubit" else _register_keys(reports)
    return [repr(r) for r in reports], finals, None, [rng.random() for rng in rngs]


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=_INPUTS | st.sampled_from(_ZERO_SIGNS), plan=_PLANS)
def test_one_table_serves_every_variant_channel_and_stream_of_a_spec(calls, pair, plan):
    """One explicit spec drives op, dual and dual --eve qubit runs and single-i
    and single-ii streams, with and without Eve, across channels and seeds,
    all on its one table. Each call equals the same call without sharing bit
    for bit: reports, final states, Eve's records, primitive call counts and
    the next draws."""
    shared = InputSpec.explicit(*pair)
    for case, channel, seed, runs, eve in plan:
        calls.clear()
        want = _drive(case, _Unshared(InputSpec.explicit(*pair)), channel, seed, runs, eve)
        unshared = Counter(calls)
        calls.clear()
        got = _drive(case, shared, channel, seed, runs, eve)
        assert calls == unshared
        assert got == want
    table = protocol._registers(shared)
    independent = {Variant.OP if case == "op" else Variant.TWO_CHANNEL for case, *_ in plan if case in CASES}
    assert {key for key in table if key in ROOTS.values()} == {ROOTS[v] for v in independent}
    assert all(node is None or not node.amplitudes.flags.writeable for node in table.values())


def test_an_explicit_pair_analysis_replays_its_printed_stream_from_its_nodes(monkeypatch):
    """An explicit --eve pair experiment prints a stream of its spec, then the
    analysis replays that spec under the same seed (replay "a") and a |0>
    reference (replay "b"). Replay "a" continues from the nodes the printed
    stream made, so it stores fewer than half as many new memo results."""
    stored = []
    share = core._shared
    monkeypatch.setattr(core, "_shared", lambda node: stored.append(node) or share(node))
    streams = []
    stream = protocol.run_single_channel_aqt

    def counted(inputs, *args, **kwargs):
        before = len(stored)
        reports = stream(inputs, *args, **kwargs)
        streams.append((inputs[0], len(stored) - before, reports))
        return reports

    monkeypatch.setattr(cli, "run_single_channel_aqt", counted)
    monkeypatch.setattr(adversary, "run_single_channel_aqt", counted)
    for variant in (Variant.SINGLE_CHANNEL_RESTORE, Variant.SINGLE_CHANNEL_TRACK):
        for channel in (BellLabel.PSI_MINUS, BellLabel.PHI_PLUS):
            streams.clear()
            spec = InputSpec.explicit(0.6, 0.8)
            cli.run_experiment(cli.ExperimentConfig(variant, 80, channel, spec, 0, cli.EveMode.PAIR))
            (printed_spec, printed, reports), (a_spec, replay_a, replayed), (b_spec, _, _) = streams
            assert printed_spec is a_spec is spec and b_spec is not spec
            assert [repr(r) for r in replayed] == [repr(r) for r in reports]
            assert 2 * replay_a < printed, (variant, channel, printed, replay_a)


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
