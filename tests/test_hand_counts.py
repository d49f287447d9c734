"""Pinned hand counts: primitive calls per QND measurement and rng draws per run.

Counting wrappers replace every module-level binding of the counted core
primitives across the package, the way a tracer that rebinds public names
sees them. A kernel change that reaches a primitive other than through its
public name, or that adds or drops a call or a draw, changes these counts.
Explicit-input runs that replay a spec's shared run tree make the same calls
and draws as unshared runs; only the arithmetic behind a repeated call is
skipped.
"""

import functools
import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest

import teleportsim
from teleportsim import bell, core
from teleportsim.adversary import PairObserver, message_interception_report
from teleportsim.core import BellLabel, new_register, prepare_bell
from teleportsim.protocol import (
    Approach,
    InputSpec,
    _start,
    run_op_baseline,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

COUNTED = ("apply_gate", "extend", "measure_qubit", "drop_qubit")
QND_CALLS = {"apply_gate": 8, "extend": 2, "measure_qubit": 2, "drop_qubit": 2}
RUNS = 3


class CountingRng:
    """A generator stand-in that counts the scalar draws the protocols make."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._rng.random()

    def uniform(self, low, high):
        self.draws += 1
        return self._rng.uniform(low, high)


@pytest.fixture
def calls(monkeypatch):
    """Counter of calls to the COUNTED primitives through any module's binding."""
    counts = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {name: getattr(core, name) for name in COUNTED}
    modules = [teleportsim] + [
        importlib.import_module(f"teleportsim.{info.name}") for info in pkgutil.iter_modules(teleportsim.__path__)
    ]
    for name, fn in originals.items():
        wrapper = counting(name, fn)
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


@pytest.mark.parametrize("label", list(BellLabel))
def test_qnd_measurement_call_counts(calls, label):
    state = prepare_bell(new_register(("A", "B")), "A", "B", label)
    assert not calls  # the direct Bell write calls no gate
    got, _ = bell.qnd_bell_measure(state, "A", "B", np.random.default_rng(5))
    assert got is label
    assert calls == QND_CALLS


@pytest.mark.parametrize("label", list(BellLabel))
def test_qnd_measurement_call_counts_on_a_shared_tree(calls, label):
    # Repeated QNDs on one node of a shared tree: from the second on, every
    # call is a memo hit, and each is still made through its public name.
    root = _start(InputSpec.explicit(0.6, 0.8j), ("A", "B"))
    state = core.extend(prepare_bell(root, "A", "B", label), "C", (0.6, 0.8j))
    calls.clear()
    rng = CountingRng(29)
    for k in range(1, 13):
        bell.qnd_bell_measure(state, "A", "C", rng)
        assert calls == {name: k * n for name, n in QND_CALLS.items()}
        assert rng.draws == 2 * k


def _op(channel, rng):
    for i in range(RUNS):
        run_op_baseline(InputSpec.haar(), channel, rng, run_index=i)


def _dual(channel, rng):
    for i in range(RUNS):
        run_two_channel_aqt(InputSpec.haar(), channel, rng, run_index=i)


def _dual_eve_qubit(channel, rng):
    for i in range(RUNS):
        message_interception_report(InputSpec.haar(), channel, rng, i)


def _single(approach, eve):
    def run(channel, rng):
        interceptor = PairObserver() if eve else None
        run_single_channel_aqt([InputSpec.haar()] * RUNS, approach, channel, rng, pair_interceptor=interceptor)

    return run


# Rng draws per Haar-input run: one per measurement plus two for the input.
DRAWS_PER_RUN = {
    "op": (_op, 6),
    "dual": (_dual, 8),
    "single-i": (_single(Approach.RESTORE_CHANNEL, False), 6),
    "single-ii": (_single(Approach.TRACK_CHANNEL, False), 6),
    "single-i.eve-pair": (_single(Approach.RESTORE_CHANNEL, True), 8),
    "single-ii.eve-pair": (_single(Approach.TRACK_CHANNEL, True), 8),
    "dual.eve-qubit": (_dual_eve_qubit, 6),
}


@pytest.mark.parametrize("channel", list(BellLabel))
@pytest.mark.parametrize("case", list(DRAWS_PER_RUN))
def test_draws_per_haar_run(calls, case, channel):
    run, per_run = DRAWS_PER_RUN[case]
    rng = CountingRng(17)
    run(channel, rng)
    assert rng.draws == per_run * RUNS
    assert calls["measure_qubit"] == (per_run - 2) * RUNS


# Rng draws per explicit-input run: one per measurement. The runs share one
# spec, so after the first they replay its run tree.
EXPLICIT_RUNS = 12
DRAWS_PER_EXPLICIT_RUN = {
    "op": (run_op_baseline, 4),
    "dual": (run_two_channel_aqt, 6),
    "dual.eve-qubit": (message_interception_report, 4),
}


@pytest.mark.parametrize("channel", list(BellLabel))
@pytest.mark.parametrize("case", list(DRAWS_PER_EXPLICIT_RUN))
def test_draws_and_calls_per_explicit_run(calls, case, channel):
    run, per_run = DRAWS_PER_EXPLICIT_RUN[case]
    for i in range(EXPLICIT_RUNS):  # a fresh spec per run: nothing is replayed
        run(InputSpec.explicit(0.6, 0.8j), channel, CountingRng(i), run_index=i)
    unshared = Counter(calls)
    calls.clear()
    spec = InputSpec.explicit(0.6, 0.8j)
    rng = CountingRng(17)
    for i in range(EXPLICIT_RUNS):
        run(spec, channel, rng, run_index=i)
    assert rng.draws == per_run * EXPLICIT_RUNS
    assert calls["measure_qubit"] == per_run * EXPLICIT_RUNS
    assert calls == unshared


@pytest.mark.parametrize("label", list(BellLabel))
def test_repeated_measurement_takes_one_draw_and_one_call_each(calls, label):
    # Measuring one state object again reuses its probability and branches,
    # never its draw: K measurements are K calls and K draws.
    state = prepare_bell(new_register(("A", "B")), "A", "B", label)
    rng = CountingRng(23)
    k = 50
    outcomes = {core.measure_qubit(state, "A", rng)[0] for _ in range(k)}
    assert outcomes == {0, 1}
    assert rng.draws == k
    assert calls["measure_qubit"] == k
