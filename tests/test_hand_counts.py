"""Pinned hand counts: primitive calls per QND measurement and rng draws per run.

Counting wrappers replace every module-level binding of the counted core
primitives across the package, the way a tracer that rebinds public names
sees them. A kernel change that reaches a primitive other than through its
public name, or that adds or drops a call or a draw, changes these counts.
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
