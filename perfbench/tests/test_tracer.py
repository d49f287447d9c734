import contextlib
import io

import teleportsim
from teleportsim import bell, cli, core, protocol, verification
from perfbench import layers
from perfbench.tracer import Tracer
from perfbench.workloads import run_op


def traced(ops):
    tracer = Tracer(teleportsim)
    tracer.install()
    try:
        assert tracer.stray(installed=True) == []
        for index, op in enumerate(ops):
            tracer.op = index
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(op.argv)) == 0
            tracer.op = None
    finally:
        tracer.uninstall()
    assert tracer.stray(installed=False) == []
    return tracer.take()


def test_install_rebinds_every_copy_and_uninstall_restores_them():
    original = core.apply_gate
    resolve = protocol.InputSpec.resolve
    tracer = Tracer(teleportsim)
    tracer.install()
    try:
        assert tracer.stray(installed=True) == []
        assert bell.apply_gate is core.apply_gate is teleportsim.apply_gate is not original
        assert all(fn in tracer.originals.values() for _, fn in verification.CHECKS)
        assert protocol.InputSpec.resolve is tracer.originals[resolve]
    finally:
        tracer.uninstall()
    assert tracer.stray(installed=False) == []
    assert bell.apply_gate is core.apply_gate is teleportsim.apply_gate is original
    assert protocol.InputSpec.resolve is resolve
    assert all(fn not in tracer.originals.values() for _, fn in verification.CHECKS)


def test_restricted_tracer_wraps_only_the_named_functions():
    tracer = Tracer(teleportsim, only=layers.RUN_FUNCTIONS)
    assert sorted(w.span_name for w in tracer.originals.values()) == sorted(layers.RUN_FUNCTIONS)


def test_hand_counts_hold_on_every_variant():
    ops = [
        run_op("op", 3, "psi-", 1, "json"),
        run_op("op", 2, "phi-", 6, "text", amplitudes=(0.6, 0.0, 0.0, 0.8)),
        run_op("dual", 3, "phi+", 2, "text"),
        run_op("single-i", 4, "psi+", 3, "json"),
        run_op("single-ii", 4, "phi-", 4, "text", eve="pair"),
        run_op("dual", 2, "psi-", 5, "json", eve="qubit"),
    ]
    values, problems = layers.compute(traced(ops), ops, [1] * len(ops), {})
    assert problems == {}
    assert values["core.peak_live_qubits"] == 7
    assert values["protocol.draws_per_run.op"] == (3 * 6 + 2 * 4) / 5
    assert values["protocol.draws_per_run.dual"] == 8
    assert values["protocol.draws_per_run.single-i"] == 6
    assert values["protocol.draws_per_run.dual.eve-qubit"] == 6
    assert values["bell.qnd_bell_measure.calls_per_run"] > 0


def test_hand_count_violations_are_reported(monkeypatch):
    ops = [run_op("op", 2, "psi-", 1, "json")]
    spans = traced(ops)
    monkeypatch.setitem(layers.HAAR_DRAWS, "op", 7)
    monkeypatch.setitem(layers.QND_CHILDREN, "core.apply_gate", 9)
    monkeypatch.setattr(layers, "MAX_LIVE_QUBITS", 4)
    _, problems = layers.compute(spans, ops, [1], {})
    text = " ".join(problems[0])
    assert "QND measurement" in text
    assert "op: 4 measurements and 1 input resolves in 1 runs" in text
    assert "live qubits" in text


def test_metric_list_covers_every_check():
    assert list(layers.CHECK_LABELS) == [label for label, _ in verification.CHECKS]


def test_every_metric_is_reported():
    ops = [run_op("op", 2, "psi-", 1, "json")]
    values, _ = layers.compute(traced(ops), ops, [1], {})
    names = [name for name, _ in layers.metric_names()]
    assert sorted(values) == sorted(n for n in names if n != "trace.overhead_s")
    assert len(set(names)) == len(names) <= 128
