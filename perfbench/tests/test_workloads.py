import subprocess
import sys
from collections import Counter

import pytest

from perfbench.workloads import WORKLOADS, generate
from conftest import ROOT

RUN_WORKLOADS = [w for w in WORKLOADS if w != "verify"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_a_pure_function_of_the_seed(workload):
    assert generate(workload, 7) == generate(workload, 7)


def test_generation_does_not_depend_on_the_process():
    code = "from perfbench.workloads import generate; print(repr(generate('independent-short', 11)))"
    outs = {
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                       env={"PYTHONHASHSEED": hashseed}, check=True).stdout
        for hashseed in ("1", "2")
    }
    assert outs == {repr(generate("independent-short", 11)) + "\n"}


@pytest.mark.parametrize("workload", RUN_WORKLOADS)
def test_seed_changes_inputs_but_not_the_amount_of_work(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert a != b

    def shape(ops):
        return Counter((op.variant, op.eve, op.fmt, op.amplitudes is None) for op in ops), sum(op.runs for op in ops)

    assert shape(a) == shape(b)


def test_verify_ignores_the_seed():
    assert generate("verify", 1) == generate("verify", 2)


def test_workload_shapes_match_their_purpose():
    stream = generate("single-stream", 3)
    assert sorted(op.channel for op in stream) == ["phi+", "phi-", "psi+", "psi-"]
    assert all(op.runs >= 1000 and op.amplitudes is None and op.fmt == "json" for op in stream)
    short = generate("independent-short", 3)
    assert {op.variant for op in short} == {"op", "dual"} and len(short) >= 100
    assert {op.fmt for op in short} == {"json", "text"}
    basis = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
    assert any(op.amplitudes is None for op in short)
    assert any(op.amplitudes in basis for op in short)
    assert any(op.amplitudes not in (None, *basis) for op in short)
    eaves = generate("eavesdrop", 3)
    assert {(op.variant, op.eve) for op in eaves} == {
        ("single-i", "pair"), ("single-ii", "pair"), ("dual", "qubit")
    }


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        generate("nope", 0)
