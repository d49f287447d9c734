import contextlib
import io
import json
import math

import pytest

import teleportsim.cli as cli
from conftest import ROOT
from perfbench import gate
from perfbench.workloads import Op, generate, run_op

EXPLICIT = (0.6, 0.0, 0.0, 0.8)


def capture(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(op.argv))
    return code, buf.getvalue()


def explicit_json_op():
    op = run_op("op", 6, "psi+", 9, "json", amplitudes=EXPLICIT)
    code, report = capture(op)
    return op, code, json.loads(report)


@pytest.mark.parametrize("variant", ["op", "dual"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_explicit_reports_pass_the_gate(variant, fmt):
    op = run_op(variant, 6, "phi-", 5, fmt, amplitudes=EXPLICIT)
    problem, digest = gate.check_op(op, *capture(op))
    assert problem is None and len(digest) == 64


def test_gate_rejects_a_tampered_syndrome():
    op, code, payload = explicit_json_op()
    run = payload["runs"][2]
    run["alice_result"] = "phi+" if run["alice_result"] != "phi+" else "psi-"
    problem, _ = gate.check_op(op, code, json.dumps(payload))
    assert problem is not None and "syndrome" in problem


def test_gate_rejects_a_tampered_fidelity():
    op, code, payload = explicit_json_op()
    payload["runs"][0]["fidelity"] -= 1e-9
    problem, _ = gate.check_op(op, code, json.dumps(payload))
    assert problem is not None and "oracle fidelity" in problem


def test_gate_rejects_missing_runs_and_failed_exit():
    op, code, payload = explicit_json_op()
    report = json.dumps(payload)
    assert gate.check_op(op, 1, report)[0] == "exit code 1"
    payload["runs"].pop()
    problem, _ = gate.check_op(op, code, json.dumps(payload))
    assert problem is not None and "report has 5 runs" in problem


def test_gate_rejects_leakage():
    op = run_op("dual", 3, "psi-", 4, "json", eve="qubit")
    code, report = capture(op)
    assert gate.check_op(op, code, report)[0] is None
    payload = json.loads(report)
    payload["eve"]["runs"][1]["distinguishability"] = 1e-6
    problem, _ = gate.check_op(op, code, json.dumps(payload))
    assert problem is not None and "distinguishability" in problem


@pytest.mark.parametrize(
    "report, code, ok",
    [
        ("PASS a: x\n20/20 invariants hold\n", 0, True),
        ("FAIL a: x\n19/20 invariants hold\n", 1, False),
        ("FAIL a: x\n19/20 invariants hold\n", 0, False),
        ("19/19 invariants hold\n", 0, False),
        ("PASS a: x\n", 0, False),
    ],
)
def test_verify_needs_every_one_of_at_least_twenty_invariants(report, code, ok):
    assert (gate.check_op(Op(("verify",)), code, report)[0] is None) is ok


def test_digest_keeps_new_fields_and_last_bit_noise_but_not_values():
    op, _, payload = explicit_json_op()
    base = gate.digest(*gate.extract(op, json.dumps(payload)))
    run = payload["runs"][0]
    run["engine_stats"] = {"gates": 8}
    run["fidelity"] = math.nextafter(run["fidelity"], 0.0)
    assert gate.digest(*gate.extract(op, json.dumps(payload))) == base
    run["input_amplitudes"][0][0] = repr(float(run["input_amplitudes"][0][0]) + 1e-9)
    assert gate.digest(*gate.extract(op, json.dumps(payload))) != base


def test_json_and_text_reports_extract_the_same_runs():
    as_json = run_op("dual", 5, "phi+", 8, "json", amplitudes=EXPLICIT)
    as_text = run_op("dual", 5, "phi+", 8, "text", amplitudes=EXPLICIT)
    runs_json, _ = gate.extract(as_json, capture(as_json)[1])
    runs_text, _ = gate.extract(as_text, capture(as_text)[1])
    for r in runs_json:
        del r["ledger_delta"]
    assert runs_json == runs_text


def test_pinned_digests_match_the_default_seed():
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    for workload, want in pins["workload_digests"].items():
        digests = []
        for op in generate(workload, pins["default_seed"]):
            problem, digest = gate.check_op(op, *capture(op))
            assert problem is None
            digests.append(digest)
        assert gate.workload_digest(digests) == want, workload
