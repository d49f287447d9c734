"""Correctness gate: decides whether one op's captured report is right.

An op fails when its exit code is not 0, when ``verify`` reports anything but
all of at least 20 invariants holding, when a run report has the wrong shape
or shows leakage above 1e-12, or when an explicit-input ``op``/``dual`` run
disagrees with ``teleportsim.oracle`` replayed on the same (seed, run_index)
generator. The oracle lines up with the engine's draws only for explicit
inputs, so Haar-input ops are covered by the exit code, the shape checks and
the digest pinned at the default seed.

The digest covers only report fields that exist when the pin was taken
(run_index, alice_result, correction, fidelity, channel_after, ledger_delta,
input_amplitudes and the eve runs), so a later change that adds report fields
keeps it, while one that changes a simulated value does not. Floats enter the
digest rounded to 12 decimals, the package's tolerance for exact algebra:
fidelities and leakage figures differ in the last bits between OpenBLAS
kernels (AVX-512 and Haswell builds disagree at 1e-16), which is not a change.
"""
from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from teleportsim import oracle
from teleportsim.core import BellLabel

from .workloads import Op

TOL = 1e-12
DIGEST_DECIMALS = 12
MIN_INVARIANTS = 20
RUN_FIELDS = (
    "run_index",
    "alice_result",
    "correction",
    "fidelity",
    "channel_after",
    "ledger_delta",
    "input_amplitudes",
)
EVE_FIELDS = ("eve_observation", "disturbance", "distinguishability")

_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) invariants hold$", re.MULTILINE)


def _text_fields(rest: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in rest.split(" ") if "=" in tok)


def extract(op: Op, report: str) -> tuple[list[dict], list[dict]]:
    """The digest-relevant fields of every run and every eve run of a report."""
    if op.fmt == "json":
        payload = json.loads(report)
        runs = [{k: r[k] for k in RUN_FIELDS} for r in payload["runs"]]
        eve = [{k: r[k] for k in EVE_FIELDS} for r in payload.get("eve", {}).get("runs", [])]
        return runs, eve
    runs, eve = [], []
    for line in report.splitlines():
        if line.startswith("run "):
            head, rest = line.split(": ", 1)
            f = _text_fields(rest)
            a, b, c, d = f["input"].strip("()").split(",")
            runs.append({
                "run_index": int(head[4:]),
                "alice_result": f["result"],
                "correction": f["correction"],
                "fidelity": float(f["fidelity"]),
                "channel_after": None if f["channel_after"] == "-" else f["channel_after"],
                "input_amplitudes": [[a, b], [c, d]],
            })
        elif line.startswith("eve run "):
            f = _text_fields(line.split(": ", 1)[1])
            eve.append({
                "eve_observation": None if f["observation"] == "-" else f["observation"],
                "disturbance": float(f["disturbance"]),
                "distinguishability": float(f["distinguishability"]),
            })
    return runs, eve


def _rounded(value):
    if isinstance(value, float):
        return round(value, DIGEST_DECIMALS) + 0.0  # + 0.0 folds -0.0 into 0.0
    if isinstance(value, str):
        try:
            return _rounded(float(value))
        except ValueError:
            return value
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def digest(runs: list[dict], eve: list[dict]) -> str:
    canon = json.dumps(_rounded({"runs": runs, "eve": eve}), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def workload_digest(op_digests: list[str]) -> str:
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def _amplitudes(record: dict) -> tuple[complex, complex]:
    (a_re, a_im), (b_re, b_im) = record["input_amplitudes"]
    return complex(float(a_re), float(a_im)), complex(float(b_re), float(b_im))


def oracle_problem(op: Op, runs: list[dict]) -> str | None:
    """Replay an explicit-input op/dual report through the brute-force oracle."""
    replay = {"op": oracle.op_run, "dual": oracle.dual_run}[op.variant]
    channel = BellLabel(op.channel)
    want, got = [], []
    for record in runs:
        alpha, beta = _amplitudes(record)
        rng = np.random.default_rng(np.random.SeedSequence([op.seed, record["run_index"]]))
        vec, label = replay(channel, alpha, beta, rng)
        want.append(label.value)
        got.append(record["alice_result"])
        fid = float(abs(np.vdot(np.array([alpha, beta]), vec)) ** 2)
        if fid < 1.0 - TOL or abs(fid - record["fidelity"]) > TOL:
            return (f"run {record['run_index']}: oracle fidelity {fid!r} vs reported "
                    f"{record['fidelity']!r}")
    if want != got:
        return f"syndrome sequence {got} differs from oracle {want}"
    return None


def _verify_problem(report: str) -> str | None:
    totals = _VERIFY_TOTAL.findall(report)
    if not totals:
        return "verify printed no invariant total"
    held, total = (int(x) for x in totals[-1])
    if held != total or total < MIN_INVARIANTS:
        return f"verify reported {held}/{total} invariants"
    return None


def _shape_problem(op: Op, runs: list[dict], eve: list[dict]) -> str | None:
    want_runs = 0 if op.eve == "qubit" else op.runs
    want_eve = 0 if op.eve == "none" else op.runs
    if len(runs) != want_runs or len(eve) != want_eve:
        return f"report has {len(runs)} runs and {len(eve)} eve runs, want {want_runs} and {want_eve}"
    if [r["run_index"] for r in runs] != list(range(want_runs)):
        return "run indices are not 0..runs-1"
    leak = max((e["distinguishability"] for e in eve), default=0.0)
    if not leak <= TOL:
        return f"eavesdropper distinguishability {leak!r} above {TOL}"
    return None


def check_op(op: Op, exit_code: int, report: str) -> tuple[str | None, str]:
    """(problem or None, digest of the report) for one captured op."""
    if not op.is_run:
        problem = _verify_problem(report)
        if exit_code != 0:
            problem = f"exit code {exit_code}"
        return problem, hashlib.sha256(report.encode()).hexdigest()
    if exit_code != 0:
        return f"exit code {exit_code}", ""
    try:
        runs, eve = extract(op, report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable report: {type(exc).__name__}: {exc}", ""
    problem = _shape_problem(op, runs, eve)
    if problem is None and op.amplitudes is not None and op.eve == "none":
        problem = oracle_problem(op, runs)
    return problem, digest(runs, eve)
