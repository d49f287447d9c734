"""Seeded reports reproduce the benchmark's pinned digests.

README promises byte-identical reports on one machine and numpy build, and
agreement to 12 decimals across CPUs. This test recomputes the seed-0 digests
of three benchmark workloads, which round every float to 12 decimals, and
compares them with ``perfbench/pins.json``. ``single-stream`` runs four
1000-run Haar ``single-i``/``single-ii`` streams, the paper's single-channel
protocol; ``independent-short`` runs ``op`` and ``dual``; ``eavesdrop`` runs
``single-i`` and ``single-ii`` under ``--eve pair`` and ``dual`` under
``--eve qubit``. All are generated, gated and digested by
``perfbench.workloads`` and ``perfbench.gate``, imported read-only as
tests/test_perfbench_bindings.py does.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import gate, workloads  # noqa: E402
from teleportsim import cli  # noqa: E402

PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())


@pytest.mark.parametrize("workload", ["single-stream", "independent-short", "eavesdrop"])
def test_default_seed_reports_match_pinned_digest(workload):
    digests = []
    for op in workloads.generate(workload, PINS["default_seed"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        problem, digest = gate.check_op(op, code, out.getvalue())
        assert problem is None, f"{' '.join(op.argv)}: {problem}"
        digests.append(digest)
    assert gate.workload_digest(digests) == PINS["workload_digests"][workload]
