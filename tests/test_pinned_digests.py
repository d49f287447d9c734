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

The same digests must come out under a second family of BLAS kernels. A child
process runs this file as a script with ``OPENBLAS_CORETYPE=Sandybridge``,
the kernels OpenBLAS picks on x86 CPUs without AVX2. The variable must be set
before numpy loads, and it selects kernels only in an OpenBLAS built with
runtime dispatch (``DYNAMIC_ARCH``), so elsewhere that test skips.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import gate, workloads  # noqa: E402
from teleportsim import cli  # noqa: E402

PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())
WORKLOADS = ("single-stream", "independent-short", "eavesdrop")


def workload_digest(workload: str) -> str:
    """The gated digest of every report of the workload at the default seed."""
    digests = []
    for op in workloads.generate(workload, PINS["default_seed"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        problem, digest = gate.check_op(op, code, out.getvalue())
        assert problem is None, f"{' '.join(op.argv)}: {problem}"
        digests.append(digest)
    return gate.workload_digest(digests)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_reports_match_pinned_digest(workload):
    assert workload_digest(workload) == PINS["workload_digests"][workload]


def _runtime_dispatch() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _runtime_dispatch(), reason="numpy's BLAS is not an OpenBLAS with DYNAMIC_ARCH")
def test_pinned_digests_hold_under_sandybridge_kernels():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {w: PINS["workload_digests"][w] for w in WORKLOADS}


if __name__ == "__main__":
    print(json.dumps({w: workload_digest(w) for w in WORKLOADS}))
