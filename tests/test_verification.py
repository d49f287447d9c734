"""Every invariant in ``verification.CHECKS`` as its own pytest case.

The test id is the check's label, so ``pytest -k oracle-equivalence`` runs the
same code as the matching ``teleportsim verify`` line. A new invariant is one
more entry in ``CHECKS``; it needs no test of its own here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from teleportsim.verification import CHECKS

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[label for label, _ in CHECKS])
def test_invariant(check):
    ok, detail = check()
    assert ok, detail


# Under ``python -O`` an ``assert`` vanishes, so a wrongly labelled snapshot
# must still fail the check through an explicit comparison.
_MISLABELLED_BASELINE = """
import dataclasses, sys
from teleportsim import verification
from teleportsim.core import relabel

run = verification.run_op_baseline

def mislabelled(*args, **kwargs):
    report = run(*args, **kwargs)
    return dataclasses.replace(report, final_state=relabel(report.final_state, "B", "Q"))

verification.run_op_baseline = mislabelled
print(sys.flags.optimize, verification.check_oracle_equivalence()[0])
"""


def test_oracle_check_rejects_wrong_snapshot_labels_under_optimize():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _MISLABELLED_BASELINE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
    ).stdout
    assert out == "1 False\n"
