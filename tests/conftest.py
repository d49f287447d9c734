"""Shared pytest plumbing: the acceptance scoreboard and a phase helper.

tests/test_acceptance.py reports one verdict per headline claim through
record(). Whenever those tests were part of the collected run, the terminal
summary ends with one PASS or FAIL line per claim; a claim whose test never
reported (crashed early, deselected) prints as FAIL.

phase_normalized() lets tests compare amplitude vectors up to global phase.

Hypothesis runs derandomized with no example database, so a property test
draws the same examples on every run and tier-1 stays deterministic.
"""

import numpy as np
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("deterministic")

CRITERIA = (
    "corrections: every channel/result cell teleports 25 random inputs exactly",
    "syndromes: circuit branches match the expansion table and the ancilla map",
    "resources: 100 reused-channel runs cost one pair and zero bits; the baseline costs 100 pairs and 200 bits",
    "nondemolition: the receiver rereads the sender's label deterministically and the pair survives",
    "superdense: all four messages ride one qubit with zero classical bits",
    "eavesdropping: interception causes no disturbance and leaks nothing",
    "oracle: engine states match brute-force circuit evolution on 50 seeded runs",
    "uniformity: every Bell result has probability 1/4 on every channel",
)

_results: dict[str, bool] = {}
_acceptance_collected = False


def record(name: str, ok: bool) -> None:
    """Fold a verdict into the scoreboard; repeated reports AND together."""
    if name not in CRITERIA:
        raise KeyError(f"unknown acceptance criterion: {name!r}")
    _results[name] = bool(ok) and _results.get(name, True)


def pytest_collection_modifyitems(items):
    global _acceptance_collected
    if any("test_acceptance" in item.nodeid for item in items):
        _acceptance_collected = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_collected:
        return
    terminalreporter.section("acceptance criteria")
    for name in CRITERIA:
        if name not in _results:
            terminalreporter.write_line(f"FAIL {name} (not evaluated)")
        else:
            terminalreporter.write_line(("PASS " if _results[name] else "FAIL ") + name)


def phase_normalized(amplitudes: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rotate a global phase so the first non-negligible amplitude is real positive."""
    vec = np.asarray(amplitudes, dtype=complex)
    for a in vec:
        if abs(a) > tol:
            return vec * (a.conjugate() / abs(a))
    return vec.copy()
