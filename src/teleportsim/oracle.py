"""Brute-force reference evolution used to cross-check the protocol engine.

Everything here works on flat numpy arrays with full kron-built operator
matrices and its own transcription of every lookup table. It deliberately
shares nothing with the engine modules except the enum identities, so a bug
in either route cannot cancel in the comparison. Conventions mirror the
engine by definition: qubit position 0 is the most significant index bit,
ancillas and delivered qubits append at the end, and a measurement consumes
one uniform draw with outcome 1 iff the draw falls below P(1) (clamped to
{0, 1} within 1e-12).

Every constant operator (a lifted H or Pauli, a CNOT matrix, a bit mask) is
built on first use, once per operator and register size, and kept read-only.
The arithmetic is unchanged: every product, measurement and slice takes the
same operands in the same order as when each gate built its own matrix.
"""
from __future__ import annotations

import functools

import numpy as np

from .core import BellLabel, PauliOp
from .protocol import Approach

_SQ2 = 1.0 / np.sqrt(2.0)

_BELL = {
    BellLabel.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) * _SQ2,
    BellLabel.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) * _SQ2,
    BellLabel.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) * _SQ2,
    BellLabel.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) * _SQ2,
}

_HMAT = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQ2
_XMAT = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_ZMAT = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# The single-qubit matrices the oracle lifts, by name: "H" or a PauliOp.
_MATRICES = {
    "H": _HMAT,
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.Z: _ZMAT,
    PauliOp.X: _XMAT,
    PauliOp.XZ: _XMAT @ _ZMAT,
}

_SYNDROMES = {
    (1, 0): BellLabel.PSI_PLUS,
    (1, 1): BellLabel.PSI_MINUS,
    (0, 0): BellLabel.PHI_PLUS,
    (0, 1): BellLabel.PHI_MINUS,
}

_P, _M = BellLabel.PSI_PLUS, BellLabel.PSI_MINUS
_FP, _FM = BellLabel.PHI_PLUS, BellLabel.PHI_MINUS

_CORRECTIONS = {
    (_M, _M): PauliOp.I, (_M, _P): PauliOp.Z, (_M, _FM): PauliOp.X, (_M, _FP): PauliOp.XZ,
    (_P, _P): PauliOp.I, (_P, _M): PauliOp.Z, (_P, _FP): PauliOp.X, (_P, _FM): PauliOp.XZ,
    (_FM, _FM): PauliOp.I, (_FM, _FP): PauliOp.Z, (_FM, _M): PauliOp.X, (_FM, _P): PauliOp.XZ,
    (_FP, _FP): PauliOp.I, (_FP, _FM): PauliOp.Z, (_FP, _P): PauliOp.X, (_FP, _M): PauliOp.XZ,
}

_RESTORES = {
    (_P, _P): PauliOp.I, (_M, _M): PauliOp.I, (_FP, _FP): PauliOp.I, (_FM, _FM): PauliOp.I,
    (_P, _M): PauliOp.Z, (_M, _P): PauliOp.Z, (_FP, _FM): PauliOp.Z, (_FM, _FP): PauliOp.Z,
    (_P, _FP): PauliOp.X, (_FP, _P): PauliOp.X, (_M, _FM): PauliOp.X, (_FM, _M): PauliOp.X,
    (_P, _FM): PauliOp.XZ, (_FM, _P): PauliOp.XZ, (_M, _FP): PauliOp.XZ, (_FP, _M): PauliOp.XZ,
}

_ENCODE = {
    (0, 0): PauliOp.I,
    (0, 1): PauliOp.X,
    (1, 0): PauliOp.Z,
    (1, 1): PauliOp.XZ,
}

_LABEL_BITS = {
    BellLabel.PSI_PLUS: (0, 0),
    BellLabel.PSI_MINUS: (0, 1),
    BellLabel.PHI_PLUS: (1, 0),
    BellLabel.PHI_MINUS: (1, 1),
}


def _frozen(a: np.ndarray) -> np.ndarray:
    # A cached operator is handed to every caller, so none may write to it.
    a.setflags(write=False)
    return a


def _lift(matrix: np.ndarray, k: int, n: int) -> np.ndarray:
    """The single-qubit matrix acting on qubit k of n: I (x) matrix (x) I."""
    return np.kron(np.kron(np.eye(2**k, dtype=complex), matrix), np.eye(2 ** (n - k - 1), dtype=complex))


@functools.lru_cache(maxsize=None)
def _lifted(name: str | PauliOp, k: int, n: int) -> np.ndarray:
    """_lift of the named matrix ("H" or a PauliOp), built once and read-only."""
    return _frozen(_lift(_MATRICES[name], k, n))


@functools.lru_cache(maxsize=None)
def _cnot_matrix(c: int, t: int, n: int) -> np.ndarray:
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << (n - 1 - t)) if (i >> (n - 1 - c)) & 1 else i
        out[j, i] = 1.0
    return _frozen(out)


@functools.lru_cache(maxsize=None)
def _bit_mask(k: int, n: int, bit: int) -> np.ndarray:
    """The basis indices of n qubits where qubit k reads bit, as a boolean mask."""
    shift = n - 1 - k
    return _frozen(np.array([((i >> shift) & 1) == bit for i in range(1 << n)]))


def _measure(vec: np.ndarray, k: int, n: int, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    p1 = float(np.sum(np.abs(vec[_bit_mask(k, n, 1)]) ** 2))
    p1_eff = 1.0 if p1 > 1.0 - 1e-12 else (0.0 if p1 < 1e-12 else p1)
    outcome = 1 if rng.random() < p1_eff else 0
    out = vec.copy()
    out[_bit_mask(k, n, 1 - outcome)] = 0.0
    return outcome, out / np.linalg.norm(out)


def _slice_out(vec: np.ndarray, k: int, n: int, bit: int) -> np.ndarray:
    out = vec[_bit_mask(k, n, bit)]
    return out / np.linalg.norm(out)


def _qnd(vec: np.ndarray, q1: int, q2: int, d: int, e: int, n: int) -> np.ndarray:
    h1, h2 = _lifted("H", q1, n), _lifted("H", q2, n)
    for op in (
        _cnot_matrix(q1, d, n),
        _cnot_matrix(q2, d, n),
        h1,
        h2,
        _cnot_matrix(q1, e, n),
        _cnot_matrix(q2, e, n),
        h1,
        h2,
    ):
        vec = op @ vec
    return vec


def _qnd_measure(
    vec: np.ndarray, q1: int, q2: int, n: int, rng: np.random.Generator
) -> tuple[BellLabel, np.ndarray]:
    """Append two |0> ancillas, run the parity circuit, measure and slice them out."""
    zero = np.array([1.0, 0.0], dtype=complex)
    vec = np.kron(np.kron(vec, zero), zero)
    m = n + 2
    vec = _qnd(vec, q1, q2, m - 2, m - 1, m)
    d, vec = _measure(vec, m - 2, m, rng)
    e, vec = _measure(vec, m - 1, m, rng)
    vec = _slice_out(vec, m - 1, m, e)
    vec = _slice_out(vec, m - 2, m - 1, d)
    return _SYNDROMES[(d, e)], vec


def op_run(
    channel: BellLabel, alpha: complex, beta: complex, rng: np.random.Generator
) -> tuple[np.ndarray, BellLabel]:
    """Reference baseline run; returns the receiver qubit and the syndrome."""
    chi = np.array([alpha, beta], dtype=complex)
    vec = np.kron(_BELL[channel], chi)  # (A, B, C)
    label, vec = _qnd_measure(vec, 0, 2, 3, rng)
    a, vec = _measure(vec, 0, 3, rng)
    c, vec = _measure(vec, 2, 3, rng)
    vec = _slice_out(vec, 2, 3, c)
    vec = _slice_out(vec, 0, 2, a)
    vec = _lifted(_CORRECTIONS[(channel, label)], 0, 1) @ vec
    return vec, label


def single_experiment(
    initial_channel: BellLabel,
    amplitude_pairs: list[tuple[complex, complex]],
    approach: Approach,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, BellLabel]]:
    """Reference single-channel experiment.

    Returns, per run, the 3-qubit post-run state ordered (channel half A,
    delivered output, new channel half B) plus the syndrome label, matching
    the engine's per-run snapshot layout.
    """
    chan_vec = _BELL[initial_channel].copy()
    chan_label = initial_channel
    results: list[tuple[np.ndarray, BellLabel]] = []
    for alpha, beta in amplitude_pairs:
        chi = np.array([alpha, beta], dtype=complex)
        vec = np.kron(chan_vec, chi)  # (A, B, C)
        label, vec = _qnd_measure(vec, 0, 2, 3, rng)  # sender side
        label2, vec = _qnd_measure(vec, 0, 2, 3, rng)  # receiver side
        if label2 is not label:
            raise RuntimeError(f"repeat QND read {label2.value} after {label.value}")
        vec = _lifted(_CORRECTIONS[(chan_label, label)], 1, 3) @ vec
        if approach is Approach.RESTORE_CHANNEL:
            vec = _lifted(_RESTORES[(label, initial_channel)], 0, 3) @ vec
            chan_label = initial_channel
        else:
            chan_label = label
        results.append((vec.copy(), label))
        # Contract the delivered output against the input it must equal.
        rest = np.tensordot(vec.reshape(2, 2, 2), chi.conj(), axes=([1], [0])).reshape(-1)
        nrm = np.linalg.norm(rest)
        if not abs(nrm - 1.0) < 1e-9:
            raise RuntimeError(f"delivered output differs from the input: overlap norm {nrm}")
        chan_vec = rest / nrm
    return results


def dual_run(
    channel: BellLabel, alpha: complex, beta: complex, rng: np.random.Generator
) -> tuple[np.ndarray, BellLabel]:
    """Reference two-channel run; returns the receiver qubit and the syndrome."""
    chi = np.array([alpha, beta], dtype=complex)
    vec = np.kron(np.kron(_BELL[channel], _BELL[BellLabel.PHI_PLUS]), chi)
    # (A, B, MA, MB, C)
    label, vec = _qnd_measure(vec, 0, 4, 5, rng)
    a, vec = _measure(vec, 0, 5, rng)
    c, vec = _measure(vec, 4, 5, rng)
    vec = _slice_out(vec, 4, 5, c)
    vec = _slice_out(vec, 0, 4, a)
    # (B, MA, MB)
    vec = _lifted(_ENCODE[_LABEL_BITS[label]], 1, 3) @ vec
    vec = _cnot_matrix(1, 2, 3) @ vec
    vec = _lifted("H", 1, 3) @ vec
    hi, vec = _measure(vec, 1, 3, rng)
    lo, vec = _measure(vec, 2, 3, rng)
    if (hi, lo) != _LABEL_BITS[label]:
        raise RuntimeError(f"superdense decode read {hi}{lo} for {label.value}")
    vec = _slice_out(vec, 2, 3, lo)
    vec = _slice_out(vec, 1, 2, hi)
    vec = _lifted(_CORRECTIONS[(channel, label)], 0, 1) @ vec
    return vec, label
