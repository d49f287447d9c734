"""Dense state-vector engine for small registers of labeled qubits.

Registers carry symbolic labels (channel halves, inputs, ancillas) instead of
bare indices. Label position 0 is the most significant bit of the amplitude
index, so a ket string read left to right follows the label order.

State equality throughout the package means fidelity, which ignores global
phase; raw amplitude signs only matter where a test pins them explicitly.

Kernel contract. Each primitive works on the flat amplitude vector or on its
(2**k, 2, 2**(n-k-1)) view, where qubit k is the middle axis. Every PauliOp
and CNOT only permute amplitudes and flip signs, so they are one gather with
an index permutation and one multiply by a +/-1 sign array, both cached per
register size and axis. H is one GEMM: the amplitudes gathered
by a cached index into C-contiguous (M, 2) pairs, times H.T through np.dot
(the zgemm call np.tensordot makes), then scattered back by the inverse
index. prepare_bell writes the pair directly: the register sliced at
q1 = q2 = 0 times the label's 2x2 table of +/-1/sqrt(2), one broadcast
multiply, which gives the products H, CNOT, Z and X would. Measurement,
dropping and extending slice or take outer products of the view, and take
norms as sqrt(x.real . x.real + x.imag . x.imag) over the flattened array,
which is what np.linalg.norm evaluates. drop_qubit's eigh path builds rho
from the view in reduced_density's element order and contracts the register
with the pure eigenvector through np.dot with a (2, 1) right operand, as
np.tensordot does. On one machine every primitive returns amplitudes equal
under np.array_equal to the gate-by-gate tensordot/moveaxis/kron
formulation (tests/test_kernels.py holds that reference), so seeded reports
stay byte for byte the same; only signed zeros may differ.

Measurement samples, it does not recompute. measure_qubit keeps the clamped
P(1) and each collapsed branch of a StateVector per target on that instance,
so measuring one state K times costs K draws and at most one probability and
two collapses. This relies on StateVector being immutable: the cached
branches are handed to every later caller, so their amplitudes are read-only,
and nothing may write to a register's amplitudes in place.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12
NORM_TOL = 1e-12

# Probabilities this close to 0 or 1 are treated as deterministic so that a
# repeated measurement of an already collapsed state can never flip.
PROB_CLAMP = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2


class BellLabel(enum.Enum):
    """The four Bell states; enum values double as serialization names.

    psi+/psi- are (|01> +/- |10>)/sqrt(2), phi+/phi- are (|00> +/- |11>)/sqrt(2).
    The declaration order here is the fixed serialization order.
    """

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


class PauliOp(enum.Enum):
    """Single-qubit correction operators. XZ means Z first, then X."""

    I = "I"
    Z = "Z"
    X = "X"
    XZ = "XZ"


# Amplitudes over |00>, |01>, |10>, |11| with the first pair member as the
# more significant bit.
BELL_AMPLITUDES: dict[BellLabel, np.ndarray] = {
    BellLabel.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) * _INV_SQRT2,
    BellLabel.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) * _INV_SQRT2,
    BellLabel.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) * _INV_SQRT2,
    BellLabel.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) * _INV_SQRT2,
}


class GateKind(enum.Enum):
    """The two non-Pauli gates of the circuits; Paulis go through apply_pauli."""

    HADAMARD = "H"
    CNOT = "CNOT"


@dataclass(frozen=True)
class Gate:
    """A named gate applied to one or two target labels."""

    kind: GateKind
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        want = 2 if self.kind is GateKind.CNOT else 1
        if len(self.targets) != want:
            raise ValueError(f"{self.kind.value} takes {want} target(s), got {len(self.targets)}")
        if self.kind is GateKind.CNOT and self.targets[0] == self.targets[1]:
            raise ValueError("CNOT control and target must differ")

    @classmethod
    def h(cls, q: str) -> "Gate":
        return cls(GateKind.HADAMARD, (q,))

    @classmethod
    def cnot(cls, control: str, target: str) -> "Gate":
        return cls(GateKind.CNOT, (control, target))


@dataclass(frozen=True)
class StateVector:
    """Immutable-by-convention state of a labeled register.

    amplitudes has shape (2**n,) where n == len(labels); operations return new
    instances rather than mutating in place. The convention is load-bearing:
    measure_qubit caches its probability and branches on the instance (outside
    the fields, so eq, repr and dataclasses.replace never see the cache), and
    writing to amplitudes in place after a measurement would leave that cache
    stale. The branches it returns have read-only amplitudes.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown qubit label {label!r}") from None

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_register(labels: tuple[str, ...] | list[str]) -> StateVector:
    """Create a register with every qubit in |0>."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("register needs at least one qubit")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels in {labels}")
    if len(labels) > MAX_QUBITS:
        raise ValueError(f"register capped at {MAX_QUBITS} qubits, got {len(labels)}")
    amps = np.zeros(2 ** len(labels), dtype=complex)
    amps[0] = 1.0
    return StateVector(labels, amps)


def _readonly(a: np.ndarray | None) -> np.ndarray | None:
    # Cached arrays are handed to every caller, so none may write to them.
    # setflags is the cheaper spelling of a.flags.writeable = False.
    if a is not None:
        a.setflags(write=False)
    return a


def _norm(x: np.ndarray) -> np.floating:
    """np.linalg.norm of a complex array, the same expression without its wrapper."""
    flat = x.reshape(-1)
    re, im = flat.real, flat.imag
    return np.sqrt(re.dot(re) + im.dot(im))


# The default ancilla |0>: already normalized, so extend skips asarray and the norm.
_KET0 = _readonly(np.array([1.0, 0.0], dtype=complex))


def extend(state: StateVector, label: str, amplitudes: tuple[complex, complex] | np.ndarray = _KET0) -> StateVector:
    """Append one unentangled qubit with the given single-qubit amplitudes."""
    if label in state.labels:
        raise ValueError(f"label {label!r} already in register")
    if state.n_qubits + 1 > MAX_QUBITS:
        raise ValueError(f"register capped at {MAX_QUBITS} qubits")
    vec = amplitudes
    if vec is not _KET0:
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.shape != (2,):
            raise ValueError(f"qubit amplitudes must be one pair (a, b), got shape {vec.shape}")
        # A part above 2 can never normalize; rejected before squaring, which overflows.
        a, b = vec.tolist()
        if abs(a.real) > 2.0 or abs(a.imag) > 2.0 or abs(b.real) > 2.0 or abs(b.imag) > 2.0:
            raise ValueError(f"qubit amplitudes not normalized: a part of ({a}, {b}) exceeds 2")
        nrm = _norm(vec)
        if not abs(nrm - 1.0) <= 1e-9:  # also rejects NaN and inf
            raise ValueError(f"qubit amplitudes not normalized: |a|^2+|b|^2 = {nrm**2:.3e}")
        vec = vec / nrm
    return StateVector(state.labels + (label,), np.multiply.outer(state.amplitudes, vec).reshape(-1))


# n <= MAX_QUBITS bounds the kernel caches: at most 312 Pauli and 572 CNOT entries.
# _pauli_kernel and _bell_table check their enum argument on a cache miss, so a hit pays nothing;
# their callers turn the cache's TypeError on an unhashable argument into the same ValueError.
@functools.lru_cache(maxsize=None)
def _pauli_kernel(n: int, k: int, op: PauliOp) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(perm, sign) with amplitudes[perm] * sign equal to op on qubit k; None skips a step."""
    if not isinstance(op, PauliOp):
        raise ValueError(f"not a PauliOp: {op!r}")
    index = np.arange(2**n)
    bit = (index >> (n - 1 - k)) & 1
    perm = index ^ (1 << (n - 1 - k)) if op in (PauliOp.X, PauliOp.XZ) else None
    sign = None
    if op is PauliOp.Z:
        sign = (1.0 - 2.0 * bit).astype(complex)
    elif op is PauliOp.XZ:
        sign = (2.0 * bit - 1.0).astype(complex)
    return _readonly(perm), _readonly(sign)


@functools.lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """Index permutation that flips the target bit wherever the control bit is set."""
    index = np.arange(2**n)
    return _readonly(index ^ (((index >> (n - 1 - control)) & 1) << (n - 1 - target)))


def _permuted(state: StateVector, perm: np.ndarray | None, sign: np.ndarray | None) -> StateVector:
    out = state.amplitudes if perm is None else state.amplitudes[perm]
    if sign is not None:
        out = out * sign
    return StateVector(state.labels, out)


@functools.lru_cache(maxsize=None)
def _pair_gather(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, scatter): amplitudes[gather] lists the pairs that differ only in
    qubit k side by side, and out[scatter] puts them back in register order."""
    gather = np.arange(2**n).reshape(2**k, 2, -1).transpose(0, 2, 1).reshape(-1)
    return _readonly(gather), _readonly(np.argsort(gather))


def _hadamard(state: StateVector, k: int) -> StateVector:
    gather, scatter = _pair_gather(state.n_qubits, k)
    out = np.dot(state.amplitudes[gather].reshape(-1, 2), _H.T).reshape(-1)
    return StateVector(state.labels, out[scatter])


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    if gate.kind is GateKind.CNOT:
        c = state.axis(gate.targets[0])
        t = state.axis(gate.targets[1])
        return _permuted(state, _cnot_perm(state.n_qubits, c, t), None)
    return _hadamard(state, state.axis(gate.targets[0]))


def apply_pauli(state: StateVector, op: PauliOp, target: str) -> StateVector:
    """Apply a correction operator to one qubit (XZ applies Z, then X).

    The identity returns a register that shares the input's amplitudes.
    """
    k = state.axis(target)
    try:
        kernel = _pauli_kernel(state.n_qubits, k, op)
    except TypeError:
        raise ValueError(f"not a PauliOp: {op!r}") from None
    return _permuted(state, *kernel)


@functools.lru_cache(maxsize=None)
def _bell_table(label: BellLabel, q1_first: bool) -> np.ndarray:
    """The label's amplitudes as [q1 bit, q2 bit], laid out on (lead, q, mid, q, trail) axes."""
    if not isinstance(label, BellLabel):
        raise ValueError(f"not a BellLabel: {label!r}")
    table = BELL_AMPLITUDES[label].reshape(2, 2)
    if not q1_first:
        table = table.T
    return _readonly(table.reshape(1, 2, 1, 2, 1).copy())


def prepare_bell(state: StateVector, q1: str, q2: str, label: BellLabel) -> StateVector:
    """Entangle two fresh |0> qubits into the labeled Bell state.

    Signs follow the fixed convention: psi- = (|01> - |10>)/sqrt(2) and so on,
    with q1 as the more significant ket position. Only the q1 = q2 = 0 slice is
    read; the check bounds what lies outside it to NORM_TOL in probability.
    """
    a1, a2 = state.axis(q1), state.axis(q2)
    if a1 == a2:
        raise ValueError("pair members must differ")
    probs = np.abs(state.tensor()) ** 2
    mass = probs.take(0, axis=max(a1, a2)).take(0, axis=min(a1, a2)).sum()
    if abs(mass - 1.0) > NORM_TOL:
        raise ValueError(f"{q1},{q2} must be unentangled |0> qubits before pairing")
    lo, hi = sorted((a1, a2))
    view = state.amplitudes.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, -1)
    try:
        table = _bell_table(label, a1 < a2)
    except TypeError:
        raise ValueError(f"not a BellLabel: {label!r}") from None
    out = view[:, :1, :, :1] * table
    return StateVector(state.labels, out.reshape(-1))


def _split(state: StateVector, k: int) -> np.ndarray:
    """The (2**k, 2, 2**(n-k-1)) view of the amplitudes; qubit k is the middle axis."""
    return state.amplitudes.reshape(2**k, 2, -1)


def measure_qubit(state: StateVector, target: str, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projectively measure one qubit in the computational basis.

    Exactly one uniform draw is consumed per call: outcome = 1 iff the draw
    falls below P(1), with P clamped to {0, 1} inside PROB_CLAMP so repeated
    measurements of a collapsed qubit are deterministic.

    Only the draw depends on the call. The clamped P(1) and each branch are
    computed once per state instance and target, the branch the first time its
    outcome is drawn, and cached on the instance outside its dataclass fields;
    later calls return the same branch object, whose amplitudes are read-only.
    A degenerate branch is not cached, so every call that draws it raises.
    """
    cache = state.__dict__.get("_measured")
    if cache is None:
        cache = state.__dict__["_measured"] = {}
    # [clamped P(1), the (2**k, 2, rest) view, branch for outcome 0, branch for outcome 1]
    entry = cache.get(target)
    if entry is None:
        view = _split(state, state.axis(target))
        p1 = float((np.abs(view[:, 1]) ** 2).sum())
        p1_eff = 1.0 if p1 > 1.0 - PROB_CLAMP else (0.0 if p1 < PROB_CLAMP else p1)
        entry = cache[target] = [p1_eff, view, None, None]
    outcome = 1 if rng.random() < entry[0] else 0
    branch = entry[2 + outcome]
    if branch is None:
        out = entry[1].copy()
        out[:, 1 - outcome] = 0.0
        nrm = _norm(out)
        if nrm < NORM_TOL:
            raise ValueError(f"projection onto {target}={outcome} left a degenerate state")
        out /= nrm  # the same division as out / nrm, without a second array
        branch = entry[2 + outcome] = StateVector(state.labels, _readonly(out).reshape(-1))
    return outcome, branch


def drop_qubit(state: StateVector, label: str) -> StateVector:
    """Remove a qubit that is unentangled with the rest of the register.

    Used for measured-out ancillas and for delivered outputs; raises if the
    qubit is still entangled (a protocol logic bug, not a physics outcome).
    """
    if state.n_qubits == 1:
        raise ValueError("cannot drop the last qubit of a register")
    k = state.axis(label)
    view = _split(state, k)
    labels = state.labels[:k] + state.labels[k + 1 :]
    # Fast path: qubit already collapsed onto a basis state.
    for bit in (0, 1):
        other = view[:, 1 - bit]
        if not other.any() or (np.abs(other) ** 2).sum() < NORM_TOL**2:
            rest = view[:, bit].reshape(-1)
            return StateVector(labels, rest / _norm(rest))
    psi = view.transpose(1, 0, 2).reshape(2, -1)
    evals, evecs = np.linalg.eigh(psi @ psi.conj().T)
    if evals[-1] < 1.0 - 1e-9:
        raise ValueError(f"qubit {label!r} is still entangled (purity {evals[-1]:.6f})")
    rest = np.dot(view.transpose(0, 2, 1).reshape(-1, 2), evecs[:, -1].conj().reshape(2, 1)).reshape(-1)
    return StateVector(labels, rest / _norm(rest))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 after aligning b's qubits to a's label order."""
    if set(a.labels) != set(b.labels):
        raise ValueError(f"label sets differ: {a.labels} vs {b.labels}")
    perm = [b.labels.index(l) for l in a.labels]
    bt = b.tensor().transpose(perm).reshape(-1)
    return float(np.abs(np.vdot(a.amplitudes, bt)) ** 2)


def reduced_density(state: StateVector, keep: tuple[str, ...] | list[str]) -> np.ndarray:
    """Partial trace down to the kept labels, in the order given, as a matrix."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate labels in {keep}")
    axes = [state.axis(l) for l in keep]
    rest = [i for i in range(state.n_qubits) if i not in axes]
    psi = state.tensor().transpose(axes + rest).reshape(2 ** len(keep), -1)
    return psi @ psi.conj().T


def relabel(state: StateVector, old: str, new: str) -> StateVector:
    """Rename one qubit without touching amplitudes."""
    if old not in state.labels:
        raise ValueError(f"unknown qubit label {old!r}")
    if new in state.labels:
        raise ValueError(f"label {new!r} already in register")
    return StateVector(tuple(new if l == old else l for l in state.labels), state.amplitudes)


def phase_normalized(amplitudes: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rotate a global phase so the first non-negligible amplitude is real positive."""
    vec = np.asarray(amplitudes, dtype=complex)
    for a in vec:
        if abs(a) > tol:
            return vec * (a.conjugate() / abs(a))
    return vec.copy()
