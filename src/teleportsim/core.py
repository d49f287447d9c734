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

Dropping decides from what the engine already knows. Each branch measure_qubit
computes records that its target now sits in |outcome> (a "_basis" dict of
label -> bit on the instance, outside the dataclass fields), together with
its parent's records, and drop_qubit hands the records of the kept qubits on.
A recorded qubit's other half is exact zeros: it was assigned 0.0 and divided
by a finite norm, and slicing or contracting another qubit away keeps zeros
zero. So dropping it is one slice and one renormalization, the result the
basis-state search below would find. No other primitive, and no
dataclasses.replace, makes a state with a record. For an unrecorded qubit,
drop_qubit first builds the rho its eigh path needs and runs the two
basis-state sums, in their old order, only when a diagonal entry of rho is
below 2 * NORM_TOL**2 or NaN: rho's diagonal and the sums agree far inside a
factor 2, so above it both sums fail and eigh takes over with the same rho.

Shared run trees are the one cache of derived results. A state that carries
a memo (a "_memo" dict in its __dict__, outside the dataclass fields; the
class default is None) is a node of a shared tree: prepare_bell, extend,
apply_gate, apply_pauli, drop_qubit, reduced_density and measure_qubit look
their result up in it by their exact arguments (amplitudes by their bytes, so
0.0 and -0.0 differ) and compute it only on a miss. measure_qubit keeps the
clamped P(1) and each collapsed branch, the branch the first time its outcome
is drawn, so measuring a node K times costs K draws and at most one
probability and two collapses. Every result joins the tree read-only, with a
memo of its own. A call with the same arguments on the same node therefore
returns the same object. Every call still happens and every draw is still
taken; only the arithmetic of a repeated call is skipped. A failing call
stores nothing, and an unhashable stray argument bypasses the memo, so errors
are those of an unshared state. This relies on StateVector being immutable:
nothing may write to a register's amplitudes in place. protocol roots one
tree per explicit input, variant and channel, and makes a node of each
register a single-channel stream of explicit inputs revisits; every other
state has no memo, pays one attribute load per call and keeps nothing.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12
NORM_TOL = 1e-12

# Probabilities this close to 0 or 1 are treated as deterministic so that a
# repeated measurement of an already collapsed state can never flip.
PROB_CLAMP = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2
_HT = _H.T  # the right operand of the Hadamard's np.dot, bound once


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
        if not isinstance(self.kind, GateKind):
            raise ValueError(f"not a GateKind: {self.kind!r}")
        if not isinstance(self.targets, tuple):
            raise ValueError(f"gate targets must be a tuple of labels, got {self.targets!r}")
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


@dataclass
class StateVector:
    """Immutable-by-convention state of a labeled register.

    amplitudes has shape (2**n,) where n == len(labels); operations return new
    instances rather than mutating in place, and nothing may assign to a
    field. The class is not frozen, because the primitives build one per
    call and a frozen __init__ costs more than twice as much; the read-only
    amplitudes of every measured branch and every shared result are the real
    guard. The convention is load-bearing: measure_qubit records on each
    branch that its target sits in a basis state, which drop_qubit trusts,
    and a node of a shared run tree memoizes the results of every primitive
    on itself (see the module docstring). Writing to amplitudes in place
    would leave both stale. A node and every result it hands out are
    read-only and may be handed to many runs, such as a report's final_state.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray
    # Not fields, so eq, repr and dataclasses.replace never see them; the
    # primitives set them on the instance.
    _memo = None  # a node of a shared run tree: its memoized results
    _basis = None  # recorded qubits: label -> the bit it sits in

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


def new_register(labels: tuple[str, ...] | list[str]) -> StateVector:
    """Create a register with every qubit in |0>."""
    try:
        labels = tuple(labels)
        distinct = len(set(labels)) == len(labels)
    except TypeError:  # not iterable, or an unhashable label
        raise ValueError(f"register labels must be a sequence of hashable labels, got {labels!r}") from None
    if not labels:
        raise ValueError("register needs at least one qubit")
    if not distinct:
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


def _shared(node: StateVector | np.ndarray) -> StateVector | np.ndarray:
    """Make a result a node of a shared run tree: read-only, and a state gets a memo."""
    if isinstance(node, np.ndarray):
        return _readonly(node)
    _readonly(node.amplitudes)
    node._memo = {}
    return node


def _recall(memo: dict, key: object) -> StateVector | np.ndarray | None:
    """The memoized result for key; None on a miss or for an unhashable stray
    key, which the caller's own checks then reject as on an unshared state.
    measure_qubit inlines the same lookup."""
    try:
        return memo.get(key)
    except TypeError:
        return None


def _remember(memo: dict, key: object, out: StateVector | np.ndarray) -> StateVector | np.ndarray:
    """Store a computed result under key as a node of the shared tree. A call
    that passed its checks has a hashable key: a tree's labels are all str."""
    memo[key] = _shared(out)
    return out


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a complex array, the same expression without its wrapper;
    math.sqrt is correctly rounded, as np.sqrt is."""
    flat = x.reshape(-1)
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


# The default ancilla |0>: already normalized, so extend skips asarray and the norm.
_KET0 = _readonly(np.array([1.0, 0.0], dtype=complex))


def extend(state: StateVector, label: str, amplitudes: tuple[complex, complex] | np.ndarray = _KET0) -> StateVector:
    """Append one unentangled qubit with the given single-qubit amplitudes.

    The label must be a str: a shared run tree keys results by label, and
    1, 1.0 and True are equal keys that would name different qubits.
    """
    if not isinstance(label, str):
        raise ValueError(f"qubit label must be a str, got {label!r}")
    if label in state.labels:
        raise ValueError(f"label {label!r} already in register")
    if len(state.labels) + 1 > MAX_QUBITS:
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
    memo = state._memo
    if memo is not None:
        key = ("extend", label, None if vec is _KET0 else vec.tobytes())
        if (hit := _recall(memo, key)) is not None:
            return hit
    if vec is not _KET0:
        nrm = _norm(vec)
        if not abs(nrm - 1.0) <= 1e-9:  # also rejects NaN and inf
            raise ValueError(f"qubit amplitudes not normalized: |a|^2+|b|^2 = {nrm**2:.3e}")
        vec = vec / nrm
    out = StateVector(state.labels + (label,), np.multiply.outer(state.amplitudes, vec).reshape(-1))
    return out if memo is None else _remember(memo, key, out)


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


@functools.lru_cache(maxsize=None)
def _pair_gather(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, scatter): amplitudes[gather] lists the pairs that differ only in
    qubit k side by side, and out[scatter] puts them back in register order."""
    gather = np.arange(2**n).reshape(2**k, 2, -1).transpose(0, 2, 1).reshape(-1)
    return _readonly(gather), _readonly(np.argsort(gather))


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    memo = state._memo
    if memo is not None and (hit := _recall(memo, gate)) is not None:
        return hit
    # Only a Gate has checked fields; a look-alike would run as a Hadamard here.
    if not isinstance(gate, Gate):
        raise ValueError(f"not a Gate: {gate!r}")
    kind, targets = gate.kind, gate.targets
    n = len(state.labels)
    if kind is GateKind.CNOT:
        amps = state.amplitudes[_cnot_perm(n, state.axis(targets[0]), state.axis(targets[1]))]
    else:
        gather, scatter = _pair_gather(n, state.axis(targets[0]))
        amps = np.dot(state.amplitudes[gather].reshape(-1, 2), _HT).reshape(-1)[scatter]
    out = StateVector(state.labels, amps)
    return out if memo is None else _remember(memo, gate, out)


def apply_pauli(state: StateVector, op: PauliOp, target: str) -> StateVector:
    """Apply a correction operator to one qubit (XZ applies Z, then X).

    The identity returns a register that shares the input's amplitudes.
    """
    memo = state._memo
    if memo is not None and (hit := _recall(memo, key := ("pauli", op, target))) is not None:
        return hit
    k = state.axis(target)
    try:
        perm, sign = _pauli_kernel(len(state.labels), k, op)
    except TypeError:
        raise ValueError(f"not a PauliOp: {op!r}") from None
    amps = state.amplitudes if perm is None else state.amplitudes[perm]
    if sign is not None:
        amps = amps * sign
    out = StateVector(state.labels, amps)
    return out if memo is None else _remember(memo, key, out)


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
    memo = state._memo
    if memo is not None and (hit := _recall(memo, key := ("bell", q1, q2, label))) is not None:
        return hit
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
    out = StateVector(state.labels, (view[:, :1, :, :1] * table).reshape(-1))
    return out if memo is None else _remember(memo, key, out)


def _split(state: StateVector, k: int) -> np.ndarray:
    """The (2**k, 2, 2**(n-k-1)) view of the amplitudes; qubit k is the middle axis."""
    return state.amplitudes.reshape(2**k, 2, -1)


def measure_qubit(state: StateVector, target: str, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projectively measure one qubit in the computational basis.

    Exactly one uniform draw is consumed per call: outcome = 1 iff the draw
    falls below P(1), with P clamped to {0, 1} inside PROB_CLAMP so repeated
    measurements of a collapsed qubit are deterministic.

    The returned branch has read-only amplitudes and records that target sits
    in |outcome>, with the state's own records (see the module docstring). On
    an unshared state every call computes P(1) and the drawn branch afresh and
    stores nothing. A node of a shared run tree memoizes both: later calls only
    draw, and return the same branch object, itself a node of the tree. A
    degenerate branch is never stored, so every call that draws it raises.
    """
    memo = state._memo
    # [clamped P(1), the (2**k, 2, rest) view, branch for outcome 0, branch for outcome 1]
    if memo is not None:
        try:  # _recall, inlined on this hottest hit path
            entry = memo.get(key := ("measure", target))
        except TypeError:  # an unhashable stray target; state.axis rejects it below
            entry = None
    if memo is None or entry is None:
        view = _split(state, state.axis(target))
        p1 = float((np.abs(view[:, 1]) ** 2).sum())
        entry = [1.0 if p1 > 1.0 - PROB_CLAMP else (0.0 if p1 < PROB_CLAMP else p1), view, None, None]
        if memo is not None:
            memo[key] = entry
    outcome = 1 if rng.random() < entry[0] else 0
    branch = entry[2 + outcome]
    if branch is None:
        out = entry[1].copy()
        out[:, 1 - outcome] = 0.0
        nrm = _norm(out)
        if nrm < NORM_TOL:
            raise ValueError(f"projection onto {target}={outcome} left a degenerate state")
        out /= nrm  # the same division as out / nrm, without a second array
        branch = StateVector(state.labels, _readonly(out).reshape(-1))
        if nrm < math.inf:  # else the division may not have kept the zeros zero
            basis = state._basis
            branch._basis = {**basis, target: outcome} if basis else {target: outcome}
        if memo is not None:
            entry[2 + outcome] = _shared(branch)
    return outcome, branch


# Below this, a diagonal entry of rho may come from a half whose mass is under NORM_TOL**2.
_DIAG_MIN = 2.0 * NORM_TOL**2


def drop_qubit(state: StateVector, label: str) -> StateVector:
    """Remove a qubit that is unentangled with the rest of the register.

    Used for measured-out ancillas and for delivered outputs; raises if the
    qubit is still entangled (a protocol logic bug, not a physics outcome).
    A qubit that sits in a basis state is sliced out; a recorded one without
    any test (see the module docstring).
    """
    memo = state._memo
    if memo is not None and (hit := _recall(memo, key := ("drop", label))) is not None:
        return hit
    labels = state.labels
    if len(labels) == 1:
        raise ValueError("cannot drop the last qubit of a register")
    k = state.axis(label)  # before the record lookup, which an unhashable stray would fail
    view = _split(state, k)
    basis = state._basis
    bit = None if basis is None else basis.get(label)
    if bit is None:
        psi = view.transpose(1, 0, 2).reshape(2, -1)
        rho = psi @ psi.conj().T
        if not (rho.item(0).real >= _DIAG_MIN and rho.item(3).real >= _DIAG_MIN):
            for b in (0, 1):
                if (np.abs(view[:, 1 - b]) ** 2).sum() < NORM_TOL**2:
                    bit = b
                    break
    if bit is not None:
        rest = view[:, bit].reshape(-1)
    else:
        evals, evecs = np.linalg.eigh(rho)
        if evals[-1] < 1.0 - 1e-9:
            raise ValueError(f"qubit {label!r} is still entangled (purity {evals[-1]:.6f})")
        rest = np.dot(view.transpose(0, 2, 1).reshape(-1, 2), evecs[:, -1].conj().reshape(2, 1)).reshape(-1)
    out = StateVector(labels[:k] + labels[k + 1 :], rest / _norm(rest))
    if basis is not None and (kept := {q: b for q, b in basis.items() if q != label}):
        out._basis = kept
    return out if memo is None else _remember(memo, key, out)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 after aligning b's qubits to a's label order."""
    if set(a.labels) != set(b.labels):
        raise ValueError(f"label sets differ: {a.labels} vs {b.labels}")
    perm = [b.labels.index(l) for l in a.labels]
    bt = b.tensor().transpose(perm).reshape(-1)
    return float(np.abs(np.vdot(a.amplitudes, bt)) ** 2)


def reduced_density(state: StateVector, keep: tuple[str, ...] | list[str]) -> np.ndarray:
    """Partial trace down to the kept labels, in the order given, as a matrix."""
    try:
        keep = tuple(keep)
    except TypeError:
        raise ValueError(f"keep must be a sequence of labels, got {keep!r}") from None
    memo = state._memo
    if memo is not None and (hit := _recall(memo, key := ("rho", keep))) is not None:
        return hit
    if not keep:
        raise ValueError("must keep at least one qubit")
    axes = [state.axis(l) for l in keep]  # before the duplicate test, so unhashable strays fail here
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate labels in {keep}")
    rest = [i for i in range(state.n_qubits) if i not in axes]
    psi = state.tensor().transpose(axes + rest).reshape(2 ** len(keep), -1)
    rho = psi @ psi.conj().T
    return rho if memo is None else _remember(memo, key, rho)


def relabel(state: StateVector, old: str, new: str) -> StateVector:
    """Rename one qubit without touching amplitudes."""
    if old not in state.labels:
        raise ValueError(f"unknown qubit label {old!r}")
    if new in state.labels:
        raise ValueError(f"label {new!r} already in register")
    return StateVector(tuple(new if l == old else l for l in state.labels), state.amplitudes)
