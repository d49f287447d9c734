"""The brute-force oracle's operators against independently built references.

``oracle._lift`` builds I (x) M (x) I from two identity blocks. The reference
below is the chain of n two-by-two krons it replaced; the two must agree
element for element, signed zeros included, so oracle replays stay bit-equal.
The runs take every lift, CNOT matrix and bit mask from a cache: each cached
operator must equal its reference, refuse writes and come back as the same
object, and the runs must give the same bytes with cold caches as with warm.
"""

import numpy as np
import pytest

from teleportsim import oracle
from teleportsim.core import BellLabel, PauliOp
from teleportsim.protocol import Approach

_SQ2 = 1.0 / np.sqrt(2.0)


def ref_lift(matrix, k, n):
    op = np.array([[1.0]], dtype=complex)
    for i in range(n):
        op = np.kron(op, matrix if i == k else np.eye(2, dtype=complex))
    return op


_MATRICES = {
    "H": oracle._HMAT,
    "X": oracle._XMAT,
    "Z": oracle._ZMAT,
    "XZ": oracle._XMAT @ oracle._ZMAT,
    "I": np.eye(2, dtype=complex),
}


@pytest.mark.parametrize("name", sorted(_MATRICES))
@pytest.mark.parametrize("n", range(1, 8))
def test_lift_matches_kron_chain(name, n):
    matrix = _MATRICES[name]
    for k in range(n):
        got, want = oracle._lift(matrix, k, n), ref_lift(matrix, k, n)
        assert got.shape == want.shape == (2**n, 2**n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def ref_cnot(c, t, n):
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[c]:
            bits[t] ^= 1
        out[int("".join(map(str, bits)), 2), i] = 1.0
    return out


def ref_mask(k, n, bit):
    return np.array([format(i, f"0{n}b")[k] == str(bit) for i in range(1 << n)])


# Every operator the three oracle runs reach. op_run's QND lifts to 5 qubits
# and dual_run's to 7; corrections act on 1 qubit, single-channel fix-ups and
# the superdense decode on 3.
_PAULIS = [PauliOp.I, PauliOp.Z, PauliOp.X, PauliOp.XZ]
_LIFTS = (
    [("H", k, 5) for k in (0, 2)]
    + [("H", k, 7) for k in (0, 4)]
    + [("H", 1, 3)]
    + [(op, k, n) for op in _PAULIS for k, n in ((0, 1), (0, 3), (1, 3))]
)
_CNOTS = [(c, t, 5) for c in (0, 2) for t in (3, 4)] + [(c, t, 7) for c in (0, 4) for t in (5, 6)] + [(1, 2, 3)]
_MASKS = [
    (k, n, bit)
    for n, ks in ((2, (0, 1)), (3, (0, 1, 2)), (4, (0, 3)), (5, (0, 3, 4)), (6, (5,)), (7, (5, 6)))
    for k in ks
    for bit in (0, 1)
]


def _run_all(seed):
    """Every oracle function over every channel (and approach), from one seed."""
    rng = np.random.default_rng(seed)
    pairs = [(0.6, 0.8j), (1.0, 0.0), (0.0, 1.0), (_SQ2, -_SQ2)]
    out = []
    for channel in BellLabel:
        for alpha, beta in pairs:
            out.append(oracle.op_run(channel, alpha, beta, rng))
            out.append(oracle.dual_run(channel, alpha, beta, rng))
        for approach in Approach:
            out.extend(oracle.single_experiment(channel, pairs * 2, approach, rng))
    return out


def _clear():
    for cache in (oracle._lifted, oracle._cnot_matrix, oracle._bit_mask):
        cache.cache_clear()


def _check_cached(cache, key, want):
    got = cache(*key)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if np.iscomplexobj(want):
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    with pytest.raises(ValueError, match="read-only"):
        got[...] = want
    assert cache(*key) is got


@pytest.mark.parametrize("key", _LIFTS, ids=str)
def test_cached_lift_is_the_kron_chain_read_only_and_shared(key):
    name, k, n = key
    _check_cached(oracle._lifted, key, ref_lift(oracle._MATRICES[name], k, n))


@pytest.mark.parametrize("key", _CNOTS, ids=str)
def test_cached_cnot_is_the_loop_built_matrix_read_only_and_shared(key):
    _check_cached(oracle._cnot_matrix, key, ref_cnot(*key))


@pytest.mark.parametrize("key", _MASKS, ids=str)
def test_cached_bit_mask_is_read_only_and_shared(key):
    _check_cached(oracle._bit_mask, key, ref_mask(*key))


def test_the_runs_reach_exactly_the_listed_operators():
    _clear()
    _run_all(0)
    for cache, keys in ((oracle._lifted, _LIFTS), (oracle._cnot_matrix, _CNOTS), (oracle._bit_mask, _MASKS)):
        assert cache.cache_info().currsize == len(set(keys)) == len(keys)
        misses = cache.cache_info().misses
        for key in keys:
            cache(*key)
        assert cache.cache_info().misses == misses


@pytest.mark.parametrize("seed", [0, 1])
def test_cold_and_warm_caches_give_the_same_runs(seed):
    _clear()
    cold = _run_all(seed)
    warm = _run_all(seed)
    assert len(cold) == len(warm)
    for (got, got_label), (want, want_label) in zip(warm, cold):
        assert got_label is want_label
        assert got.tobytes() == want.tobytes()
