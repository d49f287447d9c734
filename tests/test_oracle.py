"""The brute-force oracle's operator lift against its one-kron-per-qubit reference.

``oracle._lift`` builds I (x) M (x) I from two identity blocks. The reference
below is the chain of n two-by-two krons it replaced; the two must agree
element for element, signed zeros included, so oracle replays stay bit-equal.
"""

import numpy as np
import pytest

from teleportsim import oracle


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
