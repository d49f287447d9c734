"""Library constructors either return a result or raise ValueError.

Hypothesis drives ``InputSpec.explicit`` and ``extend`` over complex floats
(NaN, infinities, huge values and subnormals included), and ``prepare_bell``
and ``apply_pauli`` over their enum members and stray values such as the
members' string values, the other enum and None. Any other exception, or any
numpy RuntimeWarning, fails the property.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from teleportsim.core import (
    BELL_AMPLITUDES,
    BellLabel,
    PauliOp,
    apply_pauli,
    extend,
    new_register,
    prepare_bell,
)
from teleportsim.protocol import InputSpec

_PARTS = st.floats() | st.sampled_from([1e308, -1e308, 5e-324, 2.2250738585072014e-308, 2.0, 1.0])
_COMPLEX = st.builds(complex, _PARTS, _PARTS)


@st.composite
def _unit_pairs(draw):
    """A normalized pair, optionally nudged off the unit sphere by a tiny factor."""
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    scale = draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-10, 1.0 + 1e-8]))
    phase = complex(math.cos(phi), math.sin(phi))
    return complex(math.cos(theta / 2) * scale), complex(math.sin(theta / 2) * scale) * phase


_PAIRS = st.tuples(_COMPLEX, _COMPLEX) | _unit_pairs()

_STRAYS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([label.value for label in BellLabel] + [op.value for op in PauliOp])
)


def _strict(call, *args):
    """call(*args) with numpy warnings raised; None if it raised ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except ValueError:
            return None


def _is_unit(a, b):
    finite = all(map(math.isfinite, (a.real, a.imag, b.real, b.imag)))
    return finite and abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-9


@given(pair=_PAIRS)
@example(pair=(complex(1e308, 0), 0j))
@example(pair=(complex("nan"), 1 + 0j))
@example(pair=(complex(5e-324, -5e-324), 1 + 0j))
@example(pair=(complex("inf"), complex("-inf")))
def test_input_spec_explicit_returns_or_raises_value_error(pair):
    spec = _strict(InputSpec.explicit, *pair)
    if spec is not None:
        assert _is_unit(*_strict(spec.resolve, None))


@given(pair=_PAIRS)
@example(pair=(complex(1e308, 0), 0j))
@example(pair=(complex("nan"), 1 + 0j))
@example(pair=(complex(5e-324, -5e-324), 1 + 0j))
@example(pair=(0j, complex(0, 1e300)))
def test_extend_returns_or_raises_value_error(pair):
    state = _strict(extend, new_register(("A",)), "C", pair)
    if state is not None:
        assert state.labels == ("A", "C")
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9


@given(label=st.sampled_from(BellLabel) | st.sampled_from(PauliOp) | _STRAYS, first=st.booleans())
def test_prepare_bell_takes_only_bell_labels(label, first):
    q1, q2 = ("A", "B") if first else ("B", "A")
    state = _strict(prepare_bell, new_register(("A", "B")), q1, q2, label)
    assert (state is not None) == isinstance(label, BellLabel)
    if state is not None:
        want = BELL_AMPLITUDES[label].reshape(2, 2)
        assert np.array_equal(state.amplitudes.reshape(2, 2), want if first else want.T)


@given(op=st.sampled_from(PauliOp) | st.sampled_from(BellLabel) | _STRAYS, n=st.integers(1, 4))
def test_apply_pauli_takes_only_pauli_ops(op, n):
    labels = tuple("ABCD"[:n])
    state = _strict(apply_pauli, new_register(labels), op, labels[-1])
    assert (state is not None) == isinstance(op, PauliOp)
    if state is not None:
        flipped = op in (PauliOp.X, PauliOp.XZ)
        assert abs(state.amplitudes[1 if flipped else 0]) == 1.0
