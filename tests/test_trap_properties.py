"""Property test of the trap evaluator against the oracle's reference cost.

Bit strings are drawn with a random ones-rate, so rates at or near 0 and 1
make all-zeros and all-ones blocks common.  Every string is evaluated as a
list, a tuple, an int64 array and a bool array.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mfltga.oracle import reference_trap_cost
from mfltga.problems import trap


@st.composite
def trap_cases(draw):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 30))
    rate = draw(st.floats(0, 1))
    draws = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=k * m, max_size=k * m))
    return k, m, [int(u < rate) for u in draws]


@settings(max_examples=300, deadline=None)
@given(trap_cases())
def test_evaluate_matches_the_reference_cost(case):
    k, m, bits = case
    spec = trap.TrapSpec(k, m)
    expected = reference_trap_cost(bits, k, m)
    for x in (bits, tuple(bits), np.array(bits, dtype=np.int64), np.array(bits, dtype=bool)):
        cost = trap.evaluate(spec, x)
        assert type(cost) is int
        assert cost == expected
