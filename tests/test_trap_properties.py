"""Property tests of the trap objective against the oracle's reference cost.

Bit strings are drawn with a random ones-rate, so rates at or near 0 and 1
make all-zeros and all-ones blocks common.  Block sizes 1..12 cover every
mix of doubling shifts and a tail shift the all-ones block count can take.  Every string is evaluated as a
bytearray, the engine's genotype, through the task's objective and through a
fresh ``trap.objective`` of the same spec.  Strings holding non-bit bytes
must raise an error naming the first one from both.
"""
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mfltga.errors import ConfigurationError
from mfltga.oracle import reference_trap_cost
from mfltga.problems import trap


@st.composite
def trap_cases(draw):
    k = draw(st.integers(1, 12))
    m = draw(st.integers(1, 30))
    rate = draw(st.floats(0, 1))
    draws = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=k * m, max_size=k * m))
    return k, m, [int(u < rate) for u in draws]


@settings(max_examples=300, deadline=None)
@given(trap_cases())
def test_evaluate_matches_the_reference_cost(case):
    k, m, bits = case
    spec = trap.TrapSpec(k, m)
    objective = trap.make_task(spec).objective
    expected = reference_trap_cost(bits, k, m)
    genes = bytearray(bits)
    for cost in (objective(genes), trap.objective(spec)(genes)):
        assert type(cost) is int
        assert cost == expected


@settings(max_examples=200, deadline=None)
@given(trap_cases(), st.data())
def test_non_bit_bytes_raise_an_error_naming_the_first(case, data):
    k, m, bits = case
    positions = sorted(data.draw(st.sets(st.integers(0, k * m - 1), min_size=1, max_size=3)))
    for pos in positions:
        bits[pos] = data.draw(st.sampled_from([2, 3, 255]))
    genes = bytearray(bits)
    spec = trap.TrapSpec(k, m)
    objective = trap.make_task(spec).objective
    message = f"gene {bits[positions[0]]} at position {positions[0]} is not a bit"
    for evaluate in (objective, trap.objective(spec)):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            evaluate(genes)
