"""Property tests of the trap objective against the oracle's reference cost.

Bit strings are drawn with a random ones-rate, so rates at or near 0 and 1
make all-zeros and all-ones blocks common.  Every string is evaluated as a
bytearray (the engine's genotype), a list, a tuple, an int64 array and a bool
array, through the task's objective and through a fresh ``trap.objective``
of the same spec.  Strings holding one non-bit gene must raise the same error
from every container.
"""
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mfltga.errors import ConfigurationError
from mfltga.oracle import reference_trap_cost
from mfltga.problems import trap


@st.composite
def trap_cases(draw):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 30))
    rate = draw(st.floats(0, 1))
    draws = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=k * m, max_size=k * m))
    return k, m, [int(u < rate) for u in draws]


def containers(bits, with_bool=True):
    yield bytearray(bits)
    yield bits
    yield tuple(bits)
    yield np.array(bits, dtype=np.int64)
    if with_bool:
        yield np.array(bits, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(trap_cases())
def test_evaluate_matches_the_reference_cost(case):
    k, m, bits = case
    spec = trap.TrapSpec(k, m)
    objective = trap.make_task(spec).objective
    expected = reference_trap_cost(bits, k, m)
    for x in containers(bits):
        for cost in (objective(x), trap.objective(spec)(x)):
            assert type(cost) is int
            assert cost == expected


@settings(max_examples=200, deadline=None)
@given(trap_cases(), st.data())
def test_non_bit_genes_raise_the_same_error_from_every_container(case, data):
    k, m, bits = case
    pos = data.draw(st.integers(0, k * m - 1))
    bits[pos] = data.draw(st.sampled_from([2, 255]))
    spec = trap.TrapSpec(k, m)
    objective = trap.make_task(spec).objective
    message = f"gene {bits[pos]} at position {pos} is not a bit"
    for x in containers(bits, with_bool=False):
        for evaluate in (objective, trap.objective(spec)):
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                evaluate(x)
