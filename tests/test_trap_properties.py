"""Property tests of the trap objective against the oracle's reference cost.

Bit strings are drawn with a random ones-rate, so rates at or near 0 and 1
make all-zeros and all-ones blocks common.  The objective counts all-ones
blocks by adding a constant to each block's k-byte field and reading the
field's top bit, so block sizes 1..12 are drawn next to 127..300 at small m,
where a field spans many bytes and its top bit sits past bit 1000; strings
one gene short of all ones, at the first and at the last position, are the
closest a field comes to carrying.  Every string is evaluated as a
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

WIDE_BLOCKS = (127, 128, 129, 255, 256, 300)


@st.composite
def trap_cases(draw):
    k, m = draw(
        st.one_of(
            st.tuples(st.integers(1, 12), st.integers(1, 30)),
            st.tuples(st.sampled_from(WIDE_BLOCKS), st.integers(1, 3)),
        )
    )
    rate = draw(st.floats(0, 1))
    draws = draw(st.binary(min_size=k * m, max_size=k * m))
    return k, m, [int(u < 256 * rate) for u in draws]


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


@pytest.mark.parametrize("k", [*range(1, 13), *WIDE_BLOCKS])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_one_gene_short_of_all_ones_matches_the_reference_cost(k, m):
    objective = trap.objective(trap.TrapSpec(k, m))
    for pos in (0, k * m - 1):
        bits = [1] * (k * m)
        bits[pos] = 0
        cost = objective(bytearray(bits))
        assert cost == reference_trap_cost(bits, k, m) == k
    assert objective(bytearray([1] * (k * m))) == 0


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
