import array
import random
import re

import numpy as np
import pytest

from mfltga.errors import ConfigurationError
from mfltga.problems import trap


def one_block(bits):
    return trap.objective(trap.TrapSpec(len(bits), 1))(bytearray(bits))


def test_block_score_cases():
    assert one_block([1, 1, 1, 1, 1]) == 0
    assert one_block([0, 0, 0, 0, 0]) == 1
    assert one_block([1, 1, 0, 1, 0]) == 4
    assert one_block([1]) == 0
    assert one_block([0]) == 1
    # one block whatever doubling and tail shifts its size takes
    for k in (2, 3, 7, 8, 9, 16):
        assert one_block([1] * k) == 0
        assert one_block([0] * k) == 1
        assert one_block([1] * (k - 1) + [0]) == k
        assert one_block([0] + [1] * (k - 1)) == k


def test_block_rejects_non_bits():
    with pytest.raises(ConfigurationError, match="gene 2 "):
        one_block([0, 2, 1])
    for bad in (2, 255):
        bits = bytearray([1] * 9)
        bits[7] = bad
        bits[8] = 3  # only the first non-bit is named
        with pytest.raises(ConfigurationError, match=f"^gene {bad} at position 7 is not a bit$"):
            trap.objective(trap.TrapSpec(3, 3))(bits)


NON_BITS = [None, 2, 3, 255, -1, 256, "1", [1], 0.5, 1.0, 0.0]


@pytest.mark.parametrize("pos", [0, 7, 14])
@pytest.mark.parametrize("gene", NON_BITS, ids=repr)
def test_evaluate_rejects_every_non_bit_gene(gene, pos):
    # a byte is named by the bit check; any other gene cannot sit in a
    # bytearray, so it arrives in a list and the type check rejects it
    bits = [1] * 15
    bits[pos] = gene
    if isinstance(gene, int) and 0 <= gene <= 255:
        bits = bytearray(bits)
        message = rf"^gene {gene} at position {pos} is not a bit$"
    else:
        message = "^genotype must be a bytearray, got list$"
    with pytest.raises(ConfigurationError, match=message):
        trap.objective(trap.TrapSpec(5, 3))(bits)


@pytest.mark.parametrize(
    "make",
    [
        list,
        tuple,
        bytes,
        lambda bits: np.array(bits, dtype=np.int64),
        lambda bits: np.array(bits, dtype=bool),
        lambda bits: array.array("B", bits),
        lambda bits: 5,
        lambda bits: None,
    ],
    ids=["list", "tuple", "bytes", "int64-array", "bool-array", "array.array", "int", "None"],
)
def test_evaluate_rejects_every_genotype_but_a_bytearray(make):
    bits = make([1, 0, 1] * 5)
    message = rf"^genotype must be a bytearray, got {re.escape(type(bits).__name__)}$"
    with pytest.raises(ConfigurationError, match=message):
        trap.objective(trap.TrapSpec(5, 3))(bits)


def test_block_deception_all_zeros_is_second_best():
    # over every k-bit block the all-zeros cost 1 is beaten only by all-ones
    for k in range(1, 7):
        costs = {}
        for word in range(2 ** k):
            bits = [(word >> i) & 1 for i in range(k)]
            costs[word] = one_block(bits)
        assert costs[2 ** k - 1] == 0
        others = [c for w, c in costs.items() if w != 2 ** k - 1]
        assert min(others) == 1
        assert costs[0] == 1


def test_evaluate_hand_cases():
    assert trap.objective(trap.TrapSpec(3, 5))(bytearray([1] * 15)) == 0
    # value 2 + 3 + 2 = 7
    assert trap.objective(trap.TrapSpec(3, 3))(bytearray([0, 0, 0, 1, 1, 1, 0, 0, 0])) == 2
    # value 0
    assert trap.objective(trap.TrapSpec(4, 1))(bytearray([0, 1, 1, 1])) == 4
    assert trap.objective(trap.TrapSpec(2, 3))(bytearray([0, 1, 1, 1, 0, 0])) == 3
    # three ones in a row across a block boundary make no all-ones block
    assert trap.objective(trap.TrapSpec(3, 2))(bytearray([0, 1, 1, 1, 0, 0])) == 5
    assert trap.objective(trap.TrapSpec(5, 3))(bytearray([0] * 9 + [1] * 5 + [0])) == 8
    # one-bit blocks cost 1 for each 0
    assert trap.objective(trap.TrapSpec(1, 5))(bytearray([1, 0, 1, 1, 0])) == 2
    assert trap.objective(trap.TrapSpec(1, 5))(bytearray([1] * 5)) == 0
    assert isinstance(trap.objective(trap.TrapSpec(2, 3))(bytearray([0, 1, 1, 1, 0, 0])), int)


def test_evaluate_rejects_wrong_length():
    message = "genotype length 14 does not match instance length 15"
    with pytest.raises(ConfigurationError, match=message):
        trap.objective(trap.TrapSpec(3, 5))(bytearray([1] * 14))


def test_value_is_additive_over_blocks():
    rng = random.Random(11)
    spec = trap.TrapSpec(4, 6)
    for _ in range(200):
        bits = [rng.randrange(2) for _ in range(spec.length)]
        per_block = sum(
            one_block(bits[s : s + spec.block_size])
            for s in range(0, spec.length, spec.block_size)
        )
        assert trap.objective(spec)(bytearray(bits)) == per_block


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        trap.TrapSpec(0, 5)
    with pytest.raises(ConfigurationError):
        trap.TrapSpec(3, 0)
    # a genotype longer than sys.maxsize has no index-sized length
    huge = 99999999999999999999
    for k, m in ((huge, 1), (1, huge)):
        with pytest.raises(ConfigurationError, match=f"genotype length {huge} "):
            trap.TrapSpec(k, m)


@pytest.mark.parametrize("args", [(5.0, 3), (2, 2.0), (True, 3), (3, False), ("3", 3)])
def test_spec_takes_only_ints(args):
    with pytest.raises(ConfigurationError, match="must be an int"):
        trap.TrapSpec(*args)


def test_make_task_wires_the_objective():
    task = trap.make_task(trap.TrapSpec(3, 5), task_id=2)
    assert task.task_id == 2
    assert task.dimension == 15
    assert task.alphabet_size == 2
    assert task.known_optimum == 0.0
    assert task.objective(bytearray([1] * 15)) == 0
    # one deceptive block: value 2 + 4*3 = 14, cost 15 - 14 = 1
    assert task.objective(bytearray([0, 0, 0] + [1] * 12)) == 1


def test_instance_grid_shape():
    grid = trap.instance_grid()
    assert len(grid) == 18
    by_key = {(s.block_size, s.num_blocks): pop for s, pop in grid}
    assert by_key[(3, 5)] == 128
    assert by_key[(4, 20)] == 128
    assert by_key[(5, 30)] == 256
    assert {s.block_size for s, _ in grid} == {3, 4, 5}
    assert sorted({s.num_blocks for s, _ in grid}) == [5, 10, 15, 20, 25, 30]
    spec = next(s for s, _ in grid if (s.block_size, s.num_blocks) == (5, 30))
    assert spec.length == 150
