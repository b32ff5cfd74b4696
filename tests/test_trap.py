import random

import pytest

from mfltga.errors import ConfigurationError
from mfltga.problems import trap


def test_block_score_cases():
    assert trap.trap_block([1, 1, 1, 1, 1]) == 5
    assert trap.trap_block([0, 0, 0, 0, 0]) == 4
    assert trap.trap_block([1, 1, 0, 1, 0]) == 1
    assert trap.trap_block([1]) == 1
    assert trap.trap_block([0]) == 0


def test_block_rejects_non_bits():
    with pytest.raises(ConfigurationError):
        trap.trap_block([0, 2, 1])
    with pytest.raises(ConfigurationError):
        trap.trap_block([])


def test_block_deception_all_zeros_is_second_best():
    # over every k-bit block the all-zeros score k-1 is beaten only by all-ones
    for k in range(1, 7):
        scores = {}
        for word in range(2 ** k):
            bits = [(word >> i) & 1 for i in range(k)]
            scores[word] = trap.trap_block(bits)
        assert scores[2 ** k - 1] == k
        others = [s for w, s in scores.items() if w != 2 ** k - 1]
        assert max(others) == k - 1
        assert scores[0] == k - 1


def test_evaluate_hand_cases():
    assert trap.evaluate(trap.TrapSpec(3, 5), [1] * 15) == 0
    assert trap.trap_value(trap.TrapSpec(3, 3), [0, 0, 0, 1, 1, 1, 0, 0, 0]) == 7
    assert trap.evaluate(trap.TrapSpec(3, 3), [0, 0, 0, 1, 1, 1, 0, 0, 0]) == 2
    assert trap.trap_value(trap.TrapSpec(4, 1), [0, 1, 1, 1]) == 0
    assert trap.evaluate(trap.TrapSpec(4, 1), [0, 1, 1, 1]) == 4


def test_evaluate_rejects_wrong_length():
    with pytest.raises(ConfigurationError):
        trap.evaluate(trap.TrapSpec(3, 5), [1] * 14)


def test_value_is_additive_over_blocks():
    rng = random.Random(11)
    spec = trap.TrapSpec(4, 6)
    for _ in range(200):
        bits = [rng.randrange(2) for _ in range(spec.length)]
        per_block = sum(
            trap.trap_block(bits[s : s + spec.block_size])
            for s in range(0, spec.length, spec.block_size)
        )
        assert trap.trap_value(spec, bits) == per_block
        assert trap.evaluate(spec, bits) == spec.length - per_block


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        trap.TrapSpec(0, 5)
    with pytest.raises(ConfigurationError):
        trap.TrapSpec(3, 0)


def test_make_task_wires_the_objective():
    task = trap.make_task(trap.TrapSpec(3, 5), task_id=2)
    assert task.task_id == 2
    assert task.dimension == 15
    assert task.alphabet_size == 2
    assert task.known_optimum == 0.0
    assert task.objective([1] * 15) == 0
    # one deceptive block: value 2 + 4*3 = 14, cost 15 - 14 = 1
    assert task.objective([0, 0, 0] + [1] * 12) == 1


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
