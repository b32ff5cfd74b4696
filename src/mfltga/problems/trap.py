"""Additively separable deceptive trap benchmark.

A genotype of l = m*k bits splits into m consecutive blocks of k bits.  A
block with u ones scores k when u = k and k-1-u otherwise, which makes the
all-zeros block the deceptive second-best.  The block scores add up to a
value to maximize; the engine-facing objective is the minimization cost
m*k - value, so the unique optimum (all ones) has cost 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..errors import ConfigurationError
from ..mfo import TaskDefinition


@dataclass(frozen=True)
class TrapSpec:
    block_size: int  # k, bits per block
    num_blocks: int  # m

    def __post_init__(self):
        if self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")
        if self.num_blocks < 1:
            raise ConfigurationError(f"num_blocks must be >= 1, got {self.num_blocks}")

    @property
    def length(self) -> int:
        return self.block_size * self.num_blocks


_BITS = frozenset((0, 1))


def evaluate(spec: TrapSpec, bits) -> int:
    """Minimization cost of a genotype, 0 at the optimum (all ones).

    A block with u ones costs k - score: 0 when u = k, else u + 1.  Summed
    over the m blocks that is (total ones) + m - (k + 1) * (all-ones blocks).
    """
    if len(bits) != spec.length:
        raise ConfigurationError(
            f"genotype length {len(bits)} does not match instance length {spec.length}"
        )
    if not _BITS.issuperset(bits):
        pos, gene = next((i, g) for i, g in enumerate(bits) if g not in _BITS)
        raise ConfigurationError(f"gene {gene!r} at position {pos} is not a bit")
    k = spec.block_size
    ones = list(map(sum, zip(*[iter(bits)] * k)))
    return sum(ones) + spec.num_blocks - (k + 1) * ones.count(k)


def make_task(spec: TrapSpec, task_id: int = 1) -> TaskDefinition:
    return TaskDefinition(
        task_id=task_id,
        dimension=spec.length,
        alphabet_size=2,
        objective=partial(evaluate, spec),
        known_optimum=0.0,
    )


def instance_grid():
    """The benchmark grid: (TrapSpec, population size) pairs.

    k = 3 and k = 4 run with population 128, k = 5 with 256; block counts are
    5, 10, 15, 20, 25, 30 for every k, giving 18 instances.
    """
    grid = []
    for k, pop in ((3, 128), (4, 128), (5, 256)):
        for m in range(5, 31, 5):
            grid.append((TrapSpec(k, m), pop))
    return grid
