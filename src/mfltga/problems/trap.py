"""Additively separable deceptive trap benchmark.

A genotype of l = m*k bits splits into m consecutive blocks of k bits.  A
block with u ones scores k when u = k and k-1-u otherwise, which makes the
all-zeros block the deceptive second-best.  The block scores add up to a
value to maximize; the engine-facing objective is the minimization cost
m*k - value, so the unique optimum (all ones) has cost 0.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..mfo import TaskDefinition, require_int


@dataclass(frozen=True)
class TrapSpec:
    block_size: int  # k, bits per block
    num_blocks: int  # m

    def __post_init__(self):
        require_int("block_size", self.block_size)
        require_int("num_blocks", self.num_blocks)
        if self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")
        if self.num_blocks < 1:
            raise ConfigurationError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.length > sys.maxsize:
            raise ConfigurationError(
                f"genotype length {self.length} (block_size * num_blocks) exceeds {sys.maxsize}"
            )

    @property
    def length(self) -> int:
        return self.block_size * self.num_blocks


def objective(spec: TrapSpec):
    """The function giving the minimization cost of a genotype of `spec`, 0 at all ones.

    A block with u ones costs k - score: 0 when u = k, else u + 1.  Summed
    over the m blocks that is (total ones) + m - (k + 1) * (all-ones blocks).

    The returned function reads a `bytearray`, the engine's genotype for a
    binary task, as one little-endian integer x, byte i at bits 8i..8i+7.  A
    `bits` of another type, or of the wrong length, raises ConfigurationError
    saying so, and so does a byte other than 0 or 1, naming the first one: x
    shares a bit with `high` (0xfe in every byte) exactly when such a byte is
    there.  The ones are x.bit_count().  Block j is the k-byte field of x
    at bits 8jk..8jk+8k-1, holding v <= rep = sum of 256**i for i < k, with
    equality only when the block is all ones.  Adding top - rep, where top =
    1 << (8k - 1), sets the field's top bit exactly when v = rep and never
    carries out of the field, as v + top - rep <= top.  `lift` adds that to
    every field at once and `flags` keeps the top bits, so the bit count of
    (x + lift) & flags is the number of all-ones blocks.  The function binds
    k, m, `high`, `lift` and `flags` once; a task keeps it as its objective.
    """
    k, m = spec.block_size, spec.num_blocks
    length = k * m
    high = int.from_bytes(b"\xfe" * length, "little")
    starts = int.from_bytes(b"\x01".ljust(k, b"\x00") * m, "little")
    top = 1 << (8 * k - 1)
    rep = int.from_bytes(b"\x01" * k, "little")
    lift, flags = (top - rep) * starts, top * starts

    def cost(bits) -> int:
        if type(bits) is not bytearray:
            raise ConfigurationError(f"genotype must be a bytearray, got {type(bits).__name__}")
        if len(bits) != length:
            raise ConfigurationError(
                f"genotype length {len(bits)} does not match instance length {length}"
            )
        x = int.from_bytes(bits, "little")
        if x & high:
            pos = length - len(bits.lstrip(b"\x00\x01"))
            raise ConfigurationError(f"gene {bits[pos]} at position {pos} is not a bit")
        return x.bit_count() + m - (k + 1) * ((x + lift) & flags).bit_count()

    return cost


def make_task(spec: TrapSpec, task_id: int = 1) -> TaskDefinition:
    return TaskDefinition(
        task_id=task_id,
        dimension=spec.length,
        alphabet_size=2,
        objective=objective(spec),
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
