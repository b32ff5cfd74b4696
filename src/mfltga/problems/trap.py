"""Additively separable deceptive trap benchmark.

A genotype of l = m*k bits splits into m consecutive blocks of k bits.  A
block with u ones scores k when u = k and k-1-u otherwise, which makes the
all-zeros block the deceptive second-best.  The block scores add up to a
value to maximize; the engine-facing objective is the minimization cost
m*k - value, so the unique optimum (all ones) has cost 0.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache, partial

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

    @property
    def length(self) -> int:
        return self.block_size * self.num_blocks


@lru_cache(maxsize=None)
def _blocks(k: int, m: int):
    """Split an m*k byte string into its m blocks of k bytes, in C."""
    return struct.Struct(f"{k}s" * m).unpack


def _first_non_bit(genes):
    """(position, gene) of the first gene that is not a byte 0 or 1."""
    for pos, gene in enumerate(genes):
        try:
            if bytearray((gene,)) in (b"\x00", b"\x01"):
                continue
        except (TypeError, ValueError):
            pass
        return pos, gene


def evaluate(spec: TrapSpec, bits) -> int:
    """Minimization cost of a genotype, 0 at the optimum (all ones).

    A block with u ones costs k - score: 0 when u = k, else u + 1.  Summed
    over the m blocks that is (total ones) + m - (k + 1) * (all-ones blocks).

    `bits` holds the ints 0 and 1 (bools count as ints): a list or tuple, or
    an array read through its `tolist()` (a numpy integer or bool array, an
    `array.array`).  Any other gene, a float such as 1.0 included, raises
    ConfigurationError naming the first one.  The genes are read once into a
    byte string; the bit check, the ones count and the all-ones block count
    are then C-level passes over it.
    """
    k, m = spec.block_size, spec.num_blocks
    if len(bits) != k * m:
        raise ConfigurationError(
            f"genotype length {len(bits)} does not match instance length {spec.length}"
        )
    if hasattr(bits, "tolist"):
        bits = bits.tolist()  # an array's own buffer holds items wider than a byte
    try:
        genes = bytearray(bits)
    except (TypeError, ValueError):
        genes = None
    if genes is None or genes.translate(None, b"\x00\x01"):
        pos, gene = _first_non_bit(bits)
        raise ConfigurationError(f"gene {gene!r} at position {pos} is not a bit")
    return genes.count(1) + m - (k + 1) * _blocks(k, m)(genes).count(b"\x01" * k)


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
