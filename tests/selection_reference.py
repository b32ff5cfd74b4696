"""Ranking and survivor selection as they stood when individuals stored their
factorial ranks and scalar fitness: a test oracle.

``rank_members`` is the former ``_rank_members`` and ``select_fittest`` the
former ``select_fittest``, step by step.  The one adaptation is that ranks and
scalar fitness go into per-position lists returned by ``rank_members``
instead of fields of each ``Individual``, which no longer has them; skill
factors are still set on the members.  Nothing under ``src/`` imports this
module.
"""
from __future__ import annotations

from mfltga.errors import InvalidStateError
from mfltga.mfo import Population


def rank_members(members, num_tasks: int):
    """Set skill factors in place; return (ranks[pos][j], fitness[pos])."""
    ranks = [None] * len(members)
    for pos, ind in enumerate(members):
        if all(c is None for c in ind.factorial_costs):
            raise InvalidStateError("individual has no factorial cost on any task")
        ranks[pos] = [None] * num_tasks
    position = {id(ind): pos for pos, ind in enumerate(members)}
    for j in range(num_tasks):
        ranked = [ind for ind in members if ind.factorial_costs[j] is not None]
        ranked.sort(key=lambda ind: ind.factorial_costs[j])
        for rank, ind in enumerate(ranked, start=1):
            ranks[position[id(ind)]][j] = rank
    fitness = [None] * len(members)
    for pos, ind in enumerate(members):
        present = [(r, j) for j, r in enumerate(ranks[pos]) if r is not None]
        best = min(r for r, _ in present)
        tied = [j for r, j in present if r == best]
        fitness[pos] = 1.0 / best
        ind.skill_factor = tied[pos % len(tied)] + 1
    return ranks, fitness


def select_fittest(current: Population, intermediate: Population, n: int) -> Population:
    """Survivor selection over the union of current and intermediate pools.

    The union is by object identity, so parents that re-enter through the
    backup pool are not double counted.  Ranks and scalar fitness are
    recomputed over the union before truncation.  Ties on scalar fitness are
    broken by the lower factorial cost on the individual's skill task, then
    by pool order (current first).
    """
    pool = []
    seen = set()
    for ind in current.members + intermediate.members:
        if id(ind) not in seen:
            seen.add(id(ind))
            pool.append(ind)
    if len(pool) < n:
        raise InvalidStateError(f"selection pool holds {len(pool)} < {n} individuals")
    _, fitness = rank_members(pool, len(current.tasks))
    order = sorted(
        range(len(pool)),
        key=lambda i: (
            -fitness[i],
            pool[i].factorial_costs[pool[i].skill_factor - 1],
            i,
        ),
    )
    survivors = [pool[i] for i in order[:n]]
    return Population(survivors, current.ledger)
