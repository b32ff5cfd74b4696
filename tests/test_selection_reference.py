"""Ranking and selection against the reference copy in selection_reference.py.

Rank and scalar fitness now live only inside one ranking pass; the former
code stored them on every individual.  Over generated pools with one to four
tasks, costs drawn from a small set so that ranks and fitness tie, and
missing costs, both versions must pick the same survivors in the same order,
set the same skill factors and reject the same bad pools.  The intermediate
pool is disjoint from the current one, as the engine's offspring are.
"""
import copy

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import selection_reference
from mfltga.errors import InvalidStateError
from mfltga.mfo import (
    EvalLedger,
    Individual,
    Population,
    TaskDefinition,
    factorial_ranks,
    rank_members,
    select_fittest,
)

COSTS = (0.0, 1.0, 2.0, 3.0, None)


def ledger_for(num_tasks):
    return EvalLedger([TaskDefinition(t, 1, 2, lambda genes: 0.0) for t in range(1, num_tasks + 1)])


def positions(pool, members):
    index = {id(ind): pos for pos, ind in enumerate(pool)}
    return [index[id(ind)] for ind in members]


@st.composite
def selection_cases(draw):
    """(current, intermediate, n, num_tasks); every member holds some cost."""
    k = draw(st.integers(1, 4))
    size = draw(st.integers(2, 40))
    # one flat draw per pool keeps generation cheap; code 4 is a missing cost
    codes = draw(st.lists(st.integers(0, 4), min_size=size * k, max_size=size * k))
    skills = draw(st.lists(st.integers(0, k), min_size=size, max_size=size))
    members = []
    for pos in range(size):
        costs = [COSTS[c] for c in codes[pos * k : (pos + 1) * k]]
        if all(c is None for c in costs):
            costs[pos % k] = float(pos % 4)
        members.append(Individual([pos], costs, skill_factor=skills[pos] or None))
    split = draw(st.integers(1, len(members)))
    current = members[:split]
    intermediate = list(draw(st.permutations(members[split:])))
    n = draw(st.integers(1, len(members)))
    return current, intermediate, n, k


@settings(max_examples=400, deadline=None)
@given(selection_cases())
def test_selection_matches_the_reference(case):
    current, intermediate, n, k = case
    ledger = ledger_for(k)
    ref_current, ref_intermediate = copy.deepcopy((current, intermediate))
    ref_pool = ref_current + ref_intermediate
    pool = current + intermediate

    want = selection_reference.select_fittest(
        Population(ref_current, ledger), Population(ref_intermediate, ledger), n
    )
    got = select_fittest(Population(current, ledger), Population(intermediate, ledger), n)

    assert positions(pool, got.members) == positions(ref_pool, want.members)
    assert [ind.skill_factor for ind in pool] == [ind.skill_factor for ind in ref_pool]
    assert [ind.factorial_costs for ind in pool] == [ind.factorial_costs for ind in ref_pool]
    ranks, fitness = selection_reference.rank_members(ref_pool, k)
    assert factorial_ranks(pool, k) == ranks
    assert rank_members(pool, k) == fitness
    assert [ind.skill_factor for ind in pool] == [ind.skill_factor for ind in ref_pool]


@settings(max_examples=100, deadline=None)
@given(selection_cases(), st.data())
def test_both_reject_a_member_without_costs(case, data):
    current, intermediate, n, k = case
    ledger = ledger_for(k)
    victim = data.draw(st.sampled_from(current + intermediate))
    victim.factorial_costs = [None] * k
    for select in (selection_reference.select_fittest, select_fittest):
        with pytest.raises(InvalidStateError, match="no factorial cost on any task"):
            select(Population(current, ledger), Population(intermediate, ledger), n)


@settings(max_examples=100, deadline=None)
@given(selection_cases(), st.integers(1, 3))
def test_both_reject_a_pool_smaller_than_n(case, excess):
    current, intermediate, _, k = case
    ledger = ledger_for(k)
    n = len(current) + len(intermediate) + excess
    for select in (selection_reference.select_fittest, select_fittest):
        with pytest.raises(InvalidStateError, match="selection pool holds"):
            select(Population(current, ledger), Population(intermediate, ledger), n)
