"""EvalLedger against the reference copy in ledger_reference.py.

Both ledgers are fed one random stream of objective results per example:
costs at a task's known optimum, within 1e-9 above it, just past that
tolerance, below it, repeats of earlier costs and plain random values, as
ints, floats and numpy scalars.  After every call the return value and the
whole ledger state must agree.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import ledger_reference
from mfltga.mfo import EvalLedger, TaskDefinition

OPTIMA = st.sampled_from([None, 0.0, 0, -2.5, 3.0, 1e6])


def cost_near(opt):
    """Costs that sit on, inside, or just outside the success tolerance of opt."""
    centre = 0.0 if opt is None else float(opt)
    return st.one_of(
        st.just(centre),
        st.just(centre + 1e-9),
        st.floats(0, 1e-9).map(lambda d: centre + d),
        st.floats(1e-9, 1e-8, exclude_min=True).map(lambda d: centre + d),
        st.floats(-1.0, 0.0, exclude_max=True).map(lambda d: centre + d),
        st.integers(-3, 10),
        st.floats(-1e3, 1e3, allow_nan=False),
    )


@st.composite
def streams(draw):
    """(known optima per task, [(task id, objective result)])."""
    optima = draw(st.lists(OPTIMA, min_size=1, max_size=3))
    calls = []
    for _ in range(draw(st.integers(1, 60))):
        tid = draw(st.integers(1, len(optima)))
        if calls and draw(st.booleans()):
            cost = draw(st.sampled_from([c for _, c in calls]))  # a repeat
        else:
            cost = draw(cost_near(optima[tid - 1]))
        wrap = draw(st.sampled_from([lambda c: c, np.float64, np.float32, int]))
        if wrap is int and (not float(cost).is_integer() or abs(cost) > 1e9):
            wrap = float
        calls.append((tid, wrap(cost)))
    return optima, calls


def state(ledger):
    return ledger.count, ledger.task_counts, ledger.best, ledger.first_success


@settings(max_examples=300, deadline=None)
@given(streams())
def test_ledger_matches_the_reference_bookkeeping(case):
    optima, calls = case
    queue = []
    tasks = [
        TaskDefinition(tid, 2, 2, lambda genes: queue.pop(0), known_optimum=opt)
        for tid, opt in enumerate(optima, start=1)
    ]
    ledger, reference = EvalLedger(tasks), ledger_reference.EvalLedger(tasks)
    for tid, cost in calls:
        queue.extend([cost, cost])
        got = ledger.evaluate(bytearray(2), tid)
        want = reference.evaluate([0, 0], tid)
        assert type(got) is float and got == want
        assert state(ledger) == state(reference)
    assert not queue
