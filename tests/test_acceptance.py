"""Acceptance gate: every criterion must pass, within its wall-clock budget.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion, or `insdel-lab regress` for the same checks outside pytest.
"""

import time

import pytest

from insdel_lab.acceptance import ALL_CRITERIA, RS_ALPHA
from insdel_lab.codes import PrimeField, rs_search_eval_points

# seconds; taken from the stated budgets the criteria were designed against
TIME_BUDGETS = {
    1: 10,
    2: 30,
    3: 1,
    4: 5,
    5: 10,
    6: 5,
    7: 300,
    8: 1800,
    9: 60,
    10: 60,
    11: None,  # determinism has no stated budget
}


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA, ids=[c.__name__ for c in ALL_CRITERIA]
)
def test_criterion(criterion):
    start = time.perf_counter()
    result = criterion()
    result.elapsed = time.perf_counter() - start
    print(result.line())
    assert result.ok, result.line()
    budget = TIME_BUDGETS[result.number]
    if budget is not None:
        assert result.elapsed < budget, (
            f"criterion {result.number} took {result.elapsed:.2f}s, budget {budget}s"
        )


def test_every_criterion_is_covered():
    assert len(ALL_CRITERIA) == 11
    assert sorted(TIME_BUDGETS) == list(range(1, 12))


def test_rs_alpha_is_the_seeded_search_result():
    # criterion 8 pins the search result instead of re-running the search
    result = rs_search_eval_points(PrimeField(7), 5, 2, budget=300, seed=0)
    assert result.alpha == RS_ALPHA
