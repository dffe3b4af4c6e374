"""Acceptance gate: every criterion must pass, within its wall-clock budget.

Each criterion runs through `run_criterion`, the runner `insdel-lab regress`
uses, so the gate's numbering, names, timing and crash handling are tested
here too.  Run with `pytest tests/test_acceptance.py -v` for one pass/fail
line per criterion, or `insdel-lab regress` for the same checks outside
pytest.
"""

import pytest
from click.testing import CliRunner

from insdel_lab import acceptance
from insdel_lab.acceptance import (
    ALL_CRITERIA,
    RS_ALPHA,
    CriterionFailure,
    run_all,
    run_criterion,
)
from insdel_lab.cli import main
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
    "number",
    range(1, len(ALL_CRITERIA) + 1),
    ids=[check.__name__ for _, check in ALL_CRITERIA],
)
def test_criterion(number):
    result = run_criterion(number)
    print(result.line())
    assert result.ok, result.line()
    budget = TIME_BUDGETS[number]
    if budget is not None:
        assert result.elapsed < budget, (
            f"criterion {number} took {result.elapsed:.2f}s, budget {budget}s"
        )


def test_every_criterion_is_covered():
    assert len(ALL_CRITERIA) == 11
    assert sorted(TIME_BUDGETS) == list(range(1, 12))


def test_rs_alpha_is_the_seeded_search_result():
    # criterion 8 pins the search result instead of re-running the search
    result = rs_search_eval_points(PrimeField(7), 5, 2, budget=300, seed=0)
    assert result.alpha == RS_ALPHA


def _passes():
    return None


def _fails():
    raise CriterionFailure("pair (2, 0) fails")


def _crashes():
    return 1 // 0


def _skips():
    return ["pair (3, 0)", "pair (2, 1)"]


class TestRunner:
    """`run_all` and `regress` over a two-entry gate."""

    def _gate(self, monkeypatch, second):
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", (("first", _passes), ("second", second)))

    def test_all_pass(self, monkeypatch):
        self._gate(monkeypatch, _passes)
        result = CliRunner().invoke(main, ["regress"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert [line.rsplit(" (", 1)[0] for line in lines[:2]] == [
            "[ 1] PASS first",
            "[ 2] PASS second",
        ]
        assert lines[2] == "2/2 acceptance criteria passed"

    def test_failure_shows_its_detail(self, monkeypatch):
        self._gate(monkeypatch, _fails)
        result = CliRunner().invoke(main, ["regress"])
        assert result.exit_code == 1
        assert "[ 2] FAIL second [pair (2, 0) fails] (" in result.output
        assert result.output.endswith("1/2 acceptance criteria passed\n")

    def test_crash_is_a_failure_and_the_next_criterion_runs(self, monkeypatch):
        monkeypatch.setattr(
            acceptance, "ALL_CRITERIA", (("crash", _crashes), ("after", _passes))
        )
        lines = []
        results = run_all(echo=lines.append)
        assert [(r.number, r.name, r.ok) for r in results] == [
            (1, "crash", False),
            (2, "after", True),
        ]
        detail = "ZeroDivisionError('integer division or modulo by zero')"
        assert results[0].detail == detail
        assert lines[0].startswith(f"[ 1] FAIL crash [{detail}] (")
        assert lines[2] == "1/2 acceptance criteria passed"

    def test_skips_are_counted(self, monkeypatch):
        self._gate(monkeypatch, _skips)
        lines = []
        results = run_all(echo=lines.append)
        assert results[1].ok and results[1].skipped == _skips()
        assert results[0].skipped == []
        assert lines[1].startswith("[ 2] PASS second (skipped: 2) (")
        assert lines[2] == "2/2 acceptance criteria passed"
