"""Acceptance gate: every criterion must pass, within its wall-clock budget.

Each criterion runs through `run_criterion`, the runner `insdel-lab regress`
uses, so the gate's numbering, names, timing and crash handling are tested
here too.  Run with `pytest tests/test_acceptance.py -v` for one pass/fail
line per criterion, or `insdel-lab regress` for the same checks outside
pytest.
"""

import dataclasses
import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from insdel_lab import acceptance, codes
from insdel_lab.acceptance import (
    ALL_CRITERIA,
    GREEDY_CODE,
    RS_ALPHA,
    CriterionFailure,
    run_all,
    run_criterion,
)
from insdel_lab.cli import main
from insdel_lab.codes import Code, PrimeField, rs_search_eval_points
from insdel_lab.verify import Verdict, min_levenshtein_distance
from insdel_lab.words import Word

# seconds, by criterion function; taken from the stated budgets the criteria
# were designed against
TIME_BUDGETS = {
    "criterion_cover_oracle": 10,
    "criterion_coefficient_closed_form": 30,
    "criterion_telescoping_sum": 1,
    "criterion_elimination_rows": 5,
    "criterion_bound_consistency": 10,
    "criterion_hy_golden": 5,
    "criterion_code_distances": 300,
    "criterion_region_harness": 1800,
    "criterion_direction_equivalence": 60,
    "criterion_determinism": None,  # determinism has no stated budget
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
    budget = TIME_BUDGETS[ALL_CRITERIA[number - 1][1].__name__]
    if budget is not None:
        assert result.elapsed < budget, (
            f"criterion {number} took {result.elapsed:.2f}s, budget {budget}s"
        )


def test_every_criterion_is_covered():
    names = [check.__name__ for _, check in ALL_CRITERIA]
    assert len(set(names)) == len(names)
    assert set(TIME_BUDGETS) == set(names)


def test_rs_alpha_is_the_seeded_search_result():
    # criterion 8 pins the search result instead of re-running the search
    result = rs_search_eval_points(PrimeField(7), 5, 2, budget=300, seed=0)
    assert result.alpha == RS_ALPHA


def test_greedy_code_is_in_the_list_decoding_regime():
    # criterion 8 pins the greedy search result; at L = 2 it needs
    # delta > 2/(L+1) to reach beyond unique decoding
    assert (GREEDY_CODE.q, GREEDY_CODE.n, GREEDY_CODE.size) == (5, 5, 4)
    assert min_levenshtein_distance(GREEDY_CODE) == 8
    assert Fraction(8, 2 * 5) == Fraction(4, 5) > Fraction(2, 2 + 1)


def test_code_distances_build_one_table_per_shape(monkeypatch):
    # VT_a(n) for n <= 10, ternary VT for n <= 6 and Helberg for n = 3..8:
    # 22 shapes, whose 342 residue classes once each took a table
    real = codes._syndrome_table
    built = []

    def spy(q, n, syndromes):
        built.append((q, n))
        return real(q, n, syndromes)

    monkeypatch.setattr(codes, "_syndrome_table", spy)
    acceptance.criterion_code_distances()
    assert len(built) == 22


def test_code_distances_build_no_words(monkeypatch):
    # the residue classes reach the distance kernel as raw symbol tuples
    real = Word.__post_init__
    built = []

    def spy(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Word, "__post_init__", spy)
    acceptance.criterion_code_distances()
    assert built == []


@pytest.mark.parametrize(
    "shape, residues, message",
    [
        ((2, 5, [6]), (0,), "VT_0(5): distance 2 < 4"),
        ((3, 4, [4, 3]), (1, 2), "VT3 (n=4, a=1, b=2): distance 2 < 4"),
        ((2, 6, [33]), (3,), "Helberg (n=6, a=3): distance 2 < 6"),
    ],
    ids=["VT", "VT3", "Helberg"],
)
def test_code_distances_catch_a_class_below_its_floor(monkeypatch, shape, residues, message):
    # one class of one shape (q, n, moduli) is swapped for a pair of words
    # one substitution apart
    real = acceptance._syndrome_classes

    def broken(q, n, syndromes):
        classes = real(q, n, syndromes)
        if (q, n, [modulus for _, modulus in syndromes]) != shape:
            return classes
        pair = [(0,) * n, (0,) * (n - 1) + (1,)]
        return [(r, pair if r == residues else m) for r, m in classes]

    monkeypatch.setattr(acceptance, "_syndrome_classes", broken)
    with pytest.raises(CriterionFailure, match=f"^{re.escape(message)}$"):
        acceptance.criterion_code_distances()


@pytest.mark.parametrize(
    "fields, message",
    [
        # the first breakpoint a hair to the right: there the next piece's
        # term beats this piece's
        (("upper", "lower"), "not the max at"),
        # the first piece's line a hair above its term
        (("intercept",), "not term"),
    ],
    ids=["breakpoint", "line"],
)
def test_bound_certificate_catches_a_broken_piece(monkeypatch, fields, message):
    # the broken decomposition still evaluates through the real one, so every
    # grid point agrees; only the certificate sees the fault
    real = acceptance.insertion_bound_piecewise
    tiny = Fraction(1, 10**9)

    def broken(delta, list_size):
        bound = real(delta, list_size)
        pieces = list(bound.pieces)
        if len(pieces) > 1:
            for index, name in enumerate(fields):
                changed = {name: getattr(pieces[index], name) + tiny}
                pieces[index] = dataclasses.replace(pieces[index], **changed)
        return SimpleNamespace(r_min=bound.r_min, pieces=tuple(pieces), _pair=bound._pair)

    monkeypatch.setattr(acceptance, "insertion_bound_piecewise", broken)
    with pytest.raises(CriterionFailure, match=message):
        acceptance.criterion_bound_consistency()


def test_bound_consistency_checks_the_piece_structure(monkeypatch):
    # an r_min one above the threshold's fails on the first grid delta
    real = acceptance.insertion_bound_piecewise

    def shifted(delta, list_size):
        bound = real(delta, list_size)
        return SimpleNamespace(r_min=bound.r_min + 1, pieces=bound.pieces, _pair=bound._pair)

    monkeypatch.setattr(acceptance, "insertion_bound_piecewise", shifted)
    first = Fraction(1, acceptance.GRID_DELTA_DENOMINATOR)
    where = re.escape(f"(delta={first}, L=2): piece structure")
    with pytest.raises(CriterionFailure, match=f"^{where}$"):
        acceptance.criterion_bound_consistency()


def _changed(run, xns, xd, points, change):
    """A kernel run over xns / xd with change applied to its numerators at points."""
    nums, den = run
    return [change(num) if Fraction(xn, xd) in points else num for xn, num in zip(xns, nums)], den


@pytest.mark.parametrize(
    "both, message",
    [
        # the max form one unit of its denominator off
        (False, "mismatch"),
        # both forms agree on a negative value
        (True, "not positive"),
    ],
    ids=["mismatch", "not-positive"],
)
def test_bound_grid_catches_a_wrong_value(monkeypatch, both, message):
    # grid point k = 600 of delta = 5/21 at L = 3; points k = 601, 602 are
    # wrong too, and the message names the first
    big, delta = 3, Fraction(5, acceptance.GRID_DELTA_DENOMINATOR)
    wrong = [1 - delta + delta * Fraction(k, acceptance.GRID_STEPS) for k in (602, 600, 601)]
    change = (lambda num: -num) if both else (lambda num: num + 1)
    real_max_form = acceptance._max_form
    real_piecewise = acceptance.insertion_bound_piecewise

    def max_form(cn, cd, list_size, xns, xd):
        run = real_max_form(cn, cd, list_size, xns, xd)
        if (list_size, Fraction(cn, cd)) == (big, 1 - delta):
            return _changed(run, xns, xd, wrong, change)
        return run

    def piecewise(at_delta, list_size):
        bound = real_piecewise(at_delta, list_size)

        def pair(xns, xd):
            run = bound._pair(xns, xd)
            if (list_size, at_delta) == (big, delta):
                return _changed(run, xns, xd, wrong, lambda num: -num)
            return run

        return SimpleNamespace(r_min=bound.r_min, pieces=bound.pieces, _pair=pair)

    monkeypatch.setattr(acceptance, "_max_form", max_form)
    if both:
        monkeypatch.setattr(acceptance, "insertion_bound_piecewise", piecewise)
    where = re.escape(f"(delta={delta}, L={big}, x={wrong[1]}): {message}")
    with pytest.raises(CriterionFailure, match=f"^{where}$"):
        acceptance.criterion_bound_consistency()


def test_hy_check_names_the_first_failing_point(monkeypatch):
    # phi2 pushed to 100, above phi1 = x^2/(1 - delta) - x <= 50, at two
    # points of one (L, delta) row; the message names the first of them
    big, delta, wrong = 5, 1 - Fraction(7, 50), [Fraction(3, 5), Fraction(2, 5)]
    real_hy2 = acceptance._hy2

    def hy2(cn, cd, list_size, xns, xd):
        run = real_hy2(cn, cd, list_size, xns, xd)
        if (list_size, Fraction(cn, cd)) == (big, 1 - delta):
            return _changed(run, xns, xd, wrong, lambda num: 100 * run[1])
        return run

    monkeypatch.setattr(acceptance, "_hy2", hy2)
    where = re.escape(f"phi2 >= phi1 at (L={big}, delta={delta}, x={wrong[1]})")
    with pytest.raises(CriterionFailure, match=f"^{where}$"):
        acceptance.criterion_hy_golden()


def _run(check):
    """Criterion `check` through the gate's runner, as `regress` runs it."""
    return run_criterion([c for _, c in ALL_CRITERIA].index(check) + 1)


def _off_by_one_at(real, at):
    """`real` with its value raised by one at the arguments `at`."""
    return lambda *args: real(*args) + (args == at)


@pytest.mark.parametrize(
    "name, check, at, detail",
    [
        (
            "enumerate_v_covers",
            acceptance.criterion_cover_oracle,
            (3, 2, 2),
            "(j=3, ell=2, v=2): 3 != 4",
        ),
        (
            "signed_cover_sum",
            acceptance.criterion_coefficient_closed_form,
            (4, 2),
            "(j=4, v=2): 3, 4, 3",
        ),
        (
            "alternating_binomial_sum",
            acceptance.criterion_telescoping_sum,
            (5, 3),
            "(j=5, v=3): 2",
        ),
    ],
    ids=["cover-oracle", "coefficient-closed-form", "telescoping-sum"],
)
def test_identity_criteria_name_the_first_wrong_value(monkeypatch, name, check, at, detail):
    monkeypatch.setattr(acceptance, name, _off_by_one_at(getattr(acceptance, name), at))
    result = _run(check)
    assert (result.ok, result.detail) == (False, detail)


@pytest.mark.parametrize(
    "value, detail",
    [
        (0, "(L=4, r=2, j=5): unexpected zero"),
        (2, "(L=4, r=2, j=5): sign pattern broken"),
        (-3, "(L=4, r=2, j=5): tail closed form"),
        (None, "(L=4, r=2, j=4): margin 3 vs 6"),
    ],
    ids=["zero", "sign", "tail", "margin"],
)
def test_elimination_rows_catch_a_wrong_tail(monkeypatch, value, detail):
    # row (L=4, r=2) is (2, -1, 0, 1, -2); its order-5 entry is changed, which
    # the row's own checks (orders 1..r+1) let through; the margin case
    # raises every binomial of the margin formula by one instead
    if value is None:
        monkeypatch.setattr(acceptance, "comb", lambda n, k: math.comb(n, k) + 1)
    else:
        real = acceptance.elimination_row

        def changed(list_size, r):
            row = real(list_size, r)
            if (list_size, r) != (4, 2):
                return row
            return dataclasses.replace(row, coefficients=row.coefficients[:4] + (value,))

        monkeypatch.setattr(acceptance, "elimination_row", changed)
    result = _run(acceptance.criterion_elimination_rows)
    assert (result.ok, result.detail) == (False, detail)


_REPORT = acceptance.comparison_report(Fraction(9, 10), 2)
_GOLDEN = (27 - math.sqrt(57)) / 28


@pytest.mark.parametrize(
    "name, fake, detail",
    [
        ("hy_crossover_delta", lambda list_size: 0.5, f"delta1(2) = 0.5 vs {_GOLDEN}"),
        (
            "comparison_report",
            lambda delta, list_size: dataclasses.replace(_REPORT, p2=(0.7, 0.25)),
            "P2 = (0.7, 0.25)",
        ),
        (
            "comparison_report",
            lambda delta, list_size: dataclasses.replace(_REPORT, p1=None),
            "P1 = None vs tau_d 0.11740243845501175",
        ),
        (
            "comparison_report",
            lambda delta, list_size: dataclasses.replace(_REPORT, interval=None),
            "advantage interval missing",
        ),
        (
            "comparison_report",
            lambda delta, list_size: dataclasses.replace(
                _REPORT, interval=(_REPORT.interval[0], 0.6)
            ),
            f"interval = ({_REPORT.interval[0]}, 0.6)",
        ),
    ],
    ids=["delta1", "p2", "p1", "no-interval", "interval"],
)
def test_hy_golden_catches_a_wrong_landmark(monkeypatch, name, fake, detail):
    # the report's own computation is not patched: the criterion reads the
    # names it imported
    monkeypatch.setattr(acceptance, name, fake)
    result = _run(acceptance.criterion_hy_golden)
    assert (result.ok, result.detail) == (False, detail)


def _region_report(skipped=(), checked=(), violations=()):
    """A stand-in for check_bound_region's report, with distance 2."""
    ok = not violations
    return SimpleNamespace(
        skipped=skipped, checked=checked, violations=violations, ok=ok, distance=2
    )


@pytest.mark.parametrize(
    "name, fake, detail",
    [
        (
            "vt_binary",
            lambda n, a: Code(2, n, frozenset({Word((0,) * n, 2), Word((1,) * n, 2)})),
            "VT_0(6) L=2: vacuous, |C| = 2",
        ),
        (
            "check_bound_region",
            lambda code, list_size: _region_report(violations=(Verdict(False, 1, 2, list_size),)),
            "VT_0(6) L=2: violation at (t_ins=1, t_del=2)",
        ),
        (
            "check_bound_region",
            # every pair checked lies in the unique-decoding region
            lambda code, list_size: _region_report(checked=((0, 0),)),
            "no checked pair lies beyond unique decoding",
        ),
    ],
    ids=["vacuous", "violation", "nothing-beyond-unique"],
)
def test_region_harness_catches_a_bad_subject(monkeypatch, name, fake, detail):
    monkeypatch.setattr(acceptance, name, fake)
    result = _run(acceptance.criterion_region_harness)
    assert (result.ok, result.detail) == (False, detail)


def test_region_harness_records_skipped_pairs(monkeypatch):
    # (n, 0) lies beyond unique decoding at distance 2: t_ins + t_del < 1 fails
    def fake(code, list_size):
        skipped = ((1, 1),) if list_size == 6 else ()
        return _region_report(skipped=skipped, checked=((code.n, 0),))

    monkeypatch.setattr(acceptance, "check_bound_region", fake)
    result = _run(acceptance.criterion_region_harness)
    assert (result.ok, result.skipped) == (True, ["VT_0(6) L=6 pair=(1, 1)"])
    assert result.line().rsplit(" (", 1)[0].endswith("(skipped: 1)")


@pytest.mark.parametrize(
    "patch, detail",
    [
        (
            lambda monkeypatch, counter: monkeypatch.setattr(
                acceptance.figures, "bound_table_rows", lambda *args: [str(next(counter))]
            ),
            "CSV rows differ across runs",
        ),
        (
            lambda monkeypatch, counter: monkeypatch.setattr(
                acceptance, "list_decodable", lambda *args, **kwargs: next(counter)
            ),
            "witness verdict differs across runs at (1, 1, 2)",
        ),
    ],
    ids=["csv", "witness"],
)
def test_determinism_catches_a_changing_output(monkeypatch, patch, detail):
    # each call answers a new number, so no two runs agree
    patch(monkeypatch, itertools.count())
    result = _run(acceptance.criterion_determinism)
    assert (result.ok, result.detail) == (False, detail)


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

    @pytest.mark.parametrize("number", [0, -9, 3, 1.0, True])
    def test_a_number_outside_the_gate_is_refused(self, monkeypatch, number):
        self._gate(monkeypatch, _passes)
        with pytest.raises(ValueError, match=re.escape(f"{number!r} is not an int in 1..2")):
            run_criterion(number)
