"""Exact bound evaluation, piece decomposition, and the quadratic comparison."""

import math
import random
import re
from dataclasses import fields, replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel_lab import bounds
from insdel_lab.bounds import (
    ComparisonReport,
    LinearPiece,
    PiecewiseBound,
    _hy1,
    _hy2,
    _max_form,
    _progression,
    as_fraction,
    comparison_report,
    hy_crossover_delta,
    hy_crossover_root,
    hy_list_size,
    hy_quadratic1,
    hy_quadratic2,
    insertion_bound,
    insertion_bound_piecewise,
    unique_decoding_bound,
)
from insdel_lab.cli import _plain
from insdel_lab.verify import bound_region_pairs


class TestAsFraction:
    def test_float_uses_decimal_repr(self):
        assert as_fraction(0.9) == Fraction(9, 10)
        assert as_fraction(0.7) == Fraction(7, 10)

    def test_string_and_exact_inputs(self):
        assert as_fraction("3/10") == Fraction(3, 10)
        assert as_fraction("0.85") == Fraction(17, 20)
        assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
        assert as_fraction(1) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda: as_fraction(True),
            lambda: insertion_bound(Fraction(9, 10), 2, True),
            lambda: insertion_bound(True, 2, 1),
            lambda: insertion_bound_piecewise(False, 2),
            lambda: unique_decoding_bound(Fraction(1, 2), False),
            lambda: hy_quadratic1(0.5, True),
            lambda: hy_quadratic2(0.5, 2, True),
            lambda: hy_list_size(0.9, True, 0),
            lambda: comparison_report(True, 2),
        ],
        ids=[
            "as_fraction",
            "insertion_bound-x",
            "insertion_bound-delta",
            "piecewise",
            "unique",
            "hy1",
            "hy2",
            "hy_list_size",
            "report",
        ],
    )
    def test_a_bool_is_refused(self, call):
        # True is the int 1 to Python, so it would read as delta, x or tau = 1
        with pytest.raises(ValueError, match="^expected a number, got (True|False)$"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: as_fraction("1/0"),
            lambda: insertion_bound("1/2", 2, "1/0"),
            lambda: insertion_bound("1/0", 2, 1),
            lambda: bound_region_pairs(6, "3/0", 2),
        ],
        ids=["as_fraction", "insertion_bound-x", "insertion_bound-delta", "region-pairs"],
    )
    def test_a_zero_denominator_is_a_value_error(self, call):
        # Fraction("1/0") raises ZeroDivisionError, which no caller maps
        with pytest.raises(ValueError, match="^zero denominator in '[13]/0'$"):
            call()


class TestInsertionBound:
    def test_frozen_values(self):
        assert insertion_bound(0.9, 2, 1) == Fraction(17, 15)
        assert insertion_bound(0.9, 2, Fraction(3, 10)) == Fraction(1, 5)
        assert insertion_bound("9/10", 2, "3/10") == Fraction(1, 5)

    def test_zero_at_left_endpoint(self):
        for list_size in (2, 3, 7):
            for delta in (Fraction(1, 3), Fraction(9, 10), Fraction(99, 100)):
                assert insertion_bound(delta, list_size, 1 - delta) == 0

    def test_positive_beyond_left_endpoint(self):
        for list_size in (2, 5):
            delta = Fraction(4, 5)
            for k in range(1, 11):
                x = (1 - delta) + Fraction(k, 10) * delta
                assert insertion_bound(delta, list_size, x) > 0

    def test_matches_naive_max_formula(self):
        # independent evaluation without the integer-arithmetic fast path
        for list_size in (2, 3, 6):
            for dnum in (1, 5, 9):
                delta = Fraction(dnum, 10)
                for k in range(21):
                    x = (1 - delta) + Fraction(k, 20) * delta
                    naive = max(
                        Fraction(2 * list_size - r + 1, list_size + 1) * x
                        - Fraction(list_size, r) * (1 - delta)
                        for r in range(1, list_size + 1)
                    )
                    assert insertion_bound(delta, list_size, x) == naive

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            insertion_bound(0, 2, 1)
        with pytest.raises(ValueError):
            insertion_bound(1, 2, 1)
        with pytest.raises(ValueError):
            insertion_bound(0.9, 1, 1)
        with pytest.raises(ValueError):
            insertion_bound(0.9, 2, Fraction(1, 20))
        with pytest.raises(ValueError):
            insertion_bound(0.9, 2, 2)

    def test_domain_error_messages(self):
        # the text the Fraction arithmetic 1 - delta used to print
        with pytest.raises(ValueError, match=r"^x=1/20 outside domain \[1/10, 1\]$"):
            insertion_bound(0.9, 2, Fraction(1, 20))
        with pytest.raises(ValueError, match=r"^x=11/10 outside domain \[1/10, 1\]$"):
            insertion_bound("18/20", 3, "1.1")
        with pytest.raises(ValueError, match=r"^x=-1 outside domain \[2/3, 1\]$"):
            insertion_bound(Fraction(1, 3), 2, -1)
        message = r"^relative distance must satisfy 0 < delta < 1, got {}$"
        for delta, shown in ((0, "0"), (1, "1"), ("7/5", "7/5"), (-0.5, "-1/2")):
            with pytest.raises(ValueError, match=message.format(shown)):
                insertion_bound(delta, 2, 1)


def _fraction_loop_piecewise(delta, list_size):
    """Reference for insertion_bound_piecewise in plain Fraction arithmetic:
    r_min by comparing threshold Fractions with 1, and each threshold built
    again for every piece end it gives."""
    cn, cd = (1 - delta).numerator, (1 - delta).denominator
    big = list_size

    def threshold(r):
        return Fraction(big * (big + 1) * cn, r * (r + 1) * cd)

    r_min = next(r for r in range(1, big + 1) if threshold(r) < 1)
    pieces = []
    for r in range(big, r_min - 1, -1):
        lower = threshold(r) if r < big else Fraction(cn, cd)
        upper = Fraction(1) if r == r_min else threshold(r - 1)
        slope, intercept = Fraction(2 * big - r + 1, big + 1), Fraction(-big * cn, r * cd)
        pieces.append(LinearPiece(lower, upper, slope, intercept, r))
    return PiecewiseBound(delta=delta, list_size=big, r_min=r_min, pieces=tuple(pieces))


class TestPiecewiseDecomposition:
    def test_two_piece_example(self):
        bound = insertion_bound_piecewise(0.9, 2)
        assert bound.r_min == 1
        assert bound.breakpoints() == (Fraction(3, 10),)
        assert [p.r for p in bound.pieces] == [2, 1]
        assert bound.pieces[0].lower == Fraction(1, 10)
        assert bound.pieces[-1].upper == 1
        assert bound.evaluate(1) == Fraction(17, 15)
        assert bound.evaluate(Fraction(3, 10)) == Fraction(1, 5)

    def test_single_piece_condition(self):
        # exactly one piece iff 1 - delta >= (L-1)/(L+1)
        for list_size in range(2, 8):
            for dnum in range(1, 20):
                delta = Fraction(dnum, 20)
                bound = insertion_bound_piecewise(delta, list_size)
                single = len(bound.pieces) == 1
                assert single == (
                    1 - delta >= Fraction(list_size - 1, list_size + 1)
                )
                assert len(bound.pieces) == list_size - bound.r_min + 1

    def test_single_piece_slope_one(self):
        bound = insertion_bound_piecewise(Fraction(1, 10), 2)
        assert len(bound.pieces) == 1
        assert bound.pieces[0].slope == 1
        assert bound.pieces[0].intercept == -Fraction(9, 10)

    def test_evaluate_agrees_with_max_form(self):
        for list_size in (2, 4):
            for delta in (Fraction(1, 3), Fraction(17, 20)):
                bound = insertion_bound_piecewise(delta, list_size)
                for k in range(41):
                    x = (1 - delta) + Fraction(k, 40) * delta
                    assert bound.evaluate(x) == insertion_bound(delta, list_size, x)

    def test_continuity_at_breakpoints(self):
        bound = insertion_bound_piecewise(Fraction(9, 10), 6)
        for left, right in zip(bound.pieces, bound.pieces[1:]):
            assert left.value(left.upper) == right.value(right.lower)

    def test_evaluate_rejects_outside_domain(self):
        bound = insertion_bound_piecewise(0.9, 2)
        with pytest.raises(ValueError, match=r"^x=1/20 outside domain \[1/10, 1\]$"):
            bound.evaluate(Fraction(1, 20))
        with pytest.raises(ValueError, match=r"^x=11/10 outside domain \[1/10, 1\]$"):
            bound.evaluate(Fraction(11, 10))
        bound = insertion_bound_piecewise("18/20", 5)
        with pytest.raises(ValueError, match=r"^x=0 outside domain \[1/10, 1\]$"):
            bound.evaluate(0)

    def test_evaluate_names_an_integer_lower_end_as_an_integer(self):
        # a directly constructed bound on [0, 1], delta = 1
        line = LinearPiece(
            lower=Fraction(0), upper=Fraction(1), slope=Fraction(1), intercept=Fraction(0), r=2
        )
        bound = PiecewiseBound(delta=Fraction(1), list_size=2, r_min=2, pieces=(line,))
        assert bound.evaluate(Fraction(1, 3)) == Fraction(1, 3)
        with pytest.raises(ValueError, match=r"^x=-1/2 outside domain \[0, 1\]$"):
            bound.evaluate(-0.5)
        with pytest.raises(ValueError, match=r"^x=2 outside domain \[0, 1\]$"):
            bound.evaluate(2)

    def test_evaluate_at_every_breakpoint(self):
        # a breakpoint belongs to the piece on its right; both ends of the
        # domain are exact too
        for list_size in (2, 3, 6, 12):
            for delta in (Fraction(9, 10), Fraction(17, 20), Fraction(20, 21), Fraction(1, 3)):
                bound = insertion_bound_piecewise(delta, list_size)
                pieces = bound.pieces
                ends = ((1 - delta, pieces[0]), (Fraction(1), pieces[-1]))
                for point, piece in (*zip(bound.breakpoints(), pieces[1:]), *ends):
                    expected = piece.slope * point + piece.intercept
                    assert bound.evaluate(point) == expected
                    assert bound.evaluate(point) == insertion_bound(delta, list_size, point)
                assert bound.evaluate(1 - delta) == 0

    def test_objects_hold_only_their_public_fields(self):
        bound = insertion_bound_piecewise("9/10", 3)
        for value, names in (
            (bound, ("delta", "list_size", "r_min", "pieces")),
            (bound.pieces[0], ("lower", "upper", "slope", "intercept", "r")),
        ):
            assert tuple(f.name for f in fields(value)) == names
            assert sorted(_plain(value)) == sorted(names)

    def test_constructors_refuse_a_wrong_decomposition(self):
        # each case breaks one check of the real two-piece bound for 9/10
        bound = insertion_bound_piecewise("9/10", 2)
        left, right = bound.pieces
        tiny = Fraction(1, 10**9)
        with pytest.raises(ValueError, match="^piece interval is empty$"):
            replace(left, lower=left.upper + tiny)
        cases = [
            ({"pieces": ()}, "a piecewise bound needs at least one piece"),
            ({"delta": Fraction(1, 2)}, "pieces must cover exactly [1 - delta, 1]"),
            ({"r_min": 2}, "piece count must equal list_size - r_min + 1"),
            (
                {"pieces": (left, replace(right, lower=right.lower + tiny))},
                "pieces must tile the domain without gaps",
            ),
            (
                {"pieces": (left, replace(right, intercept=right.intercept + tiny))},
                "pieces must agree at shared breakpoints",
            ),
        ]
        for changes, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                replace(bound, **changes)

    def test_matches_the_fraction_loop(self):
        for b in range(2, 31):
            for a in range(1, b):
                delta = Fraction(a, b)
                for list_size in range(2, 13):
                    built = insertion_bound_piecewise(delta, list_size)
                    assert built == _fraction_loop_piecewise(delta, list_size)

    def test_an_interior_piece_moved_off_its_breakpoints_is_refused(self):
        rng = random.Random(0)
        moved = 0
        while moved < 200:
            b = rng.randint(2, 60)
            delta, list_size = Fraction(rng.randint(1, b - 1), b), rng.randint(3, 30)
            bound = insertion_bound_piecewise(delta, list_size)
            pieces = bound.pieces
            if len(pieces) < 3:
                continue
            k = rng.randrange(1, len(pieces) - 1)
            piece = pieces[k]
            nudge = Fraction(rng.choice((1, -1)), 10**9 * piece.intercept.denominator)
            off = replace(piece, intercept=piece.intercept + nudge)
            with pytest.raises(ValueError, match="^pieces must agree at shared breakpoints$"):
                replace(bound, pieces=pieces[:k] + (off,) + pieces[k + 1 :])
            assert replace(bound, pieces=pieces) == bound
            moved += 1

    @given(
        st.integers(2, 8),
        st.integers(1, 39),
        st.integers(0, 100),
    )
    def test_max_form_equals_pieces_property(self, list_size, dnum, step):
        delta = Fraction(dnum, 40)
        x = (1 - delta) + Fraction(step, 100) * delta
        bound = insertion_bound_piecewise(delta, list_size)
        assert bound.evaluate(x) == insertion_bound(delta, list_size, x)


class TestUniqueDecoding:
    def test_frozen_value(self):
        assert unique_decoding_bound(0.9, 0.7) == Fraction(1, 5)
        # two symbol-disjoint codewords
        assert unique_decoding_bound(1, Fraction(1, 3)) == Fraction(2, 3)

    @pytest.mark.parametrize("delta", [0, -0.5, "3/2", 1.01])
    def test_rejects_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError, match="0 < delta <= 1"):
            unique_decoding_bound(delta, 0)

    def test_rejects_tau_at_or_beyond_delta(self):
        with pytest.raises(ValueError):
            unique_decoding_bound(0.5, 0.5)
        with pytest.raises(ValueError):
            unique_decoding_bound(0.5, 0.6)
        with pytest.raises(ValueError):
            unique_decoding_bound(1, 1)


class TestHyQuadratics:
    def test_frozen_values(self):
        assert hy_quadratic1(0.9, 1) == 9
        assert hy_quadratic2(0.9, 2, 1) == Fraction(3, 2)
        assert hy_quadratic2(0.9, 2, Fraction(3, 10)) == -Fraction(3, 5)

    def test_second_strictly_below_first(self):
        for list_size in (2, 4):
            for dnum in range(1, 10):
                delta = Fraction(dnum, 10)
                for k in range(11):
                    x = Fraction(k, 10)
                    gap = hy_quadratic1(delta, x) - hy_quadratic2(delta, list_size, x)
                    assert gap > 0

    def test_match_textbook_formulas(self):
        # x ranges beyond [0, 1]: the quadratics do not check x
        rng = random.Random(7)
        for _ in range(500):
            den = rng.randint(2, 60)
            delta = Fraction(rng.randint(1, den - 1), den)
            x = Fraction(rng.randint(-80, 80), rng.randint(1, 40))
            list_size = rng.randint(2, 12)
            c = 1 - delta
            phi1 = x * x / c - x
            phi2 = ((list_size + 1) * x * x - (list_size + 1) * c * x + c - 1) / (
                list_size * c + 1
            )
            assert hy_quadratic1(delta, x) == phi1
            assert hy_quadratic2(delta, list_size, x) == phi2

    def test_delta_validated(self):
        for delta in (0, 1, "3/2", -0.25):
            with pytest.raises(ValueError, match="0 < delta < 1"):
                hy_quadratic1(delta, Fraction(1, 2))
            with pytest.raises(ValueError, match="0 < delta < 1"):
                hy_quadratic2(delta, 2, Fraction(1, 2))

    def test_list_size_examples(self):
        assert hy_list_size(0.9, 0.5, 0) == 1
        assert hy_list_size(0.9, 0.8, 0.05) == 2
        assert hy_list_size(0.5, 1, 0) is None  # outside the admissible region

    def test_list_size_region_boundary_is_strict(self):
        delta, tau_del = Fraction(9, 10), Fraction(1, 2)
        threshold = (delta - tau_del) * (1 - tau_del) / (1 - delta)
        assert hy_list_size(delta, threshold, tau_del) is None
        assert hy_list_size(delta, threshold - Fraction(1, 1000), tau_del) is not None

    def test_list_size_validation(self):
        with pytest.raises(ValueError):
            hy_list_size(0.9, -1, 0)
        with pytest.raises(ValueError):
            hy_list_size(0.9, 0.5, 1)


class _OwnFraction(Fraction):
    """A Fraction subclass, as a caller's own rational type might be."""


class TestInputTypes:
    """Every exact evaluator reads str, float, int and Fraction subclasses alike."""

    EVALUATORS = (
        lambda delta, x: insertion_bound(delta, 3, x),
        lambda delta, x: insertion_bound_piecewise(delta, 3).evaluate(x),
        lambda delta, x: hy_quadratic1(delta, x),
        lambda delta, x: hy_quadratic2(delta, 3, x),
    )

    @pytest.mark.parametrize("evaluate", EVALUATORS, ids=["max", "pieces", "phi1", "phi2"])
    def test_inputs_of_every_type(self, evaluate):
        expected = evaluate(Fraction(3, 4), Fraction(1, 2))
        assert type(expected) is Fraction
        for delta in ("3/4", "0.75", 0.75, _OwnFraction(3, 4)):
            for x in ("1/2", "0.5", 0.5, _OwnFraction(1, 2)):
                value = evaluate(delta, x)
                assert type(value) is Fraction
                assert value == expected
        top = evaluate(Fraction(3, 4), Fraction(1))
        for x in (1, "1", 1.0, _OwnFraction(1)):
            assert evaluate(Fraction(3, 4), x) == top


@st.composite
def _progressions(draw):
    """delta, L, and a progression of x = xn/xd through one anchor point.

    The anchor, hit at a drawn place of the run, is an end of the domain or
    an interior breakpoint of the bound; steps rise or fall, runs may have one
    point, and the run may leave the domain (the kernels check nothing).
    """
    dd = draw(st.integers(2, 60))
    delta = Fraction(draw(st.integers(1, dd - 1)), dd)
    big = draw(st.integers(2, 12))
    bound = insertion_bound_piecewise(delta, big)
    anchor = draw(st.sampled_from((1 - delta, *bound.breakpoints(), Fraction(1))))
    count = draw(st.integers(1, 30))
    at = draw(st.integers(0, count - 1))
    step = draw(st.integers(1, 4)) * draw(st.sampled_from((1, -1)))
    # a finer grid than the anchor's own denominator, scaled unreduced
    xd = anchor.denominator * draw(st.integers(1, 12))
    first = anchor.numerator * (xd // anchor.denominator) - step * at
    return delta, big, range(first, first + step * count, step), xd


def _unreduced(value, scale):
    return value.numerator * scale, value.denominator * scale


def _scaled(xns, scale):
    return range(xns.start * scale, xns.stop * scale, xns.step * scale)


def _values(run, count):
    """A kernel's runs, flattened in order, as values over its denominator;
    no run is empty."""
    runs, den = run
    nums = list(chain.from_iterable(runs))
    assert den > 0 and len(nums) == count and all(runs)
    return [Fraction(num, den) for num in nums]


def _owner(pieces, x):
    """Index of the piece whose value the bound takes at x: a linear lookup."""
    return next((i for i, p in enumerate(pieces) if x < p.upper), len(pieces) - 1)


SCALES = st.integers(1, 6)


class TestKernels:
    """Each progression kernel, fed unreduced pairs, equals a Fraction oracle at every point."""

    @given(_progressions(), SCALES, SCALES)
    def test_max_form(self, inputs, g, h):
        delta, big, xns, xd = inputs
        run = _max_form(*_unreduced(1 - delta, g), big, _scaled(xns, h), xd * h)
        expected = []
        for xn in xns:
            x = Fraction(xn, xd)
            terms = (
                Fraction(2 * big - r + 1, big + 1) * x - Fraction(big, r) * (1 - delta)
                for r in range(1, big + 1)
            )
            expected.append(max(terms))
        assert _values(run, len(xns)) == expected

    @given(_progressions(), SCALES, SCALES)
    def test_hy_quadratics(self, inputs, g, h):
        delta, big, xns, xd = inputs
        c, at = _unreduced(1 - delta, g), (_scaled(xns, h), xd * h)
        xs = [Fraction(xn, xd) for xn in xns]
        cf = 1 - delta
        phi1 = [x * x / cf - x for x in xs]
        phi2 = [((big + 1) * x * x - (big + 1) * cf * x + cf - 1) / (big * cf + 1) for x in xs]
        assert _values(_hy1(*c, *at), len(xs)) == phi1
        assert _values(_hy2(*c, big, *at), len(xs)) == phi2

    @given(_progressions(), SCALES)
    def test_pieces(self, inputs, h):
        delta, big, xns, xd = inputs
        bound = insertion_bound_piecewise(delta, big)
        pieces = bound.pieces
        xs = [Fraction(xn, xd) for xn in xns]
        expected = []
        for x in xs:
            piece = pieces[_owner(pieces, x)]
            expected.append(piece.slope * x + piece.intercept)
        assert _values(bound._pair(_scaled(xns, h), xd * h), len(xs)) == expected
        # adjacent pieces agree at a breakpoint, so values cannot show which
        # piece owns it; with piece i made the constant i, each value names
        # its owner, and a breakpoint belongs to the piece on its right
        flat = tuple(replace(p, slope=0, intercept=i) for i, p in enumerate(pieces))
        object.__setattr__(bound, "pieces", flat)
        owners = _values(bound._pair(_scaled(xns, h), xd * h), len(xs))
        assert owners == [_owner(pieces, x) for x in xs]

    def test_pieces_share_the_max_forms_denominator(self):
        # criterion 5 compares the two kernels' (runs, denominator) pairs, so
        # on the domain the denominators must be equal, not only the values,
        # and so must the runs unless x = 1 is a grid point where two terms
        # cross: there the max form takes the next term, and the pieces the
        # last piece; rising, falling and one-point grids in turn
        rng = random.Random(33)
        for case in range(300):
            dd = rng.randint(2, 60)
            delta = Fraction(rng.randint(1, dd - 1), dd)
            big = rng.randint(2, 12)
            cn, cd = (1 - delta).numerator, (1 - delta).denominator
            xd = cd * rng.randint(1, 12)
            a, b = sorted(rng.randint(-(-xd * cn // cd), xd) for _ in range(2))
            step = rng.randint(1, 3)
            xns = (range(a, b + 1, step), range(b, a - 1, -step), range(a, a + 1))[case % 3]
            pair = insertion_bound_piecewise(delta, big)._pair(xns, xd)
            direct = _max_form(cn, cd, big, xns, xd)
            assert pair[1] == direct[1], (delta, big, xns, xd)
            assert _values(pair, len(xns)) == _values(direct, len(xns))
            crossing_at_one = xd in xns and any(
                big * (big + 1) * cn == r * (r + 1) * cd for r in range(1, big)
            )
            if not crossing_at_one:
                assert pair == direct, (delta, big, xns, xd)

    def test_a_hand_built_bound_with_foreign_slopes_is_exact(self):
        # slopes 1/7 and 3/11 share no factor with (L+1) delta.den lcm(1..L)
        second = Fraction(3, 11)
        meet = Fraction(1, 7) * Fraction(3, 10) - Fraction(1, 70)
        pieces = (
            LinearPiece(Fraction(1, 10), Fraction(3, 10), Fraction(1, 7), Fraction(-1, 70), 2),
            LinearPiece(Fraction(3, 10), Fraction(1), second, meet - second * Fraction(3, 10), 1),
        )
        bound = PiecewiseBound(delta=Fraction(9, 10), list_size=2, r_min=1, pieces=pieces)
        for xns in (range(3, 31), range(30, 2, -3), range(17, 18)):
            xs = [Fraction(xn, 30) for xn in xns]
            expected = [pieces[_owner(pieces, x)].value(x) for x in xs]
            assert _values(bound._pair(xns, 30), len(xs)) == expected
            assert [bound.evaluate(x) for x in xs] == expected


def _literal_terms(cn, cd, big, xns, xd):
    """The L term progressions of the max form, over its denominator."""
    scale = math.lcm(*range(1, big + 1))
    shared = big * (big + 1) * cn * xd
    start, step, count = xns.start, xns.step, len(xns)
    terms = []
    for r in range(1, big + 1):
        slope = (2 * big - r + 1) * cd * scale
        terms.append(_progression(slope * start - shared * (scale // r), slope * step, count))
    return terms, (big + 1) * xd * cd * scale


def _literal_max_form(cn, cd, big, xns, xd):
    """The max form as it reads: the max over all L terms at every point,
    as one list run."""
    terms, den = _literal_terms(cn, cd, big, xns, xd)
    return [list(map(max, *terms))], den


def _same_values(run):
    """The max form equals its literal oracle at every point of run's grid,
    each of its runs a ``range``, one per winning term."""
    runs, _ = direct = _max_form(*run)
    assert all(type(part) is range for part in runs)
    count = len(run[3])
    return _values(direct, count) == _values(_literal_max_form(*run), count)


def _most_passing(cn, cd, big, xns, xd):
    """The most terms that pass the leader between two neighbouring points."""
    terms, _ = _literal_terms(cn, cd, big, xns, xd)
    most = 0
    for k in range(len(xns) - 1):
        leader = max(terms, key=lambda term: term[k])
        most = max(most, sum(term[k + 1] > leader[k + 1] for term in terms))
    return most


def _envelope_runs(seed):
    """Seeded (cn, cd, L, xns, xd) inputs of the max-form kernel.

    Each run passes, at a drawn place, through an anchor: the crossing
    x = L (L+1) (1 - delta) / (r s) of terms r < s (often neighbours, whose
    crossing is a breakpoint of the bound), an end of the domain, or any
    point in [0, 3/2].  Steps rise or fall, fine or coarse enough for many
    terms to pass the leader between two points; counts run from 1 to
    1,000, runs may leave [1 - delta, 1], and both pairs are unreduced.
    """
    rng = random.Random(seed)
    for big in (*range(2, 13), 40, 100):
        for _ in range(60):
            dd = rng.randint(2, 60)
            c = Fraction(rng.randint(1, dd - 1), dd)  # 1 - delta
            r = rng.randint(1, big - 1)
            s = r + 1 if rng.random() < 0.5 else rng.randint(r + 1, big)
            anchor = rng.choice(
                (c * big * (big + 1) / (r * s), c, Fraction(1), Fraction(rng.randint(0, 3 * dd), 2 * dd))
            )
            count = rng.choice((1, 2, 3, rng.randint(4, 12), rng.randint(1, 1000)))
            xd = anchor.denominator * rng.randint(1, 12)
            step = rng.choice((rng.randint(1, 4), rng.randint(1, xd)))
            step *= rng.choice((1, -1))
            first = anchor.numerator * (xd // anchor.denominator) - step * rng.randrange(count)
            g, h = rng.randint(1, 4), rng.randint(1, 4)
            xns = range(first * h, (first + step * count) * h, step * h)
            yield c.numerator * g, c.denominator * g, big, xns, xd * h


class TestMaxFormEnvelope:
    """The max form cuts each term's run where neighbouring terms cross; the
    literal max over every term at every point is the oracle."""

    def test_equals_the_literal_max(self):
        passes = []
        for run in _envelope_runs(17):
            assert _same_values(run), run
            if len(run[3]) <= 12:
                passes.append(_most_passing(*run))
        # the corpus reaches three or more terms passing the leader at once,
        # where the next leader is the largest of them, not the steepest
        assert max(passes) >= 3

    def test_one_step_from_the_lower_end_to_one(self):
        # at x = 1/10 term 10 leads; at x = 1 terms 2..9 all pass it, and the
        # leader there is term 3, not the steepest passer, term 2
        run = (1, 10, 10, range(1, 11, 9), 10)
        assert _same_values(run)
        assert _most_passing(*run) == 8

    def test_list_size_one_is_the_unique_decoding_line(self):
        # the region rows and the figures' unique-decoding column rely on it,
        # at delta = 1 (cn = 0) too; the pairs are mostly unreduced
        rng = random.Random(1)
        for _ in range(400):
            cd = rng.randint(1, 40)
            cn = rng.choice((0, rng.randrange(cd)))
            g, xd = rng.randint(1, 4), rng.randint(1, 30)
            step = rng.choice((1, -1)) * rng.randint(1, xd)
            first = rng.randint(-xd, 2 * xd)
            xns = range(first, first + step * rng.randint(1, 50), step)
            assert _values(_max_form(cn * g, cd * g, 1, xns, xd), len(xns)) == [
                Fraction(xn, xd) - Fraction(cn, cd) for xn in xns
            ]

    def test_needs_no_piece_decomposition(self, monkeypatch):
        # criterion 5 compares the max form with the pieces; it compares two
        # derivations only if the max form never consults the pieces
        runs = list(_envelope_runs(3))[::7]
        points = [(Fraction(9, 10), big, Fraction(19, 20)) for big in (2, 10, 40, 100)]
        expected = [_max_form(*run) for run in runs], [insertion_bound(*p) for p in points]

        def refuse(*args):
            raise AssertionError("the max form consulted the piece decomposition")

        monkeypatch.setattr(bounds, "insertion_bound_piecewise", refuse)
        monkeypatch.setattr(bounds.PiecewiseBound, "_pair", refuse)
        assert ([_max_form(*run) for run in runs], [insertion_bound(*p) for p in points]) == expected


class TestCrossoverConstants:
    def test_golden_value_for_list_size_two(self):
        golden = (27 - math.sqrt(57)) / 28
        assert abs(hy_crossover_delta(2) - golden) < 1e-9

    def test_root_is_within_four_ulps_up_to_fifty(self):
        # the crossover quadratic, exact at floats, changes sign across
        # beta2 +- 4 ulps: a mistyped formula or lost digits both fail
        def quadratic(big, beta):
            beta = Fraction(beta)
            return 2 * (3 * big + 1) * beta * beta + (big - 1) * (big - 3) * beta - (big - 1) ** 2

        for list_size in range(2, 51):
            below = above = hy_crossover_root(list_size)
            for _ in range(4):
                below, above = math.nextafter(below, 0), math.nextafter(above, 1)
            assert quadratic(list_size, below) < 0 < quadratic(list_size, above), list_size

    def test_crossover_delta_is_above_the_unique_decoding_radius(self):
        # the lemma in hy_crossover_delta's docstring: 1 - beta2 > 2/(L+1)
        for list_size in range(2, 10**4 + 1):
            assert Fraction(hy_crossover_delta(list_size)) > Fraction(2, list_size + 1), list_size

    @pytest.mark.xfail(
        strict=True,
        reason="1 - beta2 cancels in floats: 2.48e-9 against 2/(L+1) = 3.73e-9 "
        "(exact about 7.45e-9); an exact surd for delta1 mends it",
    )
    def test_crossover_delta_keeps_the_lemma_at_half_a_billion(self):
        list_size = 536_877_953
        assert Fraction(hy_crossover_delta(list_size)) > Fraction(2, list_size + 1)

    def test_root_below_breakpoint_slope_ratio(self):
        # why hy_crossover_delta is 1 - beta2, the larger argument of its max
        for list_size in range(2, 51):
            ratio = (list_size - 1) / (list_size + 1)
            assert 0 < hy_crossover_root(list_size) < ratio


class TestComparisonReport:
    def test_landmarks_for_delta_nine_tenths(self):
        report = comparison_report(0.9, 2)
        assert report.p2 == (0.7, 0.2)  # exact by construction
        assert report.interval is not None
        assert report.interval[1] == 0.7
        assert not report.extra_crossings

        c = 0.1
        alpha = (17 * c + 4 + math.sqrt(-143 * c * c - 188 * c + 124)) / 18
        assert report.p1 is not None
        assert abs(report.p1[0] - (1 - alpha)) < 1e-6
        assert 0 < report.interval[0] < report.interval[1]

    def test_below_crossover_reports_constants_only(self):
        report = comparison_report(0.6, 2)
        assert report.interval is None
        assert report.p1 is None
        assert report.p2 is None
        assert abs(report.delta1 - (27 - math.sqrt(57)) / 28) < 1e-9

    def test_window_above_crossover_for_list_size_three(self):
        report = comparison_report(0.8, 3)
        assert report.p2 is not None
        assert abs(report.p2[0] - 0.6) < 1e-12
        assert abs(report.p2[1] - 0.2) < 1e-12
        assert report.interval is not None
        assert report.p1 is not None  # quadratic regains the lead near tau_del = 0
        lo, hi = report.interval
        assert 0 < lo < hi == report.p2[0]

    def test_breakpoint_advantage_iff_beyond_crossover(self):
        # compare the bound and the quadratic where the advantage peaks
        for list_size in (2, 3, 5):
            delta1 = hy_crossover_delta(list_size)
            for i in range(1, 100):
                delta = Fraction(i, 100)
                if abs(float(delta) - delta1) < 1e-6:
                    continue
                x = Fraction(list_size + 1, list_size - 1) * (1 - delta)
                lhs = Fraction(2, list_size - 1) * (1 - delta)
                rhs = hy_quadratic2(delta, list_size, x)
                if x <= 1:
                    assert insertion_bound(delta, list_size, x) == lhs
                assert (lhs > rhs) == (float(delta) > delta1)

    def test_p2_is_the_first_breakpoint(self):
        # the report reads P2 off the first piece; the closed form is the oracle
        for list_size in range(2, 13):
            for i in range(1, 97):
                delta = Fraction(i, 97)
                if float(delta) <= hy_crossover_delta(list_size):
                    continue
                report = comparison_report(delta, list_size)
                assert report.p2 == (
                    float(1 - Fraction(list_size + 1, list_size - 1) * (1 - delta)),
                    float(Fraction(2, list_size - 1) * (1 - delta)),
                )

    # delta1(3) + 1e-16: the window is exactly positive but thinner than a
    # float step at P2
    THIN = Fraction(5527864045000421607, 10**19)

    def test_a_thin_window_is_reported_degenerate_and_ordered(self):
        x = 2 * (1 - self.THIN)  # P2, the first breakpoint at L = 3
        assert insertion_bound(self.THIN, 3, x) > hy_quadratic2(self.THIN, 3, x)
        report = comparison_report(self.THIN, 3)
        assert report.interval == (0.10557280900008433, 0.10557280900008433)
        lo, hi = report.interval
        assert lo <= hi == report.p2[0] == report.p1[0]
        assert not report.extra_crossings

    def test_a_window_closing_exactly_at_a_breakpoint(self):
        # at delta = 26/41, L = 12 the gap is 0 at T_9 = 26/41 and negative
        # on the next piece, where float roots see a spurious window
        delta, x = Fraction(26, 41), Fraction(26, 41)
        assert x in insertion_bound_piecewise(delta, 12).breakpoints()
        for y, sign in ((x - Fraction(1, 10**6), 1), (x, 0), (x + Fraction(1, 10**6), -1)):
            gap = insertion_bound(delta, 12, y) - hy_quadratic2(delta, 12, y)
            assert (gap > 0) - (gap < 0) == sign
        report = comparison_report(delta, 12)
        assert report.interval == (0.36585365853658547, 0.5676274944567627)
        assert report.p1 == (0.36585365853658547, 0.29268292682926816)
        assert abs(report.interval[0] - float(1 - x)) < 1e-15
        assert not report.extra_crossings

    def test_decisions_never_read_the_crossover_constants(self, monkeypatch):
        inputs = [(Fraction(i, 23), list_size) for i in range(1, 23) for list_size in (2, 3, 7)]
        inputs.append((self.THIN, 3))

        def decided(report):
            return report.interval, report.p1, report.p2, report.extra_crossings

        expected = [decided(comparison_report(*args)) for args in inputs]
        assert any(window is None for window, *_ in expected)
        assert any(window is not None for window, *_ in expected)
        for name in ("hy_crossover_root", "hy_crossover_delta"):
            monkeypatch.setattr(bounds, name, lambda list_size: 0.5)
        assert [decided(comparison_report(*args)) for args in inputs] == expected

    def test_window_iff_beyond_crossover(self):
        for list_size in range(2, 13):
            delta1 = hy_crossover_delta(list_size)
            for b in range(2, 31):
                for a in range(1, b):
                    delta = Fraction(a, b)
                    if delta.denominator != b or abs(float(delta) - delta1) < 1e-9:
                        continue
                    report = comparison_report(delta, list_size)
                    assert (report.interval is not None) == (float(delta) > delta1)

    def test_report_is_plain_data(self):
        report = comparison_report(0.9, 2)
        assert isinstance(report, ComparisonReport)
        assert report.list_size == 2
        assert report.delta == 0.9


def _coprime_fractions(max_denominator):
    """Every a/b in (0, 1) with b <= max_denominator, each once."""
    return sorted(
        {Fraction(a, b) for b in range(2, max_denominator + 1) for a in range(1, b)}
    )


class TestComparisonWindow:
    """The lemmas of `comparison_report`, in exact arithmetic.

    With c = 1 - delta, D = L c + 1 and T_r = L(L+1) c/(r(r+1)), the gap
    g_r is piece r minus quadratic2; `comparison_report` relies on it
    closing its window on some piece (Lemma A) and never reopening it
    (Lemma B).
    """

    @staticmethod
    def gap(c, big, r, x):
        piece = Fraction(2 * big - r + 1, big + 1) * x - big * c / r
        return piece - hy_quadratic2(1 - c, big, x)

    @staticmethod
    def c_r(big, r):
        n_r = (2 * big - r + 1) * r * (r + 1)
        m_r = (big + 1) ** 2 * (2 * big * (big + 1) - r * (r + 1)) - big * n_r
        assert m_r > 0
        return Fraction(n_r, m_r)

    def test_lemma_a_the_last_piece_ends_below_the_quadratic(self):
        for big in range(2, 41):
            for r in range(1, big):
                lin = r * (2 * big - r + 1) + (r - 1) * (big + 1)
                const = r * (big + 1) * (big - r + 1 - big * big)
                top = r * (r + 1)
                assert lin >= 2 * top  # -u^2 + lin u + const rises up to top
                assert -top * top + lin * top + const < 0
                # u = L(L+1) c across [r(r-1), r(r+1)), where r owns x = 1
                for u in (Fraction(r * (r - 1)), Fraction(r * r), top - Fraction(1, 7)):
                    if u == 0:
                        continue
                    c = u / (big * (big + 1))
                    bound = insertion_bound_piecewise(1 - c, big)
                    assert bound.r_min == r and len(bound.pieces) >= 2
                    gap = insertion_bound(1 - c, big, 1) - hy_quadratic2(1 - c, big, 1)
                    d = big * c + 1
                    assert gap == (-u * u + lin * u + const) / (r * (big + 1) ** 2 * d)
                    assert gap < 0

    def test_lemma_b_slopes_and_kinks(self):
        for big in range(2, 9):
            thresholds = [self.c_r(big, r) for r in range(1, big + 1)]
            assert thresholds[-1] == 1
            assert thresholds == sorted(set(thresholds))  # strictly rising in r
            for c in _coprime_fractions(40):
                d = big * c + 1
                for r in range(1, big + 1):
                    # (i) the gap's slope at the start of piece r
                    t_r = Fraction(big * (big + 1), r * (r + 1)) * c
                    slope = Fraction(2 * big - r + 1, big + 1) - (big + 1) * (2 * t_r - c) / d
                    assert (slope <= 0) == (c >= thresholds[r - 1])
                    # (ii) a piece whose gap closes at its kink T_(r-1)
                    if r >= 2:
                        kink = Fraction(big * (big + 1), (r - 1) * r) * c
                        if self.gap(c, big, r, kink) <= 0:
                            assert c > thresholds[r - 2]

    def test_one_window_over_a_grid(self):
        for big in range(2, 13):
            for delta in _coprime_fractions(30):
                report = comparison_report(delta, big)
                landmarks = (report.interval, report.p1, report.p2)
                assert all(v is None for v in landmarks) or None not in landmarks
                assert not report.extra_crossings
                pieces = insertion_bound_piecewise(delta, big).pieces
                # from P2, the first piece's end, the gap's signs at the piece
                # ends fall once at most
                signs = [self.gap(1 - delta, big, p.r, p.upper) > 0 for p in pieces]
                assert signs == sorted(signs, reverse=True)
                assert (report.interval is not None) == (len(pieces) > 1 and signs[0])


def _piece_walk_report(delta, big):
    """`comparison_report` as the piece walk it replaced: every piece built,
    and the window closed on the first piece, left to right, whose exact
    gap over quadratic2 is not positive at its upper end."""
    beta2 = hy_crossover_root(big)
    base = ComparisonReport(float(delta), big, 1 - beta2, beta2)
    first, *rest = insertion_bound_piecewise(delta, big).pieces

    def gap(piece, x):
        return piece.value(x) - hy_quadratic2(delta, big, x)

    if not rest or gap(rest[0], rest[0].lower) <= 0:
        return base
    p2 = (float(1 - first.upper), float(first.value(first.upper)))
    closing = next(p for p in rest if gap(p, p.upper) <= 0)
    one_minus = float(1 - delta)
    denom = big * one_minus + 1
    qa = (big + 1) / denom
    b2 = float(closing.slope) + (big + 1) * one_minus / denom
    c2 = float(closing.intercept) - (one_minus - 1) / denom
    right = (b2 + math.sqrt(max(0.0, b2 * b2 + 4 * qa * c2))) / (2 * qa)
    x1 = min(float(closing.upper), max(float(closing.lower), right))
    tau1 = min(1 - x1, p2[0])
    p1 = (tau1, float(insertion_bound(delta, big, x1)))
    return replace(base, interval=(tau1, p2[0]), p1=p1, p2=p2)


class TestEveryListSize:
    """Both bounds at any list size: the bound's limit as L grows, and one
    point and one report at L = 10^9, where no piece can be built."""

    BILLION = 10**9

    def test_the_bound_rises_with_the_list_size_to_below_its_limit(self):
        # v < 2(x - sqrt(xc)) exactly when h = x - v/2 > 0 and h^2 > x c;
        # at x = c both are 0
        points = 0
        for b in range(2, 16):
            for a in range(1, b):
                delta = Fraction(a, b)
                c = 1 - delta
                for x in (Fraction(k, 12) for k in range(13)):
                    if x < c:
                        continue
                    previous = 0
                    for big in range(2, 41):
                        value = insertion_bound(delta, big, x)
                        assert value >= previous, (delta, x, big)
                        previous = value
                        half = x - value / 2
                        if x == c:
                            assert value == 0
                        else:
                            assert half > 0 and half * half > x * c, (delta, x, big)
                        points += 1
        assert points == 27_222

    def test_one_point_at_a_billion_is_its_winning_term(self):
        big, c, x = self.BILLION, Fraction(1, 10), Fraction(1, 2)

        def term(r):
            return Fraction(2 * big - r + 1, big + 1) * x - Fraction(big, r) * c

        # r* is the least r with r(r+1) >= L(L+1) c / x: a float guess, then
        # exact steps
        target = big * (big + 1) * c / x
        r = int(math.sqrt(target))
        while r * (r + 1) < target:
            r += 1
        while (r - 1) * r >= target:
            r -= 1
        assert term(r - 1) < term(r) >= term(r + 1)
        assert insertion_bound("9/10", big, "1/2") == term(r)

    def test_a_report_at_a_billion_builds_no_piece(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the report built the piece decomposition")

        monkeypatch.setattr(bounds, "insertion_bound_piecewise", refuse)
        monkeypatch.setattr(bounds.PiecewiseBound, "_pair", refuse)
        report = comparison_report("9/10", self.BILLION)
        big, c = self.BILLION, Fraction(1, 10)
        assert report.p2 == (float(1 - (big + 1) * c / (big - 1)), float(2 * c / (big - 1)))
        assert report.interval is not None and report.p1 is not None
        assert 0 < report.interval[0] < report.interval[1] == report.p2[0]

    def test_the_bisected_report_is_the_piece_walks(self):
        inputs = [(delta, big) for big in range(2, 21) for delta in _coprime_fractions(24)]
        inputs += [(TestComparisonReport.THIN, 3), (Fraction(26, 41), 12)]
        inputs += [(Fraction(a, 7), big) for a in range(1, 7) for big in (50, 97, 200)]
        windows = 0
        for delta, big in inputs:
            report = comparison_report(delta, big)
            assert report == _piece_walk_report(delta, big), (delta, big)
            windows += report.interval is not None
        assert 0 < windows < len(inputs)
