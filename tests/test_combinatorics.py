"""Cover-count recursion, signed sums, and elimination rows against oracles."""

import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel_lab.combinatorics import (
    EliminationRow,
    EnumerationCapError,
    alternating_binomial_sum,
    count_v_covers,
    elimination_row,
    elimination_tail_term,
    enumerate_v_covers,
    inclusion_exclusion_coefficient,
    signed_cover_sum,
)


class TestCoverCounts:
    def test_frozen_small_cases(self):
        # three 2-subsets of {1,2,3}: any two of them already cover
        assert count_v_covers(3, 2, 2) == 3
        assert count_v_covers(2, 1, 2) == 1
        assert count_v_covers(3, 1, 2) == 0  # one pair cannot cover three points
        assert count_v_covers(2, 3, 1) == 0  # only two singletons exist

    def test_recursion_matches_enumeration(self):
        for j in range(1, 5):
            for v in range(1, j + 1):
                for ell in range(1, comb(j, v) + 1):
                    assert count_v_covers(j, ell, v) == enumerate_v_covers(j, ell, v)

    def test_singleton_families(self):
        # covering with singletons forces one set per point
        for j in range(1, 7):
            for ell in range(1, j + 2):
                expected = 1 if ell == j else 0
                assert count_v_covers(j, ell, 1) == expected

    def test_taking_every_subset_always_covers(self):
        for j in range(1, 6):
            for v in range(1, j + 1):
                assert count_v_covers(j, comb(j, v), v) == 1

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            count_v_covers(0, 1, 1)
        with pytest.raises(ValueError):
            count_v_covers(3, 0, 1)
        with pytest.raises(ValueError):
            count_v_covers(3, 1, 0)
        assert count_v_covers(3, 1, 4) == 0  # no 4-subsets of a 3-set exist

    def test_arguments_must_be_ints(self):
        # True must not pass as 1, nor hit the cached entry for 1
        assert count_v_covers(1, 1, 1) == 1
        with pytest.raises(ValueError, match="^j must be a positive integer, got True$"):
            count_v_covers(True, 1, 1)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_v_covers(8, 10, 4, cap=100)

    @pytest.mark.parametrize(
        "cap, message",
        [(3.5, "cap must be an int, got 3.5"), (-1, "cap must be nonnegative, got -1")],
    )
    def test_cap_must_be_a_nonnegative_int(self, cap, message):
        # a float cap compares like any bound, so the families would be counted
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_v_covers(3, 2, 2, cap=cap)


class TestSignedSums:
    def test_closed_form_matches_oracle(self):
        for j in range(1, 8):
            for v in range(1, j + 1):
                closed = inclusion_exclusion_coefficient(j, v)
                assert closed == signed_cover_sum(j, v)
                assert closed == (-1) ** (j - v) * comb(j - 1, v - 1)

    def test_frozen_values(self):
        assert inclusion_exclusion_coefficient(2, 3) == 0  # j < v: no v-subset fits
        assert inclusion_exclusion_coefficient(4, 2) == 3
        assert inclusion_exclusion_coefficient(5, 3) == 6
        assert inclusion_exclusion_coefficient(6, 1) == -1

    def test_alternating_sum_is_always_one(self):
        for j in range(1, 25):
            for v in range(1, j + 1):
                assert alternating_binomial_sum(j, v) == 1

    def test_alternating_sum_returns_int(self):
        # exactness matters downstream; no float leakage from sign powers
        value = alternating_binomial_sum(12, 5)
        assert isinstance(value, int) and value == 1

    def test_alternating_sum_domain(self):
        assert alternating_binomial_sum(1, 1) == 1  # single-term base case
        assert alternating_binomial_sum(2, 2) == 1
        with pytest.raises(ValueError):
            alternating_binomial_sum(2, 3)  # v may not exceed j
        with pytest.raises(ValueError):
            alternating_binomial_sum(3, 0)

    @given(st.integers(1, 40).flatmap(lambda j: st.tuples(st.just(j), st.integers(1, j))))
    def test_alternating_sum_property(self, jv):
        j, v = jv
        assert alternating_binomial_sum(j, v) == 1


class TestEliminationRows:
    def test_frozen_rows(self):
        assert elimination_row(2, 2).coefficients == (2, -1, 0)
        assert elimination_row(2, 1).coefficients == (1, -1, 1)
        assert elimination_row(4, 2).coefficients == (2, -1, 0, 1, -2)
        assert elimination_row(3, 3).coefficients == (3, -1, 0, 0)
        assert elimination_row(4, 1).coefficients == (1, -1, 1, -1, 1)

    def test_leading_structure(self):
        for list_size in range(2, 10):
            for r in range(1, list_size + 1):
                row = elimination_row(list_size, r)
                assert len(row.coefficients) == list_size + 1
                assert row.coefficient(1) == r
                assert row.coefficient(2) == -1
                for j in range(3, min(r + 1, list_size) + 1):
                    assert row.coefficient(j) == 0

    def test_tail_closed_form(self):
        for list_size in range(4, 11):
            for r in range(2, list_size - 1):
                row = elimination_row(list_size, r)
                for j in range(r + 2, list_size + 2):
                    term = elimination_tail_term(r, j)
                    assert term.denominator == 1
                    assert row.coefficient(j) == term

    def test_tail_alternates_in_sign(self):
        for list_size in (6, 9):
            for r in range(2, list_size):
                row = elimination_row(list_size, r)
                for j in range(r + 2, list_size + 2):
                    coefficient = row.coefficient(j)
                    assert coefficient != 0
                    assert (coefficient > 0) == ((j - r) % 2 == 0)

    def test_adjacent_tail_pair_margin(self):
        # |c_j| weighted by j+1 dominates |c_{j+1}| with room to spare
        for list_size in range(4, 12):
            for r in range(2, list_size):
                row = elimination_row(list_size, r)
                for j in range(r + 2, list_size + 1):
                    margin = (j + 1) * abs(row.coefficient(j)) - abs(
                        row.coefficient(j + 1)
                    )
                    expected = comb(j - 3, r - 1) * (
                        j - Fraction(r - 1, j - r - 1)
                    )
                    assert margin == expected
                    assert margin >= 3

    def test_rows_turn_intersection_sums_into_weighted_depths(self):
        # for any L + 1 sets with j-fold intersection sizes summing to S_j,
        # sum_j c_j S_j = sum_{u=1..r} (r+1-u) N_u, N_u being the number of
        # points in at least u sets; at r = 1 this is inclusion-exclusion
        rng = random.Random(8)
        for list_size in range(2, 8):
            for _ in range(30):
                ground = range(rng.randint(1, 8))
                density = rng.random()
                family = [
                    frozenset(x for x in ground if rng.random() < density)
                    for _ in range(list_size + 1)
                ]
                sums = [
                    sum(len(frozenset.intersection(*sets)) for sets in itertools.combinations(family, j))
                    for j in range(1, list_size + 2)
                ]
                depths = [sum(x in s for s in family) for x in ground]
                for r in range(1, list_size + 1):
                    row = elimination_row(list_size, r)
                    weighted = sum((r + 1 - u) * sum(d >= u for d in depths) for u in range(1, r + 1))
                    combined = sum(c * s for c, s in zip(row.coefficients, sums))
                    assert combined == weighted, (family, r)

    @pytest.mark.parametrize(
        "call, message",
        [
            # True ran as r = 1, and the floats raised TypeError in range and comb
            (lambda: elimination_row(3, True), "r must be a positive integer, got True"),
            (lambda: elimination_row(3.0, 1), "list_size must be a positive integer, got 3.0"),
            (lambda: elimination_tail_term(2.0, 4), "r must be a positive integer, got 2.0"),
            (lambda: elimination_tail_term(2, 4.0), "j must be a positive integer, got 4.0"),
        ],
        ids=["row-bool-r", "row-float-list-size", "tail-float-r", "tail-float-j"],
    )
    def test_arguments_must_be_ints(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"r": 1, "list_size": 1, "coefficients": (1, -1)}, "list_size must be at least 2"),
            (
                {"r": 1, "list_size": 2, "coefficients": (1, -1)},
                "expected one coefficient per order 1..list_size+1",
            ),
            (
                {"r": 2, "list_size": 2, "coefficients": (2, 1, 0)},
                "order-2 coefficient must equal -1",
            ),
        ],
        ids=["list-size", "length", "order-2"],
    )
    def test_row_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EliminationRow(**kwargs)

    @pytest.mark.parametrize(
        "r, j, message",
        [
            (1, 5, "closed form requires r >= 2"),
            (3, 4, "closed form covers orders j >= r + 2 only"),
        ],
    )
    def test_tail_term_range(self, r, j, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            elimination_tail_term(r, j)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            elimination_row(3, 0)
        with pytest.raises(ValueError):
            elimination_row(3, 4)
        with pytest.raises(ValueError):
            # order-3 entry must vanish for r = 2
            EliminationRow(r=2, list_size=2, coefficients=(2, -1, 1))
        with pytest.raises(ValueError):
            # leading entry must equal r
            EliminationRow(r=2, list_size=2, coefficients=(1, -1, 0))
