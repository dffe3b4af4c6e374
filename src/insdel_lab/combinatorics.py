"""Covers of a finite set by fixed-size subsets, and the alternating
coefficients they induce when inclusion-exclusion is pushed through a union of
intersections.

The central objects are:

* ``count_v_covers(j, ell, v)``: the number of families of ``ell`` distinct
  v-element subsets of {1..j} whose union is all of {1..j};
* ``inclusion_exclusion_coefficient(j, v)``: the signed sum of those counts
  over the family size, which collapses to a single binomial term;
* ``elimination_row(list_size, r)``: integer weights on j-fold intersection
  sums such that orders 3..r+1 cancel, leaving a two-term bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .words import _require_cap

DEFAULT_FAMILY_CAP = 10**8


class EnumerationCapError(RuntimeError):
    """Brute-force cover enumeration would exceed the family cap."""


def _validate_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


@lru_cache(maxsize=None, typed=True)
def count_v_covers(j: int, ell: int, v: int) -> int:
    """Number of size-`ell` families of v-subsets of {1..j} covering {1..j}.

    Computed by subtracting, from all C(C(j,v), ell) families, those whose
    union is a proper subset, grouped by the union's size t:

        count(j, ell, v) = C(C(j,v), ell) - sum_t C(j,t) * count(t, ell, v).

    Zero whenever ell exceeds the number of available subsets or the family
    cannot reach j elements (ell * v < j); the sum skips every such t, so
    below the top call no zero is stored.  The memo is shared across calls.
    """
    _validate_positive(j=j, ell=ell, v=v)
    subsets = comb(j, v)
    if ell > subsets or ell * v < j:
        return 0
    return comb(subsets, ell) - sum(
        comb(j, t) * count_v_covers(t, ell, v)
        for t in range(1, min(j, ell * v + 1)) if ell <= comb(t, v)
    )


def enumerate_v_covers(j: int, ell: int, v: int, cap: int = DEFAULT_FAMILY_CAP) -> int:
    """Brute-force oracle for count_v_covers: walk every family and test its union.

    Families are generated in lexicographic order over the lexicographically
    ordered v-subsets.  Raises EnumerationCapError if more than `cap` families
    would be visited, and ValueError unless `cap` is a nonnegative int.
    """
    _validate_positive(j=j, ell=ell, v=v)
    _require_cap(cap)
    ground = tuple(range(1, j + 1))
    subsets = list(itertools.combinations(ground, v))
    total = comb(len(subsets), ell)
    if total > cap:
        raise EnumerationCapError(
            f"{total} families of {ell} subsets exceed cap {cap}"
        )
    count = 0
    for family in itertools.combinations(subsets, ell):
        union: set[int] = set()
        for member in family:
            union.update(member)
        if len(union) == j:
            count += 1
    return count


def inclusion_exclusion_coefficient(j: int, v: int) -> int:
    """The alternating-sign cover count sum_ell (-1)^(ell-1) count_v_covers(j, ell, v).

    Closed form: (-1)^(j-v) C(j-1, v-1), and 0 when j < v (no v-subset fits).
    This is the net coefficient a j-element index set receives when a union of
    v-fold intersections is expanded by inclusion-exclusion.
    """
    _validate_positive(j=j, v=v)
    if j < v:
        return 0
    return (-1) ** (j - v) * comb(j - 1, v - 1)


def signed_cover_sum(j: int, v: int) -> int:
    """Oracle for inclusion_exclusion_coefficient: the defining alternating sum."""
    _validate_positive(j=j, v=v)
    return sum(
        (-1) ** (ell - 1) * count_v_covers(j, ell, v)
        for ell in range(1, comb(j, v) + 1)
    )


def alternating_binomial_sum(j: int, v: int) -> int:
    """sum_t (-1)^(t-v) C(j,t) C(t-1,v-1) over t = 1..j; telescopes to 1.

    Valid for 1 <= v <= j (at j = v the sum is the single term 1).  This is
    the consistency check that the closed-form coefficients resum to exactly
    one count per index set.
    """
    _validate_positive(j=j, v=v)
    if j < v:
        raise ValueError(f"need j >= v, got j={j}, v={v}")
    # terms with t < v vanish; the parity form keeps the sign an int throughout
    return sum(
        (-1) ** ((t - v) % 2) * comb(j, t) * comb(t - 1, v - 1)
        for t in range(1, j + 1)
    )


@dataclass(frozen=True)
class EliminationRow:
    """Integer weights on j-fold intersection sums, for j = 1..list_size+1.

    Row ``r`` arises from weighting the union of u-fold intersections by
    r+1-u for u = 1..r and expanding each union by inclusion-exclusion.  The
    resulting coefficients always satisfy:

    * coefficient on the 1-fold sum is r,
    * coefficient on the 2-fold sum is -1,
    * coefficients on orders 3..r+1 vanish.
    """

    r: int
    list_size: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.list_size < 2:
            raise ValueError("list_size must be at least 2")
        if not 1 <= self.r <= self.list_size:
            raise ValueError("need 1 <= r <= list_size")
        if len(self.coefficients) != self.list_size + 1:
            raise ValueError("expected one coefficient per order 1..list_size+1")
        if self.coefficients[0] != self.r:
            raise ValueError("order-1 coefficient must equal r")
        if self.coefficients[1] != -1:
            raise ValueError("order-2 coefficient must equal -1")
        for j in range(3, self.r + 2):
            if j <= self.list_size + 1 and self.coefficients[j - 1] != 0:
                raise ValueError(f"order-{j} coefficient must vanish for row r={self.r}")

    def coefficient(self, j: int) -> int:
        """Weight on the j-fold intersection sum, 1 <= j <= list_size + 1."""
        return self.coefficients[j - 1]


def elimination_row(list_size: int, r: int) -> EliminationRow:
    """Build row `r` of the elimination scheme for a given list size.

    Each coefficient is the alternating sum over u = 1..min(r, j) of
    (r+1-u) (-1)^(j-u) C(j-1, u-1), i.e. the weighted inclusion-exclusion
    coefficients accumulated across the first r union terms.
    """
    _validate_positive(list_size=list_size, r=r)
    coeffs = tuple(
        sum(
            (r + 1 - u) * (-1) ** (j - u) * comb(j - 1, u - 1)
            for u in range(1, min(r, j) + 1)
        )
        for j in range(1, list_size + 2)
    )
    return EliminationRow(r=r, list_size=list_size, coefficients=coeffs)


def elimination_tail_term(r: int, j: int) -> Fraction:
    """Closed form of the order-j coefficient of row r, for j >= r+2 and r >= 2.

    Equals (-1)^(j-r) C(j-3, r-2) (r(j-2)/(r-1) - (j-1)); positive exactly
    when j - r is even.
    """
    _validate_positive(r=r, j=j)
    if r < 2:
        raise ValueError("closed form requires r >= 2")
    if j < r + 2:
        raise ValueError("closed form covers orders j >= r + 2 only")
    magnitude = comb(j - 3, r - 2) * (Fraction(r * (j - 2), r - 1) - (j - 1))
    return (-1) ** (j - r) * magnitude
