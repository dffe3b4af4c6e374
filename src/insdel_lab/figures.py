"""Deterministic CSV data behind the standard plots and bound tables.

Rows are produced as plain strings with shortest-repr float formatting so the
emitted bytes are identical across runs.  Inputs are validated once per call.
Each generator walks an arithmetic progression of grid points with one shared
denominator, so every column is one call of a `bounds` kernel over the whole
progression, the unique-decoding column too: it is the max form at L = 1.
A cell is repr(num / den): int / int division is correctly rounded, so this
is repr(float(Fraction(num, den))) whether or not the pair is reduced.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import truediv
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .bounds import (
    Exact,
    _hy1,
    _hy2,
    _in_domain,
    _max_form,
    _one_minus_delta,
    _validate_list_size,
    as_fraction,
    comparison_report,
)
from .words import _require_int

DEFAULT_POINTS = 512


def _cells(run: tuple[Iterable[int], int]) -> Iterator[str]:
    """One CSV cell per numerator of a kernel run over its shared denominator."""
    nums, den = run
    return map(repr, map(truediv, nums, repeat(den)))


def _rows(*columns: Iterable[str]) -> list[str]:
    return list(map(",".join, zip(*columns)))


def _validate_points(points: int) -> None:
    _require_int("points", points)
    if points < 2:
        raise ValueError("need at least two grid points")


def bound_table_rows(
    delta: Exact | float, list_size: int, points: int = DEFAULT_POINTS
) -> list[str]:
    """Plain bound table over tau_d in [0, delta]: tau_d, rho, phi1, phi2, unique."""
    _validate_points(points)
    cn, cd = _one_minus_delta(as_fraction(delta))
    _validate_list_size(list_size)
    dn, steps = cd - cn, points - 1
    den = cd * steps  # tau_d = dn k / den and x = 1 - tau_d
    xns = range(den, den - dn * points, -dn)
    return ["tau_d,rho,phi1,phi2,unique"] + _rows(
        _cells((range(0, dn * points, dn), den)),
        _cells(_max_form(cn, cd, list_size, xns, den)),
        _cells(_hy1(cn, cd, xns, den)),
        _cells(_hy2(cn, cd, list_size, xns, den)),
        _cells(_max_form(cn, cd, 1, xns, den)),
    )


def comparison_rows(
    delta: Exact | float, list_size: int, points: int = DEFAULT_POINTS
) -> list[str]:
    """Bound-versus-bound curves over tau_d in [0, delta], with landmarks.

    Columns: tau_d, the piecewise-linear bound, the HY quadratic, and the
    unique-decoding line; the P1/P2 landmarks from the comparison report
    are placed at their exact tau_d positions when an advantage window
    exists, each on its own row: the grid row at its tau_d if that row is
    not already labelled, else a row spliced in.
    """
    _validate_points(points)
    cn, cd = _one_minus_delta(as_fraction(delta))
    report = comparison_report(delta, list_size)
    dn, steps = cd - cn, points - 1

    def block(tns: range, td: int) -> list[str]:
        """Rows at tau_d = tn/td for tn in tns, each ending in an empty label."""
        xns = range(td - tns.start, td - tns.stop, -tns.step)
        return _rows(
            _cells((tns, td)),
            _cells(_max_form(cn, cd, list_size, xns, td)),
            _cells(_hy2(cn, cd, list_size, xns, td)),
            _cells(_max_form(cn, cd, 1, xns, td)),
            repeat(""),
        )

    den = cd * steps  # grid point k is tau_d = dn k / den
    rows = block(range(0, dn * points, dn), den)
    landmarks = [
        (as_fraction(point[0]), label)
        for point, label in ((report.p1, "P1"), (report.p2, "P2"))
        if point is not None
    ]
    # right to left, P2 before P1 at one tau_d, so an insertion leaves the
    # places still to fill alone
    for tau, label in sorted(landmarks, reverse=True):
        xn, xd = _in_domain(cn, cd, 1 - tau)
        k, rest = divmod((xd - xn) * den, dn * xd)
        if rest or not rows[k].endswith(","):
            rows.insert(k + bool(rest), block(range(xd - xn, xd - xn + 1), xd)[0] + label)
        else:
            rows[k] += label
    return ["tau_d,rho,phi2,unique,landmark"] + rows


def bound_profile_rows(
    delta: Exact | float, list_sizes: Sequence[int], points: int = DEFAULT_POINTS
) -> list[str]:
    """The piecewise-linear bound over x in [1 - delta, 1], one column per list
    size; a repeated list size is refused, since it would repeat its column."""
    _validate_points(points)
    if not list_sizes:
        raise ValueError("need at least one list size")
    cn, cd = _one_minus_delta(as_fraction(delta))
    for k, L in enumerate(list_sizes):
        _validate_list_size(L)
        if L in list_sizes[:k]:
            raise ValueError(f"list size {L} is repeated")
    dn, steps = cd - cn, points - 1
    den = cd * steps
    xns = range(cn * steps, cn * steps + dn * points, dn)
    header = "x," + ",".join(f"rho_L{L}" for L in list_sizes)
    columns = [_cells(_max_form(cn, cd, L, xns, den)) for L in list_sizes]
    return [header] + _rows(_cells((xns, den)), *columns)


def rate_region_rows(
    list_size: int, rates: Sequence[Exact | float], points: int = DEFAULT_POINTS
) -> list[str]:
    """Tolerable (tau_d, tau_i) frontier per code rate, using delta = 1 - 2R.

    Each rate R in (0, 1/2) contributes a block of rows; tau_d runs over
    [0, delta) so the bound's domain clip is respected.  A rate repeated as
    an exact value (1/4 and 0.25 alike) is refused, since it would repeat
    its block.
    """
    _validate_points(points)
    if not rates:
        raise ValueError("need at least one rate")
    rows = ["rate,tau_d,tau_i_max"]
    seen: set[Fraction] = set()
    for rate in rates:
        r = as_fraction(rate)
        if not 0 < r < Fraction(1, 2):
            raise ValueError(f"rate must lie in (0, 1/2), got {r}")
        if r in seen:
            raise ValueError(f"rate {r} is repeated")
        seen.add(r)
        _validate_list_size(list_size)
        # 1 - delta = 2R; tau_d = dn k / den and x = 1 - tau_d
        cn, cd = 2 * r.numerator, r.denominator
        dn, den = cd - cn, cd * points
        rows += _rows(
            repeat(repr(r.numerator / cd)),
            _cells((range(0, dn * points, dn), den)),
            _cells(_max_form(cn, cd, list_size, range(den, den - dn * points, -dn), den)),
        )
    return rows


def write_rows(rows: Sequence[str], path: str | Path) -> None:
    """Write CSV rows with a trailing newline, byte-deterministically."""
    Path(path).write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
