"""Deterministic CSV data behind the standard plots and bound tables.

Rows are produced as plain strings with shortest-repr float formatting so the
emitted bytes are identical across runs.  Grid points are generated as exact
rationals and only converted to float at formatting time.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .bounds import (
    Exact,
    as_fraction,
    comparison_report,
    hy_quadratic1,
    hy_quadratic2,
    insertion_bound,
)

DEFAULT_POINTS = 512


def _fmt(value) -> str:
    return repr(float(value))


def _validate_points(points: int) -> None:
    if points < 2:
        raise ValueError("need at least two grid points")


def bound_table_rows(
    delta: Exact | float, list_size: int, points: int = DEFAULT_POINTS
) -> list[str]:
    """Plain bound table over tau_d in [0, delta]: tau_d, rho, phi1, phi2, unique."""
    _validate_points(points)
    d = as_fraction(delta)
    dn, dd = d.numerator, d.denominator
    steps = points - 1
    rows = ["tau_d,rho,phi1,phi2,unique"]
    for k in range(points):
        tau = Fraction(dn * k, dd * steps)
        x = Fraction(dd * steps - dn * k, dd * steps)
        rows.append(
            ",".join(
                (
                    _fmt(tau),
                    _fmt(insertion_bound(d, list_size, x)),
                    _fmt(hy_quadratic1(d, x)),
                    _fmt(hy_quadratic2(d, list_size, x)),
                    _fmt(Fraction(dn * (steps - k), dd * steps)),
                )
            )
        )
    return rows


def comparison_rows(
    delta: Exact | float, list_size: int, points: int = DEFAULT_POINTS
) -> list[str]:
    """Bound-versus-bound curves over tau_d in [0, delta], with landmarks.

    Columns: tau_d, the piecewise-linear bound, the HY quadratic, and the
    unique-decoding line; the P1/P2 landmark rows from the comparison report
    are spliced in at their exact tau_d positions when an advantage window
    exists.
    """
    _validate_points(points)
    d = as_fraction(delta)
    dn, dd = d.numerator, d.denominator
    report = comparison_report(d, list_size)
    grid = [Fraction(dn * k, dd * (points - 1)) for k in range(points)]
    labelled: dict[Fraction, str] = {}
    for point, label in ((report.p1, "P1"), (report.p2, "P2")):
        if point is not None:
            labelled[as_fraction(point[0])] = label
    # the grid is sorted already, so the sort only places the landmarks
    on_grid = set(grid)
    merged = sorted(grid + [tau for tau in labelled if tau not in on_grid])
    rows = ["tau_d,rho,phi2,unique,landmark"]
    for tau in merged:
        tn, td = tau.numerator, tau.denominator
        x = Fraction(td - tn, td)
        unique = Fraction(max(dn * td - tn * dd, 0), dd * td)
        rows.append(
            ",".join(
                (
                    _fmt(tau),
                    _fmt(insertion_bound(d, list_size, x)),
                    _fmt(hy_quadratic2(d, list_size, x)),
                    _fmt(unique),
                    labelled.get(tau, ""),
                )
            )
        )
    return rows


def bound_profile_rows(
    delta: Exact | float, list_sizes: Sequence[int], points: int = DEFAULT_POINTS
) -> list[str]:
    """The piecewise-linear bound over x in [1 - delta, 1], one column per list size."""
    _validate_points(points)
    if not list_sizes:
        raise ValueError("need at least one list size")
    d = as_fraction(delta)
    dn, dd = d.numerator, d.denominator
    header = "x," + ",".join(f"rho_L{L}" for L in list_sizes)
    rows = [header]
    for k in range(points):
        x = Fraction((dd - dn) * (points - 1) + dn * k, dd * (points - 1))
        values = [insertion_bound(d, L, x) for L in list_sizes]
        rows.append(",".join([_fmt(x)] + [_fmt(v) for v in values]))
    return rows


def rate_region_rows(
    list_size: int, rates: Sequence[Exact | float], points: int = DEFAULT_POINTS
) -> list[str]:
    """Tolerable (tau_d, tau_i) frontier per code rate, using delta = 1 - 2R.

    Each rate R in (0, 1/2) contributes a block of rows; tau_d runs over
    [0, delta) so the bound's domain clip is respected.
    """
    _validate_points(points)
    if not rates:
        raise ValueError("need at least one rate")
    rows = ["rate,tau_d,tau_i_max"]
    for rate in rates:
        r = as_fraction(rate)
        if not 0 < r < Fraction(1, 2):
            raise ValueError(f"rate must lie in (0, 1/2), got {r}")
        d = 1 - 2 * r
        dn, dd = d.numerator, d.denominator
        for k in range(points):
            tau = Fraction(dn * k, dd * points)
            x = Fraction(dd * points - dn * k, dd * points)
            rows.append(f"{_fmt(r)},{_fmt(tau)},{_fmt(insertion_bound(d, list_size, x))}")
    return rows


def write_rows(rows: Sequence[str], path: str | Path) -> None:
    """Write CSV rows with a trailing newline, byte-deterministically."""
    Path(path).write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
