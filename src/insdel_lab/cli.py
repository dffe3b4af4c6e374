"""Command-line interface.

Numeric parameters such as --delta accept decimal ("0.9") or fraction
("9/10") syntax and are handled exactly.  Exit codes: 0 on success, 1 when a
checked property fails or a resource cap is hit, 2 on invalid input.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from fractions import Fraction

import click

from . import figures
from .acceptance import run_all
from .bounds import (
    as_fraction,
    comparison_report,
    hy_list_size,
    hy_quadratic1,
    hy_quadratic2,
    insertion_bound,
    insertion_bound_piecewise,
    unique_decoding_bound,
)
from .codes import (
    CodeSizeError,
    PrimeField,
    helberg,
    read_code,
    rs_code,
    rs_search_eval_points,
    vt_binary,
    vt_qary,
    write_code,
)
from .combinatorics import (
    DEFAULT_FAMILY_CAP,
    EnumerationCapError,
    alternating_binomial_sum,
    count_v_covers,
    elimination_row,
    elimination_tail_term,
    enumerate_v_covers,
    inclusion_exclusion_coefficient,
    signed_cover_sum,
)
from .verify import (
    check_bound_region,
    list_decodable,
    min_levenshtein_distance,
)
from .words import DEFAULT_BALL_CAP, BallSizeError, Word


def _plain(value):
    """JSON form of a library result: the one place results become JSON.

    A Word becomes its text, a Fraction its exact string and a dataclass the
    dict of its fields; json itself turns tuples into lists and recurses into
    lists, dicts and whatever this returns.
    """
    if isinstance(value, Word):
        return value.to_text()
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _echo_json(result) -> None:
    click.echo(json.dumps(result, default=_plain, sort_keys=True, indent=2))


def _parse_exact(text: str, name: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"cannot parse --{name} value {text!r}") from exc


def _guarded(fn):
    """Map library errors onto the CLI exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (BallSizeError, CodeSizeError, EnumerationCapError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1)
        except ValueError as exc:
            raise click.UsageError(str(exc))

    return wrapper


@click.group()
def main() -> None:
    """Insdel code laboratory: bounds, identities, codes, and verification."""


# --------------------------------------------------------------------------
# bound


@main.group()
def bound() -> None:
    """Evaluate and compare decodability bounds."""


def _csv_options(fn):
    """The --csv/--points option pair shared by the bound commands."""
    fn = click.option("--points", type=int, default=figures.DEFAULT_POINTS, show_default=True)(fn)
    return click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)(fn)


def _write_bound_csv(
    payload: dict, delta: Fraction, list_size: int, csv_path: str | None, points: int
) -> None:
    """Write the bound table when --csv is given and record its path in the payload."""
    if csv_path is not None:
        figures.write_rows(figures.bound_table_rows(delta, list_size, points), csv_path)
        payload["csv"] = csv_path


@bound.command("rho")
@click.option("--delta", "delta_text", required=True, help="relative distance in (0,1)")
@click.option("--list-size", type=int, required=True)
@click.option("--tau-d", "tau_text", default=None, help="deletion fraction to evaluate at")
@_csv_options
@_guarded
def bound_rho(delta_text, list_size, tau_text, csv_path, points) -> None:
    """Piecewise-linear insertion bound: pieces, or the value at one tau_d."""
    delta = _parse_exact(delta_text, "delta")
    payload: dict = {
        "bound": "piecewise-linear insertion bound",
        "delta": delta,
        "list_size": list_size,
    }
    if tau_text is not None:
        tau = _parse_exact(tau_text, "tau-d")
        value = insertion_bound(delta, list_size, 1 - tau)
        payload |= {
            "tau_d": tau,
            "value": value,
            "value_float": float(value),
            "unique_decoding": unique_decoding_bound(delta, tau) if tau < delta else None,
        }
    else:
        pieces = insertion_bound_piecewise(delta, list_size)
        payload |= {
            "r_min": pieces.r_min,
            "breakpoints": pieces.breakpoints(),
            "pieces": [
                {
                    "interval": (p.lower, p.upper),
                    "slope": p.slope,
                    "intercept": p.intercept,
                    "r": p.r,
                }
                for p in pieces.pieces
            ],
        }
    _write_bound_csv(payload, delta, list_size, csv_path, points)
    _echo_json(payload)


@bound.command("hy")
@click.option("--delta", "delta_text", required=True)
@click.option("--list-size", type=int, required=True)
@click.option("--tau-d", "tau_text", default="0")
@click.option("--tau-i", "tau_ins_text", default=None, help="insertion fraction for the list-size formula")
@_csv_options
@_guarded
def bound_hy(delta_text, list_size, tau_text, tau_ins_text, csv_path, points) -> None:
    """HY quadratic bound values, and its guaranteed list size if --tau-i is given."""
    delta = _parse_exact(delta_text, "delta")
    tau = _parse_exact(tau_text, "tau-d")
    if not 0 <= tau < 1:
        raise click.UsageError(f"--tau-d must lie in [0, 1), got {tau}")
    x = 1 - tau
    phi2 = hy_quadratic2(delta, list_size, x)
    payload = {
        "bound": "HY quadratic bound",
        "delta": delta,
        "list_size": list_size,
        "tau_d": tau,
        "phi1": hy_quadratic1(delta, x),
        "phi2": phi2,
        "phi2_float": float(phi2),
    }
    if tau_ins_text is not None:
        tau_ins = _parse_exact(tau_ins_text, "tau-i")
        payload["hy_list_size"] = hy_list_size(delta, tau_ins, tau)
    _write_bound_csv(payload, delta, list_size, csv_path, points)
    _echo_json(payload)


@bound.command("compare")
@click.option("--delta", "delta_text", required=True)
@click.option("--list-size", type=int, required=True)
@_csv_options
@_guarded
def bound_compare(delta_text, list_size, csv_path, points) -> None:
    """Where the piecewise-linear bound beats the HY quadratic."""
    delta = _parse_exact(delta_text, "delta")
    payload = _plain(comparison_report(delta, list_size))
    payload["interval_tau_d"] = payload.pop("interval")
    _write_bound_csv(payload, delta, list_size, csv_path, points)
    _echo_json(payload)


# --------------------------------------------------------------------------
# identity


@main.group()
def identity() -> None:
    """Combinatorial identities checked against independent oracles."""


def _identity_result(inputs: dict, value, oracle_value) -> None:
    _echo_json({"inputs": inputs, "value": value, "oracle_value": oracle_value})
    if value != oracle_value:
        raise SystemExit(1)


@identity.command("covers")
@click.option("--j", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--v", type=int, required=True)
@click.option("--cap", type=click.IntRange(min=0), default=DEFAULT_FAMILY_CAP, show_default=True)
@_guarded
def identity_covers(j, ell, v, cap) -> None:
    """Cover-count recursion versus brute-force family enumeration."""
    _identity_result(
        {"j": j, "ell": ell, "v": v},
        count_v_covers(j, ell, v),
        enumerate_v_covers(j, ell, v, cap=cap),
    )


@identity.command("ajv")
@click.option("--j", type=int, required=True)
@click.option("--v", type=int, required=True)
@_guarded
def identity_ajv(j, v) -> None:
    """Closed-form inclusion-exclusion coefficient versus its signed cover sum."""
    _identity_result(
        {"j": j, "v": v},
        inclusion_exclusion_coefficient(j, v),
        signed_cover_sum(j, v),
    )


@identity.command("claim8")
@click.option("--j", type=int, required=True)
@click.option("--v", type=int, required=True)
@_guarded
def identity_claim8(j, v) -> None:
    """Telescoping alternating binomial sum; always equal to 1."""
    _identity_result({"j": j, "v": v}, alternating_binomial_sum(j, v), 1)


@identity.command("phi")
@click.option("--list-size", type=int, required=True)
@click.option("--r", type=int, required=True)
@_guarded
def identity_phi(list_size, r) -> None:
    """Elimination-row coefficients versus their closed-form reconstruction."""
    row = elimination_row(list_size, r)
    if r == 1:
        oracle = [(-1) ** (j - 1) for j in range(1, list_size + 2)]
    else:
        oracle = [r, -1] + [0] * (r - 1)
        for j in range(r + 2, list_size + 2):
            term = elimination_tail_term(r, j)
            if term.denominator != 1:
                raise AssertionError(f"non-integer tail term at (r={r}, j={j})")
            oracle.append(int(term))
    _identity_result(
        {"list_size": list_size, "r": r},
        list(row.coefficients),
        oracle,
    )


# --------------------------------------------------------------------------
# code


@main.group()
def code() -> None:
    """Construct code families and write them as code files."""


def _emit_code(built, out: str, extra: dict) -> None:
    write_code(built, out)
    _echo_json({"q": built.q, "n": built.n, "size": built.size, "out": out} | extra)


@code.command("vt")
@click.option("--n", type=int, required=True)
@click.option("--a", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def code_vt(n, a, out) -> None:
    """Binary Varshamov-Tenengolts code VT_a(n)."""
    _emit_code(vt_binary(n, a), out, {"family": "vt-binary", "a": a})


@code.command("vtq")
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--a", type=int, required=True)
@click.option("--b", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def code_vtq(n, q, a, b, out) -> None:
    """q-ary Varshamov-Tenengolts code (q > 2)."""
    _emit_code(vt_qary(n, q, a, b), out, {"family": "vt-qary", "a": a, "b": b})


@code.command("helberg")
@click.option("--q", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--a", type=int, required=True)
@click.option("--m", type=int, default=None, help="modulus override (>= v_(n+1))")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def code_helberg(q, n, s, a, m, out) -> None:
    """Helberg code with weight recursion parameters (q, s)."""
    built = helberg(q, n, s, a, m=m)
    _emit_code(built, out, {"family": "helberg", "s": s, "a": a})


@code.command("rs")
@click.option("--p", type=int, required=True, help="prime field size")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--alpha", "alpha_text", default=None, help="comma-separated evaluation points")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def code_rs(p, n, k, alpha_text, out) -> None:
    """Reed-Solomon evaluation code over a prime field."""
    field = PrimeField(p)
    alpha = None
    if alpha_text is not None:
        alpha = tuple(int(part) for part in alpha_text.split(","))
    built = rs_code(field, n, k, alpha)
    _emit_code(built, out, {"family": "reed-solomon", "k": k})


@code.command("rs-search")
@click.option("--p", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--target", type=int, default=None, help="defaults to min(2n, 2n-4k+4)")
@click.option("--budget", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def code_rs_search(p, n, k, target, budget, seed, out) -> None:
    """Search evaluation points maximizing the minimum Levenshtein distance."""
    field = PrimeField(p)
    result = rs_search_eval_points(field, n, k, target=target, budget=budget, seed=seed)
    payload = _plain(result)
    if out is not None:
        write_code(rs_code(field, n, k, result.alpha), out)
        payload["out"] = out
    _echo_json(payload)


# --------------------------------------------------------------------------
# verify


@main.group()
def verify() -> None:
    """Brute-force decodability checks on code files."""


@verify.command("mindist")
@click.option("--code", "code_path", type=click.Path(exists=True, dir_okay=False), required=True)
@_guarded
def verify_mindist(code_path) -> None:
    """Minimum pairwise Levenshtein distance of a code file."""
    loaded = read_code(code_path)
    _echo_json(
        {
            "q": loaded.q,
            "n": loaded.n,
            "size": loaded.size,
            "min_levenshtein_distance": min_levenshtein_distance(loaded),
        }
    )


@verify.command("list-decodable")
@click.option("--code", "code_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--ti", type=int, required=True, help="channel insertion radius")
@click.option("--td", type=int, required=True, help="channel deletion radius")
@click.option("--list-size", type=int, required=True)
@click.option("--witness", is_flag=True, help="census the smallest offending received word")
@click.option("--cap", type=click.IntRange(min=0), default=DEFAULT_BALL_CAP, show_default=True)
@_guarded
def verify_list_decodable(code_path, ti, td, list_size, witness, cap) -> None:
    """Exhaustive channel-output check of (ti, td, L)-list-decodability."""
    loaded = read_code(code_path)
    verdict = list_decodable(loaded, ti, td, list_size, want_witness=witness, cap=cap)
    _echo_json(verdict)
    if not verdict.decodable:
        raise SystemExit(1)


@verify.command("theorem")
@click.option("--code", "code_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--list-size", type=int, required=True)
@click.option("--cap", type=click.IntRange(min=0), default=DEFAULT_BALL_CAP, show_default=True)
@_guarded
def verify_theorem(code_path, list_size, cap) -> None:
    """Check every integer radius pair inside the bound's guaranteed region."""
    loaded = read_code(code_path)
    report = check_bound_region(loaded, list_size, cap=cap)
    _echo_json(_plain(report) | {"ok": report.ok})
    if not report.ok:
        raise SystemExit(1)


# --------------------------------------------------------------------------
# figure


@main.group()
def figure() -> None:
    """Emit deterministic CSV data files for the standard plots."""


@figure.command("fig1")
@click.option("--delta", "delta_text", required=True)
@click.option("--list-size", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--points", type=int, default=figures.DEFAULT_POINTS, show_default=True)
@_guarded
def figure_fig1(delta_text, list_size, out, points) -> None:
    """Bound comparison curves with P1/P2 landmark rows."""
    delta = _parse_exact(delta_text, "delta")
    figures.write_rows(figures.comparison_rows(delta, list_size, points), out)
    _echo_json({"figure": "fig1", "out": out, "points": points})


@figure.command("fig2")
@click.option("--delta", "delta_text", required=True)
@click.option("--list-sizes", "sizes_text", required=True, help="comma-separated, e.g. 2,3,5,10")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--points", type=int, default=figures.DEFAULT_POINTS, show_default=True)
@_guarded
def figure_fig2(delta_text, sizes_text, out, points) -> None:
    """Bound profiles over x for several list sizes."""
    delta = _parse_exact(delta_text, "delta")
    list_sizes = tuple(int(part) for part in sizes_text.split(","))
    figures.write_rows(figures.bound_profile_rows(delta, list_sizes, points), out)
    _echo_json({"figure": "fig2", "out": out, "points": points})


@figure.command("fig3")
@click.option("--list-size", type=int, required=True)
@click.option("--rates", "rates_text", required=True, help="comma-separated rates in (0, 1/2)")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--points", type=int, default=figures.DEFAULT_POINTS, show_default=True)
@_guarded
def figure_fig3(list_size, rates_text, out, points) -> None:
    """Tolerable radius frontier per code rate with delta = 1 - 2R."""
    rates = tuple(_parse_exact(part, "rates") for part in rates_text.split(","))
    figures.write_rows(figures.rate_region_rows(list_size, rates, points), out)
    _echo_json({"figure": "fig3", "out": out, "points": points})


# --------------------------------------------------------------------------
# regress


@main.command("regress")
def regress() -> None:
    """Run the full acceptance suite; nonzero exit on any failure."""
    results = run_all(echo=click.echo)
    if not all(r.ok for r in results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
