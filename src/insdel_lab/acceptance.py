"""Acceptance criteria for the whole library, runnable as one regression gate.

Each criterion is a plain check: it passes by returning (criterion 8 returns
the region pairs it skipped) and fails by raising CriterionFailure(detail).
`ALL_CRITERIA` lists the checks in order with their printed names, and
`run_criterion(number)` alone turns one into a timed CriterionResult, taking
its number from the table position; a crash becomes a failure with the
exception's repr.  `run_all` runs every one and prints a single pass/fail line
per criterion.  The same runner backs the pytest acceptance suite and the
`regress` CLI subcommand, so both surfaces agree by construction.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

from . import figures
from .bounds import (
    comparison_report,
    hy_crossover_delta,
    hy_crossover_delta_closed_form,
    hy_quadratic1,
    hy_quadratic2,
    insertion_bound,
    insertion_bound_piecewise,
)
from .codes import (
    Code,
    PrimeField,
    helberg,
    helberg_weights,
    rs_code,
    vt_binary,
    vt_qary,
)
from .combinatorics import (
    alternating_binomial_sum,
    count_v_covers,
    elimination_row,
    elimination_tail_term,
    enumerate_v_covers,
    inclusion_exclusion_coefficient,
    signed_cover_sum,
)
from .verify import (
    bound_region_pairs,
    check_ball_containment,
    check_bound_region,
    decoder_ball_matches_channel,
    list_decodable,
    min_levenshtein_distance,
)
from .words import Word, _lcs, _min_distance, all_words, words_up_to

RANDOM_CODE_SEED = 2024

# Criterion 8's RS(7,5,2) evaluation points: the alpha that
# rs_search_eval_points(PrimeField(7), 5, 2, budget=300, seed=0) returns
RS_ALPHA = (6, 3, 5, 0, 1)

# Criterion 5's grid: delta = i / GRID_DELTA_DENOMINATOR for i = 1..20, and
# GRID_STEPS + 1 = 1000 equally spaced x across [1 - delta, 1].
GRID_DELTA_DENOMINATOR = 21
GRID_STEPS = 999


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str = ""
    skipped: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" [{self.detail}]" if (not self.ok and self.detail) else ""
        skips = f" (skipped: {len(self.skipped)})" if self.skipped else ""
        return f"[{self.number:2d}] {status} {self.name}{extra}{skips} ({self.elapsed:.2f}s)"


class CriterionFailure(Exception):
    """Raised by a failing check; its one argument is the detail printed."""


def criterion_cover_oracle() -> None:
    """Cover-count recursion equals brute-force enumeration for j <= 5."""
    for j in range(1, 6):
        for v in range(1, j + 1):
            for ell in range(1, comb(j, v) + 1):
                fast = count_v_covers(j, ell, v)
                slow = enumerate_v_covers(j, ell, v)
                if fast != slow:
                    raise CriterionFailure(f"(j={j}, ell={ell}, v={v}): {fast} != {slow}")


def criterion_coefficient_closed_form() -> None:
    """Signed cover sums collapse to the single-binomial closed form, j <= 9."""
    for j in range(2, 10):
        for v in range(1, j + 1):
            closed = inclusion_exclusion_coefficient(j, v)
            summed = signed_cover_sum(j, v)
            expected = (-1) ** (j - v) * comb(j - 1, v - 1)
            if not closed == summed == expected:
                raise CriterionFailure(f"(j={j}, v={v}): {closed}, {summed}, {expected}")


def criterion_telescoping_sum() -> None:
    """The alternating double-binomial sum equals 1 for all 1 <= v <= j <= 30."""
    for j in range(1, 31):
        for v in range(1, j + 1):
            value = alternating_binomial_sum(j, v)
            if value != 1:
                raise CriterionFailure(f"(j={j}, v={v}): {value}")


def criterion_elimination_rows() -> None:
    """Row invariants, tail closed form, sign pattern, and pair margins, L <= 12."""
    for L in range(2, 13):
        for r in range(1, L + 1):
            row = elimination_row(L, r)  # constructor enforces r, -1, zero block
            for j in range(r + 2, L + 2):
                coeff = row.coefficient(j)
                if coeff == 0:
                    raise CriterionFailure(f"(L={L}, r={r}, j={j}): unexpected zero")
                if ((j - r) % 2 == 0) != (coeff > 0):
                    raise CriterionFailure(f"(L={L}, r={r}, j={j}): sign pattern broken")
                if r >= 2 and Fraction(coeff) != elimination_tail_term(r, j):
                    raise CriterionFailure(f"(L={L}, r={r}, j={j}): tail closed form")
            if r >= 2:
                for j in range(r + 2, L + 1):
                    lhs = (j + 1) * abs(row.coefficient(j)) - abs(row.coefficient(j + 1))
                    rhs = comb(j - 3, r - 1) * (j - Fraction(r - 1, j - r - 1))
                    if Fraction(lhs) != rhs or rhs < 3:
                        raise CriterionFailure(f"(L={L}, r={r}, j={j}): margin {lhs} vs {rhs}")


def criterion_bound_consistency() -> None:
    """Max form and piece decomposition agree exactly on dense rational grids."""
    for L in range(2, 13):
        for i in range(1, GRID_DELTA_DENOMINATOR):
            delta = Fraction(i, GRID_DELTA_DENOMINATOR)
            pieces = insertion_bound_piecewise(delta, L)
            threshold_r_min = next(
                r
                for r in range(1, L + 1)
                if Fraction(L * (L + 1), r * (r + 1)) * (1 - delta) < 1
            )
            if pieces.r_min != threshold_r_min or len(pieces.pieces) != L - threshold_r_min + 1:
                raise CriterionFailure(f"(delta={delta}, L={L}): piece structure")
            # x = (1 - delta) + delta * k / GRID_STEPS, built as one Fraction
            base = GRID_STEPS * (GRID_DELTA_DENOMINATOR - i)
            denominator = GRID_STEPS * GRID_DELTA_DENOMINATOR
            for k in range(GRID_STEPS + 1):
                x = Fraction(base + i * k, denominator)
                direct = insertion_bound(delta, L, x)
                if direct != pieces.evaluate(x):
                    raise CriterionFailure(f"(delta={delta}, L={L}, x={x}): mismatch")
                if k > 0 and direct <= 0:
                    raise CriterionFailure(f"(delta={delta}, L={L}, x={x}): not positive")


def criterion_hy_golden() -> None:
    """Crossover constants and comparison landmarks match their closed forms."""
    golden = (27 - math.sqrt(57)) / 28
    if abs(hy_crossover_delta(2) - golden) > 1e-9:
        raise CriterionFailure(f"delta1(2) = {hy_crossover_delta(2)} vs {golden}")
    if abs(hy_crossover_delta_closed_form(2) - golden) > 1e-9:
        raise CriterionFailure("closed form delta1(2) off")

    report = comparison_report(Fraction(9, 10), 2)
    if report.p2 != (0.7, 0.2):
        raise CriterionFailure(f"P2 = {report.p2}")
    c = 0.1
    alpha = (17 * c + 4 + math.sqrt(-143 * c * c - 188 * c + 124)) / 18
    if report.p1 is None or abs(report.p1[0] - (1 - alpha)) > 1e-6:
        raise CriterionFailure(f"P1 = {report.p1} vs tau_d {1 - alpha}")
    if report.interval is None:
        raise CriterionFailure("advantage interval missing")
    lo, hi = report.interval
    if hi != 0.7 or abs(lo - (1 - alpha)) > 1e-6:
        raise CriterionFailure(f"interval = {report.interval}")

    for L in (2, 3, 5, 10):
        for i in range(1, 50):
            for k in range(1, 50):
                delta = 1 - Fraction(i, 50)
                x = Fraction(k, 50)
                if not hy_quadratic2(delta, L, x) < hy_quadratic1(delta, x):
                    raise CriterionFailure(f"phi2 >= phi1 at (L={L}, delta={delta}, x={x})")


def criterion_code_distances() -> None:
    """Constructed codes reach their guaranteed minimum Levenshtein distances."""
    for n in range(1, 11):
        for a in range(n + 1):
            code = vt_binary(n, a)
            if code.size < 2:
                continue
            d = min_levenshtein_distance(code)
            if d < 4:
                raise CriterionFailure(f"VT_{a}({n}): distance {d} < 4")
    for n in range(1, 7):
        for a in range(n):
            for b in range(3):
                try:
                    code = vt_qary(n, 3, a, b)
                except ValueError:
                    continue  # empty residue class
                if code.size < 2:
                    continue
                d = min_levenshtein_distance(code)
                if d < 4:
                    raise CriterionFailure(f"VT3 (n={n}, a={a}, b={b}): distance {d} < 4")
    for n in range(3, 9):
        modulus = helberg_weights(2, 2, n + 1)[n]
        for a in range(modulus):
            try:
                code = helberg(2, n, 2, a)
            except ValueError:
                continue  # empty residue class
            if code.size < 2:
                continue
            d = min_levenshtein_distance(code)
            if d < 6:
                raise CriterionFailure(f"Helberg (n={n}, a={a}): distance {d} < 6")


def _random_binary_code(rng: random.Random, n: int, size: int) -> Code:
    picks = rng.sample(range(2**n), size)
    members = frozenset(
        Word(tuple((value >> (n - 1 - i)) & 1 for i in range(n)), 2) for value in picks
    )
    return Code(q=2, n=n, codewords=members)


def _greedy_code(rng: random.Random, q: int, n: int, distance: int, size: int) -> Code:
    """Seeded greedy q-ary code of `size` words and minimum distance `distance`.

    Random words are kept while every pairwise LCS stays at most
    n - distance/2; a draw that does not fill the code within 200 words, or
    whose minimum distance overshoots, starts over.
    """
    max_lcs = n - distance // 2
    for _ in range(10_000):
        words: list[tuple[int, ...]] = []
        for _ in range(200):
            w = tuple(rng.randrange(q) for _ in range(n))
            if all(_lcs(w, v) <= max_lcs for v in words):
                words.append(w)
                if len(words) == size:
                    break
        if len(words) == size and _min_distance(words, 0) == distance:
            return Code(q=q, n=n, codewords=frozenset(Word(w, q) for w in words))
    raise RuntimeError(f"no greedy code with q={q}, n={n}, distance {distance}")


def criterion_region_harness() -> list[str]:
    """Zero violations across the guaranteed region for VT and random codes,
    and at least one checked pair beyond unique decoding."""
    subjects: list[tuple[str, Code, tuple[int, ...]]] = [
        ("VT_0(6)", vt_binary(6, 0), (2, 3)),
        ("VT_0(8)", vt_binary(8, 0), (2, 3)),
    ]
    rng = random.Random(RANDOM_CODE_SEED)
    for index in range(50):
        n = rng.choice([5, 6, 7])
        size = rng.randint(4, 16)
        code = _random_binary_code(rng, n, size)
        subjects.append((f"random[{index}] (n={n}, |C|={size})", code, (2, 3)))
    # list-decoding regime: each list size is the least at which the region
    # holds a pair beyond unique decoding, delta > 2/(L+1)
    greedy = _greedy_code(random.Random(RANDOM_CODE_SEED), q=5, n=5, distance=8, size=4)
    subjects += [
        ("VT_0(6)", vt_binary(6, 0), (6,)),
        ("VT_0(8)", vt_binary(8, 0), (8,)),
        ("VT3(n=5, a=0, b=0)", vt_qary(5, 3, 0, 0), (5,)),
        (f"RS(7,5,2) alpha={RS_ALPHA}", rs_code(PrimeField(7), 5, 2, RS_ALPHA), (5,)),
        ("greedy (q=5, n=5, d=8)", greedy, (2,)),
    ]
    skipped: list[str] = []
    beyond_unique = 0
    for label, code, list_sizes in subjects:
        for list_size in list_sizes:
            if code.size <= list_size:
                raise CriterionFailure(f"{label} L={list_size}: vacuous, |C| = {code.size}")
            report = check_bound_region(code, list_size)
            for pair in report.skipped:
                skipped.append(f"{label} L={list_size} pair={pair}")
            if not report.ok:
                first = report.violations[0]
                raise CriterionFailure(
                    f"{label} L={list_size}: violation at "
                    f"(t_ins={first.t_ins}, t_del={first.t_del})"
                )
            unique = set(bound_region_pairs(code.n, report.delta, 1))
            beyond_unique += sum(pair not in unique for pair in report.checked)
    if beyond_unique == 0:
        raise CriterionFailure("no checked pair lies beyond unique decoding")
    return skipped


def criterion_ball_containment() -> None:
    """Insdel balls sit inside the summed-radius Levenshtein ball (exhaustive)."""
    samples = list(words_up_to(2, 3))
    radii = [(a, b) for a in range(3) for b in range(3)]
    failures = check_ball_containment(samples, radii)
    if failures:
        y, a, b = failures[0]
        raise CriterionFailure(f"containment fails at ({y.to_text() or 'empty'}, {a}, {b})")


def criterion_direction_equivalence() -> None:
    """Channel-output view equals swapped-radii decoder-ball view (exhaustive)."""
    for centre in words_up_to(2, 4):
        for t_ins in range(3):
            for t_del in range(min(2, len(centre)) + 1):
                if not decoder_ball_matches_channel(centre, t_ins, t_del):
                    raise CriterionFailure(
                        f"mismatch at centre={centre.to_text() or 'empty'}, "
                        f"t_ins={t_ins}, t_del={t_del}"
                    )


def criterion_determinism() -> None:
    """CSV rows are byte-identical, and witness verdicts equal as values,
    across runs."""
    table_args = (Fraction(9, 10), 2, 64)
    for maker in (
        lambda: figures.bound_table_rows(*table_args),
        lambda: figures.comparison_rows(*table_args),
        lambda: figures.bound_profile_rows(Fraction(9, 10), (2, 3, 5, 10), 64),
        lambda: figures.rate_region_rows(2, (Fraction(1, 10), Fraction(1, 4)), 64),
    ):
        first, second = maker(), maker()
        if "\n".join(first) != "\n".join(second):
            raise CriterionFailure("CSV rows differ across runs")
    # two failing witness censuses: VT_0(6), and the full binary cube at radius 1
    cube = Code(q=2, n=3, codewords=frozenset(all_words(2, 3)))
    for code, radii in ((vt_binary(6, 0), (1, 1, 2)), (cube, (1, 0, 1))):
        verdict = list_decodable(code, *radii, want_witness=True)
        if verdict != list_decodable(code, *radii, want_witness=True):
            raise CriterionFailure(f"witness verdict differs across runs at {radii}")


# The gate in order: criterion N is entry N - 1, shown under its printed name.
ALL_CRITERIA: tuple[tuple[str, Callable[[], list[str] | None]], ...] = (
    ("cover counts: recursion matches enumeration (j <= 5)", criterion_cover_oracle),
    ("inclusion-exclusion coefficient closed form (j <= 9)", criterion_coefficient_closed_form),
    ("alternating binomial sum telescopes to 1 (j <= 30)", criterion_telescoping_sum),
    ("elimination rows: invariants, signs, margins (L <= 12)", criterion_elimination_rows),
    (
        "insertion bound: max form == pieces on 20x11 grid x 1000 points",
        criterion_bound_consistency,
    ),
    ("HY comparison: crossover constants and landmarks", criterion_hy_golden),
    ("code families meet distance floors (VT, q-ary VT, Helberg)", criterion_code_distances),
    ("bound region harness: zero violations (VT + 50 random)", criterion_region_harness),
    ("insdel balls contained in Levenshtein balls (|y| <= 3)", criterion_ball_containment),
    (
        "decoder-ball radius swap matches channel outputs (n <= 4)",
        criterion_direction_equivalence,
    ),
    ("determinism: CSV bytes and verdicts stable", criterion_determinism),
)


def run_criterion(number: int) -> CriterionResult:
    """Run criterion `number` (1-based) of ALL_CRITERIA, timed.

    A check that returns passes, with what it returns as its skips; one that
    raises CriterionFailure fails with its detail, and any other exception
    fails with its repr: a crash is a failure, not an abort.
    """
    name, check = ALL_CRITERIA[number - 1]
    skipped, detail, ok = None, "", True
    start = time.perf_counter()
    try:
        skipped = check()
    except CriterionFailure as exc:
        ok, detail = False, str(exc)
    except Exception as exc:
        ok, detail = False, repr(exc)
    elapsed = time.perf_counter() - start
    return CriterionResult(number, name, ok, detail, skipped or [], elapsed)


def run_all(echo: Callable[[str], None] = print) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one line each; returns results."""
    results = []
    for number in range(1, len(ALL_CRITERIA) + 1):
        results.append(run_criterion(number))
        echo(results[-1].line())
    passed = sum(r.ok for r in results)
    echo(f"{passed}/{len(results)} acceptance criteria passed")
    return results
