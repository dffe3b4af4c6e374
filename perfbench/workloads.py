"""The benchmark's four workloads: seeded inputs, fixed job lists, output checks.

Each workload is a closed loop from one process: the next job starts only
after the last one returns.  Job calls look library functions up through
their module at call time, so the traced run sees its wrappers.  Checks run
outside the timed section and use this file's own LCS dynamic programme, not
the library's kernel.

Why these workloads:

* region   -- `check_bound_region` on greedy q-ary codes with δ > 2/(L+1),
  where the bound says more than unique decoding.  Ball enumeration and the
  channel tally do almost all the work.
* distance -- pairwise LCS only (minimum distances and an evaluation-point
  search); no balls, no bounds.  A change to the LCS kernel shows here and
  should not move `figures`.
* figures  -- exact `Fraction` bound evaluation and CSV formatting, with no
  `words` work; the two word-heavy workloads bypass it.
* regress  -- `acceptance.run_all()`, the gate users run.  It alone covers
  `combinatorics`, `acceptance` and the multi-process path of
  `list_decodable`: criterion 11 starts 2 and then 3 worker processes, more
  than a 2-CPU machine has.  That is the program's own behaviour and is
  measured as it is.  The workload ignores the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

FROZEN = Path(__file__).resolve().parent / "frozen"
FIGURE_DIGESTS = FROZEN / "figures_seed0.json"
DEFAULT_SEED = 0

# region: greedy codes with pairwise LCS <= n - d/2, so delta = d/(2n) = 4/5,
# above 2/(L+1) for both list sizes checked.
GREEDY_Q, GREEDY_N, GREEDY_SIZE, GREEDY_DISTANCE = 5, 5, 4, 8
GREEDY_CODES, GREEDY_DRAWS = 2, 200
REGION_LIST_SIZES = (2, 3)
# distance: enough random evaluation-point tuples that the search's share of
# the job list does not swing with the seed.  No tuple of PrimeField(7), n=5,
# k=2 reaches the default target, so every search examines the whole budget.
RS_P, RS_N, RS_K, RS_BUDGET = 7, 5, 2, 300
# figures
FIGURE_POINTS = 512
FIGURE_LIST_SIZES = (2, 3, 5, 10)
FIGURE_DELTAS, FIGURE_RATES, FIGURE_DENOMINATOR = 3, 2, 97


@dataclass
class Job:
    """One library call and the check of its output (None when correct)."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # canonical form compared across repeats; a repeat whose key matches an
    # already checked output reuses that verdict
    key: Callable[[object], object] = lambda result: result


@dataclass
class Workload:
    jobs: list[Job]
    before_rep: Callable[[], None] = lambda: None
    # per-repeat numbers read from the outputs, e.g. criterion times
    extras: Callable[[list[object]], dict[str, float]] = lambda results: {}
    # problems found while building the inputs
    problems: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# independent oracles


def lcs(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Longest common subsequence length by the plain quadratic DP."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[-1]))
        prev = curr
    return prev[-1]


def min_distance(words: list[tuple[int, ...]]) -> int:
    """Minimum pairwise insertion/deletion distance."""
    return min(
        len(a) + len(b) - 2 * lcs(a, b)
        for i, a in enumerate(words)
        for b in words[i + 1 :]
    )


def reaches(codeword: tuple[int, ...], received: tuple[int, ...], t_ins: int, t_del: int) -> bool:
    """Can the channel turn `codeword` into `received` within the radii?"""
    common = lcs(codeword, received)
    return len(received) - common <= t_ins and len(codeword) - common <= t_del


def witness_problem(code, verdict) -> str | None:
    """Re-derive a witness's codeword list by the DP; None when it holds."""
    w = verdict.witness
    if w is None:
        return "non-decodable verdict without witness"
    members = tuple(
        c.symbols
        for c in sorted(code.codewords, key=lambda c: c.symbols)
        if reaches(c.symbols, w.received.symbols, verdict.t_ins, verdict.t_del)
    )
    if members != tuple(c.symbols for c in w.codewords):
        return f"witness list for {w.received.to_text()} disagrees with the DP"
    if len(members) <= verdict.list_size:
        return "witness list is not larger than the list size"
    return None


def _symbols(code) -> list[tuple[int, ...]]:
    return sorted(w.symbols for w in code.codewords)


# --------------------------------------------------------------------------
# region


def greedy_code(lib, rng: random.Random):
    """Greedy random q-ary code with pairwise distance >= GREEDY_DISTANCE,
    redrawn until the minimum distance is exactly GREEDY_DISTANCE.

    A draw that has not filled the code after GREEDY_DRAWS words starts over:
    early words can leave almost no room for the rest, and bounding the dead
    end keeps set-up time about the same at every seed.
    """
    max_lcs = GREEDY_N - GREEDY_DISTANCE // 2
    for _ in range(10_000):
        words: list[tuple[int, ...]] = []
        for _ in range(GREEDY_DRAWS):
            w = tuple(rng.randrange(GREEDY_Q) for _ in range(GREEDY_N))
            if all(lcs(w, v) <= max_lcs for v in words):
                words.append(w)
                if len(words) == GREEDY_SIZE:
                    break
        if len(words) == GREEDY_SIZE and min_distance(words) == GREEDY_DISTANCE:
            q = GREEDY_Q
            return lib.codes.Code(
                q=q, n=GREEDY_N, codewords=frozenset(lib.words.Word(w, q) for w in words)
            )
    raise RuntimeError("greedy generator found no code at the target distance")


def greedy_codes(lib, seed: int) -> list:
    rng = random.Random(f"insdel-lab region {seed}")
    return [greedy_code(lib, rng) for _ in range(GREEDY_CODES)]


def _region_check(lib, code, list_size: int, must_beat: bool):
    def check(report) -> str | None:
        if not report.ok:
            return f"{len(report.violations)} violations"
        distance = min_distance(_symbols(code))
        if report.distance != distance:
            return f"distance {report.distance}, DP says {distance}"
        delta = Fraction(distance, 2 * code.n)
        expected = lib.verify.bound_region_pairs(code.n, delta, list_size)
        covered = list(report.checked) + list(report.skipped)
        if sorted(covered) != sorted(expected) or len(set(covered)) != len(covered):
            return "checked and skipped pairs do not partition the bound region"
        if report.beats_unique_decoding != (delta > Fraction(2, list_size + 1)):
            return "beats_unique_decoding flag is wrong"
        if must_beat and not report.beats_unique_decoding:
            return "coverage guard: greedy code fell into the unique-decoding regime"
        return None

    return check


def _census_check(code):
    def check(verdict) -> str | None:
        if verdict.decodable:
            return "census found no offender"
        return witness_problem(code, verdict)

    return check


def _early_exit_check(lib, code, t_ins: int, t_del: int, list_size: int):
    proof: list[str | None] = []

    def check(verdict) -> str | None:
        if verdict.decodable or verdict.witness is not None:
            return "expected a non-decodable verdict without witness"
        if not proof:  # one witness census per run, outside the timed section
            census = lib.verify.list_decodable(
                code, t_ins, t_del, list_size, want_witness=True
            )
            proof.append(_census_check(code)(census))
        return proof[0]

    return check


def region(lib, seed: int) -> Workload:
    greedy = greedy_codes(lib, seed)
    problems = []
    if seed == DEFAULT_SEED:
        frozen = [lib.codes.read_code(path) for path in sorted(FROZEN.glob("greedy_seed0_*.code"))]
        if frozen != greedy:
            problems.append("default-seed greedy codes differ from perfbench/frozen")
    vt10 = lib.codes.vt_binary(10, 0)
    vt12 = lib.codes.vt_binary(12, 0)
    jobs = []
    subjects = [(f"greedy[{i}]", code, True) for i, code in enumerate(greedy)]
    subjects.append(("VT_0(10)", vt10, False))
    for label, code, must_beat in subjects:
        for list_size in REGION_LIST_SIZES:
            jobs.append(
                Job(
                    f"region {label} L={list_size}",
                    lambda code=code, list_size=list_size: lib.verify.check_bound_region(
                        code, list_size
                    ),
                    _region_check(lib, code, list_size, must_beat),
                )
            )
    jobs.append(
        Job(
            "census VT_0(12) (2,1) L=2",
            lambda: lib.verify.list_decodable(vt12, 2, 1, 2, want_witness=True),
            _census_check(vt12),
        )
    )
    for label, code, radii in (
        ("VT_0(12)", vt12, (2, 1, 2)),
        ("VT_0(12)", vt12, (1, 1, 1)),
        ("VT_0(10)", vt10, (2, 1, 2)),
    ):
        jobs.append(
            Job(
                f"early exit {label} {radii}",
                lambda code=code, radii=radii: lib.verify.list_decodable(code, *radii),
                _early_exit_check(lib, code, *radii),
            )
        )
    return Workload(jobs, problems=problems)


# --------------------------------------------------------------------------
# distance


def _distance_check(code, floor: int):
    def check(distance) -> str | None:
        expected = min_distance(_symbols(code))
        if distance != expected:
            return f"distance {distance}, DP says {expected}"
        if distance < floor:
            return f"distance {distance} below the family floor {floor}"
        return None

    return check


def _criterion7_codes(lib):
    """The code families criterion 7 checks, with their distance floors."""
    codes = lib.codes
    for n in range(1, 11):
        for a in range(n + 1):
            yield f"VT_{a}({n})", codes.vt_binary(n, a), 4
    for n in range(1, 7):
        for a in range(n):
            for b in range(3):
                try:
                    yield f"VT3(n={n}, a={a}, b={b})", codes.vt_qary(n, 3, a, b), 4
                except ValueError:  # empty residue class
                    pass
    for n in range(3, 9):
        for a in range(codes.helberg_weights(2, 2, n + 1)[n]):
            try:
                yield f"Helberg(n={n}, a={a})", codes.helberg(2, n, 2, a), 6
            except ValueError:  # empty residue class
                pass


def _search_check(result) -> str | None:
    points = result.alpha
    if len(set(points)) != RS_N or not all(0 <= a < RS_P for a in points):
        return f"invalid evaluation points {points}"
    # with RS_K = 2 the codewords are the evaluations of c0 + c1*x
    words = [
        tuple((c0 + c1 * a) % RS_P for a in points)
        for c0 in range(RS_P)
        for c1 in range(RS_P)
    ]
    expected = min_distance(words)
    if result.achieved != expected:
        return f"achieved {result.achieved}, DP says {expected}"
    if result.met_target or result.examined != RS_BUDGET or result.exhaustive:
        return f"search stopped after {result.examined} of {RS_BUDGET} tuples"
    return None


def distance(lib, seed: int) -> Workload:
    subjects = [("VT_0(12)", lib.codes.vt_binary(12, 0), 4)]
    subjects += [s for s in _criterion7_codes(lib) if s[1].size >= 2]
    jobs = [
        Job(
            f"min distance {label}",
            lambda code=code: lib.verify.min_levenshtein_distance(code),
            _distance_check(code, floor),
        )
        for label, code, floor in subjects
    ]
    search_seed = random.Random(f"insdel-lab distance {seed}").randrange(2**32)
    field_ = lib.codes.PrimeField(RS_P)
    jobs.append(
        Job(
            f"rs search seed={search_seed}",
            lambda: lib.codes.rs_search_eval_points(
                field_, RS_N, RS_K, budget=RS_BUDGET, seed=search_seed
            ),
            _search_check,
        )
    )
    return Workload(jobs)


# --------------------------------------------------------------------------
# figures


def output_digest(result) -> str:
    """SHA-256 of a figures job's output: CSV bytes, or the report's repr."""
    text = "\n".join(result) + "\n" if isinstance(result, list) else repr(result)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows_problem(rows: list[str], labels: bool) -> str | None:
    width = len(rows[0].split(","))
    for row in rows[1:]:
        cells = row.split(",")
        if len(cells) != width:
            return f"row {row!r} has {len(cells)} cells, header has {width}"
        numbers = cells[:-1] if labels else cells
        if labels and cells[-1] not in ("", "P1", "P2"):
            return f"row {row!r} has an unknown landmark"
        try:
            if not all(math.isfinite(float(cell)) for cell in numbers):
                return f"row {row!r} is not finite"
        except ValueError:
            return f"row {row!r} does not parse"
    return None


def _figure_check(name: str, expected_rows: int, labels: bool, digests: dict | None):
    def check(result) -> str | None:
        if digests is not None and output_digest(result) != digests.get(name):
            return "output bytes differ from the digest recorded for the default seed"
        if expected_rows < 0:  # a comparison report, not CSV rows
            return None
        if len(result) < expected_rows:
            return f"{len(result)} rows, expected at least {expected_rows}"
        return _rows_problem(result, labels)

    return check


def figure_inputs(seed: int) -> tuple[list[Fraction], list[Fraction]]:
    """Seed-drawn rational deltas in (1/2, 1) and rates in (0, 1/2).

    A fixed prime denominator keeps the Fraction sizes, and so the cost,
    the same at every seed.
    """
    rng = random.Random(f"insdel-lab figures {seed}")
    deltas = sorted(Fraction(k, FIGURE_DENOMINATOR) for k in rng.sample(range(49, 96), FIGURE_DELTAS))
    rates = sorted(Fraction(k, FIGURE_DENOMINATOR) for k in rng.sample(range(1, 48), FIGURE_RATES))
    return deltas, rates


def figure_calls(lib, seed: int) -> list[tuple[str, Callable[[], object], int, bool]]:
    """(name, call, minimum row count or -1 for a report, landmark column)."""
    deltas, rates = figure_inputs(seed)
    f, b, points = lib.figures, lib.bounds, FIGURE_POINTS
    calls = []
    for d in deltas:
        for L in FIGURE_LIST_SIZES:
            calls += [
                (f"bound_table_rows({d}, {L})", lambda d=d, L=L: f.bound_table_rows(d, L, points), points + 1, False),
                (f"comparison_rows({d}, {L})", lambda d=d, L=L: f.comparison_rows(d, L, points), points + 1, True),
                (f"comparison_report({d}, {L})", lambda d=d, L=L: b.comparison_report(d, L), -1, False),
            ]
        calls.append(
            (f"bound_profile_rows({d})", lambda d=d: f.bound_profile_rows(d, FIGURE_LIST_SIZES, points), points + 1, False)
        )
    for L in FIGURE_LIST_SIZES:
        calls.append(
            (f"rate_region_rows({L})", lambda L=L: f.rate_region_rows(L, rates, points), len(rates) * points + 1, False)
        )
    return calls


def figures(lib, seed: int) -> Workload:
    digests = None
    if seed == DEFAULT_SEED:
        digests = json.loads(FIGURE_DIGESTS.read_text(encoding="utf-8"))
    # outputs are compared across passes by digest, so holding them does not
    # add to peak memory
    jobs = [
        Job(name, call, _figure_check(name, rows, labels, digests), key=output_digest)
        for name, call, rows, labels in figure_calls(lib, seed)
    ]
    return Workload(jobs)


# --------------------------------------------------------------------------
# regress


def regress(lib, seed: int) -> Workload:
    # Every `insdel-lab regress` invocation starts with a cold cover-count
    # memo, so each timed repeat does too.
    clear = lib.combinatorics.count_v_covers.cache_clear

    def check(results) -> str | None:
        failed = [r.line() for r in results if not r.ok]
        if len(results) != len(lib.acceptance.ALL_CRITERIA):
            return f"{len(results)} criteria ran"
        return "; ".join(failed) or None

    def extras(outputs: list[object]) -> dict[str, float]:
        (results,) = outputs
        if results is None:
            return {}
        return {f"acceptance.criterion_{r.number:02d}_s": r.elapsed for r in results}

    job = Job(
        "acceptance.run_all",
        lambda: lib.acceptance.run_all(echo=lambda line: None),
        check,
        key=lambda results: [(r.number, r.ok, r.detail, tuple(r.skipped)) for r in results],
    )
    return Workload([job], before_rep=clear, extras=extras)


WORKLOADS = {"region": region, "distance": distance, "figures": figures, "regress": regress}
