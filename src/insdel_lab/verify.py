"""Brute-force verification of insdel list-decodability claims.

The channel model applies up to t_ins insertions and t_del deletions to a
codeword.  A code is (t_ins, t_del, L)-list-decodable when no received word is
a possible channel output of more than L codewords.  Equivalently, the
decoder's ball around a received word uses the swapped radii (t_del insertions
and t_ins deletions): re-inserting what the channel deleted and deleting what
it inserted.  That swap is hard-coded here and `decoder_ball_matches_channel`
asserts its equivalence with direct channel simulation on small instances.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, comb
from typing import Iterable, Sequence

from .bounds import insertion_bound, unique_decoding_bound
from .codes import Code
from .words import (
    DEFAULT_BALL_CAP,
    BallSizeError,
    Word,
    _ball_layers,
    _checked_ball_layers,
    _common_output,
    _lcs_masked,
    _match_masks,
    _min_distance,
    in_insdel_ball,
    insdel_ball,
    insdel_ball_size_bound,
    levenshtein_distance,
)


def min_levenshtein_distance(code: Code) -> int:
    """Minimum pairwise Levenshtein distance of a code with >= 2 codewords.

    Found as twice the least s at which two codewords share a length-(n - s)
    subsequence, with a pairwise LCS scan as the guarded fallback; see
    words._min_distance.
    """
    if code.size < 2:
        raise ValueError("minimum distance needs at least two codewords")
    return _min_distance([w.symbols for w in code.sorted_words()])


@dataclass(frozen=True)
class Witness:
    """A received word decoding to more codewords than the list size allows."""

    received: Word
    codewords: tuple[Word, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a list-decodability check at fixed channel radii."""

    decodable: bool
    t_ins: int
    t_del: int
    list_size: int
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.decodable and self.witness is not None:
            raise ValueError("a decodable verdict cannot carry a witness")


def _channel_tally(
    symbols: list[tuple[int, ...]],
    q: int,
    t_ins: int,
    t_del: int,
    list_size: int,
    cap: int,
    *,
    whole: bool,
) -> Counter[tuple[int, ...]] | None:
    """Count, per channel output, the codewords of `symbols` that reach it;
    return a tally in which some count exceeds list_size, or None when no
    received word is reached by more than list_size codewords.

    Each codeword's outputs come from `_ball_layers`, one length at a time.

    * With `whole`, the census goes one output length at a time, shortest
      first, over every codeword, and returns the tally of the first length
      at which some count exceeds list_size.  Its counts are exact, and
      every offender of that length is shortlex smaller than every longer
      received word, so the shortlex-smallest offender is the least one in
      the returned tally.  Raises BallSizeError once the lengths scanned so
      far have counted more than `cap` distinct received words, checked
      after each codeword's layer is merged, so the census never counts
      more than `cap` words plus one layer.
    * Without, it is a verdict only: the census goes codeword by codeword,
      merging each one's whole ball, and returns as soon as a layer takes a
      count above list_size.  Raises BallSizeError once it has counted more
      than `cap` distinct received words, checked after each codeword, so
      it never counts more than `cap` words plus one ball.
    """
    if not whole:
        tally: Counter[tuple[int, ...]] = Counter()
        for word in symbols:
            for layer in _ball_layers(word, t_ins, t_del, q):
                tally.update(layer)
                if max(map(tally.__getitem__, layer)) > list_size:
                    return tally
            if len(tally) > cap:
                raise BallSizeError(len(tally), cap, counted=True)
        return None
    layers = [_ball_layers(word, t_ins, t_del, q) for word in symbols]
    counted = 0
    for _ in range(t_del + t_ins + 1):
        tally = Counter()
        for word_layers in layers:
            tally.update(next(word_layers))
            if counted + len(tally) > cap:
                raise BallSizeError(counted + len(tally), cap, counted=True)
        if max(tally.values()) > list_size:
            return tally
        counted += len(tally)
    return None


def _no_shared_output(
    words: list[tuple[int, ...]], t_ins: int, t_del: int, list_size: int, budget: int
) -> bool | None:
    """True iff no list_size + 1 of the equal-length `words` share a channel
    output; None when deciding would cost more than `budget` units.

    Two words of length n share an output iff n - LCS <= t_ins + t_del: each
    keeps a longest common subsequence, deletes x of its other n - LCS
    symbols and inserts the other word's kept ones, for any x with
    n - LCS - t_ins <= x <= t_del.  So the LCS kernel joins the pairs, and
    one depth-first search grows sets of words that share an output: a set
    is extended only by words joined to all its members, and only when it
    shares an output itself (`_common_output` decides every set of three or
    more), since every subset of a sharing set shares (Apriori; Agrawal &
    Srikant 1994).  A set that cannot reach list_size + 1 words with the
    candidates left is skipped (Carraghan & Pardalos 1990), and the search
    returns at the first sharing set of list_size + 1 words.  Costs, in units:

    * every pair, n + 1, charged up front; pairs are joined as the search
      reaches them, so a search that gives up early joins few;
    * every set the search grows, 1;
    * every `_common_output` call, the DP states it visited.  A call stops
      once it has visited more states than the budget has left, so the
      search overruns its budget by at most 2 (list_size + 1) units.
    """
    n, k = len(words[0]), list_size + 1
    budget -= comb(len(words), 2) * (n + 1)
    if budget < 0:
        return None
    masks = [_match_masks(w) for w in words]

    @cache
    def later(a: int) -> set[int]:
        """The words after words[a] that share an output with it."""
        return {
            b
            for b in range(a + 1, len(words))
            if n - _lcs_masked(words[a], masks[b], n) <= t_ins + t_del
        }

    def sharing(members: tuple[int, ...], candidates: set[int]) -> bool | None:
        """Whether `members` plus some of `candidates` is a sharing k-set;
        None once over budget."""
        nonlocal budget
        for v in sorted(candidates):
            budget -= 1
            if budget < 0:
                return None
            grown, rest = members + (v,), candidates & later(v)
            if len(grown) + len(rest) < k:
                continue
            shares = True
            if len(grown) > 2:
                subset = [words[i] for i in grown]
                shares, visited = _common_output(subset, t_ins, t_del, budget)
                budget -= visited
            if shares and len(grown) == k:
                return True
            if budget < 0:
                return None
            if shares and (found := sharing(grown, rest)) is not False:
                return found
        return False

    found = sharing((), set(range(len(words))))
    return None if found is None else not found


def list_decodable(
    code: Code,
    t_ins: int,
    t_del: int,
    list_size: int,
    *,
    want_witness: bool = False,
    cap: int = DEFAULT_BALL_CAP,
) -> Verdict:
    """Check (t_ins, t_del, list_size)-list-decodability exhaustively.

    Two engines decide the verdict:

    * The sharing-set search (`_no_shared_output`) looks for list_size + 1
      codewords that share a channel output, growing only sets that already
      share one; the alignment DP `_common_output` decides each set.  Its
      cost does not depend on q, so it wins on small codes over large
      alphabets.  It runs first, on a budget of the enumerator's estimated
      cost, |C| times the ball-size bound, charged for the work it actually
      does, and gives up once it has spent it.  When that cost is over `cap`
      the budget is at least the DP's pair join plus one unit per codeword,
      so a pair at which no two codewords share an output is always decided.
    * The enumerator (`_channel_tally`) tallies the channel outputs of every
      codeword one length at a time, shortest first, and stops at the first
      length at which some received word is reachable from more than
      list_size codewords; the code fails exactly when there is one.
      Received words outside every codeword's output set decode to the
      empty list, so a census that scans every length is exhaustive.  A
      length's cost grows like |C| * q^(its insertions).  The enumerator
      runs only when its ball estimate fits `cap`, checked once, before any
      enumeration, and it stops once the lengths it has scanned count more
      than `cap` distinct received words.

    BallSizeError is raised only when neither engine decides the verdict.
    The DP returns verdicts only.  With want_witness a failing verdict
    carries the shortlex smallest offending received word, the least
    offender of the first offending length, when the census up to that
    length fits `cap`, and no witness otherwise; its codeword list is
    re-derived through the decoder-ball membership predicate (swapped
    radii) as an independent check; a census that finds no offender after
    the DP failed raises AssertionError.  Without it, the census stops at
    its first count above list_size.  Both engines run in the calling
    process.
    """
    if list_size < 1:
        raise ValueError("list size must be at least 1")
    if t_ins < 0 or t_del < 0:
        raise ValueError("radii must be nonnegative")
    if t_del > code.n:
        raise ValueError(f"deletion radius {t_del} exceeds block length {code.n}")
    # every codeword has length n, so one estimate covers every ball
    estimate = insdel_ball_size_bound(code.n, t_ins, t_del, code.q)
    sorted_words = code.sorted_words()
    symbols = [w.symbols for w in sorted_words]
    # the DP's cost does not grow with q; it gives up once it would cost more
    # than enumerating every ball, but when the cap may refuse the enumerator
    # (one ball, or the tally of all of them, over it) it can always afford
    # its pair join and one search step per codeword
    budget = code.size * estimate
    if budget > cap:
        budget = max(budget, comb(code.size, 2) * (code.n + 1) + code.size)
    decodable = _no_shared_output(symbols, t_ins, t_del, list_size, budget)
    # a failing DP verdict whose witness census is over the cap stands bare
    if decodable is not None and (decodable or not want_witness or estimate > cap):
        return Verdict(decodable, t_ins, t_del, list_size)
    if estimate > cap:
        raise BallSizeError(estimate, cap)
    # a failing DP verdict gets its witness from the enumerator, so the
    # witness is the same whichever engine decided; a witness needs exact
    # counts over the whole length it lies at
    try:
        tally = _channel_tally(
            symbols, code.q, t_ins, t_del, list_size, cap, whole=want_witness
        )
    except BallSizeError:
        if decodable is None:
            raise
        # the DP decided; only the witness census outgrew the cap
        return Verdict(False, t_ins, t_del, list_size)
    if tally is None:
        if decodable is False:
            raise AssertionError("sharing-set DP and channel census disagree")
        return Verdict(True, t_ins, t_del, list_size)
    if not want_witness:
        return Verdict(False, t_ins, t_del, list_size)
    # every key of the tally has the same length
    offender = min(key for key, count in tally.items() if count > list_size)
    received = Word(offender, code.q)
    # decoder-ball view: the channel deleted what we now insert and vice versa
    members = tuple(
        w for w in sorted_words if in_insdel_ball(w, received, t_del, t_ins)
    )
    if len(members) != tally[offender]:
        raise AssertionError(
            "channel tally and decoder-ball membership disagree; "
            "the radius swap is broken"
        )
    return Verdict(
        False, t_ins, t_del, list_size, witness=Witness(received, members)
    )


def decoder_ball_matches_channel(codeword: Word, t_ins: int, t_del: int) -> bool:
    """Equivalence of the two list-decoding views for one codeword.

    The set of channel outputs of `codeword` under (t_ins, t_del), from the
    ball enumerator, must equal the set of words whose decoder ball
    (swapped radii: t_del insertions, t_ins deletions) contains `codeword`,
    quantified over every word in the reachable length window.  The decoder
    side tests each word y by the LCS kernel against the codeword's match
    masks, built once: reaching the length-n codeword from y takes at least
    n - LCS insertions and |y| - LCS deletions, and keeping a longest common
    subsequence attains both at once.
    """
    x, q, n = codeword.symbols, codeword.q, len(codeword)
    channel = set().union(*_checked_ball_layers(x, t_ins, t_del, q))
    masks = _match_masks(x)
    decoder = set()
    for length in range(n - t_del, n + t_ins + 1):
        # y's decoder ball holds x iff LCS >= max(n - t_del, |y| - t_ins)
        least = max(n - t_del, length - t_ins)
        decoder.update(
            y
            for y in itertools.product(range(q), repeat=length)
            if _lcs_masked(y, masks, n) >= least
        )
    return channel == decoder


@dataclass(frozen=True)
class RegionReport:
    """Every integer radius pair strictly inside the bound region, checked.

    The region for a code of relative distance delta = d/(2n) and list size L
    contains the pairs (t_ins, t_del) with t_del/n < delta and
    t_ins/n < bound(1 - t_del/n), both strict and compared exactly.  At L = 1
    the bound is x - (1 - delta), so the region is unique decoding:
    t_ins + t_del <= (d-1)//2.  Any non-decodable pair is a violation of the
    bound's guarantee.
    """

    n: int
    distance: int
    delta: Fraction
    list_size: int
    checked: tuple[tuple[int, int], ...]
    violations: tuple[Verdict, ...]
    skipped: tuple[tuple[int, int], ...]
    beats_unique_decoding: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def bound_region_pairs(n: int, delta: Fraction, list_size: int) -> list[tuple[int, int]]:
    """Integer (t_ins, t_del) pairs strictly inside the bound region, exactly.

    Pairs come in order of t_del, then t_ins.  At list size 1 the limit is the
    unique-decoding line delta - t_del/n, which is also defined at delta = 1.
    """
    pairs = []
    for t_del in range(n):
        tau = Fraction(t_del, n)
        if tau >= delta:
            break
        if list_size == 1:
            limit = unique_decoding_bound(delta, tau)
        else:
            limit = insertion_bound(delta, list_size, 1 - tau)
        # t_ins / n < limit exactly when t_ins < ceil(limit * n)
        pairs += ((t_ins, t_del) for t_ins in range(ceil(limit * n)))
    return pairs


def check_bound_region(
    code: Code, list_size: int, *, cap: int = DEFAULT_BALL_CAP
) -> RegionReport:
    """Exhaustively confirm list-decodability on the bound's guaranteed region.

    Each pair gets one `list_decodable(..., want_witness=True, cap=cap)`
    call: a BallSizeError (neither engine decided) marks the pair skipped,
    not failed, and a failing verdict is a violation, with its witness when
    the witness census fits the cap.  At list size 1 a
    code of relative distance 1 (two symbol-disjoint codewords) is checked on
    the unique-decoding region; at list size 2 or more it raises ValueError,
    since the bound is formulated for delta < 1.
    """
    if list_size < 1:
        raise ValueError("list size must be at least 1")
    distance = min_levenshtein_distance(code)
    delta = Fraction(distance, 2 * code.n)
    checked = []
    violations = []
    skipped = []
    for t_ins, t_del in bound_region_pairs(code.n, delta, list_size):
        try:
            verdict = list_decodable(
                code, t_ins, t_del, list_size, want_witness=True, cap=cap
            )
        except BallSizeError:
            skipped.append((t_ins, t_del))
            continue
        checked.append((t_ins, t_del))
        if not verdict.decodable:
            violations.append(verdict)
    return RegionReport(
        n=code.n,
        distance=distance,
        delta=delta,
        list_size=list_size,
        checked=tuple(checked),
        violations=tuple(violations),
        skipped=tuple(skipped),
        beats_unique_decoding=delta > Fraction(2, list_size + 1),
    )


def check_ball_containment(
    samples: Iterable[Word], radii: Sequence[tuple[int, int]]
) -> list[tuple[Word, int, int]]:
    """Check insdel balls sit inside the Levenshtein ball of the summed radius.

    For each sample word y and radius pair (t_ins, t_del) with t_del <= |y|,
    every word of the enumerated insdel ball must lie within Levenshtein
    distance t_ins + t_del of y, by the LCS kernel rather than by a second
    enumeration.  Returns the list of failing (word, t_ins, t_del) triples;
    empty means the containment held throughout.
    """
    failures = []
    for y in samples:
        for t_ins, t_del in radii:
            if t_del > len(y):
                continue
            radius = t_ins + t_del
            ball = insdel_ball(y, t_ins, t_del)
            if any(levenshtein_distance(y, z) > radius for z in ball):
                failures.append((y, t_ins, t_del))
    return failures
