"""Brute-force verification of insdel list-decodability claims.

The channel model applies up to t_ins insertions and t_del deletions to a
codeword.  A code is (t_ins, t_del, L)-list-decodable when no received word is
a possible channel output of more than L codewords.  Equivalently, the
decoder's ball around a received word uses the swapped radii (t_del insertions
and t_ins deletions): re-inserting what the channel deleted and deleting what
it inserted.  That swap is hard-coded here and `decoder_ball_matches_channel`
asserts its equivalence with direct channel simulation on small instances, at
every radius pair up to the given radii.
Containment in the Levenshtein ball follows: an output y of a length-n word
x has LCS(x, y) >= max(n - t_del, |y| - t_ins), so
d(x, y) = n + |y| - 2 LCS <= t_ins + t_del.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .bounds import (
    Exact,
    _max_form,
    _one_minus_delta,
    _validate_list_size,
    as_fraction,
    unique_decoding_bound,
)
from .codes import Code
from .words import (
    DEFAULT_BALL_CAP,
    BallSizeError,
    Word,
    _checked_ball_layers,
    _common_output,
    _layer,
    _lcs_masked,
    _least_output,
    _match_masks,
    _min_distance,
    _require_cap,
    _require_int,
    insdel_ball_size_bound,
)


def min_levenshtein_distance(code: Code) -> int:
    """Minimum pairwise Levenshtein distance of a code with >= 2 codewords.

    Found as twice the least s at which two codewords share a length-(n - s)
    subsequence, with a pairwise LCS scan as the guarded fallback; see
    words._min_distance.
    """
    if code.size < 2:
        raise ValueError("minimum distance needs at least two codewords")
    return _min_distance(sorted(w.symbols for w in code.codewords))


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
        if self.witness is None:
            return
        if self.decodable:
            raise ValueError("a decodable verdict cannot carry a witness")
        if len(self.witness.codewords) <= self.list_size:
            raise ValueError(
                f"a witness must list more than {self.list_size} codewords, "
                f"not {len(self.witness.codewords)}"
            )


def _verdict_census(
    symbols: list[tuple[int, ...]], q: int, t_ins: int, t_del: int, list_size: int, cap: int
) -> bool:
    """Whether some channel output is reached by more than list_size of the
    codewords `symbols`, merging whole balls, a codeword's layers
    `_layer(word, m, t_ins, t_del, q)` shortest first, codeword by codeword
    until a layer takes a count above list_size.  Raises BallSizeError once
    it has counted more than `cap` distinct received words, checked after
    each codeword, so it never counts more than `cap` words plus one ball.
    """
    n = len(symbols[0])
    tally: Counter[tuple[int, ...]] = Counter()
    for word in symbols:
        for m in range(n - t_del, n + t_ins + 1):
            layer = _layer(word, m, t_ins, t_del, q)
            tally.update(layer)
            if max(map(tally.__getitem__, layer)) > list_size:
                return True
        if len(tally) > cap:
            raise BallSizeError(len(tally), cap, counted=True)
    return False


def _witness_census(
    symbols: list[tuple[int, ...]], q: int, t_ins: int, t_del: int, list_size: int, cap: int
) -> tuple[tuple[int, ...], int] | None:
    """The shortlex-smallest channel output reached by more than list_size
    of the sorted codewords `symbols`, with its count, or None.

    The census goes one output length m at a time, shortest first, and
    returns the least offender of the first offending length, since every
    offender of that length is shortlex smaller than every longer received
    word.  A codeword's outputs of length m are its layer
    `_layer(word, m, t_ins, t_del, q)`.  Each length merges whole layers in
    the sorted order until the first offender appears; a length with none
    has merged every layer, so its counts are exact.  Then it merges the
    remaining codewords in the order of their layer's least word,
    `_least_output(word, m, t_ins, t_del)`, keeping the least offender so
    far, and stops at the first codeword whose least word is above it.
    That offender is the least one:

    (a) A layer holds no word below its least word (`_least_output`).
    (b) A skipped codeword reaches no word at or below the least offender:
        its least word is above it, and so are those of the codewords after
        it in the order.
    (c) Every codeword that is not skipped is merged whole, so by (b) the
        count of every word at or below the least offender is exact.  A
        word below it with a count above list_size would have been taken as
        the offender when its last layer was merged, so there is none.

    Raises BallSizeError once the lengths scanned so far have counted more
    than `cap` distinct received words, checked after each layer is merged,
    so the census never counts more than `cap` words plus one layer, and
    the cap counts only the layers it builds.
    """
    n = len(symbols[0])
    counted = 0
    for m in range(n - t_del, n + t_ins + 1):
        tally: Counter[tuple[int, ...]] = Counter()
        rest = iter(symbols)
        for word in rest:
            layer = _layer(word, m, t_ins, t_del, q)
            tally.update(layer)
            if counted + len(tally) > cap:
                raise BallSizeError(counted + len(tally), cap, counted=True)
            if max(map(tally.__getitem__, layer)) > list_size:
                offender = min(y for y in layer if tally[y] > list_size)
                break
        else:
            counted += len(tally)
            continue
        for least, word in sorted((_least_output(w, m, t_ins, t_del), w) for w in rest):
            if least > offender:
                break
            layer = _layer(word, m, t_ins, t_del, q)
            tally.update(layer)
            if counted + len(tally) > cap:
                raise BallSizeError(counted + len(tally), cap, counted=True)
            offender = min(
                (y for y in layer if tally[y] > list_size and y < offender),
                default=offender,
            )
        return offender, tally[offender]
    return None


def _may_share(s: int, sigma: int, n: int, t_ins: int, t_del: int) -> bool:
    """Whether s words of length n, whose pairs' LCS sum to sigma, pass the
    count that every set sharing a channel output passes; at s = 2 it is
    exact.  See `_no_shared_output`."""
    return (s - 1) * (n - t_del) <= t_ins + sigma


def _no_shared_output(
    words: list[tuple[int, ...]], t_ins: int, t_del: int, list_size: int, budget: int
) -> bool | None:
    """True iff no list_size + 1 of the equal-length `words` share a channel
    output; None when deciding would cost more than `budget` units.

    A set S of s words that share an output y passes a count: with
    ell = max(n - t_del, |y| - t_ins), each w_i has a common subsequence
    with y of length ell, on a set A_i of positions of y.  The positions in
    A_i & A_j spell a common subsequence of w_i and w_j, so
    |A_i & A_j| <= LCS(w_i, w_j), and by inclusion-exclusion to degree 2
    the union of the A_i has at least s ell - sigma(S) positions, where
    sigma(S) sums the LCS of S's pairs.  With |y| <= ell + t_ins this gives
    (s - 1) ell <= t_ins + sigma(S), and ell >= n - t_del, so

        (s - 1)(n - t_del) <= t_ins + sigma(S).

    At s = 2 the count reads n - LCS <= t_ins + t_del, and there it is
    exact: each word keeps a longest common subsequence, deletes x of its
    other n - LCS symbols and inserts the other word's kept ones, for any x
    with n - LCS - t_ins <= x <= t_del.  So the LCS kernel joins the pairs,
    and one depth-first search grows sets of words that share an output: a
    set is extended only by words joined to all its members, and only when
    it shares an output itself, since every subset of a sharing set shares
    (Apriori; Agrawal & Srikant 1994).  A set of three or more that fails
    the count shares nothing; the alignment DP `_common_output` decides the
    sets that pass it.  A set that cannot reach list_size + 1 words with
    the candidates left is skipped (Carraghan & Pardalos 1990), and the
    search returns at the first sharing set of list_size + 1 words.  Costs,
    in units:

    * every pair, n + 1, charged up front; pairs are joined as the search
      reaches them, so a search that gives up early joins few;
    * every set the search grows, 1; a set the count refutes costs only
      this, since its sigma adds up the LCS values the join kept;
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
    def later(a: int) -> dict[int, int]:
        """The words after words[a] that share an output with it, each with
        its LCS with words[a]."""
        return {
            b: ell
            for b in range(a + 1, len(words))
            if _may_share(2, ell := _lcs_masked(words[a], masks[b], n), n, t_ins, t_del)
        }

    def sharing(members: tuple[int, ...], sigma: int, candidates: set[int]) -> bool | None:
        """Whether `members`, whose pairs' LCS sum to sigma, plus some of
        `candidates` is a sharing k-set; None once over budget."""
        nonlocal budget
        for v in sorted(candidates):
            budget -= 1
            if budget < 0:
                return None
            grown, rest = members + (v,), candidates & later(v).keys()
            if len(grown) + len(rest) < k:
                continue
            total = sigma + sum(later(m)[v] for m in members)
            shares = _may_share(len(grown), total, n, t_ins, t_del)
            if shares and len(grown) > 2:
                subset = [words[i] for i in grown]
                shares, visited = _common_output(subset, t_ins, t_del, budget)
                budget -= visited
            if shares and len(grown) == k:
                return True
            if budget < 0:
                return None
            if shares and (found := sharing(grown, total, rest)) is not False:
                return found
        return False

    found = sharing((), 0, set(range(len(words))))
    # the recursive closure is a reference cycle: break it, so the search's
    # tables are freed now and not at the next garbage collection
    del sharing
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
      share one.  A count over the LCS values of a set's pairs, which the
      pair join already computed, refutes many sets that share nothing; the
      alignment DP `_common_output` decides the rest.  Its cost does not
      depend on q, so it wins on small codes over large alphabets.  It runs first, on a budget of the enumerator's estimated
      cost, |C| times the ball-size bound, charged for the work it actually
      does, and gives up once it has spent it.  When that cost is over `cap`
      the budget is at least the DP's pair join plus one unit per codeword,
      so a pair at which no two codewords share an output is always decided.
    * The enumerator tallies channel outputs until some received word is
      reached by more than list_size codewords; the code fails exactly when
      there is one.  Received words outside every codeword's output set
      decode to the empty list, so a census that merges every ball is
      exhaustive.  Its verdict census goes codeword by codeword over whole
      balls and checks the cap after each codeword; its witness census goes
      one output length at a time, shortest first, and checks the cap after
      each layer.  A length's cost grows like |C| * q^(its insertions).  It
      runs only when its ball estimate fits `cap`, checked once, before any
      enumeration, and stops once the layers it has built count more than
      `cap` distinct received words.

    BallSizeError is raised only when neither engine decides the verdict.
    The DP returns verdicts only.  With want_witness a failing verdict
    carries the shortlex smallest offending received word, the least
    offender of the first offending length, when the layers the witness
    census builds to find it fit `cap`, and no witness otherwise: at that
    length the census skips the codewords whose least output is above the
    least offender.  The census returns the offender with its count; its
    codeword list is re-derived by one LCS pass against the offender in the
    decoder-ball view (swapped radii), and must match that count, as an
    independent check; a census that finds no offender after the DP failed
    raises AssertionError.  Without want_witness, the verdict census
    decides what the DP left open.  Both engines run in the calling
    process.  The list size, radii and cap must be ints, the cap
    nonnegative.
    """
    _require_int("list size", list_size)
    _require_int("insertion radius", t_ins)
    _require_int("deletion radius", t_del)
    _require_cap(cap)
    if list_size < 1:
        raise ValueError("list size must be at least 1")
    if t_ins < 0 or t_del < 0:
        raise ValueError("radii must be nonnegative")
    if t_del > code.n:
        raise ValueError(f"deletion radius {t_del} exceeds block length {code.n}")
    # every codeword has length n, so one estimate covers every ball
    estimate = insdel_ball_size_bound(code.n, t_ins, t_del, code.q)
    symbols = sorted(w.symbols for w in code.codewords)
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
    if not want_witness:
        shared = _verdict_census(symbols, code.q, t_ins, t_del, list_size, cap)
        return Verdict(not shared, t_ins, t_del, list_size)
    # a failing DP verdict gets its witness from the enumerator, so the
    # witness is the same whichever engine decided; a witness needs exact
    # counts at every word of its length up to it
    try:
        found = _witness_census(symbols, code.q, t_ins, t_del, list_size, cap)
    except BallSizeError:
        if decodable is None:
            raise
        # the DP decided; only the witness census outgrew the cap
        return Verdict(False, t_ins, t_del, list_size)
    if found is None:
        if decodable is False:
            raise AssertionError("sharing-set DP and channel census disagree")
        return Verdict(True, t_ins, t_del, list_size)
    offender, count = found
    masks, m = _match_masks(offender), len(offender)
    # decoder-ball view: the channel deleted what we now insert and vice
    # versa, so y reaches c by n - LCS insertions and |y| - LCS deletions
    members = [
        c
        for c in symbols
        if code.n - (ell := _lcs_masked(c, masks, m)) <= t_del and m - ell <= t_ins
    ]
    if len(members) != count:
        raise AssertionError(
            "channel tally and decoder-ball membership disagree; "
            "the radius swap is broken"
        )
    witness = Witness(Word(offender, code.q), tuple(Word(c, code.q) for c in members))
    return Verdict(False, t_ins, t_del, list_size, witness=witness)


def decoder_ball_matches_channel(codeword: Word, t_ins: int, t_del: int) -> bool:
    """Equivalence of the two list-decoding views for one codeword, at every
    radius pair (t_ins', t_del') <= (t_ins, t_del).

    At each pair the set of channel outputs of `codeword` under
    (t_ins', t_del'), from the ball enumerator at that pair's own radii, must
    equal the set of words whose decoder ball (swapped radii: t_del'
    insertions, t_ins' deletions) contains `codeword`, quantified over every
    word in the reachable length window.  The decoder side tests each word
    y of the largest window once, by the LCS kernel against the codeword's
    match masks: reaching the length-n codeword from y takes at least
    n - LCS insertions and |y| - LCS deletions, and keeping a longest common
    subsequence attains both at once.  So a pair's decoder set is the union
    over lengths m of the cells {y of length m : LCS >= max(n - t_del',
    m - t_ins')}, each cell built once.

    The channel side's checks run once, at (t_ins, t_del), whose window
    holds every smaller pair's; after them, and before anything is
    enumerated, BallSizeError is raised when the window holds more than
    DEFAULT_BALL_CAP words.
    """
    x, q, n = codeword.symbols, codeword.q, len(codeword)
    _checked_ball_layers(x, t_ins, t_del, q, DEFAULT_BALL_CAP)  # for its checks alone
    window = sum(q**m for m in range(n - t_del, n + t_ins + 1))
    if window > DEFAULT_BALL_CAP:
        raise BallSizeError(window, DEFAULT_BALL_CAP)
    masks = _match_masks(x)
    lcs = {
        m: [(y, _lcs_masked(y, masks, n)) for y in itertools.product(range(q), repeat=m)]
        for m in range(n - t_del, n + t_ins + 1)
    }

    @cache
    def cell(m: int, least: int) -> frozenset[tuple[int, ...]]:
        """The words of length m whose LCS with x is at least `least`."""
        return frozenset(y for y, ell in lcs[m] if ell >= least)

    for ti in range(t_ins + 1):
        for td in range(t_del + 1):
            channel = set().union(*_checked_ball_layers(x, ti, td, q, DEFAULT_BALL_CAP))
            # y's decoder ball holds x iff LCS >= max(n - td, |y| - ti)
            lengths = range(n - td, n + ti + 1)
            if channel != set().union(*(cell(m, max(n - td, m - ti)) for m in lengths)):
                return False
    return True


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


def bound_region_pairs(
    n: int, delta: Exact | float, list_size: int
) -> list[tuple[int, int]]:
    """Integer (t_ins, t_del) pairs strictly inside the bound region, exactly.

    Pairs come in order of t_del, then t_ins.  One max-form kernel run over
    x = 1 - t_del/n for every t_del < delta n gives each row's limit; at list
    size 1 that is the unique-decoding line delta - t_del/n, also at delta = 1.
    `delta` is read by `as_fraction`, as by every bound function.
    """
    _require_int("block length", n)
    _require_int("list size", list_size)
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    delta = as_fraction(delta)
    if list_size == 1:
        unique_decoding_bound(delta, 0)  # checks 0 < delta <= 1
        cn, cd = delta.denominator - delta.numerator, delta.denominator
    else:
        cn, cd = _one_minus_delta(delta)
        _validate_list_size(list_size)
    # x = k/n for k from n down to the last k/n above 1 - delta = cn/cd
    nums, den = _max_form(cn, cd, list_size, range(n, cn * n // cd, -1), n)
    pairs = []
    for t_del, num in enumerate(nums):
        # t_ins / n < num / den exactly when t_ins < ceil(num n / den)
        pairs += ((t_ins, t_del) for t_ins in range(-(-num * n // den)))
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
    since the bound is formulated for delta < 1.  The list size must be an
    int, and the cap a nonnegative int, checked before the distance.
    """
    _require_int("list size", list_size)
    _require_cap(cap)
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
