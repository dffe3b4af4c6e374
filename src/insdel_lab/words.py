"""Words over finite integer alphabets: LCS, Levenshtein distance, insdel balls.

Distances here count insertions and deletions only.  A substitution is not an
atomic edit; it costs one deletion plus one insertion.  Consequently the
distance between two words of equal length is always even.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, product, repeat, tee
from math import comb
from operator import itemgetter, ne
from typing import Iterable, Iterator, Sequence

DEFAULT_BALL_CAP = 10_000_000
# the subsequences _min_distance may hold at once, when |C| * n is smaller
_LEVEL_MEMORY = 1 << 18


class AlphabetMismatchError(ValueError):
    """Two words drawn from different alphabets were combined."""


class BallSizeError(RuntimeError):
    """A ball enumeration or channel tally would exceed the configured size cap.

    `size` is a ball's estimated size, checked before enumerating, or, when
    `counted`, the number of distinct received words a channel tally had
    actually counted over the lengths it scanned.
    """

    def __init__(self, size: int, cap: int, *, counted: bool = False):
        if counted:
            message = f"channel tally holds {size} received words, over cap {cap}"
        else:
            message = f"estimated ball size {size} exceeds cap {cap}"
        super().__init__(
            f"{message}; raise the cap or use the membership predicate instead"
        )
        self.size = size
        self.cap = cap
        self.counted = counted


def _require_int(name: str, value: object) -> None:
    """ValueError unless `value` is exactly an int.  A bool, float or
    Fraction passes a range check but then counts, compares and prints in
    its own way, so it is refused at the boundary, as `Word` refuses it as
    a symbol."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _require_radii(t_ins: object, t_del: object) -> None:
    """ValueError unless both channel radii are nonnegative ints."""
    _require_int("insertion radius", t_ins)
    _require_int("deletion radius", t_del)
    if t_ins < 0 or t_del < 0:
        raise ValueError("radii must be nonnegative")


def _require_cap(cap: object) -> None:
    """ValueError unless the size cap `cap` is a nonnegative int."""
    _require_int("cap", cap)
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")


@dataclass(frozen=True)
class Word:
    """Immutable sequence of symbols drawn from {0, ..., q-1}."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        # a list would leave the word unhashable and unequal to its tuple twin
        if not isinstance(self.symbols, tuple):
            raise TypeError(f"symbols must be a tuple, got {type(self.symbols).__name__}")
        _require_int("alphabet size", self.q)
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        for s in self.symbols:
            if type(s) is not int or not 0 <= s < self.q:
                raise ValueError(f"symbol {s!r} outside alphabet of size {self.q}")

    def __len__(self) -> int:
        return len(self.symbols)

    def to_text(self) -> str:
        """Comma-separated decimal symbols; the empty word is the empty string."""
        return ",".join(str(s) for s in self.symbols)

    @classmethod
    def from_text(cls, text: str, q: int) -> "Word":
        text = text.strip()
        if not text:
            return cls((), q)
        return cls(tuple(int(part) for part in text.split(",")), q)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Shortlex order: by length, then lexicographically."""
        return (len(self.symbols), self.symbols)


def word(symbols: Iterable[int], q: int) -> Word:
    """Convenience constructor accepting any iterable of symbols."""
    return Word(tuple(symbols), q)


def all_words(q: int, length: int) -> Iterator[Word]:
    """All q-ary words of exactly the given length, in lexicographic order."""
    for symbols in itertools.product(range(q), repeat=length):
        yield Word(symbols, q)


def words_up_to(q: int, max_length: int) -> Iterator[Word]:
    """All q-ary words of length 0..max_length, in shortlex order."""
    for length in range(max_length + 1):
        yield from all_words(q, length)


def _require_same_alphabet(a: Word, b: Word) -> None:
    if a.q != b.q:
        raise AlphabetMismatchError(f"alphabet sizes differ: {a.q} vs {b.q}")


def _match_masks(t: tuple[int, ...]) -> dict[int, int]:
    """Per-symbol match masks of `t`: bit j of masks[y] is set iff t[j] == y."""
    masks: dict[int, int] = {}
    for j, y in enumerate(t):
        masks[y] = masks.get(y, 0) | 1 << j
    return masks


def _lcs_masked(s: tuple[int, ...], masks: dict[int, int], n: int) -> int:
    """LCS length of `s` and the length-n tuple whose match masks are `masks`.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): the zero bits of v mark the
    columns where the LCS row value steps up, so each symbol of `s` costs a
    few n-bit integer operations instead of n DP cells.
    """
    full = (1 << n) - 1
    v = full
    for x in s:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def _lcs(s: tuple[int, ...], t: tuple[int, ...]) -> int:
    """Length of a longest common subsequence of two symbol tuples."""
    return _lcs_masked(s, _match_masks(t), len(t))


def lcs_length(a: Word, b: Word) -> int:
    """Length of a longest common subsequence, by bit-parallel LCS.

    One pass over `a` with len(b)-bit integer operations (Allison & Dix, IPL
    1986; Hyyrö, "Bit-parallel LCS-length computation revisited", 2004).
    """
    _require_same_alphabet(a, b)
    return _lcs(a.symbols, b.symbols)


def levenshtein_distance(a: Word, b: Word) -> int:
    """Minimum number of insertions plus deletions transforming `a` into `b`.

    Equals len(a) + len(b) - 2 * lcs_length(a, b): an optimal transformation
    deletes everything outside a longest common subsequence and inserts the
    rest.
    """
    return len(a) + len(b) - 2 * lcs_length(a, b)


def _min_distance(words: Sequence[tuple[int, ...]]) -> int:
    """Minimum pairwise insdel distance of two or more distinct symbol
    tuples of one length n, as every caller has them: a `Code`'s codewords,
    a residue class, or a Reed-Solomon code's p^k codewords (k <= n points).

    The words are searched by shared-subsequence levels.  This is exact:

    * for words a, b of length n, d(a, b) = 2(n - LCS(a, b));
    * a and b share a subsequence of length n - s iff LCS(a, b) >= n - s;
    * so the minimum distance is 2s*, where s* is the least s at which two
      distinct words share a length-(n - s) subsequence;
    * every length-(n - s) subsequence arises by deleting one symbol from a
      length-(n - s + 1) one, so a word's level-s set is the set of single
      deletions of its level-(s - 1) set; level 0 is the word itself.

    Levels go in order, and each level is one pipeline of C-level
    iterators: it makes the single deletions of every parent, parents in
    the order they were first made (so words in order), and claims each
    subsequence for its parent's word in a dict (`dict.setdefault`).  A
    parent belongs to one word, since no two words shared a level-(s - 1)
    subsequence, and the first subsequence already claimed by another word
    returns 2s.  Only the previous level and the current one are kept.
    Level 1 is Levenshtein's test of a single-deletion-correcting code,
    that the single-deletion balls are disjoint (Levenshtein, "Binary codes
    capable of correcting deletions, insertions and reversals", 1966).

    Guard: the levels may build at most B subsequences in all.  A
    subsequence costs one tuple from itertools.combinations and one dict
    lookup; a pair of the scan costs a Python call plus n bit-parallel
    steps.  Timed on CPython 3.11 over 150 random words (q in {2, 4, 7}, n
    from 4 to 48, levels 1 to 3), one pair cost as much as 1 to 13
    subsequences, rising with n; B prices a pair at (n + 12)/6 subsequences
    (2.7 at n = 4, 4 at n = 12, 10 at n = 48), a fit to those timings:

        B = min(P * (n + 12) // 6, max(|C| * n, 2^18)),  P = |C|(|C| - 1)/2.

    The first term is the whole pair scan's cost, so the levels run as long
    as they cost less than the scan they replace; the second bounds memory.
    A level-s parent has exactly n - s + 1 single deletions, so a level
    stops after the subsequences B has left.  If that cuts it short, the
    pair scan finishes the job.  A handover at level s passes the scan a
    stop value of 2s, since no shared level-(s - 1) subsequence means no
    pair is closer than 2s.  Memory: every subsequence held (the previous
    level's dict and the current one's) was built, so at most
    B <= max(|C| * n, 2^18) tuples of length below n are held at once;
    2^18 of them take about 50 MB at n = 12.
    """
    n = len(words[0])
    pairs = len(words) * (len(words) - 1) // 2
    budget = min(pairs * (n + 12) // 6, max(len(words) * n, _LEVEL_MEMORY))
    built = 0
    # each subsequence of the current level, and the index of its word
    level = dict(zip(words, range(len(words))))
    for s in range(1, n + 1):
        parents, level = level, {}
        width = n - s + 1  # single deletions per parent
        subsequences = chain.from_iterable(map(combinations, parents, repeat(n - s)))
        owners, expected = tee(chain.from_iterable(map(repeat, parents.values(), repeat(width))))
        claimed = map(level.setdefault, islice(subsequences, budget - built), owners)
        if any(map(ne, claimed, expected)):
            return 2 * s
        built += len(parents) * width
        if built > budget:
            return _pair_scan(words, 2 * s)
    raise AssertionError("distinct words of one length share the empty subsequence")


def _pair_scan(words: Sequence[tuple[int, ...]], stop_at: int) -> int:
    """The guarded fallback of _min_distance: bit-parallel LCS on each pair.

    Returns as soon as some pair is within stop_at, with that pair's distance;
    the caller passes a stop_at no pair can be closer than, so that is the
    minimum.  Each word's match masks are built once, not once per pair.
    """
    masks = [_match_masks(w) for w in words]
    best = None
    for i, a in enumerate(words):
        for b, b_masks in zip(words[i + 1 :], masks[i + 1 :]):
            d = len(a) + len(b) - 2 * _lcs_masked(a, b_masks, len(b))
            if best is None or d < best:
                best = d
                if best <= stop_at:
                    return best
    return best


def in_insdel_ball(target: Word, centre: Word, t_ins: int, t_del: int) -> bool:
    """True iff `target` is reachable from `centre` within the given budgets.

    Lazy membership test, no enumeration: O(len(centre)) big-int steps on
    len(target)-bit integers.  ValueError unless both radii are
    nonnegative ints.
    """
    _require_radii(t_ins, t_del)
    ell = lcs_length(centre, target)
    return len(target) - ell <= t_ins and len(centre) - ell <= t_del


def insertion_ball_size(length: int, t_ins: int, q: int) -> int:
    """Exact size of the radius-t_ins insertion ball around any length-`length` word.

    The count of supersequences reachable by exactly i insertions is
    sum_j C(length+i, j) (q-1)^j for j = 0..i, independent of the centre word;
    summing over i = 0..t_ins gives the ball size (lengths are disjoint).
    """
    _require_int("word length", length)
    _require_int("insertion radius", t_ins)
    _require_int("alphabet size", q)
    if length < 0 or t_ins < 0 or q < 2:
        raise ValueError("need length >= 0, t_ins >= 0, q >= 2")
    return sum(
        sum(comb(length + i, j) * (q - 1) ** j for j in range(i + 1))
        for i in range(t_ins + 1)
    )


def insdel_ball_size_bound(length: int, t_ins: int, t_del: int, q: int) -> int:
    """Upper bound on the insdel ball size used for cap checks before enumerating.

    It is every ball consumer's check of the radii: ValueError unless both
    are nonnegative ints and t_del <= length, checked after the length.
    """
    _require_radii(t_ins, t_del)
    ins = insertion_ball_size(length, t_ins, q)
    if t_del > length:
        raise ValueError(f"deletion radius {t_del} exceeds word length {length}")
    return sum(comb(length, j) for j in range(t_del + 1)) * ins


def _layer(
    symbols: tuple[int, ...], m: int, t_ins: int, t_del: int, q: int
) -> set[tuple[int, ...]]:
    """The channel outputs of length m of `symbols` (at most t_ins
    insertions and t_del deletions over {0, ..., q-1}).

    A word y of length m is an output iff LCS(symbols, y) >= l, where
    l = max(n - t_del, m - t_ins).  Turning the length-n `symbols` into y
    takes at least n - LCS deletions and m - LCS insertions, and keeping a
    longest common subsequence attains both at once, so they fit the radii
    iff LCS >= n - t_del and LCS >= m - t_ins.  And
    LCS(symbols, y) >= l iff y is a supersequence of some length-l
    subsequence of `symbols`, since a longer common subsequence can be
    shortened.  So the layer is the union, over the length-l subsequences
    s of `symbols`, of the length-m supersequences of s.

    The subsequences come from n - l rounds of one deletion each.  Deleting
    any symbol of a run gives the same tuple, so only the first of each run
    is deleted; that check only saves work (the set would drop the repeats
    anyway), so no test can tell it is there.

    Each s is then grown in one step, by the index table of its shape
    (`_insertion_table`), which builds each length-m supersequence of s
    exactly once.
    """
    ell = max(len(symbols) - t_del, m - t_ins)
    layer = {symbols}
    for _ in range(len(symbols) - ell):
        layer = {
            w[:i] + w[i + 1 :]
            for w in layer
            for i in range(len(w))
            if i == 0 or w[i] != w[i - 1]
        }
    if m == ell:
        return layer
    table = _insertion_table(ell, m - ell, q)
    blocks = _symbol_blocks(q)
    grown: set[tuple[int, ...]] = set()
    for s in layer:
        # a list: tuple() of an iterator starts at 10 items and resizes, so
        # each call would move a tuple from one size's free list to another's
        ext = [*chain.from_iterable(map(blocks.__getitem__, s)), *range(q)]
        # the flat tuple, cut into consecutive words of length m
        grown.update(zip(*[iter(table(ext))] * m))
    return grown


# the (l, j, q) shapes whose insertion tables stay cached, and the alphabet
# sizes whose symbol blocks do; see _insertion_table
_INSERTION_TABLES = 32


@lru_cache(maxsize=_INSERTION_TABLES)
def _symbol_blocks(q: int) -> tuple[tuple[int, ...], ...]:
    """For each symbol c of {0, ..., q-1}: c, then the q - 1 others in order."""
    return tuple((c, *(r for r in range(q) if r != c)) for c in range(q))


@lru_cache(maxsize=_INSERTION_TABLES)
def _insertion_table(ell: int, j: int, q: int) -> itemgetter:
    """An `itemgetter` that, applied to the sequence

        ext = s_0 o_0 s_1 o_1 ... s_(l-1) o_(l-1) 0 1 ... q-1,

    where s is a length-l word over {0, ..., q-1}, j >= 1, and o_k is the
    q - 1 symbols other than s_k in order (`_symbol_blocks`), returns every
    length-(l + j) supersequence of s, each exactly once, one after another
    in one flat tuple (with one spare item after them where they would
    fill exactly 20).

    Proof.  A supersequence y of s has one leftmost embedding of s: match
    s_0 at the first s_0 of y, and each next s_k at the first s_k after
    the last match.  Cutting y at the matched positions writes it as
    y = g_0 s_0 g_1 s_1 ... g_(l-1) s_(l-1) g_l, where a gap g_k (k < l)
    holds no s_k, since the match would otherwise have been earlier, and
    the tail g_l is free.  Conversely, for any such gaps, of total length
    j, the leftmost embedding of s in y = g_0 s_0 ... s_(l-1) g_l matches
    each s_k at the s_k written there, because g_k holds none, so the gaps
    are read back off y.  So y and its gaps determine each other, and one
    index pattern per choice of gaps builds each supersequence once: s_k
    is index kq, gap k takes its symbols from o_k (indices kq + 1 + r), and
    the tail from the alphabet (indices lq + c).  There are
    sum_(i <= j) C(l + j, i) (q - 1)^i of them, the exact-j term of
    `insertion_ball_size` (Levenshtein 1974), at least 1 + (l + j)(q - 1)
    >= 2 since j >= 1; so the getter takes at least 2 indices and returns a
    tuple, never a bare symbol.

    The table does not depend on s, so it is built once per shape, and the
    last `_INSERTION_TABLES` shapes used stay cached.  It holds l + j
    indices per supersequence of one subsequence, so it is never larger
    than the layer it builds, and the callers have checked that layer's
    ball estimate against their cap before building it.  One getter over
    the patterns one after another, not one getter per pattern, takes half
    the memory and is faster.
    """
    patterns: list[tuple[tuple[int, ...], int]] = [((), j)]
    for k in range(ell):
        others = range(k * q + 1, (k + 1) * q)
        patterns = [
            (head + gap + (k * q,), left - size)
            for head, left in patterns
            for size in range(left + 1)
            for gap in product(others, repeat=size)
        ]
    tail = range(ell * q, ell * q + q)
    indices = [
        *chain.from_iterable(
            head + gap for head, left in patterns for gap in product(tail, repeat=left)
        )
    ]
    if len(indices) == 20:
        # CPython 3.11 and 3.12 put a freed 20-item tuple on a free list
        # that never hands one out again, so each call would pin one, up to
        # 2,000 of them (0.37 MiB); `_layer`'s zip drops the extra item
        indices.append(0)
    return itemgetter(*indices)


def _least_output(symbols: tuple[int, ...], m: int, t_ins: int, t_del: int) -> tuple[int, ...]:
    """The lexicographically least word of `_layer(symbols, m, t_ins, t_del,
    q)`, for every q: 0^(m - l) followed by the least length-l subsequence
    s of `symbols`, with l = max(n - t_del, m - t_ins).

    0^j.s is the least length-(|s| + j) supersequence y of s.  By induction
    on |s| + j, with j = 0 immediate: if y_1 > 0, then y > 0^j.s.
    Otherwise drop y_1: the rest y' is a supersequence of s, or of s' = s
    minus its first symbol if that symbol is the 0 matched to y_1.  So
    y' >= 0^(j-1).s or y' >= 0^j.s', and either way y = 0.y' >= 0^j.s.  The
    layer is the union, over the length-l subsequences s, of the length-m
    supersequences of s, so its least word is 0^(m - l) followed by the
    least s.

    The least s comes from a greedy stack: each symbol pops the larger
    symbols before it while enough symbols remain to refill the stack to l,
    then is pushed if the stack is short.  O(n + m).
    """
    ell = max(len(symbols) - t_del, m - t_ins)
    stack: list[int] = []
    left = len(symbols)
    for s in symbols:
        while stack and stack[-1] > s and len(stack) + left > ell:
            stack.pop()
        if len(stack) < ell:
            stack.append(s)
        left -= 1
    return (0,) * (m - ell) + tuple(stack)


def _common_output(
    words: Sequence[tuple[int, ...]], t_ins: int, t_del: int, limit: int
) -> tuple[bool | None, int]:
    """Whether one word is a channel output of every word in `words`, and the
    number of DP states visited; None for the verdict once more than `limit`
    states are visited.

    All words have the same length n.  The output y is built left to right;
    a state is (i_1..i_k, del_1..del_k): word j has consumed i_j symbols, del_j
    of them by deletion, so its insertion count is |y| - (i_j - del_j).  A
    deletion move drops the head of one word.  An emission appends a symbol
    held by some head; every word with that head matches it, and every other
    word counts one insertion.  Matching greedily loses nothing (exchange
    argument), and a symbol no head holds is never needed.  A state can be
    reached at several lengths |y|, and its least one dominates: insertion
    counts only grow with |y|.  So each layer is first closed under
    deletions, which keep |y| and every count, and only then extended by
    emissions; a state thus enters `seen` at its least |y|, and a later
    path to it is rightly dropped.  A state's match counts i_j - del_j lie
    within t_ins below the largest, so there are at most
    k (n+1) (min(t_ins, n)+1)^(k-1) (t_del+1)^k states: which word matched
    most and how much, the others' match counts, and every deletion count.
    The limit is checked before each state is expanded, and one expansion
    adds at most k states, so a call visits at most limit + k.
    """
    k, n = len(words), len(words[0])
    done = (n,) * k
    layer = [(0,) * (2 * k)]
    seen = set(layer)
    for length in range(n + t_ins + 1):
        # the layer grows while it is scanned, so this closes it
        for state in layer:
            if len(seen) > limit:
                return None, len(seen)
            if state[:k] == done:
                return True, len(seen)
            for j in range(k):
                if state[j] < n and state[k + j] < t_del:
                    grown = list(state)
                    grown[j] += 1
                    grown[k + j] += 1
                    child = tuple(grown)
                    if child not in seen:
                        seen.add(child)
                        layer.append(child)
        successors = []
        for state in layer:
            if len(seen) > limit:
                return None, len(seen)
            for symbol in {words[j][state[j]] for j in range(k) if state[j] < n}:
                grown = list(state)
                for j in range(k):
                    if state[j] < n and words[j][state[j]] == symbol:
                        grown[j] += 1
                    elif length + 1 - (state[j] - state[k + j]) > t_ins:
                        break
                else:
                    child = tuple(grown)
                    if child not in seen:
                        seen.add(child)
                        successors.append(child)
        layer = successors
    return False, len(seen)


def insdel_ball(x: Word, t_ins: int, t_del: int, cap: int = DEFAULT_BALL_CAP) -> set[Word]:
    """All words reachable from `x` by at most t_ins insertions and t_del deletions.

    The ball is the union of its length layers `_layer(x, m, ...)`, m = |x| -
    t_del, ..., |x| + t_ins: the words y of length m with LCS(x, y) >=
    max(|x| - t_del, m - t_ins), built as supersequences of subsequences of
    `x`.  The radii are checked by `insdel_ball_size_bound`, then the cap;
    BallSizeError when the bound exceeds `cap`, before anything is built.
    """
    n = len(x)
    estimate = insdel_ball_size_bound(n, t_ins, t_del, x.q)
    _require_cap(cap)
    if estimate > cap:
        raise BallSizeError(estimate, cap)
    return {
        Word(symbols, x.q)
        for m in range(n - t_del, n + t_ins + 1)
        for symbols in _layer(x.symbols, m, t_ins, t_del, x.q)
    }
