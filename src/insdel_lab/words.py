"""Words over finite integer alphabets: LCS, Levenshtein distance, insdel balls.

Distances here count insertions and deletions only.  A substitution is not an
atomic edit; it costs one deletion plus one insertion.  Consequently the
distance between two words of equal length is always even.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

DEFAULT_BALL_CAP = 10_000_000


class AlphabetMismatchError(ValueError):
    """Two words drawn from different alphabets were combined."""


class BallSizeError(RuntimeError):
    """A requested ball enumeration would exceed the configured size cap."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(
            f"estimated ball size {estimate} exceeds cap {cap}; "
            "raise the cap or use the membership predicate instead"
        )
        self.estimate = estimate
        self.cap = cap


@dataclass(frozen=True)
class Word:
    """Immutable sequence of symbols drawn from {0, ..., q-1}."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        for s in self.symbols:
            if not isinstance(s, int) or not 0 <= s < self.q:
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


def _min_distance(words: Sequence[tuple[int, ...]], stop_at: int) -> int:
    """Minimum pairwise insdel distance of two or more symbol tuples.

    Returns as soon as some pair is within stop_at, with that pair's distance;
    this is the minimum whenever no pair can be closer than stop_at.  Each
    word's match masks are built once per call, not once per pair.
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


@dataclass(frozen=True)
class InsdelPair:
    """An (insertion count, deletion count) budget or cost."""

    insertions: int
    deletions: int

    def __post_init__(self) -> None:
        if self.insertions < 0 or self.deletions < 0:
            raise ValueError("insertion/deletion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.insertions + self.deletions

    def within(self, t_ins: int, t_del: int) -> bool:
        return self.insertions <= t_ins and self.deletions <= t_del


def minimal_insdel_pair(a: Word, b: Word) -> InsdelPair:
    """Componentwise-minimal (insertions, deletions) transforming `a` into `b`.

    Any transformation using i insertions and d deletions has i >= len(b) - lcs
    and d >= len(a) - lcs, and that pair is achieved by keeping a longest
    common subsequence, so the minimum is attained in both coordinates at once.
    """
    ell = lcs_length(a, b)
    return InsdelPair(insertions=len(b) - ell, deletions=len(a) - ell)


def in_insdel_ball(target: Word, centre: Word, t_ins: int, t_del: int) -> bool:
    """True iff `target` is reachable from `centre` within the given budgets.

    Lazy membership test, no enumeration: O(len(centre)) big-int steps on
    len(target)-bit integers.
    """
    _require_same_alphabet(target, centre)
    return minimal_insdel_pair(centre, target).within(t_ins, t_del)


def insertion_ball_size(length: int, t_ins: int, q: int) -> int:
    """Exact size of the radius-t_ins insertion ball around any length-`length` word.

    The count of supersequences reachable by exactly i insertions is
    sum_j C(length+i, j) (q-1)^j for j = 0..i, independent of the centre word;
    summing over i = 0..t_ins gives the ball size (lengths are disjoint).
    """
    if length < 0 or t_ins < 0 or q < 2:
        raise ValueError("need length >= 0, t_ins >= 0, q >= 2")
    return sum(
        sum(comb(length + i, j) * (q - 1) ** j for j in range(i + 1))
        for i in range(t_ins + 1)
    )


def insdel_ball_size_bound(length: int, t_ins: int, t_del: int, q: int) -> int:
    """Upper bound on the insdel ball size used for cap checks before enumerating."""
    dels = sum(comb(length, j) for j in range(min(t_del, length) + 1))
    return dels * insertion_ball_size(length, t_ins, q)


def _ball(symbols: tuple[int, ...], t_ins: int, t_del: int, q: int) -> set[tuple[int, ...]]:
    """All distinct tuples reachable from `symbols` by at most t_del deletions
    followed by at most t_ins single-symbol insertions over {0, ..., q-1}."""
    n = len(symbols)
    out = {
        tuple(symbols[i] for i in keep)
        for dels in range(min(t_del, n) + 1)
        for keep in itertools.combinations(range(n), n - dels)
    }
    frontier = out
    for _ in range(t_ins):
        grown: set[tuple[int, ...]] = set()
        for w in frontier:
            for i in range(len(w) + 1):
                head, tail = w[:i], w[i:]
                for s in range(q):
                    grown.add(head + (s,) + tail)
        grown -= out
        out |= grown
        frontier = grown
    return out


def _common_output(words: Sequence[tuple[int, ...]], t_ins: int, t_del: int) -> bool:
    """True iff one word is a channel output of every word in `words`.

    All words have the same length n.  The output y is built left to right;
    a state is (i_1..i_k, del_1..del_k): word j has consumed i_j symbols, del_j
    of them by deletion, so its insertion count is |y| - (i_j - del_j).  A
    deletion move drops the head of one word.  An emission appends a symbol
    held by some head; every word with that head matches it, and every other
    word counts one insertion.  Matching greedily loses nothing (exchange
    argument), and a symbol no head holds is never needed.  States are
    visited in order of |y|, so each is first reached at its least |y|, which
    dominates: insertion counts only grow with |y|.
    """
    k, n = len(words), len(words[0])
    layer = [(0,) * (2 * k)]
    seen = set(layer)
    for length in range(n + t_ins + 1):
        successors = []
        # deletions keep |y| and every count, so their states join the layer
        # while it is being scanned
        for state in layer:
            heads = {words[j][state[j]] for j in range(k) if state[j] < n}
            if not heads:
                return True
            moves = []
            for j in range(k):
                if state[j] < n and state[k + j] < t_del:
                    grown = list(state)
                    grown[j] += 1
                    grown[k + j] += 1
                    moves.append((layer, tuple(grown)))
            for symbol in heads:
                grown = list(state)
                for j in range(k):
                    if state[j] < n and words[j][state[j]] == symbol:
                        grown[j] += 1
                    elif length + 1 - (state[j] - state[k + j]) > t_ins:
                        break
                else:
                    moves.append((successors, tuple(grown)))
            for target, grown in moves:
                if grown not in seen:
                    seen.add(grown)
                    target.append(grown)
        layer = successors
    return False


def insdel_ball(x: Word, t_ins: int, t_del: int, cap: int = DEFAULT_BALL_CAP) -> set[Word]:
    """All words reachable from `x` by at most t_ins insertions and t_del deletions.

    Enumeration applies deletions first, then insertions; every reachable word
    arises this way because a longest common subsequence witnesses a
    delete-then-insert transformation of the same cost.  Fails fast with
    BallSizeError when the predicted size exceeds `cap`.
    """
    if t_ins < 0 or t_del < 0:
        raise ValueError("radii must be nonnegative")
    if t_del > len(x):
        raise ValueError(f"deletion radius {t_del} exceeds word length {len(x)}")
    estimate = insdel_ball_size_bound(len(x), t_ins, t_del, x.q)
    if estimate > cap:
        raise BallSizeError(estimate, cap)
    return {Word(symbols, x.q) for symbols in _ball(x.symbols, t_ins, t_del, x.q)}
