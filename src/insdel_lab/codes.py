"""Code families used as test subjects: Reed-Solomon evaluation codes over
prime fields, binary and q-ary Varshamov-Tenengolts codes, and Helberg codes.

All constructions materialize their codeword sets eagerly (subject to a size
cap).  Both kinds are built from tables by C-level iterator pipelines, with
no Python call per symbol:

* Reed-Solomon codewords by linearity: coefficient i adds c * a^i mod p at
  point a, so each block of p codewords that differ only in the leading
  coefficient is one slice of a per-point table, and `zip` turns the slices
  into codewords (`_rs_symbols`).
* VT and Helberg codes by syndrome tables: the syndromes of every q-ary
  word of length n are built position by position, in `itertools.product`
  order (`_syndrome_table`).  A constructor marks one residue class and
  `itertools.compress` picks out its members (`_syndrome_code`);
  `_syndrome_classes` groups the words of every class from the same table,
  so a caller that wants all the classes of one code shape builds one
  table, not one per class.  Each family's syndromes (weights, moduli,
  step tables) come from one private spec function that both paths share.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from itertools import compress, repeat
from math import perm, prod
from operator import add, and_, mod, mul
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .words import Word, _min_distance, _require_int

DEFAULT_CODE_CAP = 10**6

# (terms, modulus) per syndrome; see `_syndrome_table`
_Syndromes = Sequence[tuple[Iterable[Sequence[int]], int]]


class CodeSizeError(RuntimeError):
    """Materializing a code would exceed the configured codeword cap."""


@dataclass(frozen=True)
class Code:
    """A block code: a set of length-n words over a common alphabet."""

    q: int
    n: int
    codewords: frozenset[Word]

    def __post_init__(self) -> None:
        # a list could repeat a codeword, and a set would leave the code unhashable
        if not isinstance(self.codewords, frozenset):
            raise TypeError(f"codewords must be a frozenset, got {type(self.codewords).__name__}")
        _require_int("alphabet size", self.q)
        _require_int("block length", self.n)
        if self.q < 2 or self.n < 1:
            raise ValueError("need q >= 2 and n >= 1")
        if not self.codewords:
            raise ValueError("a code must contain at least one codeword")
        for w in self.codewords:
            if w.q != self.q or len(w) != self.n:
                raise ValueError(f"codeword {w} does not match q={self.q}, n={self.n}")

    @property
    def size(self) -> int:
        return len(self.codewords)

    def sorted_words(self) -> list[Word]:
        """Codewords in lexicographic order; use for any deterministic output."""
        return sorted(self.codewords, key=lambda w: w.symbols)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The prime field F_p; elements are the integers 0..p-1."""

    def __init__(self, p: int):
        _require_int("field size", p)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def elements(self) -> range:
        return range(self.p)

    def poly_eval(self, coefficients: Sequence[int], x: int) -> int:
        """Evaluate sum_i coefficients[i] * x^i by Horner's rule."""
        acc = 0
        for c in reversed(coefficients):
            acc = (acc * x + c) % self.p
        return acc


def _validate_eval_points(field: PrimeField, n: int, alpha: Sequence[int]) -> tuple[int, ...]:
    points = tuple(alpha)
    if len(points) != n:
        raise ValueError(f"expected {n} evaluation points, got {len(points)}")
    for a in points:
        if type(a) is not int:
            raise ValueError(f"evaluation point {a!r} is not an integer")
    if len(set(points)) != n:
        raise ValueError("evaluation points must be distinct")
    for a in points:
        if not 0 <= a < field.p:
            raise ValueError(f"evaluation point {a} outside the field")
    return points


def _validate_rs_shape(field: PrimeField, n: int, k: int) -> None:
    """Check the shape of RS(n, k) and the cap on its p^k codewords."""
    _require_int("block length", n)
    _require_int("dimension", k)
    if not 1 <= k <= n <= field.p:
        raise ValueError(f"need 1 <= k <= n <= p, got k={k}, n={n}, p={field.p}")
    size = field.p**k
    if size > DEFAULT_CODE_CAP:
        raise CodeSizeError(f"p^k = {size} codewords exceed cap {DEFAULT_CODE_CAP}")


def _rs_symbols(
    field: PrimeField,
    k: int,
    points: tuple[int, ...],
    rotations: dict[int, tuple[list[int], list[int]]],
) -> Iterator[tuple[int, ...]]:
    """The symbol tuples of the p^k Reed-Solomon codewords
    (f(points_1), ..., f(points_n)) for deg f < k, for valid distinct
    `points`, with polynomials in lexicographic order of their coefficient
    tuples (constant coefficient first).

    By linearity, coefficient i adds c * a^i mod p at point a.  The
    codewords come in blocks of p, one block per prefix of the k - 1 lower
    coefficients, in the order of the prefixes, which is this stream for
    k - 1; within a block the leading coefficient c runs over 0..p-1.  With
    b the prefix's value at a and m = a^(k-1), the block's column at a is
    (b + c * m) mod p.  When m != 0 that is the column for b = 0 rotated to
    start at c = b / m, so it is one slice of that column written out
    twice; when m = 0 (a = 0 and k > 1) it is b repeated.  `zip` turns a
    block's columns into its codewords.

    `rotations` caches, per multiplier m != 0, the doubled column and where
    each value starts in it; a caller that streams many codes over one
    field passes the same dict to each.  It holds at most p - 1 entries of
    3p integers.  Each of the k nested streams holds one block,
    so a stream holds O(p * n * k) symbols besides the cache.
    """
    if k == 0:
        yield (0,) * len(points)
        return
    p = field.p
    tables = []
    for a in points:
        m = pow(a, k - 1, p)
        if m and m not in rotations:
            inverse = pow(m, -1, p)
            column = [c * m % p for c in range(p)]
            rotations[m] = (column * 2, [b * inverse % p for b in range(p)])
        tables.append(rotations[m] if m else (None, None))
    for values in _rs_symbols(field, k - 1, points, rotations):
        yield from zip(
            *[
                twice[start[b] : start[b] + p] if twice else repeat(b, p)
                for b, (twice, start) in zip(values, tables)
            ]
        )


def rs_code(field: PrimeField, n: int, k: int, alpha: Sequence[int] | None = None) -> Code:
    """Reed-Solomon evaluation code over a prime field.

    Distinct polynomials of degree < k <= n give distinct codewords, so the
    code has exactly p^k codewords and minimum Hamming distance n - k + 1.
    Defaults to evaluation points 0..n-1.
    """
    _validate_rs_shape(field, n, k)
    points = _validate_eval_points(field, n, range(n) if alpha is None else alpha)
    symbols = _rs_symbols(field, k, points, {})
    return Code(q=field.p, n=n, codewords=frozenset(map(Word, symbols, repeat(field.p))))


@dataclass(frozen=True)
class EvalPointSearchResult:
    """Outcome of a search over Reed-Solomon evaluation-point tuples."""

    alpha: tuple[int, ...]
    achieved: int
    target: int
    met_target: bool
    examined: int
    exhaustive: bool


def rs_search_eval_points(
    field: PrimeField,
    n: int,
    k: int,
    target: int | None = None,
    budget: int = 2000,
    seed: int = 0,
) -> EvalPointSearchResult:
    """Search evaluation-point tuples for large minimum Levenshtein distance.

    The default target is min(2n, 2n - 4k + 4); existence of a tuple meeting
    it is not guaranteed at desk scales, so falling short is reported rather
    than raised.  When the number of ordered tuples P(p, n) fits the budget
    the search is exhaustive in lexicographic order; otherwise `budget`
    seeded random tuples are examined.

    The minimum distance is computed once per class of tuples
    (`_point_class`), since every tuple in a class gives the same one:

    * for c != 0 and any b, f(x) -> f(cx + b) is a bijection on the
      polynomials of degree < k, so the points c * alpha + b give exactly
      the codeword set of alpha;
    * reversing alpha reverses every codeword, and LCS(rev u, rev v) =
      LCS(u, v), so the reversed tuple's code has the same distance.

    Every tuple is still counted in `examined`.  For n >= 2 a class holds
    up to 2p(p - 1) tuples, so there are about P(p, n) / (2p(p - 1))
    classes, and the memo pays off once the budget nears that number.
    """
    _require_int("budget", budget)
    _require_int("seed", seed)
    if target is not None:
        _require_int("target", target)
    _validate_rs_shape(field, n, k)
    if target is None:
        target = min(2 * n, 2 * n - 4 * k + 4)
    if budget < 1:
        raise ValueError("budget must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    total = perm(field.p, n)
    exhaustive = total <= budget
    if exhaustive:
        candidates: Iterator[tuple[int, ...]] = itertools.permutations(
            field.elements(), n
        )
    else:
        rng = random.Random(seed)
        candidates = (
            tuple(rng.sample(field.elements(), n)) for _ in range(budget)
        )
    best_alpha: tuple[int, ...] | None = None
    best_distance = -1
    examined = 0
    rotations: dict[int, tuple[list[int], list[int]]] = {}
    distances: dict[tuple[int, ...], int] = {}
    for alpha in candidates:
        examined += 1
        key = _point_class(alpha, field.p)
        d = distances.get(key)
        if d is None:
            d = distances[key] = _min_distance(list(_rs_symbols(field, k, alpha, rotations)))
        if d > best_distance:
            best_alpha, best_distance = alpha, d
            if best_distance >= target:
                break
    assert best_alpha is not None
    return EvalPointSearchResult(
        alpha=best_alpha,
        achieved=best_distance,
        target=target,
        met_target=best_distance >= target,
        examined=examined,
        exhaustive=exhaustive,
    )


def _point_class(points: tuple[int, ...], p: int) -> tuple[int, ...]:
    """One key per class of distinct evaluation points under x -> cx + b
    (c != 0) and reversal.

    The unique affine map that sends points[0] to 0 and points[1] to 1 puts
    every affine image of `points` in one normal form; the key is the
    smaller of the normal forms of `points` and of its reversal.  A single
    point has the key ().
    """
    if len(points) < 2:
        return ()
    forms = []
    for ordered in (points, points[::-1]):
        a = ordered[0]
        scale = pow(ordered[1] - a, -1, p)
        forms.append(tuple((x - a) * scale % p for x in ordered[2:]))
    return min(forms)


def _syndrome_table(q: int, n: int, syndromes: _Syndromes) -> list[list[int]]:
    """Each syndrome's sum for every q-ary word of length n, in
    `itertools.product` order: one list of q^n sums per syndrome.

    `syndromes` lists (terms, modulus) pairs.  A syndrome is a sum over
    positions, and terms[j] is position j's table: with i the index of the
    word's first j + 1 symbols in product order, the position adds
    terms[j][i % len(terms[j])].  So a table of q entries is read at symbol
    j, and one of q^2 entries (from position 1 on) at
    q * (symbol j - 1) + symbol j.  A word's residue is its sum modulo the
    modulus.

    Raises CodeSizeError when the q^n candidates exceed DEFAULT_CODE_CAP,
    before any `terms` is consumed.  The sums are built position by
    position, in product order: the words whose index is r modulo a
    table's length L take entry r, and their prefixes are every (L/q)-th
    sum of the previous position, so each entry is one C-level `map` over a
    slice.
    """
    if q**n > DEFAULT_CODE_CAP:
        raise CodeSizeError(f"{q}^{n} words exceed cap {DEFAULT_CODE_CAP}")
    all_sums = []
    for terms, _ in syndromes:
        sums = [0]
        for table in terms:
            step = len(table)
            grown = [0] * (len(sums) * q)
            for r, term in enumerate(table):
                grown[r::step] = map(add, sums[r // q :: step // q], repeat(term))
            sums = grown
        all_sums.append(sums)
    return all_sums


def _syndrome_code(
    q: int, n: int, syndromes: _Syndromes, residues: Sequence[int], empty: str
) -> Code:
    """The q-ary words of length n whose syndromes (see `_syndrome_table`)
    are congruent to `residues`, one residue per syndrome.

    A byte table over each syndrome's range of sums marks its residue, and
    `itertools.compress` picks the words that every table marks out of
    `itertools.product`.  Raises CodeSizeError as `_syndrome_table` does,
    and ValueError with the message `empty` when no word qualifies.
    """
    marks = []
    for sums, (_, modulus), residue in zip(_syndrome_table(q, n, syndromes), syndromes, residues):
        hits = bytearray(max(sums) + 1)
        hits[residue::modulus] = bytes([1]) * len(range(residue, len(hits), modulus))
        marks.append(map(hits.__getitem__, sums))
    mask = marks[0]
    for more in marks[1:]:
        mask = map(and_, mask, more)
    members = list(compress(itertools.product(range(q), repeat=n), mask))
    if not members:
        raise ValueError(empty)
    return Code(q=q, n=n, codewords=frozenset(map(Word, members, repeat(q))))


def _syndrome_classes(
    q: int, n: int, syndromes: _Syndromes
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Every nonempty residue class of the syndromes (see `_syndrome_table`)
    as (residues, members), in the lexicographic order of the residue
    tuples; `members` are the class's symbol tuples in product order, with
    no `Word` or `Code` built around them.

    One table serves every class.  A word's key numbers its residues in
    mixed radix, the first syndrome most significant, so the keys
    0 .. prod(moduli) - 1 follow the order of the residue tuples; one
    C-level `map` per operation computes them, and one pass in product
    order groups the words by key.  Raises CodeSizeError as
    `_syndrome_table` does, at the call.
    """
    moduli = [modulus for _, modulus in syndromes]
    keys: Iterable[int] = repeat(0)
    for sums, modulus in zip(_syndrome_table(q, n, syndromes), moduli):
        keys = map(add, map(mul, keys, repeat(modulus)), map(mod, sums, repeat(modulus)))
    classes: list[list[tuple[int, ...]]] = [[] for _ in range(prod(moduli))]
    for word, key in zip(itertools.product(range(q), repeat=n), keys):
        classes[key].append(word)
    residues = itertools.product(*map(range, moduli))
    return ((r, members) for r, members in zip(residues, classes) if members)


def _weighted(weights: Iterable[int], q: int) -> Iterator[range]:
    """The syndrome tables of sum_j weights[j] * x_j, one `range` per position."""
    return (range(0, q * w, w) for w in weights)


def _vt_binary_spec(n: int) -> tuple[int, int, _Syndromes]:
    """(q, n, syndromes) of the VT codes of length n: sum_i i * c_i mod n + 1."""
    return 2, n, [(_weighted(range(1, n + 1), 2), n + 1)]


def vt_binary(n: int, a: int) -> Code:
    """Binary Varshamov-Tenengolts code VT_a(n).

    Codewords are the binary words c of length n with
    sum_i i * c_i = a (mod n+1), positions numbered from 1.
    """
    _require_int("block length", n)
    _require_int("residue a", a)
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= a <= n:
        raise ValueError(f"residue a must lie in 0..n, got {a}")
    return _syndrome_code(*_vt_binary_spec(n), (a,), f"VT_{a}({n}) is empty")


def _vt_qary_spec(n: int, q: int) -> tuple[int, int, _Syndromes]:
    """(q, n, syndromes) of the q-ary VT codes: the step sum mod n, then the
    symbol sum mod q.  The step tables are built only when read."""

    def steps(j: int) -> tuple[int, ...]:
        """Position j's term of the step sum, read at q * s_(j-1) + s_j."""
        if j == 0:
            return (0,) * q
        return tuple(j if x >= y else 0 for y in range(q) for x in range(q))

    return q, n, [(map(steps, range(n)), n), (_weighted(repeat(1, n), q), q)]


def vt_qary(n: int, q: int, a: int, b: int) -> Code:
    """q-ary Varshamov-Tenengolts code for q > 2.

    A word s = (s_0, ..., s_(n-1)) belongs to the code when both
    sum_{i=1}^{n-1} i * step_i = a (mod n), where step_i is 1 if
    s_i >= s_(i-1) and 0 otherwise, and sum_i s_i = b (mod q).
    """
    _require_int("block length", n)
    _require_int("alphabet size", q)
    _require_int("residue a", a)
    _require_int("residue b", b)
    if q <= 2:
        raise ValueError("q-ary construction needs q > 2")
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= a < n:
        raise ValueError(f"residue a must lie in 0..n-1, got {a}")
    if not 0 <= b < q:
        raise ValueError(f"residue b must lie in 0..q-1, got {b}")
    return _syndrome_code(
        *_vt_qary_spec(n, q), (a, b), f"q-ary VT code (n={n}, q={q}, a={a}, b={b}) is empty"
    )


def helberg_weights(q: int, s: int, count: int) -> tuple[int, ...]:
    """First `count` Helberg weights v_1..v_count for parameters (q, s).

    v_i = 0 for i <= 0 and v_i = 1 + (q-1) * sum_{j=1}^{s} v_(i-j) otherwise.
    """
    _require_int("alphabet size", q)
    _require_int("s", s)
    _require_int("weight count", count)
    if q < 2 or s < 1 or count < 1:
        raise ValueError("need q >= 2, s >= 1, count >= 1")
    values: list[int] = []
    for i in range(count):
        window = values[-s:] if i else []
        values.append(1 + (q - 1) * sum(window))
    return tuple(values)


def _helberg_spec(q: int, n: int, s: int, m: int | None = None) -> tuple[int, int, _Syndromes]:
    """(q, n, syndromes) of the Helberg codes: sum_i v_i x_i mod m, where m
    defaults to v_(n+1); ValueError when m lies below v_(n+1)."""
    through_next = helberg_weights(q, s, n + 1)
    weights, least_modulus = through_next[:n], through_next[n]
    modulus = least_modulus if m is None else m
    if modulus < least_modulus:
        raise ValueError(f"modulus {modulus} below the required v_(n+1) = {least_modulus}")
    return q, n, [(_weighted(weights, q), modulus)]


def helberg(q: int, n: int, s: int, a: int, m: int | None = None) -> Code:
    """Helberg code: words x in {0..q-1}^n with sum_i v_i x_i = a (mod m).

    The weights follow the (q, s) recursion above and the modulus defaults to
    v_(n+1), the smallest value for which the construction's distance
    guarantee (minimum Levenshtein distance at least 2s + 2) applies.
    """
    _require_int("alphabet size", q)
    _require_int("block length", n)
    _require_int("s", s)
    _require_int("residue a", a)
    if m is not None:
        _require_int("modulus", m)
    if not 1 <= s < n:
        raise ValueError(f"need 1 <= s < n, got s={s}, n={n}")
    syndromes = _helberg_spec(q, n, s, m)[2]
    [(_, modulus)] = syndromes
    if not 0 <= a < modulus:
        raise ValueError(f"residue a must lie in 0..{modulus - 1}, got {a}")
    empty = f"Helberg code (q={q}, n={n}, s={s}, a={a}) is empty"
    return _syndrome_code(q, n, syndromes, (a,), empty)


def write_code(code: Code, path: str | Path) -> None:
    """Write a code file: header ``q=<q> n=<n>``, then one codeword per line.

    Codewords are serialized as comma-separated decimal symbols in
    lexicographic order, so output bytes are deterministic.
    """
    lines = [f"q={code.q} n={code.n}"]
    lines.extend(w.to_text() for w in code.sorted_words())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_code(path: str | Path) -> Code:
    """Read a code file written by write_code."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty code file")
    header = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in header)
        if len(header) != 2 or fields.keys() != {"q", "n"}:
            raise ValueError("the header holds q and n once each and nothing else")
        q, n = int(fields["q"]), int(fields["n"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    words = [Word.from_text(line, q) for line in lines[1:]]
    codewords = frozenset(words)
    if not codewords:
        raise ValueError(f"{path}: no codewords")
    if len(codewords) != len(words):
        raise ValueError(f"{path}: {len(words) - len(codewords)} duplicate codeword line(s)")
    return Code(q=q, n=n, codewords=codewords)
