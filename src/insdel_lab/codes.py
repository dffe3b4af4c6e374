"""Code families used as test subjects: Reed-Solomon evaluation codes over
prime fields, binary and q-ary Varshamov-Tenengolts codes, and Helberg codes.

All constructions materialize their codeword sets eagerly (subject to a size
cap); Reed-Solomon codes additionally expose a streaming iterator for searches
that only need one pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, perm
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .words import Word, _min_distance

DEFAULT_CODE_CAP = 10**6


class CodeSizeError(RuntimeError):
    """Materializing a code would exceed the configured codeword cap."""


@dataclass(frozen=True)
class Code:
    """A block code: a set of length-n words over a common alphabet."""

    q: int
    n: int
    codewords: frozenset[Word]

    def __post_init__(self) -> None:
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
    if len(set(points)) != n:
        raise ValueError("evaluation points must be distinct")
    for a in points:
        if not 0 <= a < field.p:
            raise ValueError(f"evaluation point {a} outside the field")
    return points


def _validate_rs_shape(field: PrimeField, n: int, k: int) -> None:
    if not 1 <= k <= n <= field.p:
        raise ValueError(f"need 1 <= k <= n <= p, got k={k}, n={n}, p={field.p}")


def rs_codewords(
    field: PrimeField, n: int, k: int, alpha: Sequence[int]
) -> Iterator[Word]:
    """Stream the p^k Reed-Solomon codewords (f(alpha_1), ..., f(alpha_n)).

    Polynomials f of degree < k are enumerated in lexicographic order of their
    coefficient tuples (constant coefficient first).
    """
    _validate_rs_shape(field, n, k)
    points = _validate_eval_points(field, n, alpha)
    for symbols in _rs_symbols(field, k, points):
        yield Word(symbols, field.p)


def _rs_symbols(
    field: PrimeField, k: int, points: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """The symbol tuples of rs_codewords, for valid distinct `points`."""
    for coeffs in itertools.product(field.elements(), repeat=k):
        yield tuple(field.poly_eval(coeffs, a) for a in points)


def rs_code(field: PrimeField, n: int, k: int, alpha: Sequence[int] | None = None) -> Code:
    """Reed-Solomon evaluation code over a prime field.

    Distinct polynomials of degree < k <= n give distinct codewords, so the
    code has exactly p^k codewords and minimum Hamming distance n - k + 1.
    Defaults to evaluation points 0..n-1.
    """
    if alpha is None:
        alpha = range(n)
    size = field.p**k
    if size > DEFAULT_CODE_CAP:
        raise CodeSizeError(
            f"p^k = {size} codewords exceed cap {DEFAULT_CODE_CAP}; use rs_codewords to stream"
        )
    return Code(q=field.p, n=n, codewords=frozenset(rs_codewords(field, n, k, alpha)))


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
    """
    _validate_rs_shape(field, n, k)
    if target is None:
        target = min(2 * n, 2 * n - 4 * k + 4)
    if budget < 1:
        raise ValueError("budget must be positive")
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
    for alpha in candidates:
        examined += 1
        d = _min_distance(list(_rs_symbols(field, k, alpha)))
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


def _filtered_code(
    q: int, n: int, member: Callable[[tuple[int, ...]], bool], empty: str
) -> Code:
    """The q-ary words of length n that satisfy `member`, in one code.

    Raises CodeSizeError when the q^n candidates exceed DEFAULT_CODE_CAP,
    before any is built, and ValueError with the message `empty` when none
    qualifies.
    """
    if q**n > DEFAULT_CODE_CAP:
        raise CodeSizeError(f"{q}^{n} words exceed cap {DEFAULT_CODE_CAP}")
    members = list(filter(member, itertools.product(range(q), repeat=n)))
    if not members:
        raise ValueError(empty)
    return Code(q=q, n=n, codewords=frozenset(Word(w, q) for w in members))


def vt_binary(n: int, a: int) -> Code:
    """Binary Varshamov-Tenengolts code VT_a(n).

    Codewords are the binary words c of length n with
    sum_i i * c_i = a (mod n+1), positions numbered from 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= a <= n:
        raise ValueError(f"residue a must lie in 0..n, got {a}")
    return _filtered_code(
        2,
        n,
        lambda c: sum(i * ci for i, ci in enumerate(c, start=1)) % (n + 1) == a,
        f"VT_{a}({n}) is empty",
    )


def vt_qary(n: int, q: int, a: int, b: int) -> Code:
    """q-ary Varshamov-Tenengolts code for q > 2.

    A word s = (s_0, ..., s_(n-1)) belongs to the code when both
    sum_{i=1}^{n-1} i * step_i = a (mod n), where step_i is 1 if
    s_i >= s_(i-1) and 0 otherwise, and sum_i s_i = b (mod q).
    """
    if q <= 2:
        raise ValueError("q-ary construction needs q > 2")
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= a < n:
        raise ValueError(f"residue a must lie in 0..n-1, got {a}")
    if not 0 <= b < q:
        raise ValueError(f"residue b must lie in 0..q-1, got {b}")

    def member(s: tuple[int, ...]) -> bool:
        steps = sum(i for i in range(1, n) if s[i] >= s[i - 1])
        return steps % n == a and sum(s) % q == b

    return _filtered_code(
        q, n, member, f"q-ary VT code (n={n}, q={q}, a={a}, b={b}) is empty"
    )


def helberg_weights(q: int, s: int, count: int) -> tuple[int, ...]:
    """First `count` Helberg weights v_1..v_count for parameters (q, s).

    v_i = 0 for i <= 0 and v_i = 1 + (q-1) * sum_{j=1}^{s} v_(i-j) otherwise.
    """
    if q < 2 or s < 1 or count < 1:
        raise ValueError("need q >= 2, s >= 1, count >= 1")
    values: list[int] = []
    for i in range(count):
        window = values[-s:] if i else []
        values.append(1 + (q - 1) * sum(window))
    return tuple(values)


def helberg(q: int, n: int, s: int, a: int, m: int | None = None) -> Code:
    """Helberg code: words x in {0..q-1}^n with sum_i v_i x_i = a (mod m).

    The weights follow the (q, s) recursion above and the modulus defaults to
    v_(n+1), the smallest value for which the construction's distance
    guarantee (minimum Levenshtein distance at least 2s + 2) applies.
    """
    if not 1 <= s < n:
        raise ValueError(f"need 1 <= s < n, got s={s}, n={n}")
    through_next = helberg_weights(q, s, n + 1)
    weights, least_modulus = through_next[:n], through_next[n]
    modulus = least_modulus if m is None else m
    if modulus < least_modulus:
        raise ValueError(f"modulus {modulus} below the required v_(n+1) = {least_modulus}")
    if not 0 <= a < modulus:
        raise ValueError(f"residue a must lie in 0..{modulus - 1}, got {a}")
    return _filtered_code(
        q,
        n,
        lambda x: sum(v * xi for v, xi in zip(weights, x)) % modulus == a,
        f"Helberg code (q={q}, n={n}, s={s}, a={a}) is empty",
    )


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
