"""Lower bounds on the tolerable insertion fraction for list-decodable
insdel codes, as functions of relative distance delta and list size L.

Two competing bounds are implemented:

* a piecewise-linear bound, evaluated either directly as a max of L linear
  terms or through its explicit piece decomposition;
* the prior quadratic bound of Hayashi and Yasunaga ("HY"), together with its
  admissible-region list-size formula.

Each exact evaluation is an unchecked integer kernel over an arithmetic
progression of points x = xn/xd (``xns`` a ``range``, one denominator xd),
with 1 - delta a (numerator, denominator) pair, reduced or not.  It returns
one numerator per point over one shared positive denominator, and the work
per point runs in C.  Over such a grid each linear term is itself an integer
progression: the max form cuts the grid where neighbouring terms cross, at
T_r = L(L+1)(1 - delta)/(r(r+1)), and emits one progression per term's run,
as the pieces do for each piece, and the HY kernels multiply progressions
point by point.  A public function validates, runs its kernel on a one-point
progression and returns a ``Fraction``.
The comparison report decides exactly, by the signs of integer quadratics
at rational points, and reports float64: the crossover constants and the P1
root are square roots.  Floats passed as parameters are interpreted via
their shortest decimal representation, so 0.9 means 9/10, not the nearest
binary double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from numbers import Rational
from operator import add, mul
from typing import Sequence, Union

Exact = Union[int, str, Fraction]


def as_fraction(value: Exact | float) -> Fraction:
    """Coerce to an exact rational; floats go through their decimal repr.
    A bool, an int to Python, is refused, as `words._require_int` does, and
    so is text with a zero denominator, such as "1/0": both are ValueErrors."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(value, Fraction):  # immutable, so no copy is needed
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, Rational):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _one_minus_delta(delta: Fraction) -> tuple[int, int]:
    """Check 0 < delta < 1; return 1 - delta as a reduced (numerator, denominator)."""
    dn, dd = delta.numerator, delta.denominator
    if not 0 < dn < dd:
        raise ValueError(f"relative distance must satisfy 0 < delta < 1, got {delta}")
    return dd - dn, dd


def _validate_list_size(list_size: int) -> None:
    if not isinstance(list_size, int) or list_size < 2:
        raise ValueError(f"list size must be an integer >= 2, got {list_size!r}")


def insertion_bound(delta: Exact | float, list_size: int, x: Exact | float) -> Fraction:
    """Max-form evaluation of the piecewise-linear insertion bound at x.

    The value is max over r = 1..list_size of

        ((2*list_size - r + 1) / (list_size + 1)) * x
        - (list_size / r) * (1 - delta)

    for x in [1 - delta, 1].  In applications x = 1 - tau_del.
    """
    cn, cd = _one_minus_delta(as_fraction(delta))
    _validate_list_size(list_size)
    xn, xd = _in_domain(cn, cd, x)
    return _value(_max_form(cn, cd, list_size, range(xn, xn + 1), xd))


def _in_domain(cn: int, cd: int, x: Exact | float) -> tuple[int, int]:
    """Check cn/cd <= x <= 1; return x as a reduced pair."""
    xf = as_fraction(x)
    xn, xd = xf.numerator, xf.denominator
    if not (cn * xd <= xn * cd and xn <= xd):
        raise ValueError(f"x={xf} outside domain [{Fraction(cn, cd)}, 1]")
    return xn, xd


def _value(run: tuple[list[int], int]) -> Fraction:
    """The value of a kernel run over a one-point progression."""
    (num,), den = run
    return Fraction(num, den)


def _progression(first: int, step: int, count: int) -> Sequence[int]:
    """The count integers first, first + step, first + 2*step, ..."""
    return range(first, first + step * count, step) if step else [first] * count


def _max_form(cn: int, cd: int, big: int, xns: range, xd: int) -> tuple[list[int], int]:
    """insertion_bound's kernel over x = xn/xd for xn in xns, with 1 - delta = cn/cd.

    It holds, unchecked, for every L = big >= 1, cn >= 0 and progression.
    At L = 1 its one term is x - (1 - delta), the unique-decoding line, also
    at delta = 1 (cn = 0): the region rows and figure columns rely on it.

    With c = 1 - delta, term r minus term r+1 is x/(L+1) - L c/(r(r+1)), so
    term r is at least term r+1 exactly when x >= T_r = L(L+1) c/(r(r+1)).
    T_r never rises with r, so the terms rise up to the least r with
    x >= T_r (r = L if none) and fall from there: that term is the max.  On
    a rising grid, walked from r = L down, term r leads up to the first point
    with x >= T_(r-1): one integer cut, and one C-level ``range`` of the
    integer (2L-r+1) cd lcm * xn - L (L+1) cn xd lcm/r, its value times
    (L+1) xd cd lcm(1..L).  A falling grid is walked reversed.
    """
    scale = math.lcm(*range(1, big + 1))
    shared = big * (big + 1) * cn * xd
    rising = xns if xns.step > 0 else xns[::-1]
    start, step, count = rising.start, rising.step, len(rising)
    unit = cd * scale
    nums: list[int] = []
    for r in range(big, 0, -1):
        # points with start + step*k < T_(r-1) xd: k < (shared - start*w) / (step*w)
        w = (r - 1) * r * cd
        end = min(count, (shared - start * w - 1) // (step * w) + 1) if r > 1 else count
        done = len(nums)
        if end > done:
            b = (2 * big - r + 1) * unit * step
            a = (2 * big - r + 1) * unit * start - shared * (scale // r)
            nums += range(a + b * done, a + b * end, b)
            if end == count:
                break
    if xns.step < 0:
        nums.reverse()
    return nums, (big + 1) * xd * cd * scale


@dataclass(frozen=True)
class LinearPiece:
    """One linear piece slope * x + intercept on the closed interval [lower, upper]."""

    lower: Fraction
    upper: Fraction
    slope: Fraction
    intercept: Fraction
    r: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("piece interval is empty")

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PiecewiseBound:
    """Piece decomposition of the insertion bound on [1 - delta, 1].

    Pieces are listed left to right, indexed by decreasing r from list_size
    down to r_min, where r_min is the least r whose linear term ever wins.
    Adjacent pieces agree at shared breakpoints (the function is continuous),
    and the value is 0 at x = 1 - delta and strictly positive beyond it.
    The pieces are the only state: the integer form the kernel needs is
    derived from them on each call.
    """

    delta: Fraction
    list_size: int
    r_min: int
    pieces: tuple[LinearPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a piecewise bound needs at least one piece")
        if self.pieces[0].lower != 1 - self.delta or self.pieces[-1].upper != 1:
            raise ValueError("pieces must cover exactly [1 - delta, 1]")
        if len(self.pieces) != self.list_size - self.r_min + 1:
            raise ValueError("piece count must equal list_size - r_min + 1")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.upper != right.lower:
                raise ValueError("pieces must tile the domain without gaps")
            if left.value(left.upper) != right.value(right.lower):
                raise ValueError("pieces must agree at shared breakpoints")

    def breakpoints(self) -> tuple[Fraction, ...]:
        """Interior breakpoints, left to right (empty for a single piece)."""
        return tuple(p.upper for p in self.pieces[:-1])

    def evaluate(self, x: Exact | float) -> Fraction:
        lower = self.pieces[0].lower
        xn, xd = _in_domain(lower.numerator, lower.denominator, x)
        return _value(self._pair(range(xn, xn + 1), xd))

    def _pair(self, xns: range, xd: int) -> tuple[list[int], int]:
        """evaluate's kernel over x = xn/xd for xn in xns.

        Over den, the lcm of the pieces' slope.den * intercept.den, each
        piece is the integer line a*xn + b*xd, and its value at x = xn/xd is
        (a*xn + b*xd) / (den*xd).
        """
        den = math.lcm(*(p.slope.denominator * p.intercept.denominator for p in self.pieces))
        # Walking x upwards, each piece owns the run of points left of its
        # upper end that no earlier piece owns, so a breakpoint belongs to the
        # piece on its right and the last piece owns x = 1.  The run's values
        # form a progression.
        rising = xns if xns.step > 0 else xns[::-1]
        start, step, count = rising.start, rising.step, len(rising)
        # points with start + step*k < un/ud: k < (un*xd - start*ud) / (step*ud)
        cuts = ((u.numerator, u.denominator) for u in self.breakpoints())
        ends = [min(count, max(0, (un * xd - start * ud - 1) // (step * ud) + 1)) for un, ud in cuts]
        nums: list[int] = []
        for p, end in zip(self.pieces, ends + [count]):
            s, i = p.slope, p.intercept
            a = s.numerator * den // s.denominator
            b = i.numerator * den // i.denominator
            done = len(nums)
            nums += _progression(a * (start + step * done) + b * xd, a * step, end - done)
        if xns.step < 0:
            nums.reverse()
        return nums, den * xd


def insertion_bound_piecewise(delta: Exact | float, list_size: int) -> PiecewiseBound:
    """Explicit piece decomposition of the insertion bound.

    The r-th linear term wins on the interval between consecutive values of
    list_size*(list_size+1)/(r*(r+1)) * (1 - delta), clipped to [1 - delta, 1];
    r_min is the least r for which that threshold drops below 1.
    """
    d = as_fraction(delta)
    cn, cd = _one_minus_delta(d)
    _validate_list_size(list_size)
    big = list_size

    def threshold(r: int) -> Fraction:
        return Fraction(big * (big + 1) * cn, r * (r + 1) * cd)

    r_min = next(r for r in range(1, big + 1) if threshold(r) < 1)
    pieces = []
    for r in range(big, r_min - 1, -1):
        lower = threshold(r) if r < big else Fraction(cn, cd)
        upper = Fraction(1) if r == r_min else threshold(r - 1)
        pieces.append(
            LinearPiece(
                lower=lower,
                upper=upper,
                slope=Fraction(2 * big - r + 1, big + 1),
                intercept=Fraction(-big * cn, r * cd),
                r=r,
            )
        )
    return PiecewiseBound(delta=d, list_size=big, r_min=r_min, pieces=tuple(pieces))


def unique_decoding_bound(delta: Exact | float, tau_del: Exact | float) -> Fraction:
    """Insertion fraction tolerated by unique decoding: delta - tau_del.

    Unlike the list-decoding bounds it is defined at delta = 1, the relative
    distance of two symbol-disjoint codewords.
    """
    d = as_fraction(delta)
    if not 0 < d <= 1:
        raise ValueError(f"relative distance must satisfy 0 < delta <= 1, got {d}")
    td = as_fraction(tau_del)
    if not 0 <= td < d:
        raise ValueError(f"need 0 <= tau_del < delta, got tau_del={td}, delta={d}")
    return d - td


def hy_quadratic1(delta: Exact | float, x: Exact | float) -> Fraction:
    """First HY comparison quadratic: x^2 / (1 - delta) - x."""
    cn, cd = _one_minus_delta(as_fraction(delta))
    xf = as_fraction(x)
    xn, xd = xf.numerator, xf.denominator
    return _value(_hy1(cn, cd, range(xn, xn + 1), xd))


def _hy1(cn: int, cd: int, xns: range, xd: int) -> tuple[list[int], int]:
    # over xd^2 cn the numerator is xn (xn cd - xd cn), and the second
    # factor is a progression over xns
    first = xns.start * cd - xd * cn
    factors = _progression(first, xns.step * cd, len(xns))
    return list(map(mul, xns, factors)), xd * xd * cn


def hy_quadratic2(delta: Exact | float, list_size: int, x: Exact | float) -> Fraction:
    """Second HY comparison quadratic; always strictly below the first one.

    ((L+1) x^2 - (L+1)(1-delta) x + (1-delta) - 1) / (L (1-delta) + 1).
    """
    cn, cd = _one_minus_delta(as_fraction(delta))
    _validate_list_size(list_size)
    xf = as_fraction(x)
    xn, xd = xf.numerator, xf.denominator
    return _value(_hy2(cn, cd, list_size, range(xn, xn + 1), xd))


def _hy2(cn: int, cd: int, big: int, xns: range, xd: int) -> tuple[list[int], int]:
    # numerator and denominator both scaled by xd^2 * cd: the numerator is
    # xn (L+1)(xn cd - cn xd) + (cn - cd) xd^2, a progression times xn plus
    # a constant
    first = (big + 1) * (xns.start * cd - cn * xd)
    factors = _progression(first, (big + 1) * xns.step * cd, len(xns))
    constant = (cn - cd) * xd * xd
    return list(map(add, map(mul, xns, factors), repeat(constant))), xd * xd * (big * cn + cd)


def hy_list_size(
    delta: Exact | float, tau_ins: Exact | float, tau_del: Exact | float
) -> int | None:
    """List size guaranteed by the HY bound, or None outside its region.

    Applicable when tau_ins < (delta - tau_del)(1 - tau_del)/(1 - delta); the
    guaranteed list size is then

        floor(delta (1 + tau_ins) / ((delta - tau_del)(1 - tau_del) - (1 - delta) tau_ins)).
    """
    d = as_fraction(delta)
    _one_minus_delta(d)
    ti = as_fraction(tau_ins)
    td = as_fraction(tau_del)
    if ti < 0 or not 0 <= td < 1:
        raise ValueError("need tau_ins >= 0 and 0 <= tau_del < 1")
    if ti >= (d - td) * (1 - td) / (1 - d):
        return None
    return math.floor(d * (1 + ti) / ((d - td) * (1 - td) - (1 - d) * ti))


def hy_crossover_root(list_size: int) -> float:
    """Positive root beta2 of the crossover quadratic in (1 - delta).

    beta2 = (L-1) (-(L-3) + sqrt(L^2 + 18L + 17)) / (4 (3L + 1)).
    """
    _validate_list_size(list_size)
    big = list_size
    return (
        (big - 1)
        * (-(big - 3) + math.sqrt(big * big + 18 * big + 17))
        / (4 * (3 * big + 1))
    )


def hy_crossover_delta(list_size: int) -> float:
    """Least delta beyond which the piecewise bound beats the HY quadratic
    somewhere: max(2 / (L+1), 1 - beta2) = 1 - beta2.

    The second argument of the max always dominates: beta2 < (L-1)/(L+1)
    reduces to sqrt(L^2 + 18L + 17) < (L^2 + 10L + 1)/(L+1), that is to
    (L+1)^2 (L^2 + 18L + 17) < (L^2 + 10L + 1)^2, and the gap between the
    two sides is 16 (3L+1)(L-1) > 0 for L >= 2.
    """
    return 1 - hy_crossover_root(list_size)


def hy_crossover_delta_closed_form(list_size: int) -> float:
    """Equivalent closed form of hy_crossover_delta:
    (L^2 + 8L + 7 - (L-1) sqrt(L^2 + 18L + 17)) / (4 (3L + 1))."""
    _validate_list_size(list_size)
    big = list_size
    root = math.sqrt(big * big + 18 * big + 17)
    return (big * big + 8 * big + 7 - (big - 1) * root) / (4 * (3 * big + 1))


@dataclass(frozen=True)
class ComparisonReport:
    """Where the piecewise-linear bound beats the HY quadratic.

    Along x = 1 - tau_del from P2's x up, ``interval`` is the one tau_del
    window where it is strictly larger, and ``p2`` and ``p1`` are its upper
    and lower ends with the bound's values: all set or all None.  Below P2
    the gap (delta/(L(1-delta) + 1) at tau_del = delta, where HY2 < 0) is not
    reported.  ``extra_crossings`` is always False (`comparison_report`,
    Lemma B) and goes at the next seed-0 ``figures`` digest re-record.  p1
    is a float root, so a window thinner than a float step is degenerate.
    """

    delta: float
    list_size: int
    delta1: float
    beta2: float
    interval: tuple[float, float] | None = None
    p1: tuple[float, float] | None = None
    p2: tuple[float, float] | None = None
    extra_crossings: bool = False


def comparison_report(delta: Exact | float, list_size: int) -> ComparisonReport:
    """Compare the piecewise-linear bound against the HY quadratic.

    With c = 1 - delta, D = L c + 1 and T_r = L(L+1) c/(r(r+1)), piece r
    (r = L first: x - c) is (2L-r+1) x/(L+1) - L c/r on [T_r, T_(r-1)], and
    its gap g_r, minus HY2 = ((L+1) x^2 - (L+1) c x + c - 1)/D, is concave.
    A window exists iff the gap is positive at P2, the first piece's end (iff
    delta > delta1), and closes, at one float root, on the first later piece
    whose gap is not positive at its end; each sign is taken over integers.
    Each substitution below, with j, m >= 0, leaves coefficients of one sign.

    Lemma A (that piece exists): with two or more pieces the last, r <= L-1,
    has g_r(1) < 0.  With u = L(L+1) c < r(r+1), r (L+1)^2 D g_r(1) is
    -u^2 + B u + C, B = r(2L-r+1) + (r-1)(L+1), C = r(L+1)(L-r+1-L^2); at
    r = j+1, L = j+2+m, B - 2r(r+1) = 3jm + 2j + 2m: it rises up to
    u = r(r+1), where its value has negative coefficients.

    Lemma B (no second window).  (i) (L+1) D r(r+1) g_r'(T_r) = N_r - c M_r,
    N_r = (2L-r+1) r(r+1), M_r = (L+1)^2 (2L(L+1) - r(r+1)) - L N_r > 0
    (r = j+1, L = j+1+m): g_r'(T_r) <= 0 iff c >= c_r = N_r/M_r, rising in r
    as 1/c_r + L = (L+1)^2 (2L(L+1) - r(r+1))/N_r falls, N_(r+1) - N_r being
    (r+1)(4L-3r) > 0.  (ii) h(c) = r^2 (r-1)^2 D g_r(T_(r-1)) is concave in c
    (r = j+1, L = j+1+m), h(0) > 0, h(c_(r-1)) = r^2 (r-1)^2 (L+1)(r-1-L) P
    over a square, P negative at r = j+2, L = j+2+m, so h > 0 on
    [0, c_(r-1)].  A closing g_r(T_(r-1)) <= 0 thus forces c > c_(r-1) >= c_r'
    for each later piece r': it starts falling and is concave.
    """
    d = as_fraction(delta)
    cn, cd = _one_minus_delta(d)
    _validate_list_size(list_size)
    beta2 = hy_crossover_root(list_size)
    delta1 = 1 - beta2
    if abs(delta1 - hy_crossover_delta_closed_form(list_size)) > 1e-9:
        raise AssertionError("crossover delta closed forms disagree")
    base = ComparisonReport(float(d), list_size, delta1, beta2)
    big = list_size
    first, *rest = insertion_bound_piecewise(d, big).pieces
    # piece r minus quadratic2, times r (L+1) cd (L cn + cd) > 0, is the
    # integer quadratic -r a x^2 + r b_r x - e_r
    a = (big + 1) ** 2 * cd * cd

    def gap(piece: LinearPiece, x: Fraction) -> int:
        r, xn, xd = piece.r, x.numerator, x.denominator
        b = cd * ((big * cn + cd) * (2 * big - r + 1) + (big + 1) ** 2 * cn)
        e = (big + 1) * (big * cn * (big * cn + cd) - r * cd * (cd - cn))
        return r * (b * xd - a * xn) * xn - e * xd * xd

    if not rest or gap(rest[0], rest[0].lower) <= 0:
        return base
    # the first piece ends at x = (L+1)/(L-1) c, where it is 2/(L-1) c
    p2 = (float(1 - first.upper), float(first.value(first.upper)))
    closing = next(p for p in rest if gap(p, p.upper) <= 0)  # Lemma A
    # the closing piece's gap in floats is -qa x^2 + b2 x + c2; its larger root
    one_minus = float(1 - d)
    denom = big * one_minus + 1
    qa = (big + 1) / denom
    b2 = float(closing.slope) + (big + 1) * one_minus / denom
    c2 = float(closing.intercept) - (one_minus - 1) / denom
    right = (b2 + math.sqrt(max(0.0, b2 * b2 + 4 * qa * c2))) / (2 * qa)
    x1 = min(float(closing.upper), max(float(closing.lower), right))
    tau1 = min(1 - x1, p2[0])
    p1 = (tau1, float(insertion_bound(d, big, x1)))
    return replace(base, interval=(tau1, p2[0]), p1=p1, p2=p2)
