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
``(runs, den)``: its numerators, one per point in grid order, as a list of
runs over one shared positive denominator.  Over such a grid each linear
term is itself an integer progression: the max form cuts the grid where
neighbouring terms cross, at T_r = L(L+1)(1 - delta)/(r(r+1)), and returns
one ``range`` per winning term, as the pieces do per piece, so both cost a
few integer operations per term the grid reaches and nothing per point.
The max form starts at the first point's winning term, found by one isqrt,
and both scale by the lcm of the terms the grid reaches, not of 1..L, so a
one-point grid takes a fixed number of integer operations at any L.  The
HY kernels multiply progressions point by point, in C, into one list run.
A public function validates, runs its kernel on a one-point progression
and returns a ``Fraction``.
The comparison report decides exactly, by the signs of integer quadratics
at rational points, builds no piece (it bisects over r for the piece that
closes its window, O(log L) signs), and reports float64: the crossover
constants and the P1 root are square roots.  Floats passed as parameters are interpreted via
their shortest decimal representation, so 0.9 means 9/10, not the nearest
binary double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, repeat
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


def _value(run: tuple[list[Sequence[int]], int]) -> Fraction:
    """The value of a kernel run over a one-point progression."""
    runs, den = run
    (num,) = chain.from_iterable(runs)
    return Fraction(num, den)


def _progression(first: int, step: int, count: int) -> Sequence[int]:
    """The count integers first, first + step, first + 2*step, ..."""
    return range(first, first + step * count, step) if step else [first] * count


def _least_pronic(m: int) -> int:
    """The least r >= 0 with r (r+1) >= m: one isqrt and a +1 correction."""
    r = math.isqrt(max(m, 0))
    return r + (r * (r + 1) < m)


def _winner(cn: int, cd: int, big: int, xn: int, xd: int) -> int:
    """The term that wins at x = xn/xd: the least r with r (r+1) >= L(L+1) c/x,
    c = cn/cd; L when x <= 0 or no term qualifies."""
    if xn <= 0:
        return big
    return max(1, min(big, _least_pronic(-(-big * (big + 1) * cn * xd // (xn * cd)))))


def _reach(cn: int, cd: int, big: int, rising: range, xd: int) -> tuple[int, int]:
    """The winning term at a rising grid's first point, and the lcm of the
    terms from the one winning at its last point up to it: each kernel's
    scale, so the max form and the pieces share one denominator."""
    if not rising:
        return big, 1
    top = _winner(cn, cd, big, rising[0], xd)
    return top, math.lcm(*range(_winner(cn, cd, big, rising[-1], xd), top + 1))


def _max_form(cn: int, cd: int, big: int, xns: range, xd: int) -> tuple[list[range], int]:
    """insertion_bound's kernel over x = xn/xd for xn in xns, with 1 - delta = cn/cd.

    It holds, unchecked, for every L = big >= 1, cn >= 0 and progression.
    At L = 1 its one term is x - (1 - delta), the unique-decoding line, also
    at delta = 1 (cn = 0): the region rows and figure columns rely on it.

    With c = 1 - delta, term r minus term r+1 is x/(L+1) - L c/(r(r+1)), so
    term r is at least term r+1 exactly when x >= T_r = L(L+1) c/(r(r+1)).
    T_r never rises with r, so the terms rise up to the least r with
    x >= T_r (r = L if none) and fall from there: that term is the max.  On
    a rising grid, walked from the first point's winner down, term r leads
    up to the first point with x >= T_(r-1): one integer cut, and one
    ``range`` of the integer (2L-r+1) cd s xn - L (L+1) cn xd s/r, its value
    times (L+1) xd cd s, where s is the lcm of the terms the grid reaches
    (`_reach`).  A falling grid is walked reversed, and its runs and their
    order are reversed back.  The work is a few integer operations per term
    the grid reaches, and none per point.
    """
    rising = xns if xns.step > 0 else xns[::-1]
    start, step, count = rising.start, rising.step, len(rising)
    top, scale = _reach(cn, cd, big, rising, xd)
    shared = big * (big + 1) * cn * xd
    unit = cd * scale
    runs: list[range] = []
    done = 0
    for r in range(top, 0, -1):
        # points with start + step*k < T_(r-1) xd: k < (shared - start*w) / (step*w)
        w = (r - 1) * r * cd
        end = min(count, (shared - start * w - 1) // (step * w) + 1) if r > 1 else count
        if end > done:
            b = (2 * big - r + 1) * unit * step
            a = (2 * big - r + 1) * unit * start - shared * (scale // r)
            runs.append(range(a + b * done, a + b * end, b))
            done = end
            if end == count:
                break
    if xns.step < 0:
        runs = [run[::-1] for run in reversed(runs)]
    return runs, (big + 1) * xd * cd * scale


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
            # s x + i at x = xn/xd is (s.num i.den xn + i.num s.den xd) / (s.den i.den xd),
            # positive denominators: the two values agree iff the cross-products do
            xn, xd = left.upper.numerator, left.upper.denominator
            (ln, ld), (rn, rd) = (
                (
                    s.numerator * i.denominator * xn + i.numerator * s.denominator * xd,
                    s.denominator * i.denominator,
                )
                for s, i in ((left.slope, left.intercept), (right.slope, right.intercept))
            )
            if ln * rd != rn * ld:
                raise ValueError("pieces must agree at shared breakpoints")

    def breakpoints(self) -> tuple[Fraction, ...]:
        """Interior breakpoints, left to right (empty for a single piece)."""
        return tuple(p.upper for p in self.pieces[:-1])

    def evaluate(self, x: Exact | float) -> Fraction:
        lower = self.pieces[0].lower
        xn, xd = _in_domain(lower.numerator, lower.denominator, x)
        return _value(self._pair(range(xn, xn + 1), xd))

    def _pair(self, xns: range, xd: int) -> tuple[list[Sequence[int]], int]:
        """evaluate's kernel over x = xn/xd for xn in xns: one run per piece
        that owns a grid point, left to right along xns.

        Over den, the lcm of (L+1) delta.den s (s the lcm of the max form's
        terms that the grid reaches, `_reach`) and the slope.den *
        intercept.den of every piece that owns a grid point, each such piece
        is the integer line a*xn + b*xd, with value (a*xn + b*xd) / (den*xd)
        at x = xn/xd, whatever its slope.  For `insertion_bound_piecewise`
        piece r's slope.den divides L+1 and its intercept.den divides
        r delta.den.  Piece r owns a grid point only where term r wins, at
        x = 1 where term r-1 ties it, or past 1, where a smaller term wins,
        so r lies between the winners at the grid's ends, and den*xd is
        `_max_form`'s denominator, (L+1) delta.den s xd.
        """
        big = self.list_size
        c = 1 - self.delta
        # Walking x upwards, each piece owns the run of points left of its
        # upper end that no earlier piece owns, so a breakpoint belongs to the
        # piece on its right and the last piece owns x = 1.  The run's values
        # form a progression.
        rising = xns if xns.step > 0 else xns[::-1]
        start, step, count = rising.start, rising.step, len(rising)
        # points with start + step*k < un/ud: k < (un*xd - start*ud) / (step*ud)
        cuts = ((u.numerator, u.denominator) for u in self.breakpoints())
        ends = [min(count, max(0, (un * xd - start * ud - 1) // (step * ud) + 1)) for un, ud in cuts]
        ends.append(count)
        owners = [
            (p, done, end) for p, done, end in zip(self.pieces, [0, *ends], ends) if end > done
        ]
        _, scale = _reach(c.numerator, c.denominator, big, rising, xd)
        own = (p.slope.denominator * p.intercept.denominator for p, _, _ in owners)
        den = math.lcm((big + 1) * self.delta.denominator * scale, *own)
        runs = []
        for p, done, end in owners:
            s, i = p.slope, p.intercept
            a = s.numerator * den // s.denominator
            b = i.numerator * den // i.denominator
            runs.append(_progression(a * (start + step * done) + b * xd, a * step, end - done))
        if xns.step < 0:
            runs = [run[::-1] for run in reversed(runs)]
        return runs, den * xd


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
    shared = big * (big + 1) * cn
    r_min = _least_pronic(shared // cd + 1)  # the least r with shared < r (r+1) cd
    # T_r left to right, r = L first (T_L = 1 - delta), then 1: piece r runs
    # between its neighbours in this list, so adjacent pieces share an end
    ends = [*(Fraction(shared, r * (r + 1) * cd) for r in range(big, r_min - 1, -1)), Fraction(1)]
    pieces = tuple(
        LinearPiece(
            lower=lower,
            upper=upper,
            slope=Fraction(2 * big - r + 1, big + 1),
            intercept=Fraction(-big * cn, r * cd),
            r=r,
        )
        for r, lower, upper in zip(range(big, r_min - 1, -1), ends, ends[1:])
    )
    return PiecewiseBound(delta=d, list_size=big, r_min=r_min, pieces=pieces)


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


def _hy1(cn: int, cd: int, xns: range, xd: int) -> tuple[list[list[int]], int]:
    # over xd^2 cn the numerator is xn (xn cd - xd cn), and the second
    # factor is a progression over xns; the values are one list run
    first = xns.start * cd - xd * cn
    factors = _progression(first, xns.step * cd, len(xns))
    return [list(map(mul, xns, factors))], xd * xd * cn


def hy_quadratic2(delta: Exact | float, list_size: int, x: Exact | float) -> Fraction:
    """Second HY comparison quadratic; always strictly below the first one.

    ((L+1) x^2 - (L+1)(1-delta) x + (1-delta) - 1) / (L (1-delta) + 1).
    """
    cn, cd = _one_minus_delta(as_fraction(delta))
    _validate_list_size(list_size)
    xf = as_fraction(x)
    xn, xd = xf.numerator, xf.denominator
    return _value(_hy2(cn, cd, list_size, range(xn, xn + 1), xd))


def _hy2(cn: int, cd: int, big: int, xns: range, xd: int) -> tuple[list[list[int]], int]:
    # numerator and denominator both scaled by xd^2 * cd: the numerator is
    # xn (L+1)(xn cd - cn xd) + (cn - cd) xd^2, a progression times xn plus
    # a constant; the values are one list run
    first = (big + 1) * (xns.start * cd - cn * xd)
    factors = _progression(first, (big + 1) * xns.step * cd, len(xns))
    constant = (cn - cd) * xd * xd
    return [list(map(add, map(mul, xns, factors), repeat(constant)))], xd * xd * (big * cn + cd)


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
    """Positive root beta2 of the crossover quadratic in (1 - delta),

        2 (3L + 1) beta^2 + (L-1)(L-3) beta - (L-1)^2 = 0

    (14 beta^2 - beta - 1 = 0 at L = 2), that is
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
    two sides is 16 (3L+1)(L-1) > 0 for L >= 2.  The float loses it to
    cancellation in beta2 from L near 5.4e8 (ROADMAP item 7's exact surd).
    """
    return 1 - hy_crossover_root(list_size)


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

    So the gap's sign at a piece's upper end is positive up to the closing
    piece and not positive from it on: the closing r is found by bisection
    over r, with T_r in closed form, and no piece is built.  r_min, the
    last piece's r, is the least r with L(L+1) c < r(r+1), by one isqrt.
    P2 is (1 - (L+1) c/(L-1), 2c/(L-1)), and p1 takes its value from the
    max form at one point; the cost is O(log L) integer gap signs.

    The limits as L -> oo, at fixed c and x in [c, 1]:
    (a) The paper's bound tends to 2(x - sqrt(xc)), from below, strictly
    for x > c.  With rho = r/L, (r+1)/(L+1) >= rho (equality iff r = L), so
    term r is at most (2 - rho) x - c/rho = 2x - (rho x + c/rho), which is
    at most 2x - 2 sqrt(xc) by AM-GM, with equality only at
    rho = sqrt(c/x) = 1, that is x = c (both sides 0).  Term
    r = ceil(sqrt(c/x) L) has (r+1)/(L+1) -> sqrt(c/x) and c/rho ->
    sqrt(xc), so it reaches the limit.  At tau_del = 0 the limit is
    2(1 - sqrt(1 - delta)), twice the Hamming Johnson radius's form.
    (b) HY's quadratic tends to (x - c) x/c, the first quadratic: dividing
    ((L+1)(x^2 - c x) + c - 1) and (L c + 1) by L gives
    (x^2 - c x)/c in the limit.  So HY's region tends to
    tau_ins < (x - c) x/c.
    (c) With s = sqrt(x/c) >= 1, (x - c) x/c = c s^2 (s^2 - 1) and
    2(x - sqrt(xc)) = 2 c s (s - 1), so for x > c HY's limit is
    s(s+1)/2 > 1 times the paper's (the ratio tends to 1 as x -> c, where
    both are 0).  The paper's gain over HY is a finite-L effect.
    """
    d = as_fraction(delta)
    cn, cd = _one_minus_delta(d)
    _validate_list_size(list_size)
    beta2 = hy_crossover_root(list_size)
    base = ComparisonReport(float(d), list_size, 1 - beta2, beta2)
    big = list_size
    shared = big * (big + 1) * cn
    r_min = _least_pronic(shared // cd + 1)  # the least r with shared < r (r+1) cd

    def upper(r: int) -> tuple[int, int]:
        """Piece r's upper end, T_(r-1) or 1, as an unreduced pair."""
        return (shared, (r - 1) * r * cd) if r > r_min else (1, 1)

    # piece r minus quadratic2, times r (L+1) cd (L cn + cd) > 0, is the
    # integer quadratic -r a x^2 + r b_r x - e_r; its sign at x = xn/xd is
    # that of the form below, homogeneous in (xn, xd)
    a = (big + 1) ** 2 * cd * cd

    def gap(r: int, x: tuple[int, int]) -> int:
        xn, xd = x
        b = cd * ((big * cn + cd) * (2 * big - r + 1) + (big + 1) ** 2 * cn)
        e = (big + 1) * (big * cn * (big * cn + cd) - r * cd * (cd - cn))
        return r * (b * xd - a * xn) * xn - e * xd * xd

    # the window opens iff piece L-1 exists and its gap is positive at its
    # lower end, P2 = T_(L-1) = (L+1)/(L-1) c, where piece L is 2/(L-1) c
    if r_min == big or gap(big - 1, upper(big)) <= 0:
        return base
    p2 = ((big - 1) * cd - (big + 1) * cn) / ((big - 1) * cd), 2 * cn / ((big - 1) * cd)
    # the closing piece: the largest r < L whose gap is not positive at its
    # upper end; r_min's is negative (Lemma A)
    low, high = r_min, big - 1
    while low < high:
        mid = (low + high + 1) // 2
        if gap(mid, upper(mid)) <= 0:
            low = mid
        else:
            high = mid - 1
    r = low
    # the closing piece's gap in floats is -qa x^2 + b2 x + c2; its larger root
    one_minus = float(1 - d)
    denom = big * one_minus + 1
    qa = (big + 1) / denom
    b2 = (2 * big - r + 1) / (big + 1) + (big + 1) * one_minus / denom
    c2 = -big * cn / (r * cd) - (one_minus - 1) / denom
    right = (b2 + math.sqrt(max(0.0, b2 * b2 + 4 * qa * c2))) / (2 * qa)
    top_n, top_d = upper(r)
    x1 = min(top_n / top_d, max(shared / (r * (r + 1) * cd), right))
    tau1 = min(1 - x1, p2[0])
    p1 = (tau1, float(insertion_bound(d, big, x1)))
    return replace(base, interval=(tau1, p2[0]), p1=p1, p2=p2)
