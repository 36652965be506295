"""Characteristic polynomials, certified principal roots, and root triage.

The characteristic polynomial of a coefficient vector [c_1, ..., c_L] is

    p(x) = x^L - c_1*x^(L-1) - ... - c_L,

which has exactly one positive real root r_1 (simple, and of greatest
magnitude since c_1 >= 1).  Because p(x) -> +inf, the sign of p at a
non-negative rational point t decides the comparison with r_1 outright:
p(t) > 0 iff t > r_1 and p(t) < 0 iff t < r_1.  Every root produced here
is therefore a *certified* bracket: an integer dyadic cell
[num, num + 1] / 2^bits with p(lo) < 0 < p(hi) (or an exact integer hit),
never a bare float.  Isolation, refinement, comparison and triage work on
the integer numerators; ``lo``, ``hi`` and ``width`` are ``Fraction`` views
for tests and independent re-checks.  A float may propose a bracket, but
only an integer sign evaluation accepts it; otherwise floats appear only in
display helpers.  Tolerances control bracket width, not any verdict logic.

Sign evaluations past length 8 and the float seed visit only the nonzero
coefficients (``CharPoly.taps``) and jump across runs of zeros with powers,
so a sparse vector [1, 0^(L-2), N] costs two steps, not L.  The family
[1, 0^(L-2), k] of ``dense`` and ``root_order_gap`` needs no polynomial
objects at all: every root is a cell of a grid 2^-d, accepted by the closed
form 2^(dL) p_k(j / 2^d) = j^(L-1) (j - 2^d) - k 2^(dL) in integers, and
every check on the family compares cell ends, on a finer grid where a
coarse one leaves it open.
``CharPoly.eval`` stays the dense ``Fraction`` Horner over every
coefficient: it is the independent re-check of the roots found here.

The triage test classifies fast: p(2) < 0 proves incompleteness (the root
exceeds 2, too fast to be complete), while a root certified below the
lambda threshold of the same length is conjecturally complete.  Roots in
between land in an indeterminate band where gap arithmetic must decide.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, TypeVar, Union

from . import brown, families
from .core import Coefficients, validate, vectors, vectors_with_sum

Rational = Union[int, Fraction]
T = TypeVar("T")

#: Default bracket width for reported roots; display precision only.
DEFAULT_TOL = Fraction(1, 10**12)

#: Enumeration ceiling for exact_threshold_search.
THRESHOLD_SEARCH_MAX_L = 5

TRIAGE_FAST = "p2_negative"
TRIAGE_SLOW = "below_lambda"
TRIAGE_INDETERMINATE = "indeterminate"


class CostCap(RuntimeError):
    """An enumeration would exceed its cost budget."""


def _as_fraction(tol) -> Fraction:
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return tol


#: Length up to which ``sign_at`` walks every coefficient: building and
#: keeping the taps of a short polynomial costs more than the zeros they
#: skip, and ``min-root`` builds thousands of polynomials of length 3 to 5.
_DENSE_L = 8


@dataclass(frozen=True, slots=True)
class CharPoly:
    """Characteristic polynomial p(x) = x^L - sum c_i x^(L-i).

    ``eval`` walks every coefficient with exact rationals; ``sign_at`` (past
    length _DENSE_L) and ``_seed_cell`` walk ``taps``, the nonzero
    coefficients only.
    """

    coefficients: Coefficients
    _taps: Optional[tuple[int, ...]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def taps(self) -> tuple[int, ...]:
        """i - j, c_i for each nonzero c_i, where c_j is the previous one (j = 0 first).

        One flat tuple (g_1, c_1, g_2, c_2, ...), built on first use and kept:
        a bracket holds its polynomial, and ``dense`` holds thousands.
        """
        if self._taps is None:
            taps, j = [], 0
            for i, ci in enumerate(self.coefficients.values, start=1):
                if ci:
                    taps += (i - j, ci)
                    j = i
            object.__setattr__(self, "_taps", tuple(taps))
        return self._taps

    def eval(self, t: Rational) -> Rational:
        """Exact value of p(t) for rational t (int in, int out)."""
        acc: Rational = 1
        for ci in self.coefficients.values:
            acc = acc * t - ci
        return acc

    def sign_at(self, num: int, den: int = 1) -> int:
        """Sign of p(num/den) for den >= 1, using integer arithmetic only.

        den^L p(num/den) = num^L - sum c_i num^(L-i) den^i by Horner, over
        every coefficient up to length _DENSE_L and over ``taps`` past it:
        there a run of g - 1 zeros is one factor num^g, and c_i meets den^i,
        a shift when den is a power of two.  The last tap is c_L (validated
        nonzero), so no factor of num is left over.
        """
        values = self.coefficients.values
        if len(values) <= _DENSE_L:
            acc = dp = 1
            for ci in values:
                dp *= den
                acc = acc * num - ci * dp
        else:
            acc, i = 1, 0
            shift = den.bit_length() - 1
            dyadic = den == 1 << shift
            it = iter(self.taps)
            for g, ci in zip(it, it):
                i += g
                acc = (acc * num if g == 1 else acc * num**g) - (
                    ci << shift * i if dyadic else ci * den**i
                )
        return (acc > 0) - (acc < 0)


def char_poly_eval(c: Coefficients, t: Rational) -> Rational:
    """Exact evaluation of the characteristic polynomial of ``c`` at ``t``."""
    if t < 0:
        raise ValueError(f"evaluation point must be >= 0, got {t}")
    return CharPoly(c).eval(t)


@dataclass(frozen=True)
class RootBracket:
    """Certified isolating cell [num, num + 1] / 2^bits of the principal root.

    Either ``exact_root`` is set (num = exact_root, bits = 0, and
    lo == hi == that integer), or p(lo) < 0 < p(hi) holds under exact
    rational evaluation.  ``lo``, ``hi`` and ``width`` are ``Fraction``
    views of the integer cell.
    """

    poly: CharPoly
    num: int
    bits: int
    exact_root: Optional[int] = None

    @property
    def lo(self) -> Fraction:
        return Fraction(self.num, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._ends(self.bits)[1], 1 << self.bits)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def approx(self) -> float:
        """Float approximation (the midpoint, correctly rounded), for display."""
        if self.exact_root is not None:
            return float(self.exact_root)
        return (2 * self.num + 1) / (1 << (self.bits + 1))

    def refined(self, tol) -> "RootBracket":
        """Bisect further until the width is at most ``tol``."""
        return self._split(max(0, _depth(tol) - self.bits))

    def _at(self, bits: int) -> "RootBracket":
        # The cell at depth ``bits``.  A finer cell lies inside one cell of
        # each coarser grid, and that cell keeps the sign pattern.
        if self.exact_root is None and bits < self.bits:
            return RootBracket(self.poly, self.num >> (self.bits - bits), bits)
        return self._split(bits - self.bits)

    def _split(self, n: int) -> "RootBracket":
        # The cell that n halvings end in; an exact root is its own cell.
        if self.exact_root is not None or n == 0:
            return self
        return RootBracket(self.poly, _bisect(self.poly, self.num, self.bits, n), self.bits + n)

    def _ends(self, bits: int) -> tuple[int, int]:
        # (lo, hi) as numerators over 2^bits, for bits >= self.bits.
        lo = self.num << (bits - self.bits)
        return lo, lo if self.exact_root is not None else lo + (1 << (bits - self.bits))


def _depth(tol) -> int:
    """The least depth d >= 0 whose cells are at most ``tol`` wide."""
    tol = _as_fraction(tol)
    # 2^-d <= tol = p/q, i.e. q <= p * 2^d.
    q, p = tol.denominator, tol.numerator
    d = max(0, q.bit_length() - p.bit_length() - 1)
    while p << d < q:
        d += 1
    return d


#: Bits below the root's leading bit at which ``_bisect`` seeds its cell: a
#: float names the root to about 52, and the other 6 absorb rounding.
_SEED_BITS = 46


def _bisect(poly: CharPoly, a: int, bits: int, n: int) -> int:
    """Numerator over 2^(bits+n) of the cell n halvings of [a, a+1]/2^bits end in.

    Requires p(a/2^bits) < 0 <= p((a+1)/2^bits).  Cell j of the finer grid
    is [a*2^n + j, a*2^n + j + 1] / 2^(bits+n); bisection keeps the sign
    pattern, so it ends in the one cell with p(left) < 0 <= p(right).  That
    cell is unique because p changes sign once on the positive axis.  A
    float Newton estimate proposes the cell m <= n levels down whose width
    is about _SEED_BITS bits below the root's leading bit (finer cells are
    narrower than a float ulp), two exact sign evaluations accept it, and
    integer bisection finds the remaining n - m levels inside it; a
    rejected proposal leaves all n levels to integer bisection.
    """
    # The check costs two sign evaluations, so a seed pays only past n = 2.
    m = min(n, max(3, _SEED_BITS + 1 - a.bit_length()))
    if m > 2:
        s, den = a << m, 1 << (bits + m)
        j = _seed_cell(poly, s, den, m)
        if j is not None and poly.sign_at(s + j, den) < 0 <= poly.sign_at(s + j + 1, den):
            a, bits, n = s + j, bits + m, n - m
    a, den = a << n, 1 << (bits + n)
    j, k = 0, 1 << n
    while k - j > 1:
        mid = (j + k) // 2
        if poly.sign_at(a + mid, den) < 0:
            j = mid
        else:
            k = mid
    return a + j


def _seed_cell(poly: CharPoly, a: int, den: int, n: int) -> Optional[int]:
    """Grid cell of a float estimate of the root, or None if floats overflow.

    Cell j is [a + j, a + j + 1] / den.  Newton's method on
    f(x) = p(x) / x^L = 1 - sum c_i x^(-i), whose powers cannot overflow
    for x >= 1 (a coefficient beyond the float range can).  f is increasing
    and concave for x > 0, so from below the root each step climbs towards
    it without passing it (up to rounding).  The climb starts at the larger
    of the lower end and max c_i^(1/i): p(x) <= x^(L-i) (x^i - c_i) < 0
    below c_i^(1/i), and from there a tap that dominates the others needs a
    few steps, not a slow climb from a cell end far below.  Each step walks
    the nonzero taps only, jumping across zeros with a power of y = 1/x.
    The estimate is only a proposal: ``_bisect`` accepts it by exact sign
    evaluation.
    """
    try:
        # h(y) by Horner from c_L down to c_1 over the taps: a jump of g
        # multiplies by y^g, and h' picks up g h y^(g-1).
        gaps, cs = poly.taps[::2], poly.taps[1::2]
        top = float(cs[-1])
        steps = [(gaps[j + 1], float(cs[j])) for j in reversed(range(len(cs) - 1))]
        x = max(a / den, *(math.exp(math.log(ci) / i)
                           for i, ci in zip(itertools.accumulate(gaps), cs)))
        for _ in range(100):  # unconverged, the seed fails its sign check
            y = 1.0 / x
            h, dh = top, 0.0  # h(y) = c_1 + c_2 y + ... + c_L y^(L-1), and h'
            for g, ci in steps:
                if g == 1:
                    dh = dh * y + h
                    h = h * y + ci
                else:
                    yg = y ** (g - 1)
                    dh = (dh * y + g * h) * yg
                    h = h * y * yg + ci
            # f(x) = 1 - y h(y) and f'(x) = (h + y h') y^2, with y = 1/x.
            nxt = x - (1.0 - y * h) / ((h + y * dh) * y * y)
            if not nxt > x:  # converged, or nan
                break
            x = nxt
        num, rden = x.as_integer_ratio()
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    j = (num * den - a * rden) // rden
    return min(max(j, 0), (1 << n) - 1)


def _integer_bracket(poly: CharPoly) -> RootBracket:
    # The unit cell [lo, lo+1] with p(lo) < 0 < p(lo+1), or an exact integer root.
    lo, hi = 0, 1  # p(0) = -c_L < 0
    while (s := poly.sign_at(hi)) < 0:
        lo, hi = hi, 2 * hi  # bounded: p(1 + max c_i) > 0
    while s != 0 and hi - lo > 1:  # p(lo) < 0 < p(hi)
        mid = (lo + hi) // 2
        if (s := poly.sign_at(mid)) < 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(poly, hi, 0, exact_root=hi) if s == 0 else RootBracket(poly, lo, 0)


def principal_root(c: Coefficients, tol=DEFAULT_TOL) -> RootBracket:
    """Certified bracket of width <= tol around the unique positive root.

    Integer roots are detected exactly (monic integer polynomials have no
    other rational roots); otherwise the bracket endpoints carry strict
    signs p(lo) < 0 < p(hi).
    """
    return _integer_bracket(CharPoly(c)).refined(tol)


# ---------------------------------------------------------------------------
# Exact root comparison


def _roots_equal(a: RootBracket, b: RootBracket) -> bool:
    # Equal principal roots iff the polynomial gcd vanishes inside the
    # overlap; each polynomial has a single positive root, so a sign change
    # of the gcd across the overlap pins it down.
    f, g = ([Fraction(1)] + [Fraction(-ci) for ci in r.poly.coefficients.values] for r in (a, b))
    while g:  # Euclid over Q on descending coefficient lists with nonzero leads
        while len(f) >= len(g):  # f <- f mod g
            q = f[0] / g[0]
            f = [x - q * y for x, y in zip(f, g + [0] * (len(f) - len(g)))][1:]
            while f and f[0] == 0:
                f.pop(0)
        f, g = g, f
    if len(f) <= 1:
        return False
    s1, s2 = (functools.reduce(lambda acc, x: acc * t + x, f, 0)
              for t in (max(a.lo, b.lo), min(a.hi, b.hi)))
    return s1 == 0 or s2 == 0 or (s1 < 0) != (s2 < 0)


def compare_roots(a: RootBracket, b: RootBracket, max_rounds: int = 1000) -> int:
    """Exact three-way comparison of two principal roots: -1, 0, or +1.

    Decides by refining the brackets until they separate; equal roots are
    recognized through the polynomial gcd instead of looping forever.
    """
    return _separate(a, b, max_rounds)[0]


def _separate(
    a: RootBracket, b: RootBracket, max_rounds: int = 1000
) -> tuple[int, RootBracket, RootBracket]:
    # ``compare_roots`` with the cells it refined.  Each round splits the
    # coarser cell (both at equal depth) by two levels.
    if a.exact_root is not None and b.exact_root is not None:
        return (a.exact_root > b.exact_root) - (a.exact_root < b.exact_root), a, b
    if a.exact_root is not None:
        return b.poly.sign_at(a.exact_root), a, b  # p_b(r_a) > 0 iff r_a > r_b
    if b.exact_root is not None:
        return -a.poly.sign_at(b.exact_root), a, b
    for round_no in range(max_rounds):
        bits = max(a.bits, b.bits)
        (a_lo, a_hi), (b_lo, b_hi) = a._ends(bits), b._ends(bits)
        if a_hi <= b_lo:
            return -1, a, b
        if b_hi <= a_lo:
            return 1, a, b
        if round_no % 16 == 8 and _roots_equal(a, b):
            return 0, a, b
        low = min(a.bits, b.bits)
        a, b = (a._split(2) if a.bits == low else a), (b._split(2) if b.bits == low else b)
    raise RuntimeError("root comparison failed to converge")


def least_root(
    vectors: Iterable[Coefficients], tol=DEFAULT_TOL
) -> Optional[tuple[Coefficients, RootBracket]]:
    """The first vector with the least principal root, and its bracket.

    Ties keep the earlier vector; None when there are no vectors.  Each
    root starts as its integer unit cell and ``_separate`` refines two
    cells only until they separate; the current minimum keeps its refined
    cell, and the winner alone is then brought to the depth of ``tol``,
    which gives exactly ``principal_root(winner, tol)``.
    """
    best: Optional[tuple[Coefficients, RootBracket]] = None
    for c in vectors:
        bracket = _integer_bracket(CharPoly(c))
        if best is None:
            best = c, bracket
            continue
        s, bracket, kept = _separate(bracket, best[1])
        best = (c, bracket) if s < 0 else (best[0], kept)
    return None if best is None else (best[0], best[1]._at(_depth(tol)))


# ---------------------------------------------------------------------------
# Lambda thresholds


@dataclass(frozen=True)
class LambdaThreshold:
    """Conjectured least principal root among incomplete length-L vectors.

    ``max_complete_n`` is ceil(L(L+1)/4), the largest N for which
    [1, 0^(L-2), N] stays complete; the threshold is the principal root of
    x^L - x^(L-1) - (max_complete_n + 1), i.e. of the first incomplete
    member of that family.
    """

    L: int
    max_complete_n: int
    root: RootBracket


def sparse_vector(L: int, last: int) -> Coefficients:
    """The vector [1, 0^(L-2), last] of length L (just [last] when L=1)."""
    if L == 1:
        return validate([last])
    return validate([1] + [0] * (L - 2) + [last])


_lambda_cache: dict[tuple[int, Fraction], LambdaThreshold] = {}


def lambda_threshold(L: int, tol=DEFAULT_TOL) -> LambdaThreshold:
    """Threshold root for length L >= 2, bracketed to ``tol``."""
    if L < 2:
        raise ValueError(f"threshold defined for L >= 2, got {L}")
    tol = _as_fraction(tol)
    key = (L, tol)
    if key not in _lambda_cache:
        n_l = families.bound_one_zeros(L - 2).max_n  # ceil(L(L+1)/4)
        root = principal_root(sparse_vector(L, n_l + 1), tol)
        _lambda_cache[key] = LambdaThreshold(L, n_l, root)
    return _lambda_cache[key]


# ---------------------------------------------------------------------------
# Triage


def triage(c: Coefficients, tol=DEFAULT_TOL) -> brown.Verdict:
    """Classify by root position alone; no terms are generated.

    * p(2) < 0: the root exceeds 2, incomplete (sound).
    * root certified below the lambda threshold: complete, conjectural.
    * otherwise unknown: the root lies in the indeterminate band.
    """
    if c.L < 2:
        raise ValueError("triage needs L >= 2")
    poly = CharPoly(c)
    s2 = poly.sign_at(2)
    if s2 < 0:
        return brown.Verdict(c, brown.INCOMPLETE, brown.root_triage(TRIAGE_FAST), False, 0)
    lam = lambda_threshold(c.L, tol).root
    # A positive sign at the bracket's lower end certifies root < lambda.
    if poly.sign_at(lam.num, 1 << lam.bits) > 0:
        return brown.Verdict(c, brown.COMPLETE, brown.root_triage(TRIAGE_SLOW), True, 0)
    return brown.Verdict(
        c,
        brown.UNKNOWN,
        brown.root_triage(TRIAGE_INDETERMINATE),
        False,
        0,
        note="principal root in indeterminate region [lambda_L, 2]",
    )


# ---------------------------------------------------------------------------
# Minimal roots


def min_root_in_pls(
    L: int, S: int, tol=DEFAULT_TOL, verify: bool = False
) -> tuple[Coefficients, RootBracket]:
    """Minimizer of the principal root over vectors of length L, sum S+1.

    The minimum is attained by [1, 0^(L-2), S]; with ``verify`` the whole
    class goes through ``least_root``, and since the claimed vector comes
    first there and ties keep the earlier vector, it must be the winner.
    """
    if L < 1 or S < 1:
        raise ValueError(f"need L >= 1 and S >= 1, got L={L}, S={S}")
    claimed = sparse_vector(L, S if L > 1 else S + 1)
    if not verify:
        return claimed, principal_root(claimed, tol)
    winner, bracket = least_root(vectors_with_sum(L, S + 1), tol)
    if winner != claimed:
        raise AssertionError(f"{winner} has a smaller principal root than {claimed}")
    return claimed, bracket


# ---------------------------------------------------------------------------
# Exhaustive threshold audit


@dataclass(frozen=True)
class ThresholdSearchReport:
    """Outcome of the exhaustive sub-2 frontier search at one length.

    ``frontier`` is the smallest certified principal root among vectors the
    gap engine judges incomplete whose root lies strictly below 2, or None
    when no such vector exists.  Any vector the engine cannot decide is
    listed in ``undecided`` rather than silently dropped.
    """

    L: int
    candidates: int
    frontier_coefficients: Optional[Coefficients]
    frontier: Optional[RootBracket]
    lam: LambdaThreshold
    agrees_with_lambda: bool
    undecided: tuple[Coefficients, ...]


def exact_threshold_search(L: int, tol=DEFAULT_TOL) -> ThresholdSearchReport:
    """Audit the lambda threshold by brute force at small length.

    Any incomplete vector with principal root below 2 must satisfy
    c_i < 2^i (else p(2) <= 0), so enumerating c_i <= 2^i is exhaustive
    for the sub-2 frontier.  Cost grows like prod 2^i; lengths above
    THRESHOLD_SEARCH_MAX_L are refused.
    """
    if L < 2:
        raise ValueError(f"need L >= 2, got {L}")
    if L > THRESHOLD_SEARCH_MAX_L:
        raise CostCap(f"threshold search capped at L <= {THRESHOLD_SEARCH_MAX_L}")
    tol = _as_fraction(tol)
    lam = lambda_threshold(L, tol)
    ranges = [range(1, 3)]  # c_1 <= 2
    ranges += [range(0, 2**i + 1) for i in range(2, L)]
    ranges += [range(1, 2**L + 1)]
    incomplete, undecided = [], []
    for c in vectors(ranges):
        if CharPoly(c).sign_at(2) <= 0:
            continue  # root >= 2
        kind = brown.check_completeness(c).kind
        if kind == brown.INCOMPLETE:
            incomplete.append(c)
        elif kind == brown.UNKNOWN:
            undecided.append(c)
    best_c, best = least_root(incomplete, tol) or (None, None)
    if best_c is None:
        # No sub-2 incomplete vector: consistent iff the threshold is >= 2.
        agrees = lam.root.poly.sign_at(2) <= 0
    else:
        agrees = best_c == sparse_vector(L, lam.max_complete_n + 1)
    candidates = math.prod(len(r) for r in ranges)
    return ThresholdSearchReport(
        L, candidates, best_c, best, lam, agrees, tuple(undecided)
    )


# ---------------------------------------------------------------------------
# Root ordering and denseness


def root_order_gap(L: int, k: int, tol=DEFAULT_TOL) -> tuple[float, float]:
    """Consecutive root gaps of x^L - x^(L-1) - t for t = k, k+1, k+2.

    Returns (r-q, s-r) as floats after certifying r-q > s-r exactly: the
    map t -> root is increasing and concave, so the gaps shrink.  The roots
    are cells of the grid of ``tol``, deepened by ``_sparse_decide`` until
    the cells certify it, and the gaps are those of their midpoints there.
    """
    if L <= 2 or k <= 0:
        raise ValueError(f"need L > 2 and k > 0, got L={L}, k={k}")

    def gaps(los: list[int], his: list[int], depth: int) -> Optional[tuple[float, float]]:
        q, r, s = ((lo + hi) / (2 << depth) for lo, hi in zip(los, his))
        return (r - q, s - r) if _shrinks(los, his, depth) else None

    found = _sparse_decide(L, k, 3, _depth(tol), gaps)
    if found is None:
        raise RuntimeError("gap ordering certification failed to converge")
    return found


def _shrinks(los: list[int], his: list[int], depth: int) -> Optional[bool]:
    # r - q > s - r for the cells of roots q < r < s, since r - q >= r_lo - q_hi
    # and s - r <= s_hi - r_lo; None while the cells leave it open.
    return 2 * los[1] > his[0] + his[2] or None


def _sparse_decide(
    L: int, k: int, count: int, depth: int, test: Callable[[list[int], list[int], int], Optional[T]]
) -> Optional[T]:
    """The answer of ``test`` on the roots of [1, 0^(L-2), t] for t = k..k+count-1.

    ``test(los, his, depth)`` reads the cells of those roots at ``depth``
    (``_sparse_roots``) and returns None while they leave its question
    open.  The roots are isolated again two levels deeper at a time, at
    200 depths from ``depth`` on; None if none of them answers.
    """
    for d in range(depth, depth + 400, 2):
        if (answer := test(*_sparse_roots(L, range(k, k + count), d), d)) is not None:
            return answer
    return None


@dataclass(frozen=True)
class DensenessReport:
    """Roots of [1, 0^(L-2), k] for k across the incomplete range.

    Certifies that the roots increase strictly in k, that consecutive gaps
    shrink strictly, and that the last root (k = 2^(L-1)) is exactly 2.
    The range is empty at L = 2 and holds the single root 2 at L = 3, so
    ``max_gap`` and ``max_gap_at`` are None below two roots (and
    ``epsilon_met`` holds vacuously), and ``covered`` is None without a root.
    ``max_gap_at`` is k_min once the gaps are certified to shrink, and
    ``max_gap`` is the gap of the displayed midpoints there; ``epsilon_met``
    compares exact cell ends with epsilon, never the floats.  The
    certificates compare the integer ends of cells at least 2^-40 fine.
    """

    L: int
    k_min: int
    k_max: int
    roots: tuple[tuple[int, float], ...]
    max_gap: Optional[float]
    max_gap_at: Optional[int]
    covered: Optional[tuple[float, float]]
    increasing_certified: bool
    gaps_decreasing_certified: bool
    terminal_root_exact_two: bool
    epsilon: Optional[float]
    epsilon_met: Optional[bool]


def _sparse_roots(L: int, ks: range, d: int) -> tuple[list[int], list[int]]:
    """Cells of the roots of [1, 0^(L-2), k] for k in ``ks`` (ascending), at depth d.

    Returns (los, his): root i lies in [los[i], his[i]] / 2^d, the cell of
    ``principal_root(sparse_vector(L, k), 2^-d)``, with his[i] = los[i] + 1,
    or his[i] = los[i] when the root is that integer.  With den = 2^d,
    den^L p_k(j/den) = g(j) - k den^L for g(j) = j^(L-1) (j - den), so cell
    j is the one with g(j) < k den^L <= g(j + 1), and equality there is an
    exact root.  Each root is a float proposal of ``_sparse_newton``, which
    two evaluations of g accept (``_grid_cell``): the first started above
    its root, at 2 + k^(1/(L-1)), and each later one from the previous root
    plus the previous gap.  Every root exceeds 1 (g(den) = 0), and p_k =
    p_{k-1} - 1 puts each root past the previous cell's left end, which
    bounds the proposal and the exact search that replaces a wrong one.
    """
    los: list[int] = []
    his: list[int] = []
    den = lo = 1 << d
    step = den >> _SEED_BITS or 1  # about the error of a float in cells

    def g(j: int) -> int:
        return j ** (L - 1) * (j - den)

    for k in ks:
        try:
            if los:
                x, prev = _sparse_newton(L, k, 2 * x - prev), x  # one more gap lands past the root
            else:
                x = prev = _sparse_newton(L, k, 2 + k ** (1 / (L - 1)))  # no gap is known yet
            n, m = x.as_integer_ratio()
            j = max(lo, (n << d) // m)
        except (OverflowError, ValueError):  # inf or nan
            x = prev = math.nan
            j = lo
        j, hit = _grid_cell(g, k << d * L, lo, j, step)
        lo = j + hit  # an exact root is the point j + 1
        los.append(lo)
        his.append(lo if hit else lo + 1)
    return los, his


def _sparse_newton(L: int, k: int, x: float) -> float:
    """Float root of x^(L-1) (x - 1) = k by Newton's method from x >= 1.

    The function is increasing and convex past 1, so the steps descend to
    the root from above it, and from below the first step lands above it.
    The result is a proposal only; ``_grid_cell`` accepts or replaces it
    exactly.
    """
    for _ in range(16):
        y = x ** (L - 2)
        step = (y * x * (x - 1) - k) / (y * (L * x - (L - 1)))
        x -= step
        if abs(step) < 1e-9 * x:  # the error left is about L * step^2
            break
    return x


def _grid_cell(
    g: Callable[[int], int], target: int, lo: int, j: int, step: int
) -> tuple[int, bool]:
    """The c >= lo with g(c) < target <= g(c + 1), and whether g(c + 1) == target.

    Requires g(lo) < target and j >= lo, where g - target has the sign of
    p at the grid points from lo on (one sign change).  Two evaluations
    accept the guess j.  A wrong guess starts an exact gallop away from it,
    by steps that begin at ``step`` and double, and bisection finishes
    inside the last step.
    """
    if g(j) >= target:
        hi = j
        while hi - step > lo and g(hi - step) >= target:
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    elif (top := g(j + 1)) >= target:
        return j, top == target
    else:
        lo = j + 1
        while g(lo + step) < target:
            lo, step = lo + step, 2 * step
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, g(hi) == target


def denseness_scan(
    L: int,
    epsilon: Optional[float] = None,
    tol=DEFAULT_TOL,
    budget: int = 1 << 16,
) -> DensenessReport:
    """Sweep the sparse family's roots from the threshold up to exactly 2.

    Every root is a cell of one certification grid (``_sparse_roots``) of
    depth D, the larger of the depths of ``tol`` and ``DEFAULT_TOL``, and
    the certificates read the integer cell ends: roots increase where one
    cell ends at or below the next one's start, and gaps shrink where
    2 r_lo > q_hi + s_hi.  A pair or triple that the grid leaves open, and
    each gap checked against ``epsilon``, go to ``_sparse_decide``, which
    isolates those roots again on finer grids.  The roots are shown at the
    depth d of ``tol``: the cell that holds the one at depth D, shifted
    right by D - d, with an exact root kept a point.
    """
    if L < 2:
        raise ValueError(f"need L >= 2, got {L}")
    if epsilon is not None and not epsilon > 0:  # nan too
        raise ValueError("epsilon must be positive")
    d = _depth(tol)
    D = max(d, _depth(DEFAULT_TOL))
    k_min, k_max = families.bound_one_zeros(L - 2).max_n + 1, 2 ** (L - 1)
    count = k_max - k_min + 1
    if count > budget:
        raise CostCap(f"{count} roots exceed budget {budget}")
    los, his = _sparse_roots(L, range(k_min, k_max + 1), D)
    n = len(los)
    increasing = all(his[i] <= los[i + 1] or _sparse_decide(
        L, k_min + i, 2, D + 2, lambda lo, hi, _: hi[0] <= lo[1] or None) for i in range(n - 1))
    decreasing = all(2 * los[i + 1] > his[i] + his[i + 2]
                     or _sparse_decide(L, k_min + i, 3, D + 2, _shrinks) for i in range(n - 2))
    met = [] if epsilon in (None, math.inf) else [
        _sparse_decide(L, k_min + i, 2, D, functools.partial(_below, Fraction(epsilon)))
        for i in range(min(1, n - 1) if decreasing else n - 1)]
    if None in met:
        raise RuntimeError("gap certification against epsilon failed to converge")
    if D > d:
        s = D - d
        his = [lo >> s if lo == hi else (lo >> s) + 1 for lo, hi in zip(los, his)]
        los = [lo >> s for lo in los]

    # Certified shrinking gaps put the largest first; otherwise the float
    # midpoints pick the one displayed, and every gap meets epsilon exactly.
    approx = [(lo + hi) / (2 << d) for lo, hi in zip(los, his)]
    gaps = [b - a for a, b in zip(approx, approx[1:])]
    at = 0 if decreasing or not gaps else gaps.index(max(gaps))
    return DensenessReport(
        L=L,
        k_min=k_min,
        k_max=k_max,
        roots=tuple(zip(range(k_min, k_max + 1), approx)),
        max_gap=gaps[at] if gaps else None,
        max_gap_at=k_min + at if gaps else None,
        covered=(approx[0], approx[-1]) if approx else None,
        increasing_certified=increasing,
        gaps_decreasing_certified=decreasing,
        terminal_root_exact_two=n > 0 and los[-1] == his[-1] == 2 << d,
        epsilon=epsilon,
        epsilon_met=None if epsilon is None else all(met),
    )


def _below(epsilon: Fraction, los: list[int], his: list[int], depth: int) -> Optional[bool]:
    # r - q < epsilon for the cells of roots q < r, once [r_lo - q_hi, r_hi - q_lo]
    # lies on one side of epsilon; None while it does not.
    scaled = epsilon.numerator << depth  # epsilon * 2^depth * q
    if (his[1] - los[0]) * epsilon.denominator < scaled:
        return True
    return False if (los[1] - his[0]) * epsilon.denominator >= scaled else None
