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
objects and no float at all: every root is a cell of a grid 2^-d, found by
an integer Newton iteration on the closed form
2^(dL) p_k(j / 2^d) = j^(L-1) (j - 2^d) - k 2^(dL), and every check on the
family compares cell ends, on a finer grid where a coarse one leaves it open.
``CharPoly.eval`` stays the dense ``Fraction`` Horner over every
coefficient: it is the independent re-check of the roots found here.

The triage test classifies fast: p(2) < 0 proves incompleteness (the root
exceeds 2, too fast to be complete), while a root certified below the
lambda threshold of the same length is conjecturally complete, on the
coarsest grid that certifies it.  Roots in between land in an
indeterminate band where gap arithmetic must decide.
``exact_threshold_search`` audits the conjectured lower end of that band
by a pruned walk over coefficient prefixes, ``least_incomplete_root`` a
sum class, both through the per-prefix step ``brown._first_incomplete``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import brown, families
from .core import Coefficients, _prefix_walk, _Record, validate

Rational = int | Fraction

#: Default bracket width for reported roots; display precision only.
DEFAULT_TOL = Fraction(1, 10**12)

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


#: Length up to which ``sign_at`` walks every coefficient: a short vector
#: has few zeros to skip, and the plain Horner step is cheaper than a tap
#: step (walking taps at every length made ``min-root --L 4 --sum-cap 10``
#: about 9% slower in process).
_DENSE_L = 8


class CharPoly(_Record):
    """Characteristic polynomial p(x) = x^L - sum c_i x^(L-i).

    ``eval`` walks every coefficient with exact rationals; ``sign_at`` (past
    length _DENSE_L) and ``_seed_cell`` walk ``taps``, the nonzero
    coefficients only.
    """

    __slots__ = ("coefficients", "_taps")

    @property
    def taps(self) -> tuple[int, ...]:
        """i - j, c_i for each nonzero c_i, where c_j is the previous one (j = 0 first).

        One flat tuple (g_1, c_1, g_2, c_2, ...), built on first use and kept:
        one polynomial's sign is read many times, by ``_grid``'s bisection,
        ``triage``'s three grids and ``_separate``.
        """
        if self._taps is None:
            vals, taps, j = self.coefficients.values, [], 0
            for ci in itertools.compress(vals, vals):
                i = vals.index(ci, j) + 1
                taps += (i - j, ci)
                j = i
            object.__setattr__(self, "_taps", tuple(taps))
        return self._taps

    def eval(self, t: Rational) -> Rational:
        """Exact value of p(t) for rational t (int in, int out).

        ``_scaled`` gives den^L p(t) for t = num/den, and a Fraction t gets
        one Fraction, built at the end.
        """
        num, den = t.numerator, t.denominator
        acc = self._scaled(num, den)
        return Fraction(acc, den ** len(self.coefficients)) if isinstance(t, Fraction) else acc

    def _scaled(self, num: int, den: int) -> int:
        # den^L p(num/den), one integer Horner pass over every coefficient.
        acc = dp = 1
        for ci in self.coefficients.values:
            dp *= den
            acc = acc * num - ci * dp
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
        if len(values) > _DENSE_L:
            return _taps_sign(self.taps, num, den)
        acc = dp = 1
        for ci in values:
            dp *= den
            acc = acc * num - ci * dp
        return (acc > 0) - (acc < 0)


def _taps_sign(taps: tuple[int, ...], num: int, den: int) -> int:
    # ``CharPoly.sign_at`` over the flat taps (g_1, c_1, g_2, c_2, ...).
    acc, i = 1, 0
    shift = den.bit_length() - 1
    dyadic = den == 1 << shift
    it = iter(taps)
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


class RootBracket(_Record):
    """Certified isolating cell [num, num + 1] / 2^bits of the principal root.

    Either ``exact_root`` is set (num = exact_root, bits = 0, and
    lo == hi == that integer), or p(lo) < 0 < p(hi) holds under exact
    rational evaluation.  ``lo``, ``hi`` and ``width`` are ``Fraction``
    views of the integer cell.
    """

    __slots__ = ("poly", "num", "bits", "exact_root")
    _defaults = {"exact_root": None}

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
        return self._at(max(self.bits, _depth(tol)))

    def _at(self, bits: int) -> "RootBracket":
        # The cell at depth ``bits``; an exact root is its own cell.  A finer
        # cell lies inside one cell of each coarser grid, and that cell keeps
        # the sign pattern.
        if self.exact_root is not None:
            return self
        if bits < self.bits:
            return RootBracket(self.poly, self.num >> (self.bits - bits), bits)
        lo, hi = self._ends(bits)
        return RootBracket(self.poly, _grid(self.poly, lo, hi, 1 << bits), bits)

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


#: Bits below the root's leading bit that a float estimate names: a float
#: holds about 52, and the other 6 absorb rounding.
_SEED_BITS = 46


def _grid(poly: CharPoly, lo: int, hi: int, den: int) -> int:
    """The cell j in [lo, hi) with p(j/den) < 0 <= p((j+1)/den).

    Requires p(lo/den) < 0 <= p(hi/den).  The cell is unique because p
    changes sign once on the positive axis, and bisection keeps the sign
    pattern, so it ends there.  A float estimate first proposes a sub-span
    w = 2^max(0, bitlen(hi) - _SEED_BITS - 1) cells wide, about as narrow
    as a float names the root (``_seed_cell``); two exact sign evaluations
    accept it, so a proposal pays only where the span is wider than four
    sub-spans, and bisection finishes inside it.  A rejected proposal
    leaves the whole span to bisection.
    """
    w = 1 << max(0, hi.bit_length() - _SEED_BITS - 1)
    if hi - lo > 4 * w:
        j = _seed_cell(poly, lo, hi, den, w)
        if j is not None and poly.sign_at(j, den) < 0 <= poly.sign_at(j + w, den):
            lo, hi = j, j + w
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poly.sign_at(mid, den) < 0:
            lo = mid
        else:
            hi = mid
    return lo


def _seed_cell(poly: CharPoly, lo: int, hi: int, den: int, w: int) -> int | None:
    """Start j of a sub-span [j, j + w] of [lo, hi] around a float estimate
    of the root, over ``den``; None if floats overflow.

    Newton's method on f(x) = p(x) / x^L = 1 - sum c_i x^(-i), whose powers
    cannot overflow for x >= 1 (a coefficient beyond the float range can).
    f is increasing and concave for x > 0, so from below the root each step
    climbs towards it without passing it (up to rounding).  The climb starts
    at the larger of lo/den and max c_i^(1/i): p(x) <= x^(L-i) (x^i - c_i)
    < 0 below c_i^(1/i), and from there a tap that dominates the others
    needs a few steps, not a slow climb from a span end far below.  Each
    step walks the nonzero taps only, jumping across zeros with a power of
    y = 1/x.  The estimate is only a proposal: ``_grid`` accepts it by exact
    sign evaluation.
    """
    try:
        # h(y) by Horner from c_L down to c_1 over the taps: a jump of g
        # multiplies by y^g, and h' picks up g h y^(g-1).
        gaps, cs = poly.taps[::2], poly.taps[1::2]
        top = float(cs[-1])
        steps = [(gaps[j + 1], float(cs[j])) for j in reversed(range(len(cs) - 1))]
        x = max(lo / den, *(math.exp(math.log(ci) / i)
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
    return min(max(num * den // rden - w // 2, lo), hi - w)


def _integer_bracket(poly: CharPoly) -> RootBracket:
    # The unit cell [lo, lo+1] with p(lo) < 0 < p(lo+1), or an exact integer root.
    lo, hi = 0, 1  # p(0) = -c_L < 0
    while (s := poly.sign_at(hi)) < 0:
        lo, hi = hi, 2 * hi  # bounded: p(1 + max c_i) > 0
    if s == 0:
        return RootBracket(poly, hi, 0, exact_root=hi)
    lo = _grid(poly, lo, hi, 1)
    if lo + 1 < hi and poly.sign_at(lo + 1) == 0:  # p(hi) > 0 is known
        return RootBracket(poly, lo + 1, 0, exact_root=lo + 1)
    return RootBracket(poly, lo, 0)


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


#: Refinement rounds ``_separate`` allows before it gives up.
_MAX_ROUNDS = 1000


def compare_roots(a: RootBracket, b: RootBracket) -> int:
    """Exact three-way comparison of two principal roots: -1, 0, or +1.

    Two brackets of one polynomial compare equal at once, at any depths,
    since it has a single positive root.  Otherwise the brackets are
    refined until they separate; equal roots are recognized through the
    polynomial gcd instead of looping forever.
    """
    return _separate(a, b)[0]


def _separate(a: RootBracket, b: RootBracket) -> tuple[int, RootBracket, RootBracket]:
    # ``compare_roots`` with the cells it refined.  One polynomial has one
    # positive root, so two brackets of it compare 0 as they stand.  Each
    # round splits the coarser cell (both at equal depth) by two levels.
    if a.poly == b.poly:
        return 0, a, b
    if a.exact_root is not None and b.exact_root is not None:
        return (a.exact_root > b.exact_root) - (a.exact_root < b.exact_root), a, b
    if a.exact_root is not None:
        return b.poly.sign_at(a.exact_root), a, b  # p_b(r_a) > 0 iff r_a > r_b
    if b.exact_root is not None:
        return -a.poly.sign_at(b.exact_root), a, b
    for round_no in range(_MAX_ROUNDS):
        bits = max(a.bits, b.bits)
        (a_lo, a_hi), (b_lo, b_hi) = a._ends(bits), b._ends(bits)
        if a_hi <= b_lo:
            return -1, a, b
        if b_hi <= a_lo:
            return 1, a, b
        if round_no % 16 == 8 and _roots_equal(a, b):
            return 0, a, b
        low = min(a.bits, b.bits)
        a, b = (a._at(low + 2) if a.bits == low else a), (b._at(low + 2) if b.bits == low else b)
    raise RuntimeError("root comparison failed to converge")


def least_root(
    vectors: Iterable[Coefficients], tol=DEFAULT_TOL
) -> tuple[Coefficients, RootBracket] | None:
    """The first vector with the least principal root, and its bracket.

    Ties keep the earlier vector; None when there are no vectors.  Each
    root starts as its integer unit cell and ``_separate`` refines two
    cells only until they separate; the current minimum keeps its refined
    cell, and the winner alone is then brought to the depth of ``tol``,
    which gives exactly ``principal_root(winner, tol)``.
    """
    best: tuple[Coefficients, RootBracket] | None = None
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


class LambdaThreshold(_Record):
    """Conjectured least principal root among incomplete length-L vectors.

    ``max_complete_n`` is ceil(L(L+1)/4), the largest N for which
    [1, 0^(L-2), N] stays complete; the threshold is the principal root of
    x^L - x^(L-1) - (max_complete_n + 1), i.e. of the first incomplete
    member of that family.
    """

    __slots__ = ("L", "max_complete_n", "root")


def sparse_vector(L: int, last: int) -> Coefficients:
    """The vector [1, 0^(L-2), last] of length L (just [last] when L=1)."""
    if L == 1:
        return validate([last])
    return validate([1] + [0] * (L - 2) + [last])


class _SparsePoly:
    """x^L - x^(L-1) - k, the polynomial of [1, 0^(L-2), k], by its taps alone.

    Its ``taps`` and ``sign_at`` are all that ``_integer_bracket`` and
    ``_grid`` read of a polynomial, so lambda_L's cells are isolated without
    building and validating the length-L vector.
    """

    __slots__ = ("taps",)

    def __init__(self, L: int, k: int) -> None:
        self.taps = (1, 1, L - 1, k)

    def sign_at(self, num: int, den: int = 1) -> int:
        return _taps_sign(self.taps, num, den)


#: lambda_L for each length L, its root (over a ``_SparsePoly``) at the
#: deepest depth asked for so far.
_lambda_cache: dict[int, LambdaThreshold] = {}


def _lambda(L: int, bits: int) -> LambdaThreshold:
    # The cached threshold of length L >= 2, its root refined to depth >= bits.
    lam = _lambda_cache.get(L)
    if lam is None:
        n_l = families.bound_one_zeros(L - 2).max_n  # ceil(L(L+1)/4)
        lam = LambdaThreshold(L, n_l, _integer_bracket(_SparsePoly(L, n_l + 1)))
    elif bits <= lam.root.bits:
        return lam
    lam = _lambda_cache[L] = LambdaThreshold(L, lam.max_complete_n, lam.root._at(bits))
    return lam


def lambda_threshold(L: int, tol=DEFAULT_TOL) -> LambdaThreshold:
    """Threshold root for length L >= 2, bracketed to ``tol``.

    The root is ``principal_root(sparse_vector(L, max_complete_n + 1), tol)``:
    the cell of the depth d of ``tol``.  One cell per length is kept, at the
    deepest depth any caller has asked for, and isolated without the
    length-L vector (``_SparsePoly``); the cell at a depth d at most that
    one is the kept one shifted right, and a deeper one is bisected inside
    it, so every caller, ``triage`` and ``brown.recheck`` among them, reads
    the same cell at d.
    """
    if L < 2:
        raise ValueError(f"threshold defined for L >= 2, got {L}")
    bits = _depth(tol)
    lam = _lambda(L, bits)
    root = lam.root._at(bits)
    poly = CharPoly(sparse_vector(L, lam.max_complete_n + 1))
    root = RootBracket(poly, root.num, root.bits, root.exact_root)
    return LambdaThreshold(L, lam.max_complete_n, root)


# ---------------------------------------------------------------------------
# Triage


#: The depths at which ``triage`` compares a root with lambda_L's cell,
#: coarse to fine; the last is the depth of DEFAULT_TOL, 40.  Past L = 32,
#: lambda_L < 5/4, so a root of 5/4 or more is placed at depth 2.  Each grid
#: that leaves the question open adds two signs of p and lambda_L's cell at
#: its depth: with grids at 5, 10 and 20 a root next to lambda_L cost about
#: 1.4 times the 40-bit test alone at L = 300, and with one at 8 about 1.
_TRIAGE_BITS = (2, 8, _depth(DEFAULT_TOL))


def triage(c: Coefficients) -> brown.Verdict:
    """Classify by root position alone; no terms are generated.

    * p(2) < 0: the root exceeds 2, incomplete (sound).
    * p(l) > 0, where l is the lower end of lambda_L's cell at the depth
      of ``DEFAULT_TOL`` (the bracket ``brown.recheck`` reads back): the
      root lies below l <= lambda_L, complete, conjectural.
    * otherwise unknown: the root lies in the indeterminate band.

    That question is settled on the coarsest grid that can settle it.
    With [l_b, u_b] lambda_L's cell at depth b (``_TRIAGE_BITS``), p(l_b)
    > 0 answers below, since l_b <= l; p(u_b) <= 0 answers unknown, since
    the root is then at least u_b >= lambda_L >= l; else the next depth
    decides.  The last depth tests p(l) alone, so the verdict is the one
    of the sign at l, and each step is an exact integer sign.  A root far
    from lambda_L is placed on a grid a few bits deep, where a sign and
    lambda_L's cell cost a fraction of the 40-bit ones (at L = 448 a sign
    at depth 2 costs about a thirtieth of one at depth 40).
    """
    if c.L < 2:
        raise ValueError("triage needs L >= 2")
    poly = CharPoly(c)
    if poly.sign_at(2) < 0:
        return brown.Verdict(c, brown.INCOMPLETE, brown.root_triage(TRIAGE_FAST), False, 0)
    last = _TRIAGE_BITS[-1]
    for bits in _TRIAGE_BITS:
        lo, hi = _lambda(c.L, bits).root._at(bits)._ends(bits)
        if poly.sign_at(lo, 1 << bits) > 0:
            return brown.Verdict(c, brown.COMPLETE, brown.root_triage(TRIAGE_SLOW), True, 0)
        if bits == last or poly.sign_at(hi, 1 << bits) <= 0:
            break
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


def min_root_in_pls(L: int, S: int, tol=DEFAULT_TOL) -> tuple[Coefficients, RootBracket]:
    """The minimizer [1, 0^(L-2), S] of the principal root over length L, sum S+1."""
    if L < 1 or S < 1:
        raise ValueError(f"need L >= 1 and S >= 1, got L={L}, S={S}")
    claimed = sparse_vector(L, S if L > 1 else S + 1)
    return claimed, principal_root(claimed, tol)


def least_incomplete_root(L: int, cap: int, tol) -> tuple:
    """(count of complete vectors, unknown vectors by sum, ``least_root`` of
    the incomplete ones) over length L >= 2 and coefficient sum <= cap.

    Prefixes c_1..c_(L-1) are walked while B_(k+1) >= 0 for k < L, each
    read by ``brown._first_incomplete`` for c_L up to cap - sum.
    Completeness is closed downward in c_L and roots grow in every c_i, so
    ``least_root`` is offered, in lexicographic order, only the completion
    c_1..c_k, 0, ..., 0, 1 of each pruned node and the first incomplete
    vector of each prefix.
    """
    if L < 2 or cap < 2:
        raise ValueError(f"need L >= 2 and cap >= 2, got L={L}, cap={cap}")
    firsts, undecided, complete = [], [], 0

    def keep(prefix: list[int], h: int, running: int) -> bool:
        fits = sum(prefix) < cap  # with room left for c_L >= 1
        if fits and h > 1 + running:
            firsts.append((*prefix, *[0] * (L - 1 - len(prefix)), 1))
        return fits and h <= 1 + running

    ranges = [range(1, cap), *[range(cap - 1)] * (L - 2)]
    for prefix, terms in _prefix_walk(ranges, keep):
        first, n, unknown = brown._first_incomplete(prefix, terms, cap - sum(prefix))
        complete += n
        undecided += unknown
        if first is not None:
            firsts.append((*prefix, first))
    undecided.sort(key=sum)
    return complete, undecided, least_root(map(Coefficients, firsts), tol)


# ---------------------------------------------------------------------------
# Exhaustive threshold audit


class ThresholdSearchReport(_Record):
    """Outcome of the exhaustive sub-2 frontier search at one length.

    ``frontier`` is the smallest certified principal root among vectors the
    gap engine judges incomplete whose root lies strictly below 2, or None
    when no such vector exists.  ``candidates`` counts the full prefixes
    c_1..c_(L-1) reached, each read once by ``brown._first_incomplete``; a
    prefix with a c_L the engine leaves unknown is listed in ``undecided``.
    """

    __slots__ = (
        "L", "candidates", "frontier_coefficients", "frontier", "lam", "agrees_with_lambda",
        "undecided",
    )


def exact_threshold_search(L: int, tol=DEFAULT_TOL) -> ThresholdSearchReport:
    """Audit the lambda threshold exhaustively at length L >= 2.

    Roots grow in every c_i, and lowering c_L keeps completeness, so the
    least incomplete root with full prefix P is that of P + [first], the
    first incomplete c_L of ``brown._first_incomplete`` with no bound on
    c_L; a prefix with a c_L the engine leaves unknown offers no vector.
    Prefixes c_1..c_(L-1) are walked by ``core._prefix_walk`` within the
    box c_i < 2^i (p(2) > 0 needs it).  A value is kept while the
    least-root completion c_1..c_k + 0^(L-1-k) + [1] has a root below 2
    and, when lambda_L < 2, at most lambda_L (the sparse vector of
    lambda_L is incomplete); the first value that fails ends its level.
    """
    if L < 2:
        raise ValueError(f"need L >= 2, got {L}")
    tol = _as_fraction(tol)
    lam = lambda_threshold(L, tol)
    lam_below_two = lam.root.poly.sign_at(2) > 0

    def below(prefix: list[int], h: int, running: int) -> bool:
        poly = CharPoly(validate([*prefix, *[0] * (L - 1 - len(prefix)), 1]))
        return poly.sign_at(2) > 0 and not (
            lam_below_two and _separate(_integer_bracket(poly), lam.root)[0] > 0)

    full, undecided, offered = 0, [], []  # offered: the least-root incomplete vectors
    for prefix, terms in _prefix_walk([range(i == 1, 2**i) for i in range(1, L)], below):
        full += 1
        first, _, unknown = brown._first_incomplete(prefix, terms, math.inf)
        if unknown:
            undecided.append(tuple(prefix))
        elif CharPoly(c := Coefficients((*prefix, first))).sign_at(2) > 0:
            offered.append(c)
    best_c, best = least_root(offered, tol) or (None, None)
    if best_c is None:
        # No sub-2 incomplete vector: consistent iff the threshold is >= 2.
        agrees = not lam_below_two
    else:
        agrees = best_c == sparse_vector(L, lam.max_complete_n + 1)
    return ThresholdSearchReport(L, full, best_c, best, lam, agrees, tuple(undecided))


# ---------------------------------------------------------------------------
# Root ordering and denseness


def root_order_gap(L: int, k: int, tol=DEFAULT_TOL) -> tuple[Fraction, Fraction]:
    """Consecutive root gaps of x^L - x^(L-1) - t for t = k, k+1, k+2.

    Returns (r-q, s-r) after certifying r-q > s-r exactly: the map
    t -> root is increasing and concave, so the gaps shrink.  The roots are
    cells of the grid of ``tol``, deepened by ``_sparse_decide`` until the
    cells certify it, and the gaps are those of their midpoints there, as
    exact ``Fraction``s: floats round gaps below the roots' ulp to 0.
    """
    if L <= 2 or k <= 0:
        raise ValueError(f"need L > 2 and k > 0, got L={L}, k={k}")

    def gaps(los: list[int], his: list[int], depth: int) -> tuple[Fraction, Fraction] | None:
        q, r, s = (Fraction(lo + hi, 2 << depth) for lo, hi in zip(los, his))
        return (r - q, s - r) if _shrinks(los, his, depth) else None

    # Cells at depth d certify only where 2^d (2r - q - s) >= 1, since
    # 2 r_lo - q_hi - s_hi <= 2^d (2r - q - s).  With phi(t) the root of
    # F(x) = x^L - x^(L-1) = t, 2r - q - s = -phi''(t) for some t in
    # [k, k + 2], and -phi'' = F''/F'^3 = (L-1)(Lx-L+2) / (x^(2L-3) (Lx-L+1)^3)
    # at x = phi(t) falls as x >= 1 grows; so its value at a = floor(q) bounds
    # the difference, and the depths below where 2^d times it reaches 1 are
    # skipped: they answer None.
    a = _sparse_roots(L, range(k, k + 1), 0)[0][0]
    num, den = (L - 1) * (L * a - L + 2), a ** (2 * L - 3) * (L * a - L + 1) ** 3
    depth = _depth(tol)
    while num << depth < den:
        depth += 2
    found = _sparse_decide(L, k, 3, depth, gaps)
    if found is None:
        raise RuntimeError("gap ordering certification failed to converge")
    return found


def _shrinks(los: list[int], his: list[int], depth: int) -> bool | None:
    # r - q > s - r for the cells of roots q < r < s, since r - q >= r_lo - q_hi
    # and s - r <= s_hi - r_lo; None while the cells leave it open.
    return 2 * los[1] > his[0] + his[2] or None


def _sparse_decide(
    L: int, k: int, count: int, depth: int, test: Callable[[list[int], list[int], int], object]
) -> object:
    """The answer of ``test`` on the roots of [1, 0^(L-2), t] for t = k..k+count-1.

    ``test(los, his, depth)`` reads the cells of those roots at ``depth``
    (``_sparse_roots``) and returns None while they leave its question
    open.  The roots are isolated again two levels deeper at a time, at
    the 200 depths depth, depth + 2, ..., depth + 398; None if none of them
    answers.
    """
    for d in range(depth, depth + 400, 2):
        if (answer := test(*_sparse_roots(L, range(k, k + count), d), d)) is not None:
            return answer
    return None


class DensenessReport(_Record):
    """Roots of [1, 0^(L-2), k] for k across the incomplete range.

    Certifies that the roots increase strictly in k, that consecutive gaps
    shrink strictly, and that the last root (k = 2^(L-1)) is exactly 2.
    The range is empty at L = 2 and holds the single root 2 at L = 3, so
    ``max_gap`` and ``max_gap_at`` are None below two roots (and
    ``epsilon_met`` holds vacuously), and ``covered`` is None without a root.
    ``max_gap_at`` is k_min once the gaps are certified to shrink, and
    ``max_gap`` is the gap of the displayed midpoints there; ``epsilon_met``
    compares exact cell ends with epsilon, never the floats.  The
    certificates compare the integer ends of cells at least 2^-40 fine,
    which integer Newton steps find, most of them one step and one sign
    from a start predicted by the roots before (``_sparse_roots``); the
    floats are only displayed.
    """

    __slots__ = (
        "L", "k_min", "k_max", "roots", "max_gap", "max_gap_at", "covered",
        "increasing_certified", "gaps_decreasing_certified", "terminal_root_exact_two",
        "epsilon", "epsilon_met",
    )


def _sparse_roots(L: int, ks: range, d: int) -> tuple[list[int], list[int]]:
    """Cells of the roots of [1, 0^(L-2), k] for k in ``ks`` (ascending), at depth d.

    Returns (los, his): root i lies in [los[i], his[i]] / 2^d, the cell of
    ``principal_root(sparse_vector(L, k), 2^-d)``, with his[i] = los[i] + 1,
    or his[i] = los[i] when the root is that integer.  With den = 2^d,
    F(j) = den^L p_k(j/den) = j^(L-1) (j - den) - k den^L, so cell j - 1 is
    the one with F(j - 1) < 0 <= F(j), and F(j) = 0 is an exact root, which
    p, monic with integer coefficients, has only at an integer: at j a
    multiple of den.  F is increasing and convex past den, where every root
    lies, so a tangent of F lies below it there, and one integer Newton step
    j - floor(F(j) / F'(j)) from any j >= den lands at or above the root;
    from above it, steps stay above it.  At or above the root, F(j - 1) < 0
    names the cell [j - 1, j]; otherwise j - 1 is at or above it too and
    the steps go on from there.  The first two roots start above at
    (1 + 2^ceil(bitlen(k) / L)) den, since (x - 1)^L <= k at the root x,
    and step until the floor is 0 before that sign.  Every later root takes
    the sign after one step from a start predicted by the roots before it:
    the third at 2 lo_(k-1) - lo_(k-2) + 2, above it since the roots are
    concave in k, and each later one at the quadratic extrapolation
    3 (lo_(k-1) - lo_(k-2)) + lo_(k-3), raised to his_(k-1) where it falls
    below.
    """
    los: list[int] = []
    his: list[int] = []
    den = 1 << d

    def F(j: int) -> int:
        return j ** (L - 1) * (j - den) - target

    for i, k in enumerate(ks):
        target = k << d * L
        if i < 2:
            j = (1 + (1 << -(-k.bit_length() // L))) << d
        elif i == 2:
            j = 2 * los[-1] - los[-2] + 2
        else:
            j = max(3 * (los[-1] - los[-2]) + los[-3], his[-1])
        one_step = i >= 2
        while True:
            # F(j) // F'(j), with F'(j) = j^(L-2) (Lj - (L-1) den); the two share j^(L-2)
            p = j ** (L - 2)
            step = (p * j * (j - den) - target) // (p * (L * j - (L - 1) * den))
            j -= step
            if step and not one_step:
                continue
            if F(j - 1) < 0:  # j is at or above the root
                break
            j -= 1
            one_step = False
        los.append(j if not j & (den - 1) and F(j) == 0 else j - 1)
        his.append(j)
    return los, his


def denseness_scan(
    L: int,
    epsilon: float | None = None,
    tol=DEFAULT_TOL,
    budget: int = 1 << 16,
) -> DensenessReport:
    """Sweep the sparse family's roots from the threshold up to exactly 2.

    Every root is a cell of one certification grid of depth D, the larger
    of the depths of ``tol`` and ``DEFAULT_TOL``, found by integer Newton
    steps on the closed form (``_sparse_roots``), and the certificates
    read the integer cell ends: roots increase where one cell ends at or
    below the next one's start, and gaps shrink where 2 r_lo > q_hi + s_hi.
    A pair or triple that the grid leaves open, and each gap checked
    against ``epsilon``, go to ``_sparse_decide``, which isolates those
    roots again on finer grids.  The roots are shown at the depth d of
    ``tol``: the cell that holds the one at depth D, shifted right by
    D - d, with an exact root kept a point.
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


def _below(epsilon: Fraction, los: list[int], his: list[int], depth: int) -> bool | None:
    # r - q < epsilon for the cells of roots q < r, once [r_lo - q_hi, r_hi - q_lo]
    # lies on one side of epsilon; None while it does not.
    scaled = epsilon.numerator << depth  # epsilon * 2^depth * q
    if (his[1] - los[0]) * epsilon.denominator < scaled:
        return True
    return False if (los[1] - his[0]) * epsilon.denominator >= scaled else None
