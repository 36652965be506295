"""Shared brute-force oracles and enumeration helpers for the tests.

Everything here recomputes quantities from first principles (itertools
subset enumeration, direct gap sums, high-precision decimal square roots)
so expected values never depend on the code paths under test.
"""

from __future__ import annotations

import itertools
from decimal import Decimal, getcontext
from fractions import Fraction

from plrs import analytic, brown, oracle
from plrs.analytic import CharPoly, compare_roots, principal_root
from plrs.core import Coefficients, validate

getcontext().prec = 60


def brute_subset_sums(terms) -> set[int]:
    """Every subset sum of the prefix, by explicit enumeration."""
    sums = set()
    for r in range(len(terms) + 1):
        for combo in itertools.combinations(range(len(terms)), r):
            sums.add(sum(terms[i] for i in combo))
    return sums


def brute_gaps(terms) -> list[int]:
    """B_n = 1 + sum of earlier terms - H_n, straight from the definition."""
    return [1 + sum(terms[:i]) - terms[i] for i in range(len(terms))]


def quadratic_root(b: int, c: int) -> Decimal:
    """Positive root of x^2 - b*x - c by the quadratic formula."""
    return (Decimal(b) + (Decimal(b) * Decimal(b) + 4 * Decimal(c)).sqrt()) / 2


def mask_to_set(mask: int, bound: int) -> set[int]:
    return {s for s in range(bound + 1) if (mask >> s) & 1}


def all_vectors(max_len: int, cap: int):
    """Every valid coefficient vector with L <= max_len and c_i <= cap."""
    for L in range(1, max_len + 1):
        if L == 1:
            for c1 in range(1, cap + 1):
                yield (c1,)
            continue
        for c1 in range(1, cap + 1):
            for mid in itertools.product(range(0, cap + 1), repeat=L - 2):
                for cL in range(1, cap + 1):
                    yield (c1, *mid, cL)


def reference_scan_2l1(L: int, cap: int, window: int, horizon=None):
    """``scan-2l1``'s (candidates, counterexamples, undecided) by brute force.

    Every vector of the box is built and filtered by its gaps through
    ``window``, from ``reference_terms``; each one that passes gets the
    engine at ``horizon``, then at the scan's fallback horizon
    max(4L, 32) + 1 if that is undecided.
    """
    edge, inner = range(1, cap + 1), range(cap + 1)
    box = list(itertools.product(edge, *[inner] * (L - 2), edge)) if L > 1 else \
        [(c1,) for c1 in edge]
    counterexamples, undecided = [], []
    for values in box:
        c = validate(values)
        if min(brute_gaps(reference_terms(values, window))) < 0:
            continue
        verdict = brown.check_completeness(c, horizon=horizon)
        if verdict.kind == brown.UNKNOWN:
            verdict = brown.check_completeness(c, horizon=max(4 * L, 32) + 1)
        if verdict.kind == brown.INCOMPLETE:
            counterexamples.append({"coefficients": list(values), "status": "counterexample",
                                    "first_failure": verdict.certificate.index})
        elif verdict.kind == brown.UNKNOWN:
            undecided.append({"coefficients": list(values), "status": "undecided"})
    return len(box), counterexamples, undecided


def reference_max_last(prefix, horizon=None):
    """``families.max_last`` with every probe an engine run.

    Doubling and then bisection on the last coefficient N, since lowering
    it keeps a complete sequence complete.  0 when N = 1 is already
    incomplete; None when the engine leaves a probed member unknown.
    """

    def complete(n):
        v = brown.check_completeness(validate([*prefix, n]), horizon=horizon)
        return None if v.kind == brown.UNKNOWN else v.kind == brown.COMPLETE

    first = complete(1)
    if first is None:
        return None
    if first is False:
        return 0
    lo, hi = 1, 2
    while (s := complete(hi)) is True:
        lo, hi = hi, hi * 2
    if s is None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = complete(mid)
        if s is None:
            return None
        if s:
            lo = mid
        else:
            hi = mid
    return lo


def definite_oracle(c: Coefficients) -> brown.Verdict:
    """Oracle verdict with a prefix long enough to be definite for small c.

    The gap engine locates the relevant index first; the oracle then only
    needs to reach it.
    """
    engine = brown.check_completeness(c)
    horizon = max(2 * c.L + 2, (engine.certificate.index or 0) + 1)
    verdict = oracle.oracle_verdict(c, max_prefix=horizon)
    assert verdict.kind != brown.UNKNOWN, f"oracle undecided on {c}"
    return verdict


def is_complete(values) -> bool:
    return definite_oracle(validate(values)).kind == brown.COMPLETE


def reference_sign(poly: CharPoly, num: int, den: int = 1) -> int:
    """Sign of p(num/den) from den^L p(num/den), one step per coefficient, zeros included."""
    acc = dp = 1
    for ci in poly.coefficients.values:
        dp *= den
        acc = acc * num - ci * dp
    return (acc > 0) - (acc < 0)


def reference_bisect(poly: CharPoly, lo: Fraction, hi: Fraction, tol: Fraction):
    """Plain Fraction bisection of [lo, hi] down to width <= tol.

    Keeps p(lo) < 0 <= p(hi); the reference for the integer root isolation.
    Signs come from ``reference_sign``, not from ``CharPoly.sign_at``.
    """
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if reference_sign(poly, mid.numerator, mid.denominator) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_root(c: Coefficients, tol: Fraction):
    """(lo, hi) of the principal root: an integer bracket, then bisection.

    An integer root t gives (t, t).
    """
    poly = CharPoly(c)
    if poly.eval(1) == 0:
        return Fraction(1), Fraction(1)
    hi = 2
    while poly.eval(hi) < 0:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:  # p(lo) < 0 <= p(hi)
        mid = (lo + hi) // 2
        if poly.eval(mid) < 0:
            lo = mid
        else:
            hi = mid
    if poly.eval(hi) == 0:
        return Fraction(hi), Fraction(hi)
    return reference_bisect(poly, Fraction(lo), Fraction(hi), tol)


def reference_denseness_scan(L: int, epsilon, tol) -> analytic.DensenessReport:
    """``denseness_scan`` from one ``principal_root`` bracket per k.

    Roots increase by ``compare_roots`` on each pair; gaps shrink by
    ``reference_gap_shrink`` on each triple, whose refined brackets carry on
    to the next; epsilon is decided by ``reference_gap_below`` on the first
    gap, or on every gap without the shrink certificate.
    """
    k_min, k_max = (L * (L + 1) + 3) // 4 + 1, 2 ** (L - 1)
    brackets = [principal_root(analytic.sparse_vector(L, k), tol) for k in range(k_min, k_max + 1)]
    increasing = all(compare_roots(a, b) == -1 for a, b in zip(brackets, brackets[1:]))
    decreasing, work = True, list(brackets)
    for i in range(len(work) - 2):
        shrunk = reference_gap_shrink(*work[i : i + 3])
        if shrunk is None:
            decreasing = False
            break
        work[i : i + 3] = shrunk
    gaps = [b.approx - a.approx for a, b in zip(brackets, brackets[1:])]
    at = 0 if decreasing or not gaps else gaps.index(max(gaps))
    checked = zip(brackets, brackets[1:2] if decreasing else brackets[1:])
    return analytic.DensenessReport(
        L=L,
        k_min=k_min,
        k_max=k_max,
        roots=tuple((k_min + i, b.approx) for i, b in enumerate(brackets)),
        max_gap=gaps[at] if gaps else None,
        max_gap_at=k_min + at if gaps else None,
        covered=(brackets[0].approx, brackets[-1].approx) if brackets else None,
        increasing_certified=increasing,
        gaps_decreasing_certified=decreasing,
        terminal_root_exact_two=bool(brackets) and brackets[-1].exact_root == 2,
        epsilon=epsilon,
        epsilon_met=None if epsilon is None else all(
            reference_gap_below(a, b, epsilon) for a, b in checked
        ),
    )


def reference_gap_shrink(bq, br, bs):
    """Brackets of q < r < s refined until r - q > s - r is certified, or None.

    Each of 200 rounds bisects each bracket twice (an exact root stays a
    point) and compares Fraction ends: r - q >= r.lo - q.hi and s - r <= s.hi - r.lo.
    """
    for _ in range(200):
        if 2 * br.lo > bq.hi + bs.hi:
            return bq, br, bs
        bq, br, bs = (b.refined(b.width / 4) if b.width else b for b in (bq, br, bs))
    return None


def reference_gap_below(a, b, epsilon) -> bool:
    """Whether the gap between the roots of brackets ``a`` < ``b`` is below ``epsilon``.

    Both are refined until [b.lo - a.hi, b.hi - a.lo] lies on one side of
    epsilon, comparing Fraction ends.
    """
    if epsilon == float("inf"):
        return True
    epsilon = Fraction(epsilon)
    for _ in range(200):
        if b.hi - a.lo < epsilon:
            return True
        if b.lo - a.hi >= epsilon:
            return False
        a, b = (r.refined(r.width / 4) if r.width else r for r in (a, b))
    raise RuntimeError("gap certification against epsilon failed to converge")


# Reference copies of the term growth, gap engine and oracle scan that
# `core._next_terms`, `brown.check_completeness` and `oracle.oracle_verdict`
# replaced: every coefficient visited, every prefix built in full up front,
# and the smallest missing sum found from a complement of the whole mask.


def reference_terms(values, n: int) -> tuple[int, ...]:
    """H_1..H_n by the recurrence, summing over all L coefficients."""
    L = len(values)
    terms: list[int] = []
    while len(terms) < n:
        m = len(terms)
        if m == 0:
            terms.append(1)
        elif m < L:
            terms.append(1 + sum(values[i] * terms[m - 1 - i] for i in range(m)))
        else:
            terms.append(sum(values[i] * terms[m - 1 - i] for i in range(L)))
    return tuple(terms)


def reference_check_completeness(
    c: Coefficients, horizon=None, assume_2l1=False, max_horizon=None
) -> brown.Verdict:
    """The gap engine with each horizon's whole prefix built before it is read."""
    L = c.L
    if max_horizon is None:
        max_horizon = max(brown.DEFAULT_MAX_HORIZON, 4 * L)
    explicit = horizon is not None
    h = horizon if explicit else min(max(4 * L, 64), max_horizon)
    if h < 2 * L - 1:
        raise brown.HorizonTooSmall(f"horizon {h} < 2L-1 = {2 * L - 1}")
    running, strict_ok, run, ok_through_2l1, n = 0, True, 0, False, 0
    while True:
        target = h
        terms = reference_terms(c.values, target + 1)
        while n < target:
            n += 1
            h_n = terms[n - 1]
            gap = 1 + running - h_n
            running += h_n
            if gap < 0:
                return brown.Verdict(c, brown.INCOMPLETE, brown.failure(n, witness=gap), False, n)
            if L <= n <= 2 * L - 1 and gap == 0:
                strict_ok = False
            if n == 2 * L - 1:
                ok_through_2l1 = True
                if strict_ok and L >= 2:
                    return brown.Verdict(c, brown.COMPLETE, brown.strict_window(n), False, n)
            run = run + 1 if 2 * h_n - terms[n] >= 0 else 0
            m = n + 1
            if run >= L and m - L >= L + 1 and m <= target and 1 + running - terms[m - 1] >= 0:
                return brown.Verdict(c, brown.COMPLETE, brown.doubling_window(m), False, m)
        if explicit or h >= max_horizon:
            break
        h = min(2 * h, max_horizon)
    if assume_2l1 and ok_through_2l1:
        return brown.Verdict(c, brown.COMPLETE, brown.family_rule(brown.RULE_2L1), True, h)
    return brown.Verdict(c, brown.UNKNOWN, brown.horizon_exhausted(h), False, h)


def reference_oracle_verdict(c: Coefficients, max_prefix: int, budget_bits: int) -> brown.Verdict:
    """The full subset-sum scan, re-deriving the smallest missing sum at every step.

    It builds a mask for every prefix up to ``max_prefix``, complete or not.
    """
    L = c.L
    if max_prefix < 2 * L - 1:
        raise brown.HorizonTooSmall(f"max_prefix {max_prefix} < 2L-1 = {2 * L - 1}")
    terms = reference_terms(c.values, max_prefix + 1)
    mask, total = 1, 0
    for n in range(1, max_prefix + 1):
        h = terms[n - 1]
        if total + h + 1 > budget_bits:
            raise oracle.BudgetExceeded(
                f"prefix {n} needs {total + h + 1} bits, budget is {budget_bits}"
            )
        mask |= mask << h
        total += h
        missing = ~mask & ((1 << (total + 1)) - 2)
        effective = (missing & -missing).bit_length() - 1 if missing else total + 1
        if effective < terms[n]:
            return brown.Verdict(
                c, brown.INCOMPLETE, brown.failure(n, witness=effective), False, n
            )
    engine = reference_check_completeness(c, horizon=max_prefix)
    if engine.kind == brown.COMPLETE and engine.certificate.kind in (
        "strict_window",
        "doubling_window",
    ):
        return engine
    return brown.Verdict(
        c, brown.UNKNOWN, brown.horizon_exhausted(max_prefix), False, max_prefix
    )
