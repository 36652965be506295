"""Shared brute-force oracles and enumeration helpers for the tests.

Everything here recomputes quantities from first principles (itertools
subset enumeration, direct gap sums, high-precision decimal square roots)
so expected values never depend on the code paths under test.
"""

from __future__ import annotations

import itertools
from decimal import Decimal, getcontext
from fractions import Fraction

from plrs import brown, oracle
from plrs.analytic import CharPoly
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


def reference_bisect(poly: CharPoly, lo: Fraction, hi: Fraction, tol: Fraction):
    """Plain Fraction bisection of [lo, hi] down to width <= tol.

    Keeps p(lo) < 0 <= p(hi); the reference for the integer root isolation.
    """
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if poly.sign_at(mid.numerator, mid.denominator) < 0:
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
