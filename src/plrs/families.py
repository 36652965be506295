"""Closed-form completeness bounds for structured coefficient families.

Each family fixes every coefficient except the last one, N, and carries a
closed-form bound max_n such that the sequence is complete iff
1 <= N <= max_n.  Decreasing the last coefficient of a complete sequence
preserves completeness, which is what turns each bound into a classifier.

Fibonacci numbers in the two-ones family use the shifted convention
f_1 = 1, f_2 = 2, f_{n+1} = f_n + f_{n-1}; mixing this up with the
f_1 = f_2 = 1 convention silently shifts the bound, so it is pinned here
once and used nowhere else.

Bounds whose derivation rests on an unproven conjecture report
proven=False, and classifications made with them are flagged conjectural.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import brown
from .core import Coefficients, _Record, generate_terms, validate

RULE_ONE_ZEROS = "one-zeros"
RULE_ONES_ZEROS = "ones-zeros"
RULE_TWO_ONES_ZEROS = "two-ones-zeros"
RULE_ONE_ZEROS_ONES = "one-zeros-ones"


class OutOfProvenRange(ValueError):
    """Parameters fall outside the range the bound is proved for."""


class ShapeViolation(ValueError):
    """Parameters do not describe a member of the family."""


class FamilyBound(_Record):
    """Largest last coefficient keeping the family member complete."""

    __slots__ = ("max_n", "proven", "rule_id")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length()


def _fib_shifted(n: int) -> int:
    # f_1 = 1, f_2 = 2 convention.
    a, b = 1, 2
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def bound_one_zeros(k: int) -> FamilyBound:
    """Bound for [1, 0^k, N]: complete iff N <= ceil((k+2)(k+3)/4)."""
    if k < 0:
        raise ShapeViolation(f"k must be >= 0, got {k}")
    return FamilyBound(_ceil_div((k + 2) * (k + 3), 4), True, RULE_ONE_ZEROS)


def bound_ones_zeros(g: int, k: int) -> FamilyBound:
    """Bound for [1^g, 0^k, N] with g >= k >= 1.

    For g >= k + ceil(log2 k) the bound stabilizes at 2^(k+1) - 1; below
    that it is 2^(k+1) - ceil(k / 2^(g-k)).  The region g < k is open and
    is rejected here; the search tooling explores it empirically instead.
    """
    if g < 1 or k < 1:
        raise ShapeViolation(f"need g >= 1 and k >= 1, got g={g}, k={k}")
    if g < k:
        raise OutOfProvenRange(f"bound proved only for g >= k, got g={g}, k={k}")
    if g >= k + _ceil_log2(k):
        return FamilyBound(2 ** (k + 1) - 1, True, RULE_ONES_ZEROS)
    return FamilyBound(2 ** (k + 1) - _ceil_div(k, 2 ** (g - k)), True, RULE_ONES_ZEROS)


def bound_two_ones_zeros(k: int) -> FamilyBound:
    """Conjectured bound for [1, 1, 0^k, N]: floor((f_{k+6} - k - 5) / 4)."""
    if k < 0:
        raise ShapeViolation(f"k must be >= 0, got {k}")
    return FamilyBound((_fib_shifted(k + 6) - k - 5) // 4, False, RULE_TWO_ONES_ZEROS)


def bound_one_zeros_ones(L: int, m: int) -> FamilyBound:
    """Bound for [1, 0^(L-m-2), 1^m, N] with L coefficients and m ones.

    max_n = floor((L-m)(L+m+1)/4 + m(m+1)(m+2)(m+3)/48 + (1-2m)/2),
    evaluated in exact integer arithmetic over the common denominator 48.
    The derivation passes through a conditional lemma that itself rests on
    an open conjecture, so the bound is reported proven=False.
    """
    _check_one_zeros_ones(L, m)
    numerator = (
        12 * (L - m) * (L + m + 1)
        + m * (m + 1) * (m + 2) * (m + 3)
        + 24 * (1 - 2 * m)
    )
    return FamilyBound(numerator // 48, False, RULE_ONE_ZEROS_ONES)


def _check_one_zeros_ones(L: int, m: int) -> None:
    if m < 0:
        raise ShapeViolation(f"m must be >= 0, got {m}")
    if L < 2 * m + 2 or L - m < 3:
        raise ShapeViolation(f"need L >= 2m+2 and L-m >= 3, got L={L}, m={m}")


class _Shape:
    """A family's member [*prefix, N]: ``prefix()`` gives c_1..c_{L-1},
    unvalidated (raising ShapeViolation where no member exists), and
    ``coefficients(n)`` the validated vector."""

    __slots__ = ()

    def coefficients(self, n: int) -> Coefficients:
        return validate([*self.prefix(), n])


class OneZerosN(_Shape, _Record):
    """[1, 0^k, N]"""

    __slots__ = ("k",)

    def prefix(self) -> list[int]:
        return [1] + [0] * self.k

    def bound(self) -> FamilyBound:
        return bound_one_zeros(self.k)


class OnesZerosN(_Shape, _Record):
    """[1^g, 0^k, N]"""

    __slots__ = ("g", "k")

    def prefix(self) -> list[int]:
        return [1] * self.g + [0] * self.k

    def bound(self) -> FamilyBound:
        if self.g == 1:
            # A single leading one is the sparse family in disguise.
            return bound_one_zeros(self.k)
        return bound_ones_zeros(self.g, self.k)


class TwoOnesZerosN(_Shape, _Record):
    """[1, 1, 0^k, N]"""

    __slots__ = ("k",)
    g = 2  # leading ones, as in OnesZerosN

    def prefix(self) -> list[int]:
        return [1, 1] + [0] * self.k

    def bound(self) -> FamilyBound:
        return bound_two_ones_zeros(self.k)


class OneZerosOnesN(_Shape, _Record):
    """[1, 0^(L-m-2), 1^m, N] with L coefficients, L >= 2m+2 and L-m >= 3"""

    __slots__ = ("L", "m")

    def prefix(self) -> list[int]:
        _check_one_zeros_ones(self.L, self.m)
        return [1] + [0] * (self.L - self.m - 2) + [1] * self.m

    def bound(self) -> FamilyBound:
        return bound_one_zeros_ones(self.L, self.m)


FamilyShape = OneZerosN | OnesZerosN | TwoOnesZerosN | OneZerosOnesN

#: Family name -> shape class; the shape's ``__slots__`` are its parameters,
#: in the order its constructor takes them.
FAMILIES = {
    RULE_ONE_ZEROS: OneZerosN,
    RULE_ONES_ZEROS: OnesZerosN,
    RULE_TWO_ONES_ZEROS: TwoOnesZerosN,
    RULE_ONE_ZEROS_ONES: OneZerosOnesN,
}


def max_last(prefix: Sequence[int], horizon: int | None = None) -> int | None:
    """Largest N for which the gap engine judges ``prefix + [N]`` complete.

    Lowering the last coefficient keeps a complete sequence complete, so
    with N* the first incomplete N the answer is N* - 1: 0 when N = 1 is
    already incomplete, and None exactly when the engine leaves N* - 1
    unknown.  Raises HorizonTooSmall when ``horizon`` < 2L-1, as the
    engine does.

    One ``brown._first_incomplete`` call finds N* and the N the engine
    leaves unknown.  It reads the gaps B_1..B_{2L-1} (B_2 at L = 1) for
    every N at once and runs the engine only on the N that neither the
    strict window proves complete nor a failing gap proves incomplete.
    B_{2L} is left out for L >= 2: it could fail first only at a
    counterexample to the 2L-1 conjecture, and a run at horizon 2L-1 does
    not read it.
    """
    L = len(prefix) + 1
    brown.engine_horizon(L, horizon)  # HorizonTooSmall, as from the engine
    c = validate([*prefix, 1])  # raises as the vector would; H_1..H_L are free of c_L
    first, _, unknown = brown._first_incomplete(c.values[:-1], [*generate_terms(c, L).terms],
                                                math.inf, horizon)
    return None if any(u.values[-1] == first - 1 for u in unknown) else first - 1


def classify_family(shape: FamilyShape, n: int) -> brown.Verdict:
    """Classify a family member by its closed-form bound.

    Complete iff n <= max_n; the conjectural flag is inherited from the
    rule that produced the bound.
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    b = shape.bound()
    c = shape.coefficients(n)
    kind = brown.COMPLETE if n <= b.max_n else brown.INCOMPLETE
    return brown.Verdict(c, kind, brown.family_rule(b.rule_id), not b.proven, 0)
