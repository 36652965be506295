"""Brute-force ground truth for completeness via subset-sum reachability.

The reachable sums of a prefix (H_1, ..., H_n) are computed exactly with a
bit-vector dynamic program: bit s of the mask is set iff some subset of the
prefix sums to s.  Two facts make this a usable oracle:

* if some positive integer m is unreachable from the prefix and m is
  smaller than the next term H_{n+1}, then m is unreachable forever (all
  later terms exceed it), so the full sequence is incomplete.  This
  incompleteness test never looks at gap arithmetic.
* completeness of an infinite sequence cannot be decided by any finite
  subset-sum computation alone, so the complete path additionally requires
  a sound window certificate from the gap engine, with the subset-sum scan
  confirming next-term coverage at every step along the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import brown
from .core import Coefficients, TermSequence, generate_terms

#: Cap on the bit-vector length (bits), i.e. on 1 + sum of prefix terms.
DEFAULT_BUDGET_BITS = 1 << 28


class BudgetExceeded(RuntimeError):
    """The reachable-sum bit-vector would exceed the memory budget."""


def reachable_sums(t: TermSequence, budget_bits: int = DEFAULT_BUDGET_BITS) -> int:
    """Exact set of subset sums of the prefix, encoded as a bit mask.

    Bit s of the result is set iff some subset of the prefix terms sums
    to s; bit 0 (the empty subset) is always set.  The mask spans
    [0, sum(terms)].
    """
    if len(t) < 1:
        raise ValueError("need a nonempty prefix")
    total = sum(t.terms)
    if total + 1 > budget_bits:
        raise BudgetExceeded(f"need {total + 1} bits, budget is {budget_bits}")
    mask = 1
    for h in t.terms:
        mask |= mask << h
    return mask


def _next_missing(mask: int, low: int) -> int:
    # Least s >= low whose bit is unset; the lowest zero bit of x = mask >> low
    # is the highest set bit of x ^ (x + 1).  Only bits from `low` up are copied.
    x = mask >> low
    return low + (x ^ (x + 1)).bit_length() - 1


@dataclass(frozen=True)
class RepresentabilityReport:
    """What subset sums of one prefix say about the whole sequence.

    ``smallest_missing`` is the least positive integer not reachable from
    the prefix (None if [1, reachable_bound] is covered).  When that value
    is below the next term it can never be reached later either, and it is
    recorded as ``permanently_missing``: a witness that the full infinite
    sequence is incomplete.
    """

    prefix_length: int
    reachable_bound: int
    smallest_missing: Optional[int]
    permanently_missing: Optional[int]


def prefix_report(
    c: Coefficients, prefix_length: int, budget_bits: int = DEFAULT_BUDGET_BITS
) -> RepresentabilityReport:
    """Representability report for the first ``prefix_length`` terms."""
    if prefix_length < 1:
        raise ValueError("prefix_length must be >= 1")
    t = generate_terms(c, prefix_length + 1)
    prefix = TermSequence(c, t.terms[:prefix_length])
    total = sum(prefix.terms)
    mask = reachable_sums(prefix, budget_bits)
    # All of [1, total] reachable still leaves total+1 missing; it is
    # permanent whenever it is below the next term.
    effective = _next_missing(mask, 1)
    missing = effective if effective <= total else None
    permanent = effective if effective < t.term(prefix_length + 1) else None
    return RepresentabilityReport(prefix_length, total, missing, permanent)


def smallest_unrepresentable(
    c: Coefficients, prefix_length: int, budget_bits: int = DEFAULT_BUDGET_BITS
) -> Optional[int]:
    """Least positive integer that is not a subset sum of the prefix.

    Returns None when every integer in [1, sum of prefix] is reachable.
    """
    report = prefix_report(c, prefix_length, budget_bits)
    return report.smallest_missing


def oracle_verdict(
    c: Coefficients, max_prefix: int, budget_bits: int = DEFAULT_BUDGET_BITS
) -> brown.Verdict:
    """Ground-truth verdict by subset-sum scan, up to ``max_prefix`` terms.

    Incomplete verdicts carry the permanently missing integer as witness
    and are independent of gap arithmetic.  Complete verdicts require the
    subset-sum scan to confirm next-term coverage at every step *and* a
    sound window certificate from the gap engine; anything else is unknown.
    """
    L = c.L
    if max_prefix < 2 * L - 1:
        raise brown.HorizonTooSmall(f"max_prefix {max_prefix} < 2L-1 = {2 * L - 1}")
    t = generate_terms(c, max_prefix + 1)
    mask = 1
    total = 0
    low = 1  # least unreached sum; the reachable set only grows, so low never falls
    for n in range(1, max_prefix + 1):
        h = t.term(n)
        if total + h + 1 > budget_bits:
            raise BudgetExceeded(
                f"prefix {n} needs {total + h + 1} bits, budget is {budget_bits}"
            )
        mask |= mask << h
        total += h
        # No bit above `total` is set, so low <= total + 1: the least missing
        # integer, or total + 1 when [1, total] is covered.
        low = _next_missing(mask, low)
        if low < t.term(n + 1):
            return brown.Verdict(
                c,
                brown.INCOMPLETE,
                brown.failure(n, witness=low),
                False,
                n,
            )
    # Coverage held at every step; a sound certificate settles the tail.
    engine = brown.check_completeness(c, horizon=max_prefix, assume_2l1=False)
    if engine.kind == brown.INCOMPLETE:
        # Coverage up to max_prefix and a gap failure within it cannot
        # coexist; reaching this line would be a bug in one of the two.
        raise RuntimeError(f"oracle/engine contradiction on {c}: {engine}")
    if engine.kind == brown.COMPLETE and engine.certificate.kind in (
        "strict_window",
        "doubling_window",
    ):
        return engine
    return brown.Verdict(
        c, brown.UNKNOWN, brown.horizon_exhausted(max_prefix), False, max_prefix
    )
