"""Subset-sum reachability: the bitset that names incompleteness witnesses.

The reachable sums of a prefix (H_1, ..., H_n) are computed exactly with a
bit-vector dynamic program: bit s of the mask is set iff some subset of the
prefix sums to s.  If some positive integer m is unreachable from the
prefix and m is smaller than the next term H_{n+1}, then m is unreachable
forever (all later terms exceed it), so the full sequence is incomplete.
``brown.recheck`` verifies a witness only above the prefix sum, from raw terms.

The bitset decides nothing the gap engine does not, and names no witness
that it could not.  Terms never decrease, so before the first failure
B_n < 0 the subset sums of a prefix are exactly [0, S_n]; the first
permanently missing value appears at prefix n - 1, and it is S_{n-1} + 1.
``oracle_verdict`` therefore runs the engine once and builds no mask.
"""

from __future__ import annotations

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


def oracle_verdict(c: Coefficients, max_prefix: int) -> brown.Verdict:
    """Verdict on the first ``max_prefix`` terms, with a subset-sum witness.

    One gap-engine run reads B_1..B_{max_prefix + 1}.  A ``strict_window``
    or ``doubling_window`` certificate within ``max_prefix`` is returned
    as it is.  A first failure B_n < 0 with n <= max_prefix + 1 gives an
    incomplete verdict at prefix n - 1 whose witness, the permanently
    missing integer, is S_{n-1} + 1: the subset sums of that prefix are
    exactly [0, S_{n-1}], and B_n < 0 puts S_{n-1} + 1 below H_n.
    Anything else is unknown at ``max_prefix``.
    """
    L = c.L
    if max_prefix < 2 * L - 1:
        raise brown.HorizonTooSmall(f"max_prefix {max_prefix} < 2L-1 = {2 * L - 1}")
    # One gap past the prefix: a failure at max_prefix + 1 has its witness
    # within the prefix, and a certificate there does not count.
    engine = brown.check_completeness(c, horizon=max_prefix + 1)
    if engine.kind == brown.INCOMPLETE:
        n = engine.certificate.index - 1
        witness = 1 + sum(generate_terms(c, n).terms)
        return brown.Verdict(c, brown.INCOMPLETE, brown.failure(n, witness=witness), False, n)
    if engine.kind == brown.COMPLETE and engine.certificate.index <= max_prefix:
        return engine
    return brown.Verdict(
        c, brown.UNKNOWN, brown.horizon_exhausted(max_prefix), False, max_prefix
    )
