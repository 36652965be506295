"""Brown's-criterion gap traces and completeness verdicts.

A nondecreasing positive sequence with first term 1 is complete (every
positive integer is a sum of distinct terms) iff H_{n+1} <= 1 + sum of the
first n terms for every n.  The slack of that inequality is the gap

    B_n = 1 + H_1 + ... + H_{n-1} - H_n,

so completeness is exactly "B_n >= 0 for all n".  The engine here decides
completeness on a finite horizon using two sound certificates:

* strict window: B_n >= 0 for n < L and B_n > 0 for L <= n <= 2L-1 force
  B_n > 0 forever.
* doubling window: the margins D_n = 2*H_n - H_{n+1} satisfy the recurrence
  D_n = c_1*D_{n-1} + ... + c_L*D_{n-L} once n >= L+1, so a full window of
  L consecutive non-negative margins located past index L propagates
  forever, making B nondecreasing from there on.

Gap arithmetic is exact integer arithmetic throughout; no floating point
enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .core import Coefficients, TermSequence, generate_terms

COMPLETE = "complete"
INCOMPLETE = "incomplete"
UNKNOWN = "unknown"

#: Horizon of an engine run that names none, raised to 4L for long vectors.
DEFAULT_MAX_HORIZON = 1024

#: Conjectural rule id for the opt-in "non-negative through 2L-1" shortcut.
RULE_2L1 = "2l-1"


class HorizonTooSmall(ValueError):
    """The requested horizon cannot even cover the 2L-1 window."""


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence attached to a verdict.

    kind is one of ``strict_window``, ``doubling_window``, ``family``,
    ``root``, ``failure``, ``horizon``.  ``index`` is the window end, the
    failure position, or the exhausted horizon.  ``rule`` names a family
    rule or a root-triage path.  ``witness`` carries the failing gap value
    (failure found by gap arithmetic) or the permanently missing integer
    (failure found by subset sums).
    """

    kind: str
    index: Optional[int] = None
    rule: Optional[str] = None
    witness: Optional[int] = None

    def tag(self) -> str:
        if self.kind == "family":
            return f"family:{self.rule}"
        if self.kind == "root":
            return f"root:{self.rule}"
        return self.kind


def strict_window(m: int) -> Certificate:
    return Certificate("strict_window", index=m)


def doubling_window(m: int) -> Certificate:
    return Certificate("doubling_window", index=m)


def family_rule(rule_id: str) -> Certificate:
    return Certificate("family", rule=rule_id)


def root_triage(path: str) -> Certificate:
    return Certificate("root", rule=path)


def failure(index: int, witness: Optional[int] = None) -> Certificate:
    return Certificate("failure", index=index, witness=witness)


def horizon_exhausted(m: int) -> Certificate:
    return Certificate("horizon", index=m)


@dataclass(frozen=True)
class Verdict:
    """Completeness verdict for one coefficient vector.

    ``conjectural`` is True whenever the verdict rests on an unproven
    conjecture rather than a sound certificate.
    """

    coefficients: Coefficients
    kind: str
    certificate: Certificate
    conjectural: bool
    horizon_used: int
    note: Optional[str] = None

    def to_json_dict(self) -> dict:
        """Serialize to the documented wire format."""
        out = {
            "coefficients": list(self.coefficients.values),
            "kind": self.kind,
            "certificate": self.certificate.tag(),
            "index": self.certificate.index,
            "conjectural": self.conjectural,
            "horizon_used": self.horizon_used,
        }
        if self.certificate.witness is not None:
            out["witness"] = self.certificate.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class GapTrace:
    """Brown's gaps B_1..B_m and doubling margins D_1..D_{m-1} of a prefix.

    The exact identity B_{n+1} - B_n = D_n holds for every n.
    """

    gaps: tuple[int, ...]
    margins: tuple[int, ...]

    def gap(self, n: int) -> int:
        return self.gaps[n - 1]

    def margin(self, n: int) -> int:
        return self.margins[n - 1]


def gap_trace(t: TermSequence) -> GapTrace:
    """Exact gap and margin trace of a term prefix."""
    if len(t) < 1:
        raise ValueError("need at least one term")
    gaps = []
    running = 0  # sum of H_1..H_{n-1}
    for h in t.terms:
        gaps.append(1 + running - h)
        running += h
    margins = [2 * a - b for a, b in zip(t.terms, t.terms[1:])]
    return GapTrace(tuple(gaps), tuple(margins))


def doubling_holds(t: TermSequence) -> bool:
    """True iff H_n <= 2*H_{n-1} across the prefix.

    Diagnostic only: on a finite prefix this is neither necessary nor, by
    itself, sufficient evidence of completeness.
    """
    if len(t) < 2:
        raise ValueError("need at least two terms")
    return all(b <= 2 * a for a, b in zip(t.terms, t.terms[1:]))


def first_failure_index(c: Coefficients, horizon: int) -> Optional[int]:
    """Smallest n <= horizon with B_n < 0, or None if there is no failure."""
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    t = generate_terms(c, min(2 * c.L + 1, horizon))
    running = n = 0
    while True:
        for h in t.terms[n:]:
            n += 1
            if 1 + running - h < 0:
                return n
            running += h
        if n == horizon:
            return None
        t = t.extended(min(2 * n, horizon))  # read on: double the prefix


def window_survivors(ranges: Sequence[range], window: int) -> Iterator[Coefficients]:
    """The vectors c of the box ``core.vectors(ranges)`` with
    ``first_failure_index(c, window) is None``, in the same lexicographic order.

    The box is walked depth-first by prefix.  For k < L, H_{k+1} depends on
    c_1..c_k alone, so the terms and their running sum are shared by every
    vector below a prefix.  The gap a coordinate fixes (B_{k+1} at depth k,
    B_{L+1} at the leaf) falls strictly as that coordinate grows, since c_k
    multiplies H_1 = 1 and nothing else in the gap depends on it.  So the
    first value whose gap is negative at an index <= ``window`` ends the
    level: its subtree and every later sibling fail too.  That needs every
    range ascending.  A leaf reads on to the window from the terms it holds,
    and only a vector that is yielded becomes a ``Coefficients``; as in
    ``core.vectors``, the first and last ranges must exclude 0.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    if any(r.step < 0 for r in ranges):
        raise ValueError("ranges must be ascending")
    L = len(ranges)
    prefix: list[int] = []  # c_1..c_{k-1}
    terms = [1]  # H_1..H_k, the terms the prefix fixes

    def walk(k: int, running: int) -> Iterator[Coefficients]:
        # Chooses c_k; `running` is H_1 + ... + H_k.
        # H_{k+1} = base + c_k*H_1, with the +1 correction while k < L.
        base = (k < L) + sum(ci * terms[k - i] for i, ci in enumerate(prefix, start=1))
        for ck in ranges[k - 1]:
            h = base + ck
            if k + 1 <= window and h > 1 + running:  # B_{k+1} < 0
                return
            prefix.append(ck)
            terms.append(h)
            if k < L:
                yield from walk(k + 1, running + h)
            elif _passes_through(prefix, terms, running + h, window):
                yield Coefficients(tuple(prefix))
            prefix.pop()
            del terms[k:]  # a leaf may have read on past H_{k+1}

    yield from walk(1, 1)


def _passes_through(values: list[int], terms: list[int], running: int, window: int) -> bool:
    # Extends `terms` (H_1..H_n, with n >= L and `running` their sum) term by
    # term, and is False at the first B_m < 0 with m <= window.
    taps = [(ci, -i) for i, ci in enumerate(values, start=1) if ci]
    for _ in range(len(terms), window):
        h = sum(ci * terms[j] for ci, j in taps)
        if h > 1 + running:
            return False
        terms.append(h)
        running += h
    return True


def check_completeness(
    c: Coefficients, horizon: Optional[int] = None, assume_2l1: bool = False
) -> Verdict:
    """Decide completeness of the PLRS defined by ``c`` on a finite horizon.

    Outcomes, in priority order:

    1. some B_n < 0 with n <= horizon: incomplete, with the first failing
       index (sound: Brown's criterion is necessary).
    2. strict window holds: complete, non-conjectural.
    3. a doubling window [m-L, m-1] of non-negative margins starting past
       index L exists with B_n >= 0 through m: complete, non-conjectural.
    4. ``assume_2l1`` and B_n >= 0 for all n <= 2L-1: complete, flagged
       conjectural (the 2L-1 shortcut is an open conjecture).
    5. otherwise unknown; the horizon is reported.

    The gaps are read in one pass, and the prefix is built only as far as
    it is read, so an early verdict costs only the terms before it.  When
    ``horizon`` is None it is max(DEFAULT_MAX_HORIZON, 4L): past L = 256
    it grows with L, so it always covers the strict window (index 2L-1)
    and leaves room for a doubling window (index 2L+1 or later).
    """
    L = c.L
    h = max(DEFAULT_MAX_HORIZON, 4 * L) if horizon is None else horizon
    if h < 2 * L - 1:
        raise HorizonTooSmall(f"horizon {h} < 2L-1 = {2 * L - 1}")

    t = generate_terms(c, min(2 * L + 1, h + 1))
    terms = t.terms  # H_n is terms[n - 1]
    running = 0  # sum of H_1..H_{n-1}
    strict_ok = True  # B_n > 0 for L <= n <= 2L-1, so far
    nonneg_margin_run = 0  # consecutive D_j >= 0 ending at the latest margin
    ok_through_2l1 = False

    for n in range(1, h + 1):
        if n >= len(terms):  # D_n needs H_{n+1}: double the prefix, up to h+1
            t = t.extended(min(2 * n, h + 1))
            terms = t.terms
        h_n = terms[n - 1]
        gap = 1 + running - h_n
        running += h_n
        if gap < 0:
            return Verdict(c, INCOMPLETE, failure(n, witness=gap), False, n)
        if L <= n <= 2 * L - 1 and gap == 0:
            strict_ok = False
        if n == 2 * L - 1:
            ok_through_2l1 = True  # no failure so far
            if strict_ok and L >= 2:  # the strict-window theorem needs L >= 2
                return Verdict(c, COMPLETE, strict_window(n), False, n)
        # Margin D_n = B_{n+1} - B_n, available from the extra term.
        margin = 2 * h_n - terms[n]
        if margin >= 0:
            nonneg_margin_run += 1
        else:
            nonneg_margin_run = 0
        # Window [m-L, m-1] with m = n+1 needs L margins and m-L >= L+1,
        # plus B_m >= 0, checked at the top of the next iteration.
        m = n + 1
        if nonneg_margin_run >= L and m - L >= L + 1 and m <= h:
            b_m = 1 + running - terms[m - 1]
            if b_m >= 0:
                return Verdict(c, COMPLETE, doubling_window(m), False, m)

    if assume_2l1 and ok_through_2l1:
        return Verdict(c, COMPLETE, family_rule(RULE_2L1), True, h)
    return Verdict(c, UNKNOWN, horizon_exhausted(h), False, h)


def recheck(verdict: Verdict) -> bool:
    """Re-validate a certificate from scratch.

    Recomputes terms and gaps independently of the engine run that produced
    the verdict and confirms the certificate's claim.  Root certificates are
    re-checked by exact rational evaluation of the characteristic
    polynomials (``CharPoly.eval``), not by the integer sign test that
    produced them.  Family certificates must name a rule whose shape the
    coefficients have, agree with that rule's re-derived bound, and not be
    contradicted by a definite gap-engine verdict.  An unrecognised
    certificate kind fails.
    """
    c = verdict.coefficients
    cert = verdict.certificate
    L = c.L
    if cert.kind == "failure":
        if cert.witness is not None and cert.witness > 0:
            # Subset-sum witness: a positive integer missing from the
            # prefix of `index` terms and below the next term.  No subset
            # reaches past the prefix sum S_n, so only a witness w <= S_n,
            # which only a hand-made certificate carries, needs the bitset.
            from .oracle import reachable_sums  # local: oracle imports brown

            t = generate_terms(c, cert.index + 1)
            prefix = TermSequence(c, t.terms[: cert.index])
            if cert.witness >= t.term(cert.index + 1):
                return False
            if cert.witness > sum(prefix.terms):
                return True
            return not (reachable_sums(prefix) >> cert.witness) & 1
        n = cert.index
        trace = gap_trace(generate_terms(c, n))
        if trace.gap(n) >= 0:
            return False
        if any(g < 0 for g in trace.gaps[: n - 1]):
            return False  # not the first failure
        return cert.witness is None or trace.gap(n) == cert.witness
    if cert.kind == "strict_window":
        m = cert.index
        if m != 2 * L - 1:
            return False
        trace = gap_trace(generate_terms(c, m))
        head = all(trace.gap(i) >= 0 for i in range(1, L))
        window = all(trace.gap(i) > 0 for i in range(L, m + 1))
        return head and window
    if cert.kind == "doubling_window":
        m = cert.index
        if m - L < L + 1:
            return False
        trace = gap_trace(generate_terms(c, m + 1))
        gaps_ok = all(trace.gap(i) >= 0 for i in range(1, m + 1))
        margins_ok = all(trace.margin(j) >= 0 for j in range(m - L, m))
        return gaps_ok and margins_ok
    if cert.kind == "family" and cert.rule == RULE_2L1:
        trace = gap_trace(generate_terms(c, 2 * L - 1))
        return all(g >= 0 for g in trace.gaps)
    if cert.kind == "family":
        return _recheck_family(verdict)
    if cert.kind == "root":
        return _recheck_root(verdict)
    if cert.kind == "horizon":
        return verdict.kind == UNKNOWN
    return False


def _recheck_family(verdict: Verdict) -> bool:
    from . import families  # local: families imports brown

    c, n = verdict.coefficients, verdict.coefficients.values[-1]
    ones = c.values[:-1].count(1)
    shape = {  # the member of the named family that c could be
        families.RULE_ONE_ZEROS: families.OneZerosN(c.L - 2),
        families.RULE_ONES_ZEROS: families.OnesZerosN(ones, c.L - 1 - ones),
        families.RULE_TWO_ONES_ZEROS: families.TwoOnesZerosN(c.L - 3),
        families.RULE_ONE_ZEROS_ONES: families.OneZerosOnesN(c.L, ones - 1),
    }.get(verdict.certificate.rule)
    if shape is None:
        return False
    try:
        if shape.coefficients(n) != c:
            return False
        bound = shape.bound()
    except ValueError:  # not a family member, or outside the rule's range
        return False
    kind = COMPLETE if n <= bound.max_n else INCOMPLETE
    if (bound.rule_id, kind, not bound.proven) != (
        verdict.certificate.rule, verdict.kind, verdict.conjectural
    ):
        return False
    return check_completeness(c).kind in (UNKNOWN, kind)


def _recheck_root(verdict: Verdict) -> bool:
    from . import analytic  # local: analytic imports brown

    c = verdict.coefficients
    p = analytic.CharPoly(c)
    rule = verdict.certificate.rule
    if rule == analytic.TRIAGE_FAST:
        # p(2) < 0: the principal root exceeds 2.
        return verdict.kind == INCOMPLETE and p.eval(Fraction(2)) < 0
    if rule == analytic.TRIAGE_SLOW:
        if c.L < 2:
            return False
        lam = analytic.lambda_threshold(c.L).root
        # p_lambda(lo) <= 0 puts lo at or below lambda_L (equal only when
        # lambda_L is an integer, as at L = 3); p(lo) > 0 puts the root
        # below lo.
        below = lam.poly.eval(lam.lo) <= 0 < p.eval(lam.lo)
        return verdict.kind == COMPLETE and verdict.conjectural and below
    if rule == analytic.TRIAGE_INDETERMINATE:
        return verdict.kind == UNKNOWN
    return False
