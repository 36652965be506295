"""Brown's-criterion gaps and completeness verdicts.

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

from .core import Coefficients, TermSequence, _next_terms, generate_terms, validate

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


def window_survivors(
    ranges: Sequence[range], window: int
) -> Iterator[tuple[Coefficients, bool]]:
    """The vectors c of the box ``core.vectors(ranges)`` whose gaps B_n are
    non-negative for every n <= ``window``, in the same lexicographic order,
    each with a flag ``proven``.

    ``proven`` is True when the gaps the walk has read already prove c
    complete by the strict window: L >= 2, ``window`` reaches 2L-1, and
    B_n > 0 for L <= n <= 2L-1.  That is exactly when ``check_completeness``
    returns ``strict_window`` at 2L-1, so such a survivor needs no engine
    run.  Below a window of 2L-1 no survivor is proven.

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
    strict_window_read = L >= 2 and window >= 2 * L - 1
    prefix: list[int] = []  # c_1..c_{k-1}
    terms = [1]  # H_1..H_k, the terms the prefix fixes

    def walk(k: int, running: int) -> Iterator[tuple[Coefficients, bool]]:
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
            else:
                # B_L = 1 + running - 2*H_L and B_{L+1} = 1 + running - h.
                strict = strict_window_read and 2 * terms[L - 1] <= running and h <= running
                proven = _passes_through(prefix, terms, running + h, window, strict)
                if proven is not None:
                    yield Coefficients(tuple(prefix)), proven
            prefix.pop()
            del terms[k:]  # a leaf may have read on past H_{k+1}

    yield from walk(1, 1)


def _passes_through(
    values: list[int], terms: list[int], running: int, window: int, strict: bool
) -> Optional[bool]:
    # Extends `terms` (H_1..H_{L+1}, with `running` their sum) term by term,
    # and is None at the first B_m < 0 with m <= window.  Otherwise it is
    # `strict` (B_L, B_{L+1} > 0) and B_m > 0 for every m <= 2L-1 it read.
    last = 2 * len(values) - 1
    for m, h in zip(range(len(terms) + 1, window + 1), _next_terms(values, terms)):
        if h > running:  # B_m <= 0
            if h > 1 + running:
                return None
            if m <= last:
                strict = False
        running += h
    return strict


def last_coefficient_window(prefix: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Brown's gaps B_1..B_{2L} of ``prefix + [N]`` as exact lines in N.

    Returns the pairs (a_n, s_n), n = 1..2L, with B_n = a_n + s_n*N for
    every N >= 1.  N = c_L first enters at H_{L+1} = ... + N*H_1, and a term
    H_{n+1} with n < 2L multiplies N only by H_{n+1-L}, which is free of N;
    so H_1..H_{2L} are affine in N, and N^2 first appears in H_{2L+1}.  One
    pass builds H_n = p_n + q_n*N.  For n < L, q_{n+1} = 0 and p_{n+1} =
    1 + c_1*p_n + ... + c_n*p_1; past it p_{n+1} = sum c_i*p_{n+1-i} and
    q_{n+1} = sum c_i*q_{n+1-i} + p_{n+1-L}, over i < L.  Two running sums
    give a_n and s_n.  s_n = 0 for n <= L, s_{L+1} = -1, and later slopes
    may have either sign.
    """
    values = validate([*prefix, 1]).values[:-1]  # raises as the vector would
    L = len(values) + 1
    taps = [(ci, i) for i, ci in enumerate(values, start=1) if ci]
    p: list[int] = []
    q = [0] * L
    lines = []
    sum_p = sum_q = 0  # of p_1..p_n and q_1..q_n
    for n in range(2 * L):  # H_{n+1}
        if n < L:
            p_n, q_n = 1, 0
            for ci, i in taps:
                if i > n:
                    break
                p_n += ci * p[n - i]
        else:
            p_n, q_n = 0, p[n - L]
            for ci, i in taps:
                p_n += ci * p[n - i]
                q_n += ci * q[n - i]
            q.append(q_n)
        p.append(p_n)
        lines.append((1 + sum_p - p_n, sum_q - q_n))
        sum_p += p_n
        sum_q += q_n
    return tuple(lines)


def engine_horizon(L: int, horizon: Optional[int] = None) -> int:
    """The horizon of an engine run on a length-L vector.

    ``horizon`` itself, or max(DEFAULT_MAX_HORIZON, 4L) when it is None:
    past L = 256 that grows with L, so it always covers the strict window
    (index 2L-1) and leaves room for a doubling window (index 2L+1 or
    later).  Raises HorizonTooSmall below 2L-1.
    """
    h = max(DEFAULT_MAX_HORIZON, 4 * L) if horizon is None else horizon
    if h < 2 * L - 1:
        raise HorizonTooSmall(f"horizon {h} < 2L-1 = {2 * L - 1}")
    return h


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

    Each term is grown as the gap scan reaches it, in the same pass: H_n
    only once B_{n-1} has been read, so an early verdict costs only the
    terms before it, and H_{h+1} is never built.  The horizon h is
    ``engine_horizon(L, horizon)``.
    """
    L = c.L
    h = engine_horizon(L, horizon)
    running = 0  # sum of H_1..H_{n-1}
    strict_ok = True  # B_n > 0 for L <= n <= 2L-1, so far
    nonneg_margin_run = 0  # consecutive D_j >= 0 ending at D_{n-1}
    ok_through_2l1 = False
    h_prev = 0  # H_{n-1}; 0 before H_1 makes "D_0" negative, an empty run

    for n, h_n in zip(range(1, h + 1), _next_terms(c.values, [])):
        gap = 1 + running - h_n
        # Margin D_{n-1} = 2*H_{n-1} - H_n.  A window [n-L, n-1] of L
        # non-negative margins with n-L >= L+1, plus B_n >= 0, is a
        # doubling window at n.
        if h_n <= 2 * h_prev:
            nonneg_margin_run += 1
            if nonneg_margin_run >= L and n >= 2 * L + 1 and gap >= 0:
                return Verdict(c, COMPLETE, doubling_window(n), False, n)
        else:
            nonneg_margin_run = 0
        if gap < 0:
            return Verdict(c, INCOMPLETE, failure(n, witness=gap), False, n)
        running += h_n
        h_prev = h_n
        if L <= n <= 2 * L - 1 and gap == 0:
            strict_ok = False
        if n == 2 * L - 1:
            ok_through_2l1 = True  # no failure so far
            if strict_ok and L >= 2:  # the strict-window theorem needs L >= 2
                return Verdict(c, COMPLETE, strict_window(n), False, n)

    if assume_2l1 and ok_through_2l1:
        return Verdict(c, COMPLETE, family_rule(RULE_2L1), True, h)
    return Verdict(c, UNKNOWN, horizon_exhausted(h), False, h)


#: The verdict kind and ``conjectural`` flag each certificate tag implies;
#: a family rule's own bound decides them in ``_recheck_family``.
_IMPLIED = {
    "failure": (INCOMPLETE, False),
    "strict_window": (COMPLETE, False),
    "doubling_window": (COMPLETE, False),
    f"family:{RULE_2L1}": (COMPLETE, True),
    "horizon": (UNKNOWN, False),
    "root:p2_negative": (INCOMPLETE, False),
    "root:below_lambda": (COMPLETE, True),
    "root:indeterminate": (UNKNOWN, False),
}


def recheck(verdict: Verdict) -> bool:
    """Re-validate a certificate from scratch.

    The verdict's kind and ``conjectural`` flag must be the ones its
    certificate implies.  Gap certificates are re-read from terms grown by
    ``core.generate_terms``, the reference term loop, which shares no code
    with the engine's kernel.  Root certificates are re-checked by exact
    rational evaluation of the characteristic polynomials
    (``CharPoly.eval``), not by the integer sign test that produced them.
    Family certificates must name a rule whose shape the coefficients have,
    agree with that rule's re-derived bound, and not be contradicted by a
    definite gap-engine verdict.  An unrecognised certificate kind fails,
    and so does a subset-sum witness whose bitset would exceed the oracle's
    bit budget: a certificate that cannot be re-checked is not verified.
    """
    c = verdict.coefficients
    cert = verdict.certificate
    L, m = c.L, cert.index
    implied = _IMPLIED.get(cert.tag())
    if implied is not None and implied != (verdict.kind, verdict.conjectural):
        return False
    if cert.kind == "horizon":
        return True
    if cert.kind == "root":
        return _recheck_root(verdict)
    if cert.kind == "family" and cert.rule == RULE_2L1:
        return min(_gaps(generate_terms(c, 2 * L - 1).terms)) >= 0
    if cert.kind == "family":
        return _recheck_family(verdict)
    if cert.kind == "strict_window":
        gaps = _gaps(generate_terms(c, 2 * L - 1).terms)
        return m == 2 * L - 1 and min(gaps[: L - 1], default=0) >= 0 and min(gaps[L - 1 :]) > 0
    if m is None or m < 1:
        return False
    if cert.kind == "failure" and cert.witness is not None and cert.witness > 0:
        # Subset-sum witness: a positive integer missing from the prefix of
        # m terms and below H_{m+1}, so missing for good.  No subset reaches
        # past S_m, and while B_1..B_m >= 0 the prefix reaches all of
        # [0, S_m]; only a hand-made witness past a failure needs the bitset.
        w, terms = cert.witness, generate_terms(c, m + 1).terms
        prefix = terms[:m]
        if w >= terms[m]:
            return False
        if w > sum(prefix):
            return True
        if min(_gaps(prefix)) >= 0:
            return False
        from .oracle import BudgetExceeded, reachable_sums  # local: oracle imports brown

        try:
            return not (reachable_sums(TermSequence(c, prefix)) >> w) & 1
        except BudgetExceeded:
            return False
    if cert.kind == "failure":  # the first negative gap, and its value
        gaps = _gaps(generate_terms(c, m).terms)
        return min(gaps[:-1], default=0) >= 0 > gaps[-1] and cert.witness in (None, gaps[-1])
    if cert.kind == "doubling_window" and m - L >= L + 1:
        # Margins D_j = B_{j+1} - B_j >= 0 for m-L <= j < m, and B_1..B_m >= 0.
        gaps = _gaps(generate_terms(c, m).terms)
        window = gaps[m - L - 1 :]
        return min(gaps) >= 0 and all(a <= b for a, b in zip(window, window[1:]))
    return False


def _gaps(terms: Sequence[int]) -> list[int]:
    # Brown's gaps B_n = 1 + H_1 + ... + H_{n-1} - H_n of a term prefix.
    gaps, running = [], 0
    for h in terms:
        gaps.append(1 + running - h)
        running += h
    return gaps


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
        return p.eval(Fraction(2)) < 0
    if rule == analytic.TRIAGE_SLOW:
        if c.L < 2:
            return False
        lam = analytic.lambda_threshold(c.L).root
        # p_lambda(lo) <= 0 puts lo at or below lambda_L (equal only when
        # lambda_L is an integer, as at L = 3); p(lo) > 0 puts the root
        # below lo.
        return lam.poly.eval(lam.lo) <= 0 < p.eval(lam.lo)
    return rule == analytic.TRIAGE_INDETERMINATE
